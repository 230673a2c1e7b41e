module Block_device = Rgpdos_block.Block_device
module Journal_ring = Rgpdos_block.Journal_ring
module Codec = Rgpdos_util.Codec
module Clock = Rgpdos_util.Clock
module Fnv = Rgpdos_util.Fnv
module Stats = Rgpdos_util.Stats
module Space = Rgpdos_dbfs.Space

open Rgpdos_util.Codec

type error =
  | Not_found of string
  | Already_exists of string
  | Not_a_directory of string
  | Is_a_directory of string
  | Directory_not_empty of string
  | No_space
  | Invalid_path of string

let pp_error fmt = function
  | Not_found p -> Format.fprintf fmt "not found: %s" p
  | Already_exists p -> Format.fprintf fmt "already exists: %s" p
  | Not_a_directory p -> Format.fprintf fmt "not a directory: %s" p
  | Is_a_directory p -> Format.fprintf fmt "is a directory: %s" p
  | Directory_not_empty p -> Format.fprintf fmt "directory not empty: %s" p
  | No_space -> Format.fprintf fmt "no space left on device"
  | Invalid_path p -> Format.fprintf fmt "invalid path: %s" p

let error_to_string e = Format.asprintf "%a" pp_error e

type stat = { inode : int; is_dir : bool; size : int; mtime : Clock.ns }

type inode = {
  mutable is_dir : bool;
  mutable size : int;
  mutable blocks : int list; (* data blocks, in file order *)
  mutable entries : (string * int) list; (* directory entries *)
  mutable mtime : Clock.ns;
}

(* Journal operations.  Each op carries every parameter needed to replay it
   deterministically, including the block numbers chosen at execution time.
   Crucially for experiment E3, Op_write embeds the FULL FILE DATA: this is
   data journaling (ext3 data=journal), the mode the paper's introduction
   identifies as a right-to-be-forgotten hazard. *)
type op =
  | Op_mkdir of { parent : int; name : string; ino : int }
  | Op_create of { parent : int; name : string; ino : int }
  | Op_write of { ino : int; data : string; blocks : int list }
  | Op_delete of { parent : int; name : string; ino : int; secure : bool }
  | Op_rename of {
      src_parent : int;
      src_name : string;
      dst_parent : int;
      dst_name : string;
    }

type t = {
  dev : Block_device.t;
  ring : Journal_ring.t;
  journal_blocks : int;
  meta_start : int;
  meta_blocks : int;
  data_start : int;
  inodes : (int, inode) Hashtbl.t;
  free : bool array; (* true = data block free; indexed from data_start *)
  mutable next_inode : int;
  mutable replay : Journal_ring.replay_summary option;
      (* mount-time journal replay summary; None on a freshly formatted fs *)
  mutable replay_warning : string option;
      (* decode error of the first corrupt (framed-but-unparseable) op *)
}

let root_ino = 0
let superblock_magic = "RGPDJFS1"
let meta_blocks_default = 64

(* ------------------------------------------------------------------ *)
(* path handling                                                      *)

let split_path path =
  if path = "" || path.[0] <> '/' then Error (Invalid_path path)
  else
    let parts = String.split_on_char '/' path in
    let parts = List.filter (fun s -> s <> "") parts in
    if List.exists (fun s -> s = "." || s = "..") parts then
      Error (Invalid_path path)
    else Ok parts

(* ------------------------------------------------------------------ *)
(* inode helpers                                                      *)

let new_dir_inode now = { is_dir = true; size = 0; blocks = []; entries = []; mtime = now }
let new_file_inode now = { is_dir = false; size = 0; blocks = []; entries = []; mtime = now }

let find_inode fs ino = Hashtbl.find_opt fs.inodes ino

let lookup_child fs parent name =
  match find_inode fs parent with
  | Some dir when dir.is_dir -> List.assoc_opt name dir.entries
  | _ -> None

(* Resolve a path to (parent_ino, name, child_ino option).  For the root
   path the result is (root, "", Some root). *)
let resolve fs path =
  match split_path path with
  | Error e -> Error e
  | Ok [] -> Ok (root_ino, "", Some root_ino)
  | Ok parts ->
      let rec walk ino = function
        | [] -> assert false
        | [ last ] -> Ok (ino, last, lookup_child fs ino last)
        | part :: rest -> (
            match lookup_child fs ino part with
            | None -> Error (Not_found path)
            | Some child -> (
                match find_inode fs child with
                | Some i when i.is_dir -> walk child rest
                | Some _ -> Error (Not_a_directory path)
                | None -> Error (Not_found path)))
      in
      (match find_inode fs root_ino with
      | Some _ -> walk root_ino parts
      | None -> Error (Not_found "/"))

(* ------------------------------------------------------------------ *)
(* block allocation                                                   *)

let block_size fs = (Block_device.config fs.dev).Block_device.block_size

let data_block_count fs =
  (Block_device.config fs.dev).Block_device.block_count - fs.data_start

(* Extent allocation through DBFS's first-fit over the whole data region:
   contiguous so vectored reads of a file merge into one run, scattered
   per-block fallback when fragmented, rollback on shortfall.  A fresh
   cursor each call keeps the placements of a scan from the start. *)
let alloc_blocks fs n =
  Space.first_fit fs.free ~hint:(ref 0) ~lo:0 ~hi:(data_block_count fs) n
  |> Option.map (List.map (fun i -> fs.data_start + i))

let free_block fs b = fs.free.(b - fs.data_start) <- true

let blocks_needed fs len =
  if len = 0 then 0 else ((len - 1) / block_size fs) + 1

(* ------------------------------------------------------------------ *)
(* op codec                                                           *)

let encode_op op =
  let w = Codec.Writer.create () in
  (match op with
  | Op_mkdir { parent; name; ino } ->
      Codec.Writer.string w "mkdir";
      Codec.Writer.int w parent;
      Codec.Writer.string w name;
      Codec.Writer.int w ino
  | Op_create { parent; name; ino } ->
      Codec.Writer.string w "create";
      Codec.Writer.int w parent;
      Codec.Writer.string w name;
      Codec.Writer.int w ino
  | Op_write { ino; data; blocks } ->
      Codec.Writer.string w "write";
      Codec.Writer.int w ino;
      Codec.Writer.string w data;
      Codec.Writer.list w (Codec.Writer.int w) blocks
  | Op_delete { parent; name; ino; secure } ->
      Codec.Writer.string w "delete";
      Codec.Writer.int w parent;
      Codec.Writer.string w name;
      Codec.Writer.int w ino;
      Codec.Writer.bool w secure
  | Op_rename { src_parent; src_name; dst_parent; dst_name } ->
      Codec.Writer.string w "rename";
      Codec.Writer.int w src_parent;
      Codec.Writer.string w src_name;
      Codec.Writer.int w dst_parent;
      Codec.Writer.string w dst_name);
  Codec.Writer.contents w

let decode_op s =
  let r = Codec.Reader.create s in
  let* tag = Codec.Reader.string r in
  match tag with
  | "mkdir" ->
      let* parent = Codec.Reader.int r in
      let* name = Codec.Reader.string r in
      let* ino = Codec.Reader.int r in
      Ok (Op_mkdir { parent; name; ino })
  | "create" ->
      let* parent = Codec.Reader.int r in
      let* name = Codec.Reader.string r in
      let* ino = Codec.Reader.int r in
      Ok (Op_create { parent; name; ino })
  | "write" ->
      let* ino = Codec.Reader.int r in
      let* data = Codec.Reader.string r in
      let* blocks = Codec.Reader.list r Codec.Reader.int in
      Ok (Op_write { ino; data; blocks })
  | "delete" ->
      let* parent = Codec.Reader.int r in
      let* name = Codec.Reader.string r in
      let* ino = Codec.Reader.int r in
      let* secure = Codec.Reader.bool r in
      Ok (Op_delete { parent; name; ino; secure })
  | "rename" ->
      let* src_parent = Codec.Reader.int r in
      let* src_name = Codec.Reader.string r in
      let* dst_parent = Codec.Reader.int r in
      let* dst_name = Codec.Reader.string r in
      Ok (Op_rename { src_parent; src_name; dst_parent; dst_name })
  | other -> Error ("unknown journal op " ^ other)

(* ------------------------------------------------------------------ *)
(* metadata checkpoint                                                *)

let encode_inode w ino inode =
  Codec.Writer.int w ino;
  Codec.Writer.bool w inode.is_dir;
  Codec.Writer.int w inode.size;
  Codec.Writer.list w (Codec.Writer.int w) inode.blocks;
  Codec.Writer.list w
    (fun (name, child) ->
      Codec.Writer.string w name;
      Codec.Writer.int w child)
    inode.entries;
  Codec.Writer.int w inode.mtime

let decode_inode r =
  let* ino = Codec.Reader.int r in
  let* is_dir = Codec.Reader.bool r in
  let* size = Codec.Reader.int r in
  let* blocks = Codec.Reader.list r Codec.Reader.int in
  let* entries =
    Codec.Reader.list r (fun r ->
        let* name = Codec.Reader.string r in
        let* child = Codec.Reader.int r in
        Ok (name, child))
  in
  let* mtime = Codec.Reader.int r in
  Ok (ino, { is_dir; size; blocks; entries; mtime })

let encode_meta fs =
  let w = Codec.Writer.create () in
  Codec.Writer.string w superblock_magic;
  Codec.Writer.int w fs.next_inode;
  Codec.Writer.int w (Journal_ring.head fs.ring);
  Codec.Writer.int w (Journal_ring.seq fs.ring);
  let inode_list = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fs.inodes [] in
  Codec.Writer.list w (fun (k, v) -> encode_inode w k v) inode_list;
  let free_bits =
    String.init (Array.length fs.free) (fun i -> if fs.free.(i) then '1' else '0')
  in
  Codec.Writer.string w free_bits;
  Codec.Writer.contents w

(* Metadata lives in a fixed region; each checkpoint rewrites it whole. *)
let write_meta fs =
  let bs = block_size fs in
  let payload = encode_meta fs in
  let framed =
    let w = Codec.Writer.create () in
    Codec.Writer.string w payload;
    Codec.Writer.contents w ^ Fnv.hash64_hex payload
  in
  if String.length framed > fs.meta_blocks * bs then
    failwith "Journalfs: metadata region overflow";
  let nblocks = ((String.length framed - 1) / bs) + 1 in
  Block_device.write_vec fs.dev
    (List.init nblocks (fun i ->
         ( fs.meta_start + i,
           String.sub framed (i * bs)
             (min bs (String.length framed - (i * bs))) )));
  ()

let read_meta dev ~meta_start ~meta_blocks =
  let got =
    Block_device.read_vec dev (List.init meta_blocks (fun i -> meta_start + i))
  in
  let buf = Buffer.create 4096 in
  List.iter (fun (_, s) -> Buffer.add_string buf s) got;
  let raw = Buffer.contents buf in
  let r = Codec.Reader.create raw in
  let* payload = Codec.Reader.string r in
  if String.length raw < 4 + String.length payload + 16 then
    Error "truncated metadata"
  else
    let stored_sum = String.sub raw (4 + String.length payload) 16 in
    if stored_sum <> Fnv.hash64_hex payload then Error "metadata checksum mismatch"
    else Ok payload

(* ------------------------------------------------------------------ *)
(* superblock                                                         *)

let encode_superblock ~journal_blocks ~meta_blocks =
  let w = Codec.Writer.create () in
  Codec.Writer.string w superblock_magic;
  Codec.Writer.int w journal_blocks;
  Codec.Writer.int w meta_blocks;
  Codec.Writer.contents w

let decode_superblock raw =
  let r = Codec.Reader.create raw in
  let* magic = Codec.Reader.string r in
  if magic <> superblock_magic then Error "bad superblock magic"
  else
    let* journal_blocks = Codec.Reader.int r in
    let* meta_blocks = Codec.Reader.int r in
    Ok (journal_blocks, meta_blocks)

(* ------------------------------------------------------------------ *)
(* applying ops                                                       *)

let write_data_blocks fs data blocks =
  let bs = block_size fs in
  match blocks with
  | [] -> ()
  | _ ->
      Block_device.write_vec fs.dev
        (List.mapi
           (fun i b ->
             ( b,
               String.sub data (i * bs)
                 (min bs (String.length data - (i * bs))) ))
           blocks)

(* Apply an op to the in-memory state and data region.  The op is assumed
   valid: validation happened before journaling. *)
let apply_op fs op =
  match op with
  | Op_mkdir { parent; name; ino } ->
      let dir = Hashtbl.find fs.inodes parent in
      dir.entries <- dir.entries @ [ (name, ino) ];
      Hashtbl.replace fs.inodes ino (new_dir_inode 0);
      if ino >= fs.next_inode then fs.next_inode <- ino + 1
  | Op_create { parent; name; ino } ->
      let dir = Hashtbl.find fs.inodes parent in
      dir.entries <- dir.entries @ [ (name, ino) ];
      Hashtbl.replace fs.inodes ino (new_file_inode 0);
      if ino >= fs.next_inode then fs.next_inode <- ino + 1
  | Op_write { ino; data; blocks } ->
      let node = Hashtbl.find fs.inodes ino in
      (* free previous blocks (no zeroing: classic FS behaviour) *)
      List.iter (fun b -> free_block fs b) node.blocks;
      List.iter (fun b -> fs.free.(b - fs.data_start) <- false) blocks;
      node.blocks <- blocks;
      node.size <- String.length data;
      write_data_blocks fs data blocks
  | Op_delete { parent; name; ino; secure } ->
      let dir = Hashtbl.find fs.inodes parent in
      dir.entries <- List.filter (fun (n, _) -> n <> name) dir.entries;
      (match Hashtbl.find_opt fs.inodes ino with
      | None -> ()
      | Some node ->
          if secure && node.blocks <> [] then
            Block_device.write_vec fs.dev
              (List.map
                 (fun b -> (b, String.make (block_size fs) '\000'))
                 node.blocks);
          List.iter (fun b -> free_block fs b) node.blocks;
          Hashtbl.remove fs.inodes ino)
  | Op_rename { src_parent; src_name; dst_parent; dst_name } ->
      let src_dir = Hashtbl.find fs.inodes src_parent in
      let ino = List.assoc src_name src_dir.entries in
      src_dir.entries <- List.filter (fun (n, _) -> n <> src_name) src_dir.entries;
      let dst_dir = Hashtbl.find fs.inodes dst_parent in
      dst_dir.entries <-
        List.filter (fun (n, _) -> n <> dst_name) dst_dir.entries @ [ (dst_name, ino) ]

(* ------------------------------------------------------------------ *)
(* checkpoint & journal append                                        *)

let checkpoint fs =
  write_meta fs;
  (* settle any async group-commit flushes at the durability point *)
  Journal_ring.barrier fs.ring;
  Journal_ring.mark_checkpointed fs.ring

let log_and_apply fs op =
  Journal_ring.append fs.ring
    ~on_overflow:(fun () -> checkpoint fs)
    (encode_op op);
  apply_op fs op

(* ------------------------------------------------------------------ *)
(* construction                                                       *)

let format dev ~journal_blocks =
  let cfg = Block_device.config dev in
  let meta_blocks = meta_blocks_default in
  let data_start = 1 + journal_blocks + meta_blocks in
  if data_start >= cfg.Block_device.block_count then
    invalid_arg "Journalfs.format: device too small";
  Block_device.write_vec dev
    [ (0, encode_superblock ~journal_blocks ~meta_blocks) ];
  let fs =
    {
      dev;
      ring =
        Journal_ring.create dev ~counters:(Stats.Counter.create ())
          ~start_block:1 ~num_blocks:journal_blocks;
      journal_blocks;
      meta_start = 1 + journal_blocks;
      meta_blocks;
      data_start;
      inodes = Hashtbl.create 64;
      free = Array.make (cfg.Block_device.block_count - data_start) true;
      next_inode = root_ino + 1;
      replay = None;
      replay_warning = None;
    }
  in
  Hashtbl.replace fs.inodes root_ino (new_dir_inode 0);
  write_meta fs;
  fs

let mount dev =
  match decode_superblock (snd (List.hd (Block_device.read_vec dev [ 0 ]))) with
  | Error e -> Error e
  | Ok (journal_blocks, meta_blocks) -> (
      let meta_start = 1 + journal_blocks in
      match read_meta dev ~meta_start ~meta_blocks with
      | Error e -> Error e
      | Ok payload -> (
          let r = Codec.Reader.create payload in
          let parse =
            let* magic = Codec.Reader.string r in
            if magic <> superblock_magic then Error "bad metadata magic"
            else
              let* next_inode = Codec.Reader.int r in
              let* jhead = Codec.Reader.int r in
              let* jseq = Codec.Reader.int r in
              let* inode_list = Codec.Reader.list r decode_inode in
              let* free_bits = Codec.Reader.string r in
              Ok (next_inode, jhead, jseq, inode_list, free_bits)
          in
          match parse with
          | Error e -> Error e
          | Ok (next_inode, jhead, jseq, inode_list, free_bits) ->
              let data_start = 1 + journal_blocks + meta_blocks in
              let fs =
                {
                  dev;
                  ring =
                    Journal_ring.attach dev ~counters:(Stats.Counter.create ())
                      ~start_block:1 ~num_blocks:journal_blocks ~head:jhead
                      ~seq:jseq;
                  journal_blocks;
                  meta_start;
                  meta_blocks;
                  data_start;
                  inodes = Hashtbl.create 64;
                  free =
                    Array.init (String.length free_bits) (fun i ->
                        free_bits.[i] = '1');
                  next_inode;
                  replay = None;
                  replay_warning = None;
                }
              in
              List.iter (fun (k, v) -> Hashtbl.replace fs.inodes k v) inode_list;
              (* exn-free replay: a framed-but-undecodable op stops further
                 application and is reported, it does not fail the mount *)
              let summary =
                Journal_ring.replay fs.ring (fun payload ->
                    if fs.replay_warning = None then
                      match decode_op payload with
                      | Ok op -> apply_op fs op
                      | Error e ->
                          fs.replay_warning <-
                            Some ("Journalfs: corrupt journal op: " ^ e))
              in
              fs.replay <- Some summary;
              Ok fs))

let device fs = fs.dev

let replay_report fs = fs.replay

let replay_warning fs = fs.replay_warning

(* ------------------------------------------------------------------ *)
(* public namespace operations                                        *)

let mkdir fs path =
  match resolve fs path with
  | Error e -> Error e
  | Ok (_, _, Some _) -> Error (Already_exists path)
  | Ok (parent, name, None) ->
      if name = "" then Error (Invalid_path path)
      else begin
        let ino = fs.next_inode in
        fs.next_inode <- ino + 1;
        log_and_apply fs (Op_mkdir { parent; name; ino });
        Ok ()
      end

let create fs path =
  match resolve fs path with
  | Error e -> Error e
  | Ok (_, _, Some _) -> Error (Already_exists path)
  | Ok (parent, name, None) ->
      if name = "" then Error (Invalid_path path)
      else begin
        let ino = fs.next_inode in
        fs.next_inode <- ino + 1;
        log_and_apply fs (Op_create { parent; name; ino });
        Ok ()
      end

let write_to_inode fs ino data =
  let n = blocks_needed fs (String.length data) in
  match alloc_blocks fs n with
  | None -> Error No_space
  | Some blocks ->
      (* alloc_blocks already marked them used; apply_op re-marks (idempotent)
         and frees the old ones. *)
      log_and_apply fs (Op_write { ino; data; blocks });
      Ok ()

(* Op_write carries the whole file, so a file whose op does not fit the
   ring can never be logged: refuse it before creating or allocating
   anything, rather than raise from the ring half-way through. *)
let write_fits fs data =
  let blocks = List.init (blocks_needed fs (String.length data)) Fun.id in
  String.length (encode_op (Op_write { ino = 0; data = ""; blocks }))
  + String.length data
  <= Journal_ring.max_payload fs.ring

let write_file fs path data =
  if not (write_fits fs data) then Error No_space
  else
    match resolve fs path with
    | Error e -> Error e
    | Ok (parent, name, None) ->
        if name = "" then Error (Invalid_path path)
        else begin
          let ino = fs.next_inode in
          fs.next_inode <- ino + 1;
          log_and_apply fs (Op_create { parent; name; ino });
          write_to_inode fs ino data
        end
    | Ok (_, _, Some ino) -> (
        match find_inode fs ino with
        | Some node when node.is_dir -> Error (Is_a_directory path)
        | Some _ -> write_to_inode fs ino data
        | None -> Error (Not_found path))

let read_file fs path =
  match resolve fs path with
  | Error e -> Error e
  | Ok (_, _, None) -> Error (Not_found path)
  | Ok (_, _, Some ino) -> (
      match find_inode fs ino with
      | None -> Error (Not_found path)
      | Some node when node.is_dir -> Error (Is_a_directory path)
      | Some node ->
          (* one vectored request for the whole file *)
          let got = Block_device.read_vec fs.dev node.blocks in
          let buf = Buffer.create node.size in
          List.iter
            (fun b -> Buffer.add_string buf (List.assoc b got))
            node.blocks;
          Ok (Buffer.sub buf 0 node.size))

let append_file fs path data =
  match read_file fs path with
  | Ok existing -> write_file fs path (existing ^ data)
  | Error (Not_found _) -> write_file fs path data
  | Error e -> Error e

let delete ?(secure = false) fs path =
  match resolve fs path with
  | Error e -> Error e
  | Ok (_, _, None) -> Error (Not_found path)
  | Ok (_, "", Some _) -> Error (Invalid_path path) (* refuse to delete root *)
  | Ok (parent, name, Some ino) -> (
      match find_inode fs ino with
      | None -> Error (Not_found path)
      | Some node when node.is_dir && node.entries <> [] ->
          Error (Directory_not_empty path)
      | Some _ ->
          log_and_apply fs (Op_delete { parent; name; ino; secure });
          Ok ())

(* is [ino] inside the subtree rooted at [root]? (guards rename cycles) *)
let rec in_subtree fs ~root ino =
  ino = root
  ||
  match find_inode fs root with
  | Some node when node.is_dir ->
      List.exists (fun (_, child) -> in_subtree fs ~root:child ino) node.entries
  | _ -> false

let rename fs src dst =
  match resolve fs src with
  | Error e -> Error e
  | Ok (_, _, None) -> Error (Not_found src)
  | Ok (_, "", Some _) -> Error (Invalid_path src)
  | Ok (src_parent, src_name, Some src_ino) -> (
      match resolve fs dst with
      | Error e -> Error e
      | Ok (_, "", _) -> Error (Invalid_path dst)
      | Ok (dst_parent, dst_name, existing) -> (
          match existing with
          | Some _ -> Error (Already_exists dst)
          | None ->
              if in_subtree fs ~root:src_ino dst_parent then
                (* moving a directory into its own subtree would orphan it *)
                Error (Invalid_path dst)
              else begin
                log_and_apply fs
                  (Op_rename { src_parent; src_name; dst_parent; dst_name });
                Ok ()
              end))

let list_dir fs path =
  match resolve fs path with
  | Error e -> Error e
  | Ok (_, _, None) -> Error (Not_found path)
  | Ok (_, _, Some ino) -> (
      match find_inode fs ino with
      | Some node when node.is_dir -> Ok (List.map fst node.entries)
      | Some _ -> Error (Not_a_directory path)
      | None -> Error (Not_found path))

let stat fs path =
  match resolve fs path with
  | Error e -> Error e
  | Ok (_, _, None) -> Error (Not_found path)
  | Ok (_, _, Some ino) -> (
      match find_inode fs ino with
      | None -> Error (Not_found path)
      | Some node ->
          Ok { inode = ino; is_dir = node.is_dir; size = node.size; mtime = node.mtime })

let exists fs path =
  match resolve fs path with Ok (_, _, Some _) -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* durability & introspection                                         *)

let scrub_journal fs = Journal_ring.scrub fs.ring

let crash_and_remount fs = mount fs.dev

let journal_stats fs =
  let records, bytes = Journal_ring.live fs.ring in
  let blocks = if bytes = 0 then 0 else ((bytes - 1) / block_size fs) + 1 in
  (records, blocks)

let fsck fs =
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  (* every directory entry points to a live inode *)
  Hashtbl.iter
    (fun ino node ->
      if node.is_dir then
        List.iter
          (fun (name, child) ->
            if not (Hashtbl.mem fs.inodes child) then
              note "dangling entry %s in inode %d -> %d" name ino child)
          node.entries)
    fs.inodes;
  (* block ownership: unique, allocated, within data region *)
  let owners = Hashtbl.create 64 in
  Hashtbl.iter
    (fun ino node ->
      List.iter
        (fun b ->
          if b < fs.data_start then note "inode %d owns non-data block %d" ino b
          else begin
            if fs.free.(b - fs.data_start) then
              note "inode %d owns free block %d" ino b;
            match Hashtbl.find_opt owners b with
            | Some other -> note "block %d owned by inodes %d and %d" b other ino
            | None -> Hashtbl.replace owners b ino
          end)
        node.blocks)
    fs.inodes;
  (* sizes consistent with block counts *)
  Hashtbl.iter
    (fun ino node ->
      if not node.is_dir then begin
        let needed = blocks_needed fs node.size in
        if List.length node.blocks <> needed then
          note "inode %d size %d expects %d blocks, has %d" ino node.size needed
            (List.length node.blocks)
      end)
    fs.inodes;
  match !problems with [] -> Ok () | ps -> Error (List.rev ps)
