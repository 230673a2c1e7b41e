(* On-device paged B+-trees, bulk-loaded at checkpoint and read one node at
   a time afterwards.

   A tree is a set of immutable pages in the DBFS metadata heap.  Leaves
   hold sorted (key, value) runs; interior nodes hold (first_key, child)
   separators.  Pages are written once by [write_tree] (bottom-up bulk
   load from a sorted stream) and never updated in place: mutations go to
   the in-memory overlay in [Index] / the DBFS entry overlay, and the next
   checkpoint rewrites the tree into the other metadata heap half.

   Every page is framed like the other on-device structures: a u32 payload
   length, the payload, and a 16-hex-char FNV checksum.  A page normally
   occupies one device block; a single oversized entry gets a multi-block
   ("fat") page.  All device access goes through an [io] record provided
   by DBFS, which layers the shared LRU page cache and warm==cold read
   charging underneath.  Point lookups descend in batches: one
   [read_pages] request per tree level, whatever the number of keys. *)

module Codec = Rgpdos_util.Codec
module Fnv = Rgpdos_util.Fnv

type io = {
  page_size : int;  (** device block size *)
  read_pages : (int * int) list -> string list;
      (** [read_pages [(first, nblocks); ...]] returns each page's
          concatenated raw bytes, in order, fetched in one vectored
          request (cached + charged by DBFS) *)
  prefetch_page : int -> int -> unit;
      (** [prefetch_page first nblocks] hints that the page will be read
          shortly: DBFS submits its device read so the service overlaps
          the decode of the page being scanned now; best-effort, never
          raises *)
  write_blocks : (int * string) list -> unit;
  alloc : int -> int;
      (** [alloc nblocks] reserves a contiguous run in the metadata heap and
          returns its first block *)
}

type root = { r_block : int; r_nblocks : int }

let empty_root = { r_block = -1; r_nblocks = 0 }
let is_empty r = r.r_block < 0

exception Corrupt_page of int

(* ------------------------------------------------------------------ *)
(* page encoding                                                      *)

let leaf_tag = "PL"
let interior_tag = "PI"

type node = Leaf of (string * string) list | Interior of (string * root) list

let frame payload =
  let w = Codec.Writer.create () in
  Codec.Writer.string w payload;
  Codec.Writer.contents w ^ Fnv.hash64_hex payload

(* frame (4 + 16) + tag (4 + 2) + entry count (4) *)
let page_overhead = 30
let leaf_entry_cost k v = 8 + String.length k + String.length v
let interior_entry_cost k = 20 + String.length k

let encode_node node =
  let w = Codec.Writer.create () in
  (match node with
  | Leaf kvs ->
      Codec.Writer.string w leaf_tag;
      Codec.Writer.list w
        (fun (k, v) ->
          Codec.Writer.string w k;
          Codec.Writer.string w v)
        kvs
  | Interior children ->
      Codec.Writer.string w interior_tag;
      Codec.Writer.list w
        (fun (k, child) ->
          Codec.Writer.string w k;
          Codec.Writer.int w (child.r_block + 1);
          Codec.Writer.int w child.r_nblocks)
        children);
  Codec.Writer.contents w

let decode_node ~block raw =
  let corrupt () = raise (Corrupt_page block) in
  let ( let* ) r f = match r with Ok v -> f v | Error _ -> corrupt () in
  let r = Codec.Reader.create raw in
  let* payload = Codec.Reader.string r in
  let sumpos = 4 + String.length payload in
  if String.length raw < sumpos + 16 then corrupt ();
  if String.sub raw sumpos 16 <> Fnv.hash64_hex payload then corrupt ();
  let r = Codec.Reader.create payload in
  let* tag = Codec.Reader.string r in
  if tag = leaf_tag then
    let* kvs =
      Codec.Reader.list r (fun r ->
          let ( let* ) = Result.bind in
          let* k = Codec.Reader.string r in
          let* v = Codec.Reader.string r in
          Ok (k, v))
    in
    Leaf kvs
  else if tag = interior_tag then
    let* children =
      Codec.Reader.list r (fun r ->
          let ( let* ) = Result.bind in
          let* k = Codec.Reader.string r in
          let* b = Codec.Reader.int r in
          let* n = Codec.Reader.int r in
          Ok (k, { r_block = b - 1; r_nblocks = n }))
    in
    Interior children
  else corrupt ()

(* ------------------------------------------------------------------ *)
(* bulk load                                                          *)

let write_page io raw =
  let bs = io.page_size in
  let len = String.length raw in
  let n = max 1 ((len + bs - 1) / bs) in
  let first = io.alloc n in
  let writes =
    List.init n (fun i ->
        let off = i * bs in
        (first + i, String.sub raw off (min bs (len - off))))
  in
  io.write_blocks writes;
  { r_block = first; r_nblocks = n }

(* Greedy fill: close a page when the next entry would overflow one block.
   A single entry larger than a block gets its own fat page. *)
let pack io ~cost ~node_of ~key_of items =
  let usable = io.page_size - page_overhead in
  let flush acc group =
    match group with
    | [] -> acc
    | _ ->
        let group = List.rev group in
        let root = write_page io (frame (encode_node (node_of group))) in
        (key_of (List.hd group), root) :: acc
  in
  let rec go acc group size = function
    | [] -> List.rev (flush acc group)
    | item :: rest ->
        let c = cost item in
        if group <> [] && size + c > usable then
          go (flush acc group) [ item ] c rest
        else go acc (item :: group) (size + c) rest
  in
  go [] [] 0 items

let rec build_interior io children =
  match children with
  | [] -> empty_root
  | [ (_, r) ] -> r
  | _ ->
      build_interior io
        (pack io
           ~cost:(fun (k, _) -> interior_entry_cost k)
           ~node_of:(fun g -> Interior g)
           ~key_of:fst children)

let write_tree io items =
  build_interior io
    (pack io
       ~cost:(fun (k, v) -> leaf_entry_cost k v)
       ~node_of:(fun g -> Leaf g)
       ~key_of:fst items)

(* ------------------------------------------------------------------ *)
(* reads                                                              *)

(* Distinct pages, one request. *)
let load_all io rs =
  List.map2
    (fun r raw -> decode_node ~block:r.r_block raw)
    rs
    (io.read_pages (List.map (fun r -> (r.r_block, r.r_nblocks)) rs))

let load io r = List.hd (load_all io [ r ])

(* Route sorted, distinct [keys] to the children of an interior node:
   child i covers [key_i, key_{i+1}), and a key below the first separator
   is in no child.  One merge pass over keys and separators. *)
let route children keys =
  let rec below k2 acc = function
    | k :: rest when k < k2 -> below k2 (k :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go acc keys = function
    | [] -> List.rev acc
    | (_, c) :: rest ->
        let mine, keys =
          match rest with [] -> (keys, []) | (k2, _) :: _ -> below k2 [] keys
        in
        go (if mine = [] then acc else (c, mine) :: acc) keys rest
  in
  match children with
  | [] -> []
  | (k0, _) :: _ -> go [] (List.filter (fun k -> k >= k0) keys) children

(* The keys descend together, level by level: each level's frontier is
   the distinct nodes some key routes through, in key order (a node has
   one parent, so no two keys' paths name it twice), read in one
   [load_all].  A single key is a batch of one: O(height) page reads. *)
let lookup io root keys =
  let found = Hashtbl.create 16 in
  let rec descend = function
    | [] -> ()
    | frontier ->
        let nodes = load_all io (List.map fst frontier) in
        descend
          (List.concat
             (List.map2
                (fun (_, ks) node ->
                  match node with
                  | Leaf kvs ->
                      List.iter
                        (fun k ->
                          Option.iter (Hashtbl.replace found k)
                            (List.assoc_opt k kvs))
                        ks;
                      []
                  | Interior children -> route children ks)
                frontier nodes))
  in
  if keys <> [] && not (is_empty root) then
    descend [ (root, List.sort_uniq String.compare keys) ];
  List.map (Hashtbl.find_opt found) keys

exception Stopped

let iter_from ?on_corrupt io root ~lo f =
  if is_empty root then ()
  else
    let load_guarded r k =
      match load io r with
      | node -> k node
      | exception Corrupt_page b -> (
          match on_corrupt with
          | Some g -> g b (* skip the unreadable subtree *)
          | None -> raise (Corrupt_page b))
    in
    let rec go r =
      load_guarded r (function
        | Leaf kvs ->
            List.iter
              (fun (k, v) -> if k >= lo && not (f k v) then raise Stopped)
              kvs
        | Interior children ->
            (* child i covers [key_i, key_{i+1}): prune when key_{i+1} <= lo.
               Once a child is visited every later sibling is visited too
               (separator keys ascend), so prefetching the next sibling
               before descending is consumed unless the scan stops early
               inside this subtree — the lookahead overlaps the sibling's
               device read with this subtree's descent and decode. *)
            let rec walk = function
              | [] -> ()
              | [ (_, c) ] -> go c
              | (_, c) :: ((k2, c2) :: _ as rest) ->
                  if k2 > lo then begin
                    io.prefetch_page c2.r_block c2.r_nblocks;
                    go c
                  end;
                  walk rest
            in
            walk children)
    in
    try go root with Stopped -> ()

let iter_prefix ?on_corrupt io root ~prefix f =
  iter_from ?on_corrupt io root ~lo:prefix (fun k v ->
      if String.starts_with ~prefix k then (
        f k v;
        true)
      else false)

let node_blocks ?on_corrupt io root =
  if is_empty root then []
  else
    let acc = ref [] in
    let rec go r =
      acc := (r.r_block, r.r_nblocks) :: !acc;
      match load io r with
      | Leaf _ -> ()
      | Interior children -> List.iter (fun (_, c) -> go c) children
      | exception Corrupt_page b -> (
          match on_corrupt with
          | Some g -> g b
          | None -> raise (Corrupt_page b))
    in
    go root;
    List.rev !acc

(* ------------------------------------------------------------------ *)
(* root (de)serialization, for the DBFS root slot                     *)

let encode_root w r =
  Codec.Writer.int w (r.r_block + 1);
  Codec.Writer.int w r.r_nblocks

let decode_root rd =
  let ( let* ) = Result.bind in
  let* b = Codec.Reader.int rd in
  let* n = Codec.Reader.int rd in
  Ok { r_block = b - 1; r_nblocks = n }
