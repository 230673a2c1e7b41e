module Codec = Rgpdos_util.Codec
module Stats = Rgpdos_util.Stats

type t = {
  dev : Block_device.t;
  start_block : int;
  num_blocks : int;
  mutable jhead : int; (* absolute byte offset of next durable record *)
  mutable jtail : int; (* absolute offset of oldest un-checkpointed record *)
  mutable jseq : int; (* next sequence number to assign (includes pending) *)
  mutable live_records : int;
  (* Group commit: with [window > 1], framed records are buffered in
     [pending] (newest first) and written in one vectored flush once the
     window fills.  [jhead] only ever points at durable bytes; a crash
     loses the pending tail, which replay rolls back to the durable
     prefix. *)
  mutable window : int;
  mutable pending : string list;
  mutable pending_bytes : int;
  counters : Stats.Counter.t;
      (* "committed_batches" (vectored flushes issued) and "batched_ops"
         (records that went through them), in the owner's counter set *)
  mutable inflight : Block_device.ticket list;
      (* flush submissions not yet settled.  The bytes are durable
         at submission; only their clock charge is outstanding, settled
         by [barrier] at the caller's durability points. *)
}

(* Channel the ring's flushes queue on: negative so it can never
   collide with the consumer-facing channels (DED shards use 0..n). *)
let flush_channel = -1

let record_magic = "JR"

let block_size ring = (Block_device.config ring.dev).Block_device.block_size

let capacity ring = ring.num_blocks * block_size ring

let create dev ~counters ~start_block ~num_blocks =
  if num_blocks <= 0 then invalid_arg "Journal_ring.create: empty ring";
  {
    dev;
    start_block;
    num_blocks;
    jhead = 0;
    jtail = 0;
    jseq = 0;
    live_records = 0;
    window = 1;
    pending = [];
    pending_bytes = 0;
    counters;
    inflight = [];
  }

let attach dev ~counters ~start_block ~num_blocks ~head ~seq =
  {
    dev;
    start_block;
    num_blocks;
    jhead = head;
    jtail = head;
    jseq = seq;
    live_records = 0;
    window = 1;
    pending = [];
    pending_bytes = 0;
    counters;
    inflight = [];
  }

let set_window ring w = ring.window <- max 1 w

let checksum = Rgpdos_util.Fnv.hash64_hex

let frame_record seq payload =
  let w = Codec.Writer.create () in
  Codec.Writer.int w seq;
  Codec.Writer.string w payload;
  let body = Codec.Writer.contents w in
  record_magic ^ body ^ checksum body

let ring_write ring abs bytes =
  let bs = block_size ring in
  let cap = capacity ring in
  let len = String.length bytes in
  let pos = ref 0 in
  while !pos < len do
    let ring_off = (abs + !pos) mod cap in
    let blk = ring.start_block + (ring_off / bs) in
    let off_in_blk = ring_off mod bs in
    let chunk = min (bs - off_in_blk) (len - !pos) in
    let current = Bytes.of_string (Block_device.read ring.dev blk) in
    Bytes.blit_string bytes !pos current off_in_blk chunk;
    Block_device.write ring.dev blk (Bytes.to_string current);
    pos := !pos + chunk
  done

let ring_read ring abs len =
  let bs = block_size ring in
  let cap = capacity ring in
  let buf = Buffer.create len in
  let pos = ref 0 in
  while !pos < len do
    let ring_off = (abs + !pos) mod cap in
    let blk = ring.start_block + (ring_off / bs) in
    let off_in_blk = ring_off mod bs in
    let chunk = min (bs - off_in_blk) (len - !pos) in
    Buffer.add_string buf
      (String.sub (Block_device.read ring.dev blk) off_in_blk chunk);
    pos := !pos + chunk
  done;
  Buffer.contents buf

(* A checkpoint makes every logged op durable through the trees, so any
   still-pending (buffered, unwritten) records are simply dropped: the
   root slot records the durable [jhead] and the post-pending [jseq], and
   stale bytes from a previous lap replay as Clean because their seq is
   below the attach seq. *)
let mark_checkpointed ring =
  ring.jtail <- ring.jhead;
  ring.live_records <- 0;
  ring.pending <- [];
  ring.pending_bytes <- 0

(* Write all pending frames at [jhead] in one vectored device op.  Blocks
   only partially covered by the new bytes (the head block, the tail
   block, and wrap boundaries) are read-modify-written; fully covered
   blocks are built in place. *)
let flush ring =
  match ring.pending with
  | [] -> ()
  | frames_rev ->
      let nrec = List.length frames_rev in
      let data = String.concat "" (List.rev frames_rev) in
      let bs = block_size ring in
      let cap = capacity ring in
      let len = String.length data in
      let tbl = Hashtbl.create 16 in
      let order = ref [] in
      let pos = ref 0 in
      while !pos < len do
        let ring_off = (ring.jhead + !pos) mod cap in
        let blk = ring.start_block + (ring_off / bs) in
        let off_in_blk = ring_off mod bs in
        let chunk = min (bs - off_in_blk) (len - !pos) in
        let buf =
          match Hashtbl.find_opt tbl blk with
          | Some b -> b
          | None ->
              let b =
                if off_in_blk = 0 && chunk = bs then Bytes.create bs
                else Bytes.of_string (Block_device.read ring.dev blk)
              in
              Hashtbl.add tbl blk b;
              order := blk :: !order;
              b
        in
        Bytes.blit_string data !pos buf off_in_blk chunk;
        pos := !pos + chunk
      done;
      let writes =
        List.rev_map (fun blk -> (blk, Bytes.to_string (Hashtbl.find tbl blk))) !order
      in
      (* The flush is a submission: the framed bytes are on the medium
         when submit returns (replay/crash semantics unchanged), only the
         clock settlement waits for [barrier]. *)
      ring.inflight <-
        Block_device.submit_write_vec ring.dev ~channel:flush_channel writes
        :: ring.inflight;
      ring.jhead <- ring.jhead + len;
      ring.live_records <- ring.live_records + nrec;
      Stats.Counter.incr ring.counters "committed_batches";
      Stats.Counter.incr ring.counters ~by:nrec "batched_ops";
      ring.pending <- [];
      ring.pending_bytes <- 0

(* Settle every flush submission: the ring's durability barrier.  A
   no-op when nothing is in flight. *)
let barrier ring =
  (match ring.inflight with
  | [] -> ()
  | tks ->
      List.iter (fun tk -> ignore (Block_device.await ring.dev tk)) (List.rev tks));
  ring.inflight <- []

(* magic, seq, payload length prefix, checksum *)
let max_payload ring =
  capacity ring - String.length (frame_record 0 "")

let append ring ~on_overflow payload =
  let framed = frame_record ring.jseq payload in
  let len = String.length framed in
  if len > capacity ring then failwith "Journal_ring: record larger than ring";
  if ring.jhead + ring.pending_bytes + len - ring.jtail > capacity ring then begin
    on_overflow ();
    if ring.jhead + ring.pending_bytes + len - ring.jtail > capacity ring then
      failwith "Journal_ring: overflow handler did not checkpoint"
  end;
  if ring.window <= 1 then begin
    ring_write ring ring.jhead framed;
    ring.jhead <- ring.jhead + len;
    ring.jseq <- ring.jseq + 1;
    ring.live_records <- ring.live_records + 1
  end
  else begin
    ring.pending <- framed :: ring.pending;
    ring.pending_bytes <- ring.pending_bytes + len;
    ring.jseq <- ring.jseq + 1;
    if List.length ring.pending >= ring.window then flush ring
  end

type stop_reason = Clean | Torn_frame | Seq_gap | Bad_checksum

let stop_reason_to_string = function
  | Clean -> "clean"
  | Torn_frame -> "torn_frame"
  | Seq_gap -> "seq_gap"
  | Bad_checksum -> "bad_checksum"

type replay_summary = { records_replayed : int; stop_reason : stop_reason }

let replay ring f =
  let mlen = String.length record_magic in
  let replayed = ref 0 in
  let stop = ref None in
  let finish reason = stop := Some reason in
  while !stop = None do
    let header = ring_read ring ring.jhead (mlen + 8 + 4) in
    if String.sub header 0 mlen <> record_magic then
      (* never-written tail reads as zeros: that is the clean end of the
         journal; any other garbage under the magic is a torn frame *)
      finish
        (if String.for_all (fun c -> c = '\000') (String.sub header 0 mlen)
         then Clean
         else Torn_frame)
    else begin
      let r = Codec.Reader.create (String.sub header mlen (8 + 4)) in
      match Codec.Reader.int r with
      | Error _ -> finish Torn_frame
      | Ok seq when seq < ring.jseq ->
          (* well-formed record from a previous lap: stale, clean end *)
          finish Clean
      | Ok seq when seq > ring.jseq -> finish Seq_gap
      | Ok seq ->
          let lenfield = String.sub header (mlen + 8) 4 in
          let plen = ref 0 in
          String.iter (fun c -> plen := (!plen lsl 8) lor Char.code c) lenfield;
          if !plen < 0 || !plen > capacity ring then finish Torn_frame
          else begin
            let total = mlen + 8 + 4 + !plen + 16 in
            let frame = ring_read ring ring.jhead total in
            let body = String.sub frame mlen (8 + 4 + !plen) in
            let sum = String.sub frame (mlen + 8 + 4 + !plen) 16 in
            if sum <> checksum body then finish Bad_checksum
            else begin
              let payload = String.sub frame (mlen + 8 + 4) !plen in
              f payload;
              ring.jhead <- ring.jhead + total;
              ring.jseq <- seq + 1;
              ring.live_records <- ring.live_records + 1;
              incr replayed
            end
          end
    end
  done;
  {
    records_replayed = !replayed;
    stop_reason = (match !stop with Some r -> r | None -> Clean);
  }

let head ring = ring.jhead

let seq ring = ring.jseq

let live ring =
  let bytes = ring.jhead - ring.jtail in
  (ring.live_records, bytes)

let scrub ring =
  let bs = block_size ring in
  let cap = capacity ring in
  let live_start = ring.jtail mod cap in
  let live_len = ring.jhead - ring.jtail in
  let is_live_block blk_idx =
    if live_len = 0 then false
    else if live_len >= cap then true
    else
      let blk_lo = blk_idx * bs and blk_hi = ((blk_idx + 1) * bs) - 1 in
      let live_end = (live_start + live_len - 1) mod cap in
      if live_start <= live_end then
        not (blk_hi < live_start || blk_lo > live_end)
      else blk_hi >= live_start || blk_lo <= live_end
  in
  for i = 0 to ring.num_blocks - 1 do
    if not (is_live_block i) then
      Block_device.write ring.dev (ring.start_block + i) (String.make bs '\000')
  done
