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
  (* Group commit: framed records are buffered in [pending] (newest
     first) and written in one vectored flush once [window] of them are
     pending.  [jhead] only ever points at durable bytes; a crash loses
     the pending tail, which replay rolls back to the durable prefix. *)
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

(* One block through the vectored path: one seek, as every ring read
   is charged. *)
let read_block ring blk = snd (List.hd (Block_device.read_vec ring.dev [ blk ]))

(* Walk [len] ring bytes from absolute offset [abs] one block piece at a
   time: [f blk off_in_blk pos chunk]. *)
let iter_chunks ring abs len f =
  let bs = block_size ring in
  let cap = capacity ring in
  let pos = ref 0 in
  while !pos < len do
    let ring_off = (abs + !pos) mod cap in
    let off_in_blk = ring_off mod bs in
    let chunk = min (bs - off_in_blk) (len - !pos) in
    f (ring.start_block + (ring_off / bs)) off_in_blk !pos chunk;
    pos := !pos + chunk
  done

let ring_read ring abs len =
  let buf = Buffer.create len in
  iter_chunks ring abs len (fun blk off _ chunk ->
      Buffer.add_string buf (String.sub (read_block ring blk) off chunk));
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
   only partly covered by the new bytes (the head and tail blocks) are
   read-modify-written; fully covered blocks are built in place.  A flush
   that raises changes nothing: the frames stay pending at the same
   head. *)
let flush ring =
  match ring.pending with
  | [] -> ()
  | frames_rev ->
      let data = String.concat "" (List.rev frames_rev) in
      let len = String.length data in
      let bs = block_size ring in
      (* newest first; a block recurs only when the batch laps the ring
         back into its own head block *)
      let images = ref [] in
      iter_chunks ring ring.jhead len (fun blk off pos chunk ->
          let img =
            match List.assoc_opt blk !images with
            | Some b -> b
            | None ->
                let b =
                  if chunk = bs then Bytes.create bs
                  else Bytes.of_string (read_block ring blk)
                in
                images := (blk, b) :: !images;
                b
          in
          Bytes.blit_string data pos img off chunk);
      (* The flush is a submission: the framed bytes are on the medium
         when submit returns (replay/crash semantics unchanged), only the
         clock settlement waits for [barrier]. *)
      ring.inflight <-
        Block_device.submit_write_vec ring.dev ~channel:flush_channel
          (List.rev_map (fun (blk, b) -> (blk, Bytes.unsafe_to_string b)) !images)
        :: ring.inflight;
      let nrec = List.length frames_rev in
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

(* Frame the record into the pending batch; a full batch commits through
   [flush], and at window 1 (a batch of one) is settled before returning.
   A flush that raises takes the record back out, so the caller's retry
   frames it once, under the same sequence number. *)
let append ring ~on_overflow payload =
  let framed = frame_record ring.jseq payload in
  let len = String.length framed in
  if len > capacity ring then failwith "Journal_ring: record larger than ring";
  if ring.jhead + ring.pending_bytes + len - ring.jtail > capacity ring then begin
    on_overflow ();
    if ring.jhead + ring.pending_bytes + len - ring.jtail > capacity ring then
      failwith "Journal_ring: overflow handler did not checkpoint"
  end;
  let pending = ring.pending and pending_bytes = ring.pending_bytes in
  ring.pending <- framed :: pending;
  ring.pending_bytes <- pending_bytes + len;
  ring.jseq <- ring.jseq + 1;
  if List.length ring.pending >= ring.window then
    match flush ring with
    | () -> if ring.window = 1 then barrier ring
    | exception e ->
        ring.pending <- pending;
        ring.pending_bytes <- pending_bytes;
        ring.jseq <- ring.jseq - 1;
        raise e

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
  let zeros = String.make bs '\000' in
  Block_device.write_vec ring.dev
    (List.filter_map
       (fun i ->
         if is_live_block i then None else Some (ring.start_block + i, zeros))
       (List.init ring.num_blocks Fun.id))
