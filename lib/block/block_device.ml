module Clock = Rgpdos_util.Clock
module Stats = Rgpdos_util.Stats
module Prng = Rgpdos_util.Prng

type config = {
  block_size : int;
  block_count : int;
  read_latency : Clock.ns;
  write_latency : Clock.ns;
  byte_latency : Clock.ns;
  vectored : bool;
  queue_depth : int;
}

let default_config =
  {
    block_size = 4096;
    block_count = 16_384;
    read_latency = 10_000 (* 10us *);
    write_latency = 20_000 (* 20us *);
    byte_latency = 2 (* ~0.5 GB/s *);
    vectored = true;
    queue_depth = 1;
  }

(* ---------- fault plan ----------

   A fault plan is a deterministic schedule keyed on the device's write-op
   ordinal (each write request, blocking or queued, counts as one op,
   numbered from 1 as of plan installation).  Campaign harnesses install a
   plan, run a scripted workload, and every write becomes an enumerable
   fault/crash point; the same seed and workload replay the exact same
   schedule. *)

module Fault_plan = struct
  type action =
    | Fail_write of { transient : bool }
        (** the op charges the device but persists nothing and raises
            [Faulted]; [transient = false] additionally marks the first
            target block permanently bad *)
    | Torn_write of { keep_runs : int }
        (** a write persists only its first [keep_runs] contiguous runs
            before raising [Faulted] *)
    | Bit_flip of { block : int; byte : int; bit : int }
        (** the op succeeds normally, then one bit of the named block is
            silently flipped (medium bit rot) *)

  type t = {
    mutable entries : (int * action) list;  (* (nth write op, action) *)
    mutable crash_after : int option;
    mutable seen : int;  (* write ops observed since installation *)
  }

  let create () = { entries = []; crash_after = None; seen = 0 }

  let on_write plan ~nth action =
    if nth <= 0 then invalid_arg "Fault_plan.on_write: nth must be positive";
    plan.entries <- (nth, action) :: plan.entries

  let crash_after_writes plan n =
    if n <= 0 then invalid_arg "Fault_plan.crash_after_writes: n must be positive";
    plan.crash_after <- Some n

  let writes_seen plan = plan.seen

  let action_for plan nth =
    match List.assoc_opt nth plan.entries with
    | Some _ as a ->
        (* one-shot: an op's scheduled fault fires once *)
        plan.entries <- List.filter (fun (k, _) -> k <> nth) plan.entries;
        a
    | None -> None

  let pp_action ppf = function
    | Fail_write { transient } ->
        Format.fprintf ppf "fail-write(%s)"
          (if transient then "transient" else "permanent")
    | Torn_write { keep_runs } -> Format.fprintf ppf "torn-write(keep=%d)" keep_runs
    | Bit_flip { block; byte; bit } ->
        Format.fprintf ppf "bit-flip(block=%d,byte=%d,bit=%d)" block byte bit

  let action_to_string a = Format.asprintf "%a" pp_action a

  (* Render the plan as scheduled, not as consumed: a fired entry is
     removed from [entries], so failure reports should capture the
     string at install time. *)
  let pp ppf plan =
    let entries = List.sort compare plan.entries in
    Format.fprintf ppf "plan{";
    List.iteri
      (fun i (nth, a) ->
        Format.fprintf ppf "%s@@%d:%a" (if i = 0 then "" else " ") nth pp_action a)
      entries;
    (match plan.crash_after with
    | Some n ->
        Format.fprintf ppf "%scrash@@%d" (if entries = [] then "" else " ") n
    | None -> if entries = [] then Format.fprintf ppf "no-faults");
    Format.fprintf ppf "}"

  let to_string plan = Format.asprintf "%a" pp plan

  (* Draw [faults] scheduled faults over the first [writes] write ops from a
     seeded PRNG.  Same seed => same schedule, the campaign determinism
     rule. *)
  let random ~prng ~writes ~faults ~block_count () =
    if writes <= 0 then invalid_arg "Fault_plan.random: writes must be positive";
    let plan = create () in
    for _ = 1 to faults do
      let nth = Prng.int_in prng 1 writes in
      let action =
        match Prng.int prng 3 with
        | 0 -> Fail_write { transient = Prng.bool prng }
        | 1 -> Torn_write { keep_runs = Prng.int prng 3 }
        | _ ->
            Bit_flip
              {
                block = Prng.int prng block_count;
                byte = Prng.int prng 64;
                bit = Prng.int prng 8;
              }
      in
      on_write plan ~nth action
    done;
    plan
end

(* An in-flight async request: the bytes (for reads) were captured at
   submission, only the clock settlement is outstanding.  [rq_completion]
   is the absolute simulated time the channel finishes servicing the
   request; [rq_service] is the request's own service time and
   [rq_waited] the clock its awaits advanced, which together account how
   much of the service the caller's compute hid.  The device's pending
   list holds the request alone, so it never pins a payload. *)
type request = {
  rq_service : Clock.ns;
  rq_completion : Clock.ns;
  mutable rq_waited : Clock.ns;
  mutable rq_settled : bool;
}

type ticket = { tk_req : request; tk_payload : (int * string) list }

type t = {
  cfg : config;
  clock : Clock.t;
  blocks : string array; (* "" means never written / trimmed *)
  faults : (int, unit) Hashtbl.t;
  transients : (int, int) Hashtbl.t; (* block -> remaining transient failures *)
  counters : Stats.Counter.t;
  mutable used : int;
  mutable plan : Fault_plan.t option;
  mutable crash_image : string array option;
  channels : (int, Clock.ns array) Hashtbl.t;
      (* per-channel service slots: absolute time each of the
         [queue_depth] in-flight positions frees up *)
  mutable pending : request list;
      (* newest first: every unsettled request, plus settled ones not yet
         dropped *)
  mutable pending_len : int;
  mutable outstanding : int; (* unsettled requests *)
}

exception Out_of_range of int
exception Faulted of int

let create ?(config = default_config) ~clock () =
  if config.block_size <= 0 || config.block_count <= 0 then
    invalid_arg "Block_device.create: non-positive geometry";
  {
    cfg = config;
    clock;
    blocks = Array.make config.block_count "";
    faults = Hashtbl.create 4;
    transients = Hashtbl.create 4;
    counters = Stats.Counter.create ();
    used = 0;
    plan = None;
    crash_image = None;
    channels = Hashtbl.create 4;
    pending = [];
    pending_len = 0;
    outstanding = 0;
  }

let config dev = dev.cfg

let clock dev = dev.clock

let check dev i =
  if i < 0 || i >= dev.cfg.block_count then raise (Out_of_range i);
  (match Hashtbl.find_opt dev.transients i with
  | Some n ->
      if n <= 1 then Hashtbl.remove dev.transients i
      else Hashtbl.replace dev.transients i (n - 1);
      raise (Faulted i)
  | None -> ());
  if Hashtbl.mem dev.faults i then raise (Faulted i)

(* ---------- vectored IO ----------

   A vectored request names a set of blocks.  We sort the set (elevator
   order), merge contiguous indices into runs, and charge ONE fixed seek
   latency per run; the per-byte transfer cost is unchanged.  With
   [cfg.vectored = false] the device degrades to the scalar cost model
   (one seek per block) so before/after comparisons can run on the same
   build at the same scale. *)

(* Sorted, deduplicated copy of the requested indices. *)
let sorted_unique indices =
  let a = Array.of_list indices in
  Array.sort compare a;
  let n = Array.length a in
  let out = ref [] in
  for i = n - 1 downto 0 do
    if i = n - 1 || a.(i) <> a.(i + 1) then out := a.(i) :: !out
  done;
  !out

(* [runs] splits a sorted unique index list into maximal contiguous runs,
   returned as (start, length) pairs in ascending order. *)
let runs sorted =
  let rec go acc start len = function
    | [] -> List.rev ((start, len) :: acc)
    | i :: rest when i = start + len -> go acc start (len + 1) rest
    | i :: rest -> go ((start, len) :: acc) i 1 rest
  in
  match sorted with [] -> [] | i :: rest -> go [] i 1 rest

(* Cost of a vectored access of [sorted] blocks: [(service_ns, nruns)].
   One [base] seek per contiguous run (per block when not vectored) plus
   the per-byte transfer.  Shared by the blocking calls and the queued
   submissions so both bill the identical service time. *)
let vec_cost dev base sorted =
  match sorted with
  | [] -> (0, 0)
  | _ ->
      let nblocks = List.length sorted in
      let rs = if dev.cfg.vectored then runs sorted else
          List.map (fun i -> (i, 1)) sorted
      in
      let nruns = List.length rs in
      ( (base * nruns) + (dev.cfg.byte_latency * dev.cfg.block_size * nblocks),
        nruns )

let block_contents dev i =
  let b = dev.blocks.(i) in
  if b = "" then String.make dev.cfg.block_size '\000' else b

let account_read dev sorted nruns =
  Stats.Counter.incr dev.counters ~by:nruns "merged_runs";
  Stats.Counter.incr dev.counters "vec_reads";
  Stats.Counter.incr dev.counters ~by:(List.length sorted) "reads";
  Stats.Counter.incr dev.counters
    ~by:(dev.cfg.block_size * List.length sorted)
    "bytes_read"

let account_write dev sorted nruns =
  Stats.Counter.incr dev.counters ~by:nruns "merged_runs";
  Stats.Counter.incr dev.counters "vec_writes";
  Stats.Counter.incr dev.counters ~by:(List.length sorted) "writes";
  Stats.Counter.incr dev.counters
    ~by:(dev.cfg.block_size * List.length sorted)
    "bytes_written"

(* The blocking vectored read: one [read_latency] seek per contiguous run
   plus the usual per-byte charge, settled before returning.  [move]
   controls whether the bytes are returned, nothing else: [charge_read_vec]
   is the cost-and-accounting-only variant, for a read whose bytes live
   in host memory but whose device cost is still owed. *)
let read_vec_common dev ~move indices =
  let sorted = sorted_unique indices in
  List.iter (check dev) sorted;
  let service, nruns = vec_cost dev dev.cfg.read_latency sorted in
  if nruns > 0 then Clock.advance dev.clock service;
  account_read dev sorted nruns;
  if move then List.map (fun i -> (i, block_contents dev i)) sorted else []

let read_vec dev indices = read_vec_common dev ~move:true indices

let charge_read_vec dev indices = ignore (read_vec_common dev ~move:false indices)

(* Validate a canonical vectored write before it charges, counts or
   persists anything: every index is in range and unfaulted, every
   payload fits its block. *)
let check_writes dev writes =
  List.iter (fun (i, _) -> check dev i) writes;
  List.iter
    (fun (_, data) ->
      if String.length data > dev.cfg.block_size then
        invalid_arg "Block_device.write_vec: data larger than block")
    writes

let store dev i data =
  let len = String.length data in
  if dev.blocks.(i) = "" then dev.used <- dev.used + 1;
  dev.blocks.(i) <-
    (if len = dev.cfg.block_size then data
     else data ^ String.make (dev.cfg.block_size - len) '\000')

(* ---------- write-path fault machinery ---------- *)

(* Count this write op against the installed plan (if any) and return the
   fault action scheduled for it. *)
let note_write_op dev =
  Stats.Counter.incr dev.counters "write_ops";
  match dev.plan with
  | None -> None
  | Some p ->
      p.Fault_plan.seen <- p.Fault_plan.seen + 1;
      Fault_plan.action_for p p.Fault_plan.seen

(* After a write op's persistence (including a torn prefix), capture the
   device image if this op is the plan's crash point.  The image is exactly
   "power lost after write op n": everything the op persisted, nothing the
   caller did afterwards. *)
let maybe_capture_crash dev =
  match dev.plan with
  | Some { Fault_plan.crash_after = Some n; seen; _ }
    when seen = n && dev.crash_image = None ->
      dev.crash_image <- Some (Array.copy dev.blocks)
  | _ -> ()

(* Silent medium corruption: flip one bit in place, without charging the
   clock or touching counters (the device does not know its bits rotted). *)
let flip_bit_raw dev ~block ~byte ~bit =
  if block >= 0 && block < dev.cfg.block_count && byte >= 0
     && byte < dev.cfg.block_size
  then begin
    let b = dev.blocks.(block) in
    let b = if b = "" then String.make dev.cfg.block_size '\000' else b in
    let by = Bytes.of_string b in
    let c = Char.code (Bytes.get by byte) in
    Bytes.set by byte (Char.chr (c lxor (1 lsl (bit land 7))));
    if dev.blocks.(block) = "" then dev.used <- dev.used + 1;
    dev.blocks.(block) <- Bytes.unsafe_to_string by
  end

(* Canonicalise a vectored write: one pair per index ("later pairs win"),
   in ascending index order.  Deduplication happens BEFORE any charging or
   run-merging so the cost accounting matches the documented model — a
   request naming the same block twice seeks and transfers it once. *)
let dedup_writes writes =
  let last = Hashtbl.create 16 in
  List.iter (fun (i, data) -> Hashtbl.replace last i data) writes;
  let sorted = sorted_unique (List.map fst writes) in
  List.map (fun i -> (i, Hashtbl.find last i)) sorted

(* Persist a deduplicated, checked vectored write and run its fault-plan
   dispatch: the one place a write op meets the plan.  This is the
   byte-and-fault half of [write_vec]; the async submission path calls it
   at submit time so on-device state, write-op ordinals and crash images
   never depend on when completions settle. *)
let persist_vec dev sorted writes =
  let first = List.hd sorted in
  match note_write_op dev with
  | None ->
      List.iter (fun (i, data) -> store dev i data) writes;
      maybe_capture_crash dev
  | Some (Fault_plan.Fail_write { transient }) ->
      if not transient then Hashtbl.replace dev.faults first ();
      maybe_capture_crash dev;
      raise (Faulted first)
  | Some (Fault_plan.Torn_write { keep_runs }) ->
      let rs =
        if dev.cfg.vectored then runs sorted
        else List.map (fun i -> (i, 1)) sorted
      in
      let kept = List.filteri (fun k _ -> k < keep_runs) rs in
      let in_kept i =
        List.exists (fun (s, l) -> i >= s && i < s + l) kept
      in
      List.iter (fun (i, data) -> if in_kept i then store dev i data) writes;
      maybe_capture_crash dev;
      let bad =
        match List.filteri (fun k _ -> k >= keep_runs) rs with
        | (s, _) :: _ -> s
        | [] -> first
      in
      raise (Faulted bad)
  | Some (Fault_plan.Bit_flip { block; byte; bit }) ->
      List.iter (fun (i, data) -> store dev i data) writes;
      flip_bit_raw dev ~block ~byte ~bit;
      maybe_capture_crash dev

(* [write_vec dev writes] stores every [(index, data)] pair in one
   request: one [write_latency] seek per contiguous run.  Later pairs win
   on duplicate indices, resolved before cost accounting: seeks and bytes
   are charged over the deduplicated index set only. *)
let write_vec dev writes =
  match dedup_writes writes with
  | [] -> ()
  | writes ->
      check_writes dev writes;
      let sorted = List.map fst writes in
      let service, nruns = vec_cost dev dev.cfg.write_latency sorted in
      Clock.advance dev.clock service;
      account_write dev sorted nruns;
      persist_vec dev sorted writes

(* ---------- asynchronous submission / completion ----------

   io_uring-style queue pairs on the simulated clock.  A submission moves
   bytes (and runs the whole write-path fault machinery) immediately —
   on-device state, outcomes and counters can never depend on settlement
   order — but its TIME is deferred: the request occupies one of the
   channel's [queue_depth] service slots, starting no earlier than the
   submission instant and no earlier than the slot frees up, and [await]
   advances the clock only to the request's completion instant.  Whatever
   compute the caller performed between submit and await therefore hides
   an equal amount of device time, tallied in [overlap_ns_hidden].

   The blocking model is queue depth 1: a submission awaited before
   anything else is submitted on its channel costs exactly its blocking
   [read_vec] / [write_vec]. *)

let settled_ticket payload =
  {
    tk_req = { rq_service = 0; rq_completion = 0; rq_waited = 0; rq_settled = true };
    tk_payload = payload;
  }

let note_highwater dev =
  let cur = Stats.Counter.get dev.counters "queue_depth_highwater" in
  if dev.outstanding > cur then
    Stats.Counter.incr dev.counters ~by:(dev.outstanding - cur)
      "queue_depth_highwater"

let channel_slots dev ch =
  match Hashtbl.find_opt dev.channels ch with
  | Some s -> s
  | None ->
      let s = Array.make (max 1 dev.cfg.queue_depth) 0 in
      Hashtbl.add dev.channels ch s;
      s

(* Reserve the earliest-free slot of [channel] for a request of [service]
   ns, count the submission, and return its in-flight ticket. *)
let enqueue dev ~channel service payload =
  let slots = channel_slots dev channel in
  let best = ref 0 in
  for i = 1 to Array.length slots - 1 do
    if slots.(i) < slots.(!best) then best := i
  done;
  let start = max (Clock.now dev.clock) slots.(!best) in
  let completion = start + service in
  slots.(!best) <- completion;
  Stats.Counter.incr dev.counters "async_submits";
  Stats.Counter.incr dev.counters ~by:service "async_service_ns";
  let rq =
    { rq_service = service; rq_completion = completion; rq_waited = 0; rq_settled = false }
  in
  dev.pending <- rq :: dev.pending;
  dev.pending_len <- dev.pending_len + 1;
  dev.outstanding <- dev.outstanding + 1;
  (* drop settled requests once they outnumber the unsettled ones: the
     list stays O(outstanding) at amortised O(1) per submission *)
  if dev.pending_len > (2 * dev.outstanding) + 16 then begin
    dev.pending <- List.filter (fun r -> not r.rq_settled) dev.pending;
    dev.pending_len <- dev.outstanding
  end;
  note_highwater dev;
  { tk_req = rq; tk_payload = payload }

(* Advance the clock to [instant] on [rq]'s behalf (zero if the caller's
   compute already passed it). *)
let wait_until dev rq instant =
  let now = Clock.now dev.clock in
  if instant > now then begin
    Clock.advance dev.clock (instant - now);
    rq.rq_waited <- rq.rq_waited + (instant - now)
  end

(* Settle a completion: advance the clock to the request's completion
   instant and account the hidden service time — the service its awaits,
   partial ones included, did not wait for.  Idempotent — a settled
   ticket just returns its payload again. *)
let settle dev rq =
  if not rq.rq_settled then begin
    rq.rq_settled <- true;
    dev.outstanding <- dev.outstanding - 1;
    wait_until dev rq rq.rq_completion;
    Stats.Counter.incr dev.counters "async_completions";
    let hidden = rq.rq_service - rq.rq_waited in
    if hidden > 0 then
      Stats.Counter.incr dev.counters ~by:hidden "overlap_ns_hidden"
  end

let submit_read_vec dev ?(channel = 0) indices =
  let sorted = sorted_unique indices in
  match sorted with
  | [] -> settled_ticket []
  | _ ->
      List.iter (check dev) sorted;
      let service, nruns = vec_cost dev dev.cfg.read_latency sorted in
      let payload = List.map (fun i -> (i, block_contents dev i)) sorted in
      account_read dev sorted nruns;
      enqueue dev ~channel service payload

(* Async vectored write: dedup/check/counters/persistence (including the
   fault plan and crash capture) all happen here at submission, in the
   same order as [write_vec]; only the clock settlement is deferred.  The
   channel slot is reserved BEFORE the fault dispatch so a faulted op
   still consumes its service time, and a faulted op's ticket is never
   returned, so it settles before the fault propagates: the raise charges
   its service, as the blocking path charges before raising, and leaves
   nothing outstanding. *)
let submit_write_vec dev ?(channel = 0) writes =
  match dedup_writes writes with
  | [] -> settled_ticket []
  | writes ->
      check_writes dev writes;
      let sorted = List.map fst writes in
      let service, nruns = vec_cost dev dev.cfg.write_latency sorted in
      account_write dev sorted nruns;
      let tk = enqueue dev ~channel service [] in
      (try persist_vec dev sorted writes
       with Faulted _ as fault ->
         settle dev tk.tk_req;
         raise fault);
      tk

let await dev tk =
  settle dev tk.tk_req;
  tk.tk_payload

(* A queued read's blocks land in elevator order at the rate [vec_cost]
   charges: block j of the request lands one [read_latency] per run up
   to and including its own, plus one block transfer per block up to and
   including it, after the request starts, so the last block lands at
   completion.  One walk of the payload finds the named blocks and the
   instant the last of them lands; no per-request table is kept. *)
let await_blocks dev tk blocks =
  let rq = tk.tk_req in
  let start = rq.rq_completion - rq.rq_service in
  let per_block = dev.cfg.byte_latency * dev.cfg.block_size in
  let rec go acc landed ~runs ~n ~prev wanted payload =
    match (wanted, payload) with
    | [], _ -> (List.rev acc, landed)
    | w :: _, [] ->
        invalid_arg
          (Printf.sprintf "Block_device.await_blocks: block %d is not in the request" w)
    | w :: ws, (i, data) :: rest ->
        let runs = if dev.cfg.vectored && i = prev + 1 then runs else runs + 1 in
        let n = n + 1 in
        if i < w then go acc landed ~runs ~n ~prev:i wanted rest
        else if i = w then
          go ((i, data) :: acc)
            (start + (dev.cfg.read_latency * runs) + (per_block * n))
            ~runs ~n ~prev:i ws rest
        else go acc landed ~runs ~n ~prev:i wanted []
  in
  let got, landed = go [] 0 ~runs:0 ~n:0 ~prev:(-2) (sorted_unique blocks) tk.tk_payload in
  if not rq.rq_settled then wait_until dev rq landed;
  got

let outstanding dev = dev.outstanding

(* The durability barrier: settle every in-flight submission.  After
   [drain] the clock covers all device time ever submitted. *)
let drain dev =
  List.iter (settle dev) dev.pending;
  dev.pending <- [];
  dev.pending_len <- 0

let trim dev i =
  check dev i;
  Stats.Counter.incr dev.counters "trims";
  if dev.blocks.(i) <> "" then dev.used <- dev.used - 1;
  dev.blocks.(i) <- ""

let inject_fault dev i =
  if i < 0 || i >= dev.cfg.block_count then raise (Out_of_range i);
  Hashtbl.replace dev.faults i ()

let clear_fault dev i =
  Hashtbl.remove dev.faults i;
  Hashtbl.remove dev.transients i

let inject_transient_fault dev i ~count =
  if i < 0 || i >= dev.cfg.block_count then raise (Out_of_range i);
  if count <= 0 then invalid_arg "inject_transient_fault: count must be positive";
  Hashtbl.replace dev.transients i count

let set_fault_plan dev plan = dev.plan <- plan

let crash_image dev = dev.crash_image

let unsafe_flip dev ~block ~byte ~bit =
  if block < 0 || block >= dev.cfg.block_count then raise (Out_of_range block);
  flip_bit_raw dev ~block ~byte ~bit

let is_written dev i = i >= 0 && i < dev.cfg.block_count && dev.blocks.(i) <> ""

let snapshot dev = Array.copy dev.blocks

let restore dev saved =
  if Array.length saved <> dev.cfg.block_count then
    invalid_arg "Block_device.restore: geometry mismatch";
  Array.blit saved 0 dev.blocks 0 (Array.length saved);
  dev.used <- Array.fold_left (fun n b -> if b = "" then n else n + 1) 0 saved

let stats dev = dev.counters

let reset_stats dev = Stats.Counter.reset dev.counters

(* Forensic search: find [needle] anywhere on the medium, including matches
   straddling a block boundary.  We search each block plus a
   (len needle - 1)-byte tail of overlap into the next block. *)
let scan dev needle =
  let nlen = String.length needle in
  if nlen = 0 then []
  else begin
    let bs = dev.cfg.block_size in
    let contents i =
      let b = dev.blocks.(i) in
      if b = "" then String.make bs '\000' else b
    in
    let hits = ref [] in
    for i = dev.cfg.block_count - 1 downto 0 do
      let hay =
        if i + 1 < dev.cfg.block_count && nlen > 1 then
          contents i ^ String.sub (contents (i + 1)) 0 (min (nlen - 1) bs)
        else contents i
      in
      let rec find_from pos =
        if pos + nlen > String.length hay then ()
        else
          match String.index_from_opt hay pos needle.[0] with
          | None -> ()
          | Some j when j + nlen > String.length hay -> ()
          | Some j ->
              if String.sub hay j nlen = needle && j < bs then
                hits := (i, j) :: !hits;
              find_from (j + 1)
      in
      find_from 0
    done;
    !hits
  end

let used_blocks dev = dev.used
