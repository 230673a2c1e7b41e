(* Spans recorded by the benchmark around its own calls into each layer.

   A span carries host and simulated start/end times and the deltas of
   the public counters read before and after the call.  Spans stay in
   memory; [chrome_json] renders them as Chrome trace events (simulated
   timeline in pid 1, host CPU-time timeline in pid 2) when the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  rid : int;  (** request the span belongs to; -1 outside requests *)
  name : string;  (** [layer.op] *)
  host0 : float;  (** seconds; [nan] when the layer has no host timing *)
  host1 : float;
  sim0 : int;  (** simulated ns *)
  sim1 : int;
  deltas : (string * int) list;  (** counter name -> increase *)
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 1 }

let add t ~parent ~rid ~name ~host0 ~host1 ~sim0 ~sim1 ~deltas =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; parent; rid; name; host0; host1; sim0; sim1; deltas } :: t.spans;
  id

let spans t = List.rev t.spans

(* counter snapshots: sorted (name, value) lists, as Counter.to_list
   returns them *)
let deltas ~before ~after =
  List.filter_map
    (fun (k, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt k before) in
      if v <> v0 then Some (k, v - v0) else None)
    after

let delta s k = Option.value ~default:0 (List.assoc_opt k s.deltas)

let chrome_json t =
  let b = Buffer.create 65536 in
  let host_origin =
    List.fold_left
      (fun acc s -> if Float.is_nan s.host0 then acc else Float.min acc s.host0)
      infinity t.spans
  in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let event ~pid ~ts ~dur s =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    let cat = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name in
    Printf.bprintf b
      "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%d"
      s.name cat pid ts dur s.id s.parent s.rid;
    List.iter (fun (k, v) -> Printf.bprintf b ",%S:%d" k v) s.deltas;
    Buffer.add_string b "}}"
  in
  List.iter
    (fun s ->
      event ~pid:1
        ~ts:(float_of_int s.sim0 /. 1e3)
        ~dur:(float_of_int (s.sim1 - s.sim0) /. 1e3)
        s;
      if not (Float.is_nan s.host0) then
        event ~pid:2
          ~ts:((s.host0 -. host_origin) *. 1e6)
          ~dur:((s.host1 -. s.host0) *. 1e6)
          s)
    (spans t);
  Buffer.add_string b
    "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"pid1\":\"simulated clock\",\"pid2\":\"host CPU time\"}}\n";
  Buffer.contents b
