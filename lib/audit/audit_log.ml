module Clock = Rgpdos_util.Clock
module Codec = Rgpdos_util.Codec
module Sha256 = Rgpdos_crypto.Sha256
module Hex = Rgpdos_util.Hex

let ( let* ) = Result.bind

type event =
  | Collected of { pd_id : string; interface : string }
  | Processed of { purpose : string; inputs : string list; produced : string list }
  | Filtered_out of { purpose : string; pd_id : string; reason : string }
  | Consent_changed of { pd_id : string; purpose : string; granted : bool }
  | Erased of { pd_id : string; mode : string }
  | Exported of { subject : string; pd_ids : string list }
  | Denied of { actor : string; reason : string }
  | Registered of { processing : string; alert : bool }
  | Attested of { processing : string; measurement : string }

type entry = {
  seq : int;
  timestamp : Clock.ns;
  actor : string;
  event : event;
  prev_hash : string;
  hash : string;
}

type t = {
  mutable entries_rev : entry list;
  mutable count : int;
  (* scratch state reused across appends: the chain hashes one small
     material string per entry, so a fresh hash context and Buffer per
     call would be pure allocation churn on the hot path *)
  scratch_ctx : Sha256.ctx;
  scratch_w : Codec.Writer.t;
}

let genesis_hash = Sha256.hexdigest "rgpdos-audit-genesis"

let create () =
  {
    entries_rev = [];
    count = 0;
    scratch_ctx = Sha256.init ();
    scratch_w = Codec.Writer.create ();
  }

let encode_event w event =
  let open Codec.Writer in
  match event with
  | Collected { pd_id; interface } ->
      string w "collected";
      string w pd_id;
      string w interface
  | Processed { purpose; inputs; produced } ->
      string w "processed";
      string w purpose;
      list w (string w) inputs;
      list w (string w) produced
  | Filtered_out { purpose; pd_id; reason } ->
      string w "filtered_out";
      string w purpose;
      string w pd_id;
      string w reason
  | Consent_changed { pd_id; purpose; granted } ->
      string w "consent_changed";
      string w pd_id;
      string w purpose;
      bool w granted
  | Erased { pd_id; mode } ->
      string w "erased";
      string w pd_id;
      string w mode
  | Exported { subject; pd_ids } ->
      string w "exported";
      string w subject;
      list w (string w) pd_ids
  | Denied { actor; reason } ->
      string w "denied";
      string w actor;
      string w reason
  | Registered { processing; alert } ->
      string w "registered";
      string w processing;
      bool w alert
  | Attested { processing; measurement } ->
      string w "attested";
      string w processing;
      string w measurement

let entry_material w ~seq ~timestamp ~actor ~event ~prev_hash =
  Codec.Writer.clear w;
  Codec.Writer.int w seq;
  Codec.Writer.int w timestamp;
  Codec.Writer.string w actor;
  encode_event w event;
  Codec.Writer.string w prev_hash;
  Codec.Writer.contents w

let compute_hash t ~seq ~timestamp ~actor ~event ~prev_hash =
  let material =
    entry_material t.scratch_w ~seq ~timestamp ~actor ~event ~prev_hash
  in
  Sha256.reset t.scratch_ctx;
  Sha256.feed t.scratch_ctx material;
  Hex.encode (Sha256.finalize t.scratch_ctx)

let append t ~now ~actor event =
  let prev_hash =
    match t.entries_rev with [] -> genesis_hash | e :: _ -> e.hash
  in
  let seq = t.count in
  let hash = compute_hash t ~seq ~timestamp:now ~actor ~event ~prev_hash in
  let entry = { seq; timestamp = now; actor; event; prev_hash; hash } in
  t.entries_rev <- entry :: t.entries_rev;
  t.count <- t.count + 1;
  entry

let length t = t.count

let entries t = List.rev t.entries_rev

let event_pd_ids = function
  | Collected { pd_id; _ } -> [ pd_id ]
  | Processed { inputs; produced; _ } -> inputs @ produced
  | Filtered_out { pd_id; _ } -> [ pd_id ]
  | Consent_changed { pd_id; _ } -> [ pd_id ]
  | Erased { pd_id; _ } -> [ pd_id ]
  | Exported { pd_ids; _ } -> pd_ids
  | Denied _ -> []
  | Registered _ -> []
  | Attested _ -> []

let verify t =
  let rec go prev_hash = function
    | [] -> Ok ()
    | e :: rest ->
        let expected =
          compute_hash t ~seq:e.seq ~timestamp:e.timestamp ~actor:e.actor
            ~event:e.event ~prev_hash
        in
        if e.prev_hash <> prev_hash || e.hash <> expected then Error e.seq
        else go e.hash rest
  in
  go genesis_hash (entries t)

let unsafe_tamper t ~seq ~actor =
  t.entries_rev <-
    List.map
      (fun e -> if e.seq = seq then { e with actor } else e)
      t.entries_rev

let decode_event r =
  let open Codec.Reader in
  let* tag = string r in
  match tag with
  | "collected" ->
      let* pd_id = string r in
      let* interface = string r in
      Ok (Collected { pd_id; interface })
  | "processed" ->
      let* purpose = string r in
      let* inputs = list r string in
      let* produced = list r string in
      Ok (Processed { purpose; inputs; produced })
  | "filtered_out" ->
      let* purpose = string r in
      let* pd_id = string r in
      let* reason = string r in
      Ok (Filtered_out { purpose; pd_id; reason })
  | "consent_changed" ->
      let* pd_id = string r in
      let* purpose = string r in
      let* granted = bool r in
      Ok (Consent_changed { pd_id; purpose; granted })
  | "erased" ->
      let* pd_id = string r in
      let* mode = string r in
      Ok (Erased { pd_id; mode })
  | "exported" ->
      let* subject = string r in
      let* pd_ids = list r string in
      Ok (Exported { subject; pd_ids })
  | "denied" ->
      let* actor = string r in
      let* reason = string r in
      Ok (Denied { actor; reason })
  | "registered" ->
      let* processing = string r in
      let* alert = bool r in
      Ok (Registered { processing; alert })
  | "attested" ->
      let* processing = string r in
      let* measurement = string r in
      Ok (Attested { processing; measurement })
  | other -> Error ("unknown audit event " ^ other)

let to_bytes t =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "AUD1";
  Codec.Writer.list w
    (fun e ->
      Codec.Writer.int w e.seq;
      Codec.Writer.int w e.timestamp;
      Codec.Writer.string w e.actor;
      encode_event w e.event;
      Codec.Writer.string w e.prev_hash;
      Codec.Writer.string w e.hash)
    (entries t);
  Codec.Writer.contents w

let of_bytes raw =
  let open Codec.Reader in
  let r = create raw in
  let* magic = string r in
  if magic <> "AUD1" then Error "not an audit chain: bad magic"
  else
    let* entry_list =
      list r (fun r ->
          let* seq = int r in
          let* timestamp = int r in
          let* actor = string r in
          let* event = decode_event r in
          let* prev_hash = string r in
          let* hash = string r in
          Ok { seq; timestamp; actor; event; prev_hash; hash })
    in
    let* () = expect_end r in
    Ok
      {
        entries_rev = List.rev entry_list;
        count = List.length entry_list;
        scratch_ctx = Sha256.init ();
        scratch_w = Codec.Writer.create ();
      }

let pp_event fmt = function
  | Collected { pd_id; interface } ->
      Format.fprintf fmt "collected %s via %s" pd_id interface
  | Processed { purpose; inputs; produced } ->
      Format.fprintf fmt "processed [%s] under %s -> [%s]"
        (String.concat "," inputs) purpose (String.concat "," produced)
  | Filtered_out { purpose; pd_id; reason } ->
      Format.fprintf fmt "filtered %s out of %s: %s" pd_id purpose reason
  | Consent_changed { pd_id; purpose; granted } ->
      Format.fprintf fmt "consent on %s for %s -> %s" pd_id purpose
        (if granted then "granted" else "withdrawn")
  | Erased { pd_id; mode } -> Format.fprintf fmt "erased %s (%s)" pd_id mode
  | Exported { subject; pd_ids } ->
      Format.fprintf fmt "exported %d PD of %s" (List.length pd_ids) subject
  | Denied { actor; reason } -> Format.fprintf fmt "denied %s: %s" actor reason
  | Registered { processing; alert } ->
      Format.fprintf fmt "registered %s%s" processing
        (if alert then " (with alert)" else "")
  | Attested { processing; measurement } ->
      Format.fprintf fmt "attested %s [%s]" processing
        (String.sub measurement 0 (min 12 (String.length measurement)))

let pp_entry fmt e =
  Format.fprintf fmt "#%d t=%a %s: %a [%s]" e.seq Clock.pp_duration e.timestamp
    e.actor pp_event e.event
    (String.sub e.hash 0 8)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let export_for_subject t ~pd_ids =
  let items =
    entries t
    |> List.filter (fun e ->
           List.exists (fun id -> List.mem id pd_ids) (event_pd_ids e.event))
    |> List.map (fun e ->
           Printf.sprintf
             "{\"seq\": %d, \"time_ns\": %d, \"actor\": \"%s\", \"event\": \"%s\"}"
             e.seq e.timestamp (json_escape e.actor)
             (json_escape (Format.asprintf "%a" pp_event e.event)))
  in
  "[" ^ String.concat ", " items ^ "]"
