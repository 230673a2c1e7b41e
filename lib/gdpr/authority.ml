module Prng = Rgpdos_util.Prng
module Rsa = Rgpdos_crypto.Rsa
module Envelope = Rgpdos_crypto.Envelope
module Record = Rgpdos_dbfs.Record

type t = { keypair : Rsa.keypair }

let create ?(key_bits = 256) ~seed () =
  let prng = Prng.create ~seed () in
  { keypair = Rsa.generate ~bits:key_bits prng }

let public_key t = t.keypair.Rsa.public

let key_fingerprint t = t.keypair.Rsa.public.fingerprint

let seal t ~prng payload = Envelope.seal prng t.keypair.Rsa.public payload

let sealer t ~prng record =
  Envelope.encode (seal t ~prng (Record.encode record))

let open_envelope t bytes =
  match Envelope.decode bytes with
  | Error e -> Error e
  | Ok env -> Envelope.open_ t.keypair.Rsa.private_ env

let open_record t bytes =
  match open_envelope t bytes with
  | Error e -> Error e
  | Ok payload -> Record.decode payload
