module Prng = Rgpdos_util.Prng

type t = {
  sealed_key : string;
  ciphertext : string;
  mac : string;
  key_fingerprint : string;
}

let magic = "RGPDENV1"

(* A 16-byte seed is what gets RSA-sealed (it fits small moduli); the
   ChaCha20 key and nonce are derived from it by hashing with distinct
   domain-separation labels. *)
let seed_size = 16

let derive seed =
  let key = Sha256.digest ("rgpdos-envelope-key|" ^ seed) in
  let nonce =
    String.sub (Sha256.digest ("rgpdos-envelope-nonce|" ^ seed)) 0
      Chacha20.nonce_size
  in
  (key, nonce)

let mac_input env = env.sealed_key ^ "|" ^ env.ciphertext ^ "|" ^ env.key_fingerprint

let seal prng pk payload =
  let seed = Prng.bytes prng seed_size in
  let key, nonce = derive seed in
  let ciphertext = Chacha20.encrypt ~key ~nonce payload in
  let sealed_key = Rsa.encrypt prng pk seed in
  let partial =
    { sealed_key; ciphertext; mac = ""; key_fingerprint = pk.Rsa.fingerprint }
  in
  { partial with mac = Sha256.hmac ~key (mac_input partial) }

let open_ sk env =
  match Rsa.decrypt sk env.sealed_key with
  | Error e -> Error ("cannot unseal key: " ^ e)
  | Ok seed ->
      if String.length seed <> seed_size then
        Error "unsealed key material has wrong length"
      else
        let key, nonce = derive seed in
        let expected_mac = Sha256.hmac ~key (mac_input { env with mac = "" }) in
        if not (String.equal expected_mac env.mac) then
          Error "MAC mismatch: envelope corrupted or wrong key"
        else Ok (Chacha20.encrypt ~key ~nonce env.ciphertext)

(* length-prefixed fields after a magic header *)
let encode env =
  let buf = Buffer.create (64 + String.length env.ciphertext) in
  Buffer.add_string buf magic;
  let add_field s =
    Buffer.add_string buf (Printf.sprintf "%08x" (String.length s));
    Buffer.add_string buf s
  in
  add_field env.sealed_key;
  add_field env.ciphertext;
  add_field env.mac;
  add_field env.key_fingerprint;
  Buffer.contents buf

let decode s =
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    Error "not an envelope: bad magic"
  else begin
    let pos = ref mlen in
    let read_field () =
      if String.length s - !pos < 8 then Error "truncated length"
      else
        match int_of_string_opt ("0x" ^ String.sub s !pos 8) with
        | None -> Error "malformed length"
        | Some len ->
            if String.length s - !pos - 8 < len then Error "truncated field"
            else begin
              let field = String.sub s (!pos + 8) len in
              pos := !pos + 8 + len;
              Ok field
            end
    in
    match read_field () with
    | Error e -> Error e
    | Ok sealed_key -> (
        match read_field () with
        | Error e -> Error e
        | Ok ciphertext -> (
            match read_field () with
            | Error e -> Error e
            | Ok mac -> (
                match read_field () with
                | Error e -> Error e
                | Ok key_fingerprint ->
                    if !pos <> String.length s then Error "trailing bytes"
                    else Ok { sealed_key; ciphertext; mac; key_fingerprint })))
  end

let is_envelope s =
  String.length s >= String.length magic
  && String.sub s 0 (String.length magic) = magic
