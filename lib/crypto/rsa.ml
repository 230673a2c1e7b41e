module Prng = Rgpdos_util.Prng

type public_key = { n : Bignum.t; e : Bignum.t; fingerprint : string }

type private_key = {
  n : Bignum.t;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

type keypair = { public : public_key; private_ : private_key }

let f4 = Bignum.of_int 65537

let fingerprint_of n e =
  let material = Bignum.to_string n ^ ":" ^ Bignum.to_string e in
  String.sub (Sha256.hexdigest material) 0 16

let generate ?(bits = 256) prng =
  if bits < 32 then invalid_arg "Rsa.generate: modulus too small";
  let half = bits / 2 in
  let rec go () =
    let p = Bignum.generate_prime prng ~bits:half in
    let q = Bignum.generate_prime prng ~bits:(bits - half) in
    if Bignum.equal p q then go ()
    else
      let n = Bignum.mul p q in
      let p1 = Bignum.sub p Bignum.one and q1 = Bignum.sub q Bignum.one in
      match Bignum.mod_inv f4 (Bignum.mul p1 q1) with
      | None -> go () (* gcd(e, phi) <> 1; rare, retry *)
      | Some d ->
          {
            public = { n; e = f4; fingerprint = fingerprint_of n f4 };
            private_ =
              {
                n;
                d;
                p;
                q;
                dp = Bignum.erem d p1;
                dq = Bignum.erem d q1;
                qinv = Option.get (Bignum.mod_inv q p);
              };
          }
  in
  go ()

let modulus_bytes n = (Bignum.num_bits n + 7) / 8

(* Padding: 0x01 || random nonzero bytes || 0x00 || payload, always one byte
   shorter than the modulus so the padded integer is < n.  A simplified
   PKCS#1-v1.5 shape with an 8-byte minimum random run. *)
let pad_overhead = 1 + 8 + 1

let max_payload (pk : public_key) = modulus_bytes pk.n - 1 - pad_overhead

let encrypt prng (pk : public_key) payload =
  let k = modulus_bytes pk.n - 1 in
  let plen = String.length payload in
  if plen > k - pad_overhead then
    invalid_arg "Rsa.encrypt: payload too long for modulus";
  let random_len = k - plen - 2 in
  let random_run =
    String.init random_len (fun _ -> Char.chr (1 + Prng.int prng 255))
  in
  let padded = "\x01" ^ random_run ^ "\x00" ^ payload in
  let m = Bignum.of_bytes_be padded in
  let c = Bignum.mod_pow m pk.e pk.n in
  Bignum.to_bytes_be ~len:(modulus_bytes pk.n) c

(* Garner's recombination of c^dp mod p and c^dq mod q: two half-size
   exponentiations instead of one full-size one. *)
let private_pow (sk : private_key) c =
  let mp = Bignum.mod_pow c sk.dp sk.p and mq = Bignum.mod_pow c sk.dq sk.q in
  let h = Bignum.erem (Bignum.mul sk.qinv (Bignum.sub mp mq)) sk.p in
  Bignum.add mq (Bignum.mul h sk.q)

let decrypt (sk : private_key) ciphertext =
  let c = Bignum.of_bytes_be ciphertext in
  if Bignum.compare c sk.n >= 0 then Error "ciphertext out of range"
  else
    let m = private_pow sk c in
    let k = modulus_bytes sk.n - 1 in
    if Bignum.num_bits m > k * 8 then Error "plaintext out of range"
    else
    let padded = Bignum.to_bytes_be ~len:k m in
    if String.length padded < pad_overhead then Error "short plaintext"
    else if padded.[0] <> '\x01' then Error "bad padding header"
    else
      match String.index_from_opt padded 1 '\x00' with
      | None -> Error "missing padding terminator"
      | Some sep when sep < 1 + 8 -> Error "random run too short"
      | Some sep -> Ok (String.sub padded (sep + 1) (String.length padded - sep - 1))
