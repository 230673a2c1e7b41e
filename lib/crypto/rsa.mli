(** Textbook RSA over {!Bignum}, plus a simple randomized padding.

    This backs the paper's right-to-be-forgotten key-escrow model (§4): the
    supervisory authority generates a keypair, hands the public key to the
    data operator, and keeps the private key.  "Deleting" PD means sealing
    it under the authority's public key, after which the operator can no
    longer read it but the authority still can.

    Key sizes are configurable; the simulation defaults to small keys for
    speed.  This module is deliberately *not* hardened production
    cryptography (no constant-time guarantees) — the reproduction needs the
    escrow mechanism, not resistance to side channels. *)

type public_key = private {
  n : Bignum.t;
  e : Bignum.t;
  fingerprint : string;
      (** short hex fingerprint identifying the key, computed once at
          generation *)
}

type private_key = private {
  n : Bignum.t;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;  (** [n = p * q] *)
  dp : Bignum.t;  (** [d mod (p - 1)] *)
  dq : Bignum.t;  (** [d mod (q - 1)] *)
  qinv : Bignum.t;  (** [q^-1 mod p] *)
}

type keypair = { public : public_key; private_ : private_key }

val generate : ?bits:int -> Rgpdos_util.Prng.t -> keypair
(** [generate ~bits prng] creates a keypair with a [bits]-bit modulus
    (default 256) and public exponent 65537, with the CRT parameters of
    the private key. *)

val max_payload : public_key -> int
(** Maximum plaintext bytes a single [encrypt] accepts (modulus size minus
    padding overhead). *)

val encrypt : Rgpdos_util.Prng.t -> public_key -> string -> string
(** Randomized-padded encryption of a short payload.
    @raise Invalid_argument if the payload exceeds [max_payload]. *)

val private_pow : private_key -> Bignum.t -> Bignum.t
(** [private_pow sk c] is [c^d mod n] for [0 <= c < n], computed by the
    Chinese remainder theorem from the factors of [n]. *)

val decrypt : private_key -> string -> (string, string) result
(** Inverse of [encrypt]; [Error _] if padding is malformed (wrong key or
    corrupted ciphertext). *)
