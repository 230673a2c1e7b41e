(** Arbitrary-precision signed integers, implemented from scratch.

    The sealed build environment has no zarith, so the RSA key-escrow
    mechanism behind the paper's "right to be forgotten" (§4) is built on
    this module.  The representation is sign + magnitude in base 2^26 limbs;
    all algorithms are the simple quadratic ones, which is ample for the
    key sizes the simulation uses: schoolbook multiplication, and Knuth's
    Algorithm D for division, so every reduction in [divmod], [rem],
    [erem], [mod_pow], [mod_inv] and [gcd] costs O(limbs^2).

    Values are immutable. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [None] if the value does not fit in a native [int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], truncated (round-toward-zero)
    quotient, [sign r = sign a] (or zero).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder: always in [\[0, |b|)]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val testbit : t -> int -> bool
(** Bit [i] of the magnitude. *)

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val gcd : t -> t -> t

val mod_inv : t -> t -> t option
(** [mod_inv a m] is the inverse of [a] modulo [m], if
    [gcd a m = 1]. Result is in [\[0, m)]. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow b e m] = b^e mod m, with [e >= 0] and [m > 0] (square and
    multiply). *)

val of_bytes_be : string -> t
(** Big-endian unsigned interpretation. *)

val to_bytes_be : ?len:int -> t -> string
(** Minimal big-endian encoding of the magnitude, left-padded with zero
    bytes to [len] when given.
    @raise Invalid_argument if the value needs more than [len] bytes or is
    negative. *)

val of_string : string -> t
(** Decimal, with optional leading '-'.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val random_bits : Rgpdos_util.Prng.t -> int -> t
(** Uniform in [\[0, 2^bits)]. *)

val random_below : Rgpdos_util.Prng.t -> t -> t
(** Uniform in [\[0, bound)]; [bound] must be positive. *)

val is_probable_prime : ?rounds:int -> Rgpdos_util.Prng.t -> t -> bool
(** Miller-Rabin with [rounds] random bases (default 20), preceded by
    trial division by small primes. *)

val generate_prime : Rgpdos_util.Prng.t -> bits:int -> t
(** Random probable prime with the top bit set (exactly [bits] bits).
    @raise Invalid_argument if [bits < 2]. *)
