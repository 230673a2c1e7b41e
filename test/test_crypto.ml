open Rgpdos_crypto
module Prng = Rgpdos_util.Prng
module Hex = Rgpdos_util.Hex

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let bn = Bignum.of_string

let bignum_testable =
  Alcotest.testable Bignum.pp Bignum.equal

(* ------------------------------------------------------------------ *)
(* Bignum: known-value tests                                          *)

let test_bn_of_to_int () =
  List.iter
    (fun i ->
      Alcotest.(check (option int))
        (string_of_int i) (Some i)
        (Bignum.to_int_opt (Bignum.of_int i)))
    [ 0; 1; -1; 42; -42; max_int / 2; min_int / 2; 1 lsl 40 ]

let test_bn_string_roundtrip_known () =
  List.iter
    (fun s -> check_string s s (Bignum.to_string (bn s)))
    [
      "0"; "1"; "-1"; "123456789";
      "340282366920938463463374607431768211456" (* 2^128 *);
      "-99999999999999999999999999999999999999";
    ]

let test_bn_add_sub_known () =
  let a = bn "123456789012345678901234567890" in
  let b = bn "987654321098765432109876543210" in
  check_string "a+b" "1111111110111111111011111111100"
    (Bignum.to_string (Bignum.add a b));
  check_string "b-a" "864197532086419753208641975320"
    (Bignum.to_string (Bignum.sub b a));
  Alcotest.check bignum_testable "a-a" Bignum.zero (Bignum.sub a a)

let test_bn_mul_known () =
  let a = bn "12345678901234567890" in
  let b = bn "98765432109876543210" in
  check_string "a*b" "1219326311370217952237463801111263526900"
    (Bignum.to_string (Bignum.mul a b));
  check_string "sign" "-121932631137021795223746380111126352690"
    (Bignum.to_string (Bignum.mul (Bignum.neg a) (bn "9876543210987654321")))

let test_bn_divmod_known () =
  let a = bn "1000000000000000000000000000000" in
  let b = bn "7" in
  let q, r = Bignum.divmod a b in
  check_string "q" "142857142857142857142857142857" (Bignum.to_string q);
  check_string "r" "1" (Bignum.to_string r);
  (* truncation semantics for negative dividend *)
  let q, r = Bignum.divmod (bn "-7") (bn "2") in
  check_string "neg q" "-3" (Bignum.to_string q);
  check_string "neg r" "-1" (Bignum.to_string r)

let test_bn_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod Bignum.one Bignum.zero))

let test_bn_erem_nonnegative () =
  let r = Bignum.erem (bn "-7") (bn "3") in
  check_string "erem" "2" (Bignum.to_string r)

let test_bn_shifts () =
  let a = bn "12345678901234567890" in
  Alcotest.check bignum_testable "shift roundtrip" a
    (Bignum.shift_right (Bignum.shift_left a 100) 100);
  check_string "1 << 80" "1208925819614629174706176"
    (Bignum.to_string (Bignum.shift_left Bignum.one 80));
  Alcotest.check bignum_testable "shift_right to zero" Bignum.zero
    (Bignum.shift_right a 100)

let test_bn_num_bits_testbit () =
  Alcotest.(check int) "bits of 0" 0 (Bignum.num_bits Bignum.zero);
  Alcotest.(check int) "bits of 1" 1 (Bignum.num_bits Bignum.one);
  Alcotest.(check int) "bits of 2^100" 101
    (Bignum.num_bits (Bignum.shift_left Bignum.one 100));
  check_bool "bit 100 set" true
    (Bignum.testbit (Bignum.shift_left Bignum.one 100) 100);
  check_bool "bit 99 clear" false
    (Bignum.testbit (Bignum.shift_left Bignum.one 100) 99)

let test_bn_gcd_known () =
  check_string "gcd" "6" (Bignum.to_string (Bignum.gcd (bn "48") (bn "18")));
  check_string "gcd big" "12"
    (Bignum.to_string (Bignum.gcd (bn "123456789012") (bn "987654321024")))

let test_bn_mod_inv_known () =
  (match Bignum.mod_inv (bn "3") (bn "11") with
  | Some inv -> check_string "3^-1 mod 11" "4" (Bignum.to_string inv)
  | None -> Alcotest.fail "inverse should exist");
  check_bool "no inverse when not coprime" true
    (Bignum.mod_inv (bn "6") (bn "9") = None)

let test_bn_mod_pow_known () =
  check_string "2^10 mod 1000" "24"
    (Bignum.to_string (Bignum.mod_pow (bn "2") (bn "10") (bn "1000")));
  (* Fermat: a^(p-1) = 1 mod p *)
  let p = bn "1000000007" in
  check_string "fermat" "1"
    (Bignum.to_string (Bignum.mod_pow (bn "123456") (Bignum.sub p Bignum.one) p))

let test_bn_bytes_roundtrip () =
  let a = bn "1311768467463790320" (* 0x123456789abcdef0 *) in
  check_string "to_bytes_be" "\x12\x34\x56\x78\x9a\xbc\xde\xf0"
    (Bignum.to_bytes_be a);
  Alcotest.check bignum_testable "roundtrip" a
    (Bignum.of_bytes_be (Bignum.to_bytes_be a));
  check_string "padded" "\x00\x00\x01" (Bignum.to_bytes_be ~len:3 Bignum.one)

let test_bn_primality_known () =
  let g = Prng.create ~seed:11L () in
  List.iter
    (fun (s, expected) ->
      check_bool s expected (Bignum.is_probable_prime g (bn s)))
    [
      ("2", true); ("3", true); ("4", false); ("17", true); ("561", false)
      (* Carmichael *); ("7919", true); ("1000000007", true);
      ("1000000008", false);
      ("170141183460469231731687303715884105727", true) (* 2^127-1 *);
      ("170141183460469231731687303715884105725", false);
    ]

let test_bn_generate_prime () =
  let g = Prng.create ~seed:21L () in
  let p = Bignum.generate_prime g ~bits:64 in
  Alcotest.(check int) "exact width" 64 (Bignum.num_bits p);
  check_bool "probably prime" true (Bignum.is_probable_prime g p);
  check_bool "odd" true (Bignum.testbit p 0)

(* ------------------------------------------------------------------ *)
(* Bignum: properties                                                 *)

let small_bn_gen =
  QCheck.Gen.map
    (fun (s, neg) ->
      let v = Bignum.of_bytes_be s in
      if neg then Bignum.neg v else v)
    QCheck.Gen.(pair (string_size ~gen:char (0 -- 24)) bool)

let arb_bn =
  QCheck.make ~print:Bignum.to_string small_bn_gen

let prop_add_commutative =
  QCheck.Test.make ~name:"add commutative" ~count:300 (QCheck.pair arb_bn arb_bn)
    (fun (a, b) -> Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"add associative" ~count:300
    (QCheck.triple arb_bn arb_bn arb_bn) (fun (a, b, c) ->
      Bignum.equal
        (Bignum.add a (Bignum.add b c))
        (Bignum.add (Bignum.add a b) c))

let prop_sub_inverse =
  QCheck.Test.make ~name:"a+b-b = a" ~count:300 (QCheck.pair arb_bn arb_bn)
    (fun (a, b) -> Bignum.equal a (Bignum.sub (Bignum.add a b) b))

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes over add" ~count:200
    (QCheck.triple arb_bn arb_bn arb_bn) (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r, |r| < |b|" ~count:300
    (QCheck.pair arb_bn arb_bn) (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r)
      && Bignum.compare (Bignum.abs r) (Bignum.abs b) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:300 arb_bn (fun a ->
      Bignum.equal a (Bignum.of_string (Bignum.to_string a)))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:300 arb_bn (fun a ->
      let a = Bignum.abs a in
      Bignum.equal a (Bignum.of_bytes_be (Bignum.to_bytes_be a)))

let prop_mod_pow_agrees_small =
  QCheck.Test.make ~name:"mod_pow agrees with naive" ~count:100
    QCheck.(triple (int_range 0 50) (int_range 0 12) (int_range 1 50))
    (fun (b, e, m) ->
      let naive =
        let rec go acc k = if k = 0 then acc else go (acc * b mod m) (k - 1) in
        go (1 mod m) e
      in
      Bignum.to_int_opt
        (Bignum.mod_pow (Bignum.of_int b) (Bignum.of_int e) (Bignum.of_int m))
      = Some naive)

(* ------------------------------------------------------------------ *)
(* Bignum: division against the bit-serial oracle                     *)

(* The bit-serial long division Bignum used before Algorithm D, on the
   public API: one shift-and-compare per dividend bit.  Truncated
   quotient; the remainder takes the dividend's sign. *)
let divmod_bitserial a b =
  let ma = Bignum.abs a and mb = Bignum.abs b in
  let q = ref Bignum.zero and r = ref Bignum.zero in
  for i = Bignum.num_bits ma - 1 downto 0 do
    r := Bignum.shift_left !r 1;
    if Bignum.testbit ma i then r := Bignum.add !r Bignum.one;
    if Bignum.compare !r mb >= 0 then begin
      r := Bignum.sub !r mb;
      q := Bignum.add !q (Bignum.shift_left Bignum.one i)
    end
  done;
  let signed s x = if s < 0 then Bignum.neg x else x in
  (signed (Bignum.sign a * Bignum.sign b) !q, signed (Bignum.sign a) !r)

let limb_base = 1 lsl 26

(* little-endian base-2^26 limbs, as Bignum stores a magnitude *)
let of_limbs limbs =
  List.fold_right
    (fun l acc -> Bignum.add (Bignum.shift_left acc 26) (Bignum.of_int l))
    limbs Bignum.zero

(* 1-40 limbs, either sign; the top limb is often 1, 2^25 or all ones,
   the normalisation shifts Algorithm D meets at its extremes *)
let gen_operand =
  QCheck.Gen.(
    int_range 1 40 >>= fun len ->
    list_repeat (len - 1)
      (frequency
         [ (6, int_bound (limb_base - 1)); (1, return 0);
           (1, return (limb_base - 1)) ])
    >>= fun low ->
    frequency
      [ (1, return 1); (1, return (1 lsl 25)); (1, return (limb_base - 1));
        (3, int_range 1 (limb_base - 1)) ]
    >>= fun top ->
    map
      (fun neg ->
        let v = of_limbs (low @ [ top ]) in
        if neg then Bignum.neg v else v)
      bool)

(* an independent dividend, or an exact multiple of the divisor, +-1 *)
let gen_division =
  QCheck.Gen.(
    gen_operand >>= fun b ->
    frequency
      [
        (1, map (fun a -> (a, b)) gen_operand);
        ( 1,
          map2
            (fun k d -> (Bignum.add (Bignum.mul b k) (Bignum.of_int d), b))
            gen_operand (int_range (-1) 1) );
      ])

let prop_divmod_matches_bitserial =
  QCheck.Test.make ~name:"divmod == bit-serial division" ~count:400
    ~long_factor:10
    (QCheck.make
       ~print:(fun (a, b) -> Bignum.to_string a ^ " / " ^ Bignum.to_string b)
       gen_division)
    (fun (a, b) ->
      let q, r = Bignum.divmod a b and q', r' = divmod_bitserial a b in
      Bignum.equal q q' && Bignum.equal r r')

(* Operands for which Algorithm D's first quotient-limb estimate survives
   its two-limb correction and is still one too large, so the
   multiply-subtract goes negative and the divisor is added back (found by
   searching edge-valued limbs).  Expected values checked against the
   bit-serial oracle and independently (python3). *)
let test_divmod_add_back () =
  let check_qr what divmod a b q r =
    let q', r' = divmod a b in
    check_string (what ^ " q") q (Bignum.to_string q');
    check_string (what ^ " r") r (Bignum.to_string r')
  in
  List.iter
    (fun (a, b, q, r) ->
      let a = bn a and b = bn b in
      check_qr "a/b" Bignum.divmod a b q r;
      check_qr "-a/b" Bignum.divmod (Bignum.neg a) b ("-" ^ q) ("-" ^ r);
      check_qr "oracle" divmod_bitserial a b q r)
    [
      (* 0x3ffffffffffff8000000 / 0x10000003ffffff *)
      ( "302231454903657159458816", "4503599694479359", "67108862",
        "4503599694479358" );
      (* 0xffffff80000008000002000000 / 0x10000000000001 *)
      ( "20282408999188762868432511172608", "4503599627370497",
        "4503599493152767", "2251799981457409" );
    ]

(* ------------------------------------------------------------------ *)
(* SHA-256: NIST vectors                                              *)

let test_sha256_nist_vectors () =
  List.iter
    (fun (input, expected) -> check_string input expected (Sha256.hexdigest input))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "The quick brown fox jumps over the lazy dog",
        "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    ]

let test_sha256_million_a () =
  (* NIST long-message vector *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed ctx chunk
  done;
  check_string "1M x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Rgpdos_util.Hex.encode (Sha256.finalize ctx))

let test_sha256_streaming_equals_oneshot () =
  let msg = "hello, streaming world; block boundaries matter 0123456789" in
  let ctx = Sha256.init () in
  String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) msg;
  check_string "streaming = oneshot" (Sha256.digest msg) (Sha256.finalize ctx)

(* padding edge cases: lengths around the 64-byte block boundary and the
   55/56-byte cutoff where the length field spills into an extra block.
   Expected digests computed independently (python3 hashlib). *)
let test_sha256_boundary_lengths () =
  List.iter
    (fun (n, expected) ->
      check_string
        (Printf.sprintf "'a' x %d" n)
        expected
        (Sha256.hexdigest (String.make n 'a')))
    [
      (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6");
      (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
      (127, "c57e9278af78fa3cab38667bef4ce29d783787a2f731d4e12200270f0c32320a");
      (128, "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e");
      (129, "c12cb024a2e5551cca0e08fce8f1c5e314555cc3fef6329ee994a3db752166ae");
    ]

let test_sha256_nist_four_block () =
  check_string "896-bit x2 NIST vector"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.hexdigest
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

(* feed sizes chosen to straddle the internal 64-byte block buffer in
   every way: partial fill, exact fill, fill + spill *)
let test_sha256_streaming_chunk_sizes () =
  let msg =
    String.init 1000 (fun i -> Char.chr (((i * 131) + 17) land 0xff))
  in
  let expected = Sha256.digest msg in
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < String.length msg do
        let n = min chunk (String.length msg - !pos) in
        Sha256.feed ctx (String.sub msg !pos n);
        pos := !pos + n
      done;
      check_string
        (Printf.sprintf "chunk=%d" chunk)
        expected (Sha256.finalize ctx))
    [ 1; 7; 63; 64; 65; 127; 128; 129; 999 ]

let test_sha256_streaming_large () =
  (* > 1 MiB through the streaming interface, against an independently
     computed digest (python3 hashlib over the same byte pattern) *)
  let total = 1_500_000 in
  let chunk = 997 in
  let gen off len =
    String.init len (fun i ->
        let j = off + i in
        ((j * 31) + 7) land 0xff |> Char.chr)
  in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  while !pos < total do
    let n = min chunk (total - !pos) in
    Sha256.feed ctx (gen !pos n);
    pos := !pos + n
  done;
  check_string "1.5 MB streamed"
    "8fded0cd134ddf5d8af9fc42f62df1ae422dcad39d2042d2608464a54ef5a0d6"
    (Rgpdos_util.Hex.encode (Sha256.finalize ctx))

let prop_sha256_deterministic_and_sized =
  QCheck.Test.make ~name:"sha256 32 bytes, deterministic" ~count:200
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      let d = Sha256.digest s in
      String.length d = 32 && String.equal d (Sha256.digest s))

let test_hmac_rfc4231 () =
  (* RFC 4231 test case 1 and 2 *)
  let key1 = String.make 20 '\x0b' in
  check_string "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode (Sha256.hmac ~key:key1 "Hi There"));
  check_string "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_precomputed_key () =
  (* hmac_with over a precomputed key must agree with one-shot hmac for
     every key-length regime: short, block-sized, and > 64 bytes (which
     forces the hash-the-key-first path).  RFC 4231 test case 6 pins the
     long-key case to a published value. *)
  let msg = "The quick brown fox jumps over the lazy dog" in
  List.iter
    (fun key ->
      let hk = Sha256.hmac_key key in
      check_string
        (Printf.sprintf "key len %d" (String.length key))
        (Hex.encode (Sha256.hmac ~key msg))
        (Hex.encode (Sha256.hmac_with hk msg));
      (* the precomputed key is reusable across messages *)
      check_string "reuse"
        (Hex.encode (Sha256.hmac ~key "second message"))
        (Hex.encode (Sha256.hmac_with hk "second message")))
    [ ""; "k"; String.make 20 '\x0b'; String.make 64 'x'; String.make 131 'z' ];
  let key131 = String.make 131 '\xaa' in
  check_string "rfc4231 tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hex.encode
       (Sha256.hmac_with (Sha256.hmac_key key131)
          "Test Using Larger Than Block-Size Key - Hash Key First"))

(* ------------------------------------------------------------------ *)
(* ChaCha20: RFC 8439 vector                                          *)

let test_chacha20_rfc8439 () =
  let key = Hex.decode_exn
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hex.decode_exn "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only \
     one tip for the future, sunscreen would be it."
  in
  let expected =
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
  in
  check_string "rfc8439 ciphertext" expected
    (Hex.encode (Chacha20.encrypt ~key ~nonce ~counter:1 plaintext))

let test_chacha20_keystream_rfc8439 () =
  (* RFC 8439 A.1 test vector #1: all-zero key and nonce, counter 0 *)
  check_string "A.1 #1 keystream"
    "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
     da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
    (Hex.encode
       (Chacha20.keystream ~key:(String.make 32 '\000')
          ~nonce:(String.make 12 '\000') 64));
  (* RFC 8439 §2.3.2 block function vector: counter 1 *)
  let key = Hex.decode_exn
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hex.decode_exn "000000090000004a00000000" in
  check_string "2.3.2 block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Hex.encode (Chacha20.keystream ~key ~nonce ~counter:1 64))

let test_chacha20_partial_blocks () =
  let key = String.make 32 'K' and nonce = String.make 12 'N' in
  let full = Chacha20.keystream ~key ~nonce 256 in
  (* a shorter request is an exact prefix: the generator must not
     round partial final blocks up or down *)
  List.iter
    (fun n ->
      Alcotest.(check int) "exact length" n
        (String.length (Chacha20.keystream ~key ~nonce n));
      check_string
        (Printf.sprintf "prefix %d" n)
        (String.sub full 0 n)
        (Chacha20.keystream ~key ~nonce n))
    [ 0; 1; 63; 64; 65; 127; 128; 130; 255 ];
  (* encrypt = plaintext XOR keystream, including on a partial block *)
  let msg = String.init 130 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let expected =
    String.init 130 (fun i ->
        Char.chr (Char.code msg.[i] lxor Char.code full.[i]))
  in
  check_string "xor identity" expected (Chacha20.encrypt ~key ~nonce msg)

let test_chacha20_involution () =
  let g = Prng.create ~seed:3L () in
  let key = Prng.bytes g 32 and nonce = Prng.bytes g 12 in
  let msg = Prng.bytes g 500 in
  check_string "decrypt . encrypt = id" msg
    (Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce msg))

let test_chacha20_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.encrypt ~key:"short" ~nonce:(String.make 12 'x') "m"))

let prop_chacha20_involution =
  QCheck.Test.make ~name:"chacha20 involution" ~count:100
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun msg ->
      let key = String.make 32 'k' and nonce = String.make 12 'n' in
      Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce msg) = msg)

(* ------------------------------------------------------------------ *)
(* RSA                                                                *)

let shared_keypair =
  lazy (Rsa.generate ~bits:256 (Prng.create ~seed:1234L ()))

let test_rsa_roundtrip () =
  let kp = Lazy.force shared_keypair in
  let g = Prng.create ~seed:5L () in
  List.iter
    (fun msg ->
      match Rsa.decrypt kp.Rsa.private_ (Rsa.encrypt g kp.Rsa.public msg) with
      | Ok m -> check_string "roundtrip" msg m
      | Error e -> Alcotest.fail e)
    [ ""; "x"; "hello rsa"; String.make 10 '\x00' ]

let test_rsa_randomized_padding () =
  let kp = Lazy.force shared_keypair in
  let g = Prng.create ~seed:6L () in
  let c1 = Rsa.encrypt g kp.Rsa.public "same message" in
  let c2 = Rsa.encrypt g kp.Rsa.public "same message" in
  check_bool "ciphertexts differ" true (not (String.equal c1 c2))

let test_rsa_wrong_key_fails () =
  let kp = Lazy.force shared_keypair in
  let other = Rsa.generate ~bits:256 (Prng.create ~seed:999L ()) in
  let g = Prng.create ~seed:7L () in
  let c = Rsa.encrypt g kp.Rsa.public "secret" in
  (match Rsa.decrypt other.Rsa.private_ c with
  | Ok m -> check_bool "wrong key must not yield plaintext" false (m = "secret")
  | Error _ -> ());
  check_bool "fingerprints differ" true
    (kp.Rsa.public.fingerprint <> other.Rsa.public.fingerprint)

let test_rsa_payload_limit () =
  let kp = Lazy.force shared_keypair in
  let g = Prng.create ~seed:8L () in
  let maxp = Rsa.max_payload kp.Rsa.public in
  check_bool "max payload positive" true (maxp > 0);
  (* at the limit: fine *)
  ignore (Rsa.encrypt g kp.Rsa.public (String.make maxp 'a'));
  Alcotest.check_raises "over the limit"
    (Invalid_argument "Rsa.encrypt: payload too long for modulus") (fun () ->
      ignore (Rsa.encrypt g kp.Rsa.public (String.make (maxp + 1) 'a')))

(* Measured before CRT and Algorithm D: keygen draws the same PRNG values
   and every power is the same number, so the key is unchanged. *)
let test_rsa_keygen_known_answer () =
  let kp = Rsa.generate ~bits:256 (Prng.create ~seed:2L ()) in
  check_string "n"
    "83331469606167472362170738539285599665599121332625335112491744449234761971709"
    (Bignum.to_string kp.Rsa.public.n);
  check_string "fingerprint" "a1db832798497d3f" kp.Rsa.public.fingerprint

(* The CRT exponentiation is the plain one, c^d mod n, for random c < n,
   for 0, and for multiples of p and of q (c = 0 mod one factor). *)
let test_rsa_crt_equals_mod_pow () =
  List.iter
    (fun (bits, seed) ->
      let kp = Rsa.generate ~bits (Prng.create ~seed ()) in
      let sk = kp.Rsa.private_ in
      let g = Prng.create ~seed:(Int64.add seed 1L) () in
      let cs =
        Bignum.zero :: sk.p :: Bignum.mul sk.p (bn "3") :: sk.q
        :: List.init 4 (fun _ -> Bignum.random_below g sk.n)
      in
      List.iter
        (fun c ->
          Alcotest.check bignum_testable
            (Printf.sprintf "%d bits, c = %s" bits (Bignum.to_string c))
            (Bignum.mod_pow c sk.d sk.n) (Rsa.private_pow sk c))
        cs)
    [ (256, 31L); (512, 32L); (1_024, 33L) ]

(* ------------------------------------------------------------------ *)
(* Envelope                                                           *)

let test_envelope_seal_open () =
  let kp = Lazy.force shared_keypair in
  let g = Prng.create ~seed:9L () in
  let payload = "name=Chiraz;ssn=1234567890123;diagnosis=confidential" in
  let env = Envelope.seal g kp.Rsa.public payload in
  (match Envelope.open_ kp.Rsa.private_ env with
  | Ok m -> check_string "opens" payload m
  | Error e -> Alcotest.fail e);
  check_bool "ciphertext hides payload" true
    (env.Envelope.ciphertext <> payload)

let test_envelope_large_payload () =
  let kp = Lazy.force shared_keypair in
  let g = Prng.create ~seed:10L () in
  let payload = Prng.bytes g 10_000 in
  let env = Envelope.seal g kp.Rsa.public payload in
  match Envelope.open_ kp.Rsa.private_ env with
  | Ok m -> check_string "10k payload" payload m
  | Error e -> Alcotest.fail e

let test_envelope_tamper_detected () =
  let kp = Lazy.force shared_keypair in
  let g = Prng.create ~seed:11L () in
  let env = Envelope.seal g kp.Rsa.public "tamper me" in
  let flipped =
    let b = Bytes.of_string env.Envelope.ciphertext in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    Bytes.to_string b
  in
  check_bool "tamper detected" true
    (Result.is_error
       (Envelope.open_ kp.Rsa.private_ { env with Envelope.ciphertext = flipped }))

let test_envelope_encode_decode () =
  let kp = Lazy.force shared_keypair in
  let g = Prng.create ~seed:12L () in
  let env = Envelope.seal g kp.Rsa.public "persist me" in
  let encoded = Envelope.encode env in
  check_bool "is_envelope" true (Envelope.is_envelope encoded);
  check_bool "plain string is not" false (Envelope.is_envelope "plain data");
  match Envelope.decode encoded with
  | Error e -> Alcotest.fail e
  | Ok env' -> (
      match Envelope.open_ kp.Rsa.private_ env' with
      | Ok m -> check_string "decoded still opens" "persist me" m
      | Error e -> Alcotest.fail e)

let test_envelope_decode_garbage () =
  check_bool "garbage rejected" true (Result.is_error (Envelope.decode "junk"));
  check_bool "truncated rejected" true
    (Result.is_error (Envelope.decode "RGPDENV1000000ff"))

(* The bytes of one envelope, measured before CRT and Algorithm D: RSA
   padding, the sealed seed, the MAC and the key fingerprint are all
   unchanged. *)
let test_envelope_known_answer () =
  let kp = Rsa.generate ~bits:256 (Prng.create ~seed:2L ()) in
  let env =
    Envelope.seal (Prng.create ~seed:3L ()) kp.Rsa.public "known-answer payload"
  in
  check_string "encoded"
    "52475044454e56313030303030303230025c3bb601911b1b1f0ba8f7ea43c57815bd\
     0365cf139d7650cfa514bb8a800430303030303031345c0d343ea24e84718a0c4c0f\
     7a1248b5d1e506bd30303030303032307d0ceebd8ee1f9a7e3dca0ac21e601b8aaa1\
     01093a0c3d04417b1b68d1ec135d303030303030313061316462383332373938343937643366"
    (Hex.encode (Envelope.encode env))

let prop_envelope_roundtrip =
  QCheck.Test.make ~name:"envelope roundtrip" ~count:25
    QCheck.(string_of_size Gen.(0 -- 500))
    (fun payload ->
      let kp = Lazy.force shared_keypair in
      let g = Prng.create ~seed:77L () in
      let env = Envelope.seal g kp.Rsa.public payload in
      match Envelope.open_ kp.Rsa.private_ env with
      | Ok m -> String.equal m payload
      | Error _ -> false)

let () =
  Alcotest.run "crypto"
    [
      ( "bignum",
        [
          Alcotest.test_case "of/to int" `Quick test_bn_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_bn_string_roundtrip_known;
          Alcotest.test_case "add/sub known" `Quick test_bn_add_sub_known;
          Alcotest.test_case "mul known" `Quick test_bn_mul_known;
          Alcotest.test_case "divmod known" `Quick test_bn_divmod_known;
          Alcotest.test_case "div by zero" `Quick test_bn_div_by_zero;
          Alcotest.test_case "erem nonneg" `Quick test_bn_erem_nonnegative;
          Alcotest.test_case "shifts" `Quick test_bn_shifts;
          Alcotest.test_case "num_bits/testbit" `Quick test_bn_num_bits_testbit;
          Alcotest.test_case "gcd" `Quick test_bn_gcd_known;
          Alcotest.test_case "mod_inv" `Quick test_bn_mod_inv_known;
          Alcotest.test_case "mod_pow" `Quick test_bn_mod_pow_known;
          Alcotest.test_case "bytes roundtrip" `Quick test_bn_bytes_roundtrip;
          Alcotest.test_case "primality known" `Quick test_bn_primality_known;
          Alcotest.test_case "generate_prime" `Quick test_bn_generate_prime;
          QCheck_alcotest.to_alcotest prop_add_commutative;
          QCheck_alcotest.to_alcotest prop_add_assoc;
          QCheck_alcotest.to_alcotest prop_sub_inverse;
          QCheck_alcotest.to_alcotest prop_mul_distributes;
          QCheck_alcotest.to_alcotest prop_divmod_identity;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
          QCheck_alcotest.to_alcotest prop_mod_pow_agrees_small;
        ] );
      ( "divmod",
        [
          QCheck_alcotest.to_alcotest prop_divmod_matches_bitserial;
          Alcotest.test_case "add-back vectors" `Quick test_divmod_add_back;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_nist_vectors;
          Alcotest.test_case "NIST four-block" `Quick test_sha256_nist_four_block;
          Alcotest.test_case "boundary lengths" `Quick test_sha256_boundary_lengths;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming_equals_oneshot;
          Alcotest.test_case "streaming chunk sizes" `Quick
            test_sha256_streaming_chunk_sizes;
          Alcotest.test_case "streaming >1MiB" `Quick test_sha256_streaming_large;
          Alcotest.test_case "hmac rfc4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "hmac precomputed key" `Quick test_hmac_precomputed_key;
          QCheck_alcotest.to_alcotest prop_sha256_deterministic_and_sized;
        ] );
      ( "chacha20",
        [
          Alcotest.test_case "rfc8439 vector" `Quick test_chacha20_rfc8439;
          Alcotest.test_case "rfc8439 keystream" `Quick
            test_chacha20_keystream_rfc8439;
          Alcotest.test_case "partial blocks" `Quick test_chacha20_partial_blocks;
          Alcotest.test_case "involution" `Quick test_chacha20_involution;
          Alcotest.test_case "bad sizes" `Quick test_chacha20_bad_sizes;
          QCheck_alcotest.to_alcotest prop_chacha20_involution;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "randomized padding" `Quick test_rsa_randomized_padding;
          Alcotest.test_case "wrong key fails" `Quick test_rsa_wrong_key_fails;
          Alcotest.test_case "payload limit" `Quick test_rsa_payload_limit;
          Alcotest.test_case "keygen known answer" `Quick
            test_rsa_keygen_known_answer;
          Alcotest.test_case "CRT = mod_pow" `Quick test_rsa_crt_equals_mod_pow;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "seal/open" `Quick test_envelope_seal_open;
          Alcotest.test_case "large payload" `Quick test_envelope_large_payload;
          Alcotest.test_case "tamper detected" `Quick test_envelope_tamper_detected;
          Alcotest.test_case "encode/decode" `Quick test_envelope_encode_decode;
          Alcotest.test_case "decode garbage" `Quick test_envelope_decode_garbage;
          Alcotest.test_case "known answer" `Quick test_envelope_known_answer;
          QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
        ] );
    ]
