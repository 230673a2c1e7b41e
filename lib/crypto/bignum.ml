(* Sign + magnitude representation.  Magnitude is a little-endian array of
   base-2^26 limbs with no leading (high-index) zero limb; zero is the empty
   array with sign 0.  26-bit limbs keep every intermediate product of the
   schoolbook multiplication below 2^52, far from native-int overflow. *)

module Prng = Rgpdos_util.Prng

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int i =
  if i = 0 then zero
  else
    let sign = if i < 0 then -1 else 1 in
    let v = abs i in
    let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
    { sign; mag = Array.of_list (limbs v) }

let one = of_int 1
let two = of_int 2

let sign a = a.sign
let is_zero a = a.sign = 0

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0

let neg a = if a.sign = 0 then a else { a with sign = -a.sign }
let abs a = if a.sign < 0 then neg a else a

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  assert (!carry = 0);
  out

(* precondition: a >= b *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  out

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    match compare_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)

and sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.mag.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    normalize (a.sign * b.sign) out
  end

(* significant bits of one limb *)
let rec width v = if v = 0 then 0 else 1 + width (v lsr 1)

let num_bits a =
  let n = Array.length a.mag in
  if n = 0 then 0 else ((n - 1) * limb_bits) + width a.mag.(n - 1)

let to_int_opt a =
  if num_bits a > 62 then None
  else
    let v =
      Array.to_list a.mag |> List.rev
      |> List.fold_left (fun acc l -> (acc * limb_base) + l) 0
    in
    Some (if a.sign < 0 then -v else v)

let testbit a i =
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length a.mag && (a.mag.(limb) lsr bit) land 1 = 1

let shift_left a k =
  if a.sign = 0 || k = 0 then a
  else if k < 0 then invalid_arg "Bignum.shift_left: negative shift"
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a.mag in
    let out = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.mag.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land limb_mask);
      out.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize a.sign out
  end

let shift_right a k =
  if a.sign = 0 || k = 0 then a
  else if k < 0 then invalid_arg "Bignum.shift_right: negative shift"
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a.mag in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.mag.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift > 0 && i + limb_shift + 1 < la then
            (a.mag.(i + limb_shift + 1) lsl (limb_bits - bit_shift))
            land limb_mask
          else 0
        in
        out.(i) <- lo lor hi
      done;
      normalize a.sign out
    end
  end

(* Single-limb division fast path: classic short division. *)
let divmod_small mag d =
  let n = Array.length mag in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor mag.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) on magnitudes, for a divisor
   of at least two limbs: returns (q, r) with a = q*b + r, 0 <= r < b, in
   O(limbs(a) * limbs(b)).  Both operands are shifted left until the
   divisor's top limb has its high bit set (D1); each quotient limb is then
   estimated from the remainder's top two limbs over the divisor's top limb
   and corrected against the next limb of each (D3), which leaves it at most
   one too large; the multiply-subtract (D4) going negative is that case, and
   the divisor is added back once (D6).  Every intermediate stays below
   2^54. *)
let divmod_mag a b =
  let n = Array.length b and m = Array.length a - Array.length b in
  let s = limb_bits - width b.(n - 1) in
  let shifted x len =
    let out = Array.make len 0 and carry = ref 0 in
    Array.iteri
      (fun i l ->
        let v = (l lsl s) lor !carry in
        out.(i) <- v land limb_mask;
        carry := v lsr limb_bits)
      x;
    if !carry <> 0 then out.(Array.length x) <- !carry;
    out
  in
  let v = shifted b n and u = shifted a (m + n + 1) in
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    while
      !rhat < limb_base
      && (!qhat >= limb_base
         || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* u[j..j+n] -= qhat * v, the borrow carrying the product's high half *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * v.(i) in
      let d = u.(i + j) - !borrow - (p land limb_mask) in
      u.(i + j) <- d land limb_mask;
      borrow := (p lsr limb_bits) - (d asr limb_bits)
    done;
    let top = u.(j + n) - !borrow in
    if top >= 0 then u.(j + n) <- top
    else begin
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      u.(j + n) <- top + !carry
    end;
    q.(j) <- !qhat
  done;
  (* D8: the remainder is u[0..n-1], shifted back *)
  let r =
    Array.init n (fun i ->
        let hi = if i + 1 < n then u.(i + 1) lsl (limb_bits - s) else 0 in
        (u.(i) lsr s) lor (hi land limb_mask))
  in
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else if compare_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let qm, rm =
      if Array.length b.mag = 1 then
        let q, r = divmod_small a.mag b.mag.(0) in
        (q, if r = 0 then [||] else [| r |])
      else divmod_mag a.mag b.mag
    in
    let q = normalize (a.sign * b.sign) qm in
    let r = normalize a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if r.sign < 0 then add r (abs b) else r

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let mod_inv a m =
  (* Extended Euclid on (a mod m, m). *)
  let m = abs m in
  if is_zero m then invalid_arg "Bignum.mod_inv: zero modulus";
  let rec go old_r r old_s s =
    if is_zero r then (old_r, old_s)
    else
      let q = div old_r r in
      go r (sub old_r (mul q r)) s (sub old_s (mul q s))
  in
  let g, x = go (erem a m) m one zero in
  if equal g one then Some (erem x m) else None

let mod_pow b e m =
  if m.sign <= 0 then invalid_arg "Bignum.mod_pow: modulus must be positive";
  if e.sign < 0 then invalid_arg "Bignum.mod_pow: negative exponent";
  let nbits = num_bits e in
  let result = ref (erem one m) in
  let base = ref (erem b m) in
  for i = 0 to nbits - 1 do
    if testbit e i then result := erem (mul !result !base) m;
    if i < nbits - 1 then base := erem (mul !base !base) m
  done;
  !result

let of_bytes_be s =
  let acc = ref zero in
  String.iter
    (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c)))
    s;
  !acc

let to_bytes_be ?len a =
  if a.sign < 0 then invalid_arg "Bignum.to_bytes_be: negative value";
  let nbytes = (num_bits a + 7) / 8 in
  let nbytes = max nbytes 1 in
  let body =
    String.init nbytes (fun i ->
        let byte_idx = nbytes - 1 - i in
        let v =
          (* extract byte [byte_idx] of the magnitude *)
          let bit = byte_idx * 8 in
          let limb = bit / limb_bits and off = bit mod limb_bits in
          let lo =
            if limb < Array.length a.mag then a.mag.(limb) lsr off else 0
          in
          let hi =
            if off > limb_bits - 8 && limb + 1 < Array.length a.mag then
              a.mag.(limb + 1) lsl (limb_bits - off)
            else 0
          in
          (lo lor hi) land 0xff
        in
        Char.chr v)
  in
  match len with
  | None -> body
  | Some l ->
      if l < String.length body then
        invalid_arg "Bignum.to_bytes_be: value too large for len"
      else String.make (l - String.length body) '\000' ^ body

let ten_pow_7 = of_int 10_000_000

let to_string a =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let cur = ref (abs a) in
    while not (is_zero !cur) do
      let q, r = divmod !cur ten_pow_7 in
      chunks := Option.get (to_int_opt r) :: !chunks;
      cur := q
    done;
    let body =
      match !chunks with
      | [] -> assert false
      | first :: rest ->
          string_of_int first
          ^ String.concat "" (List.map (Printf.sprintf "%07d") rest)
    in
    if a.sign < 0 then "-" ^ body else body
  end

let of_string s =
  let s = String.trim s in
  if s = "" then invalid_arg "Bignum.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= String.length s then invalid_arg "Bignum.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to String.length s - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
        acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
    | c -> invalid_arg (Printf.sprintf "Bignum.of_string: bad digit %C" c)
  done;
  if negative then neg !acc else !acc

let pp fmt a = Format.pp_print_string fmt (to_string a)

let random_bits prng bits =
  if bits <= 0 then zero
  else begin
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let mag = Array.init nlimbs (fun _ -> Prng.int prng limb_base) in
    let top_bits = bits - ((nlimbs - 1) * limb_bits) in
    mag.(nlimbs - 1) <- mag.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    normalize 1 mag
  end

let random_below prng bound =
  if bound.sign <= 0 then invalid_arg "Bignum.random_below: bound <= 0";
  let bits = num_bits bound in
  let rec try_once () =
    let candidate = random_bits prng bits in
    if compare candidate bound < 0 then candidate else try_once ()
  in
  try_once ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139;
    149; 151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223;
    227; 229; 233; 239; 241; 251 ]

let is_probable_prime ?(rounds = 20) prng n =
  if n.sign <= 0 then false
  else
    match to_int_opt n with
    | Some v when v < 2 -> false
    | Some v when List.mem v small_primes -> true
    | _ ->
        let divisible_by_small =
          List.exists
            (fun p ->
              let r = rem n (of_int p) in
              is_zero r)
            small_primes
        in
        if divisible_by_small then false
        else begin
          (* Miller-Rabin: n - 1 = d * 2^s with d odd. *)
          let n1 = sub n one in
          let rec split d s =
            if testbit d 0 then (d, s) else split (shift_right d 1) (s + 1)
          in
          let d, s = split n1 0 in
          let witness_composite a =
            let x = ref (mod_pow a d n) in
            if equal !x one || equal !x n1 then false
            else begin
              let found = ref false in
              let i = ref 1 in
              while (not !found) && !i < s do
                x := erem (mul !x !x) n;
                if equal !x n1 then found := true;
                incr i
              done;
              not !found
            end
          in
          let rec trial k =
            if k = 0 then true
            else
              let a = add two (random_below prng (sub n (of_int 4))) in
              if witness_composite a then false else trial (k - 1)
          in
          trial rounds
        end

let generate_prime prng ~bits =
  if bits < 2 then invalid_arg "Bignum.generate_prime: bits < 2";
  let top = shift_left one (bits - 1) in
  let rec go () =
    (* force exact width (top bit set) and oddness *)
    let low = erem (random_bits prng bits) top in
    let candidate = add top low in
    let candidate =
      if testbit candidate 0 then candidate else add candidate one
    in
    if is_probable_prime ~rounds:12 prng candidate then candidate else go ()
  in
  go ()
