(* The benchmark's inputs, generated here and nowhere else: the PRNG, the
   Zipf and Poisson samplers, the synthetic people and the declaration
   text.  Nothing in lib/ is consulted, so a change to the library's own
   workload generators cannot change what this benchmark feeds the
   system. *)

module Membrane = Rgpdos_membrane.Membrane

(* SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) *)
type rng = { mutable state : int64 }

let rng seed = { state = seed }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* an independent stream, so each workload phase draws from its own *)
let split r = rng (next r)

(* uniform in [0, 1) from the top 53 bits *)
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

let int r bound = int_of_float (float r *. float_of_int bound)
let bernoulli r p = float r < p
let exponential r mean = -.mean *. log (1.0 -. float r)

(* Zipf over [0, n) by Gray et al.'s rejection-free method (the YCSB
   generator); rank 0 is the most popular. *)
type zipf = { n : int; theta : float; alpha : float; zetan : float; eta : float }

let zipf ~n ~theta =
  let zeta k =
    let s = ref 0.0 in
    for i = 1 to k do
      s := !s +. (1.0 /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n in
  {
    n;
    theta;
    alpha = 1.0 /. (1.0 -. theta);
    zetan;
    eta =
      (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta 2 /. zetan));
  }

let zipf_sample z r =
  let u = float r in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** z.theta) then min 1 (z.n - 1)
  else
    let k =
      int_of_float (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha))
    in
    max 0 (min (z.n - 1) k)

(* Poisson-distributed count with the given mean (Knuth; small means) *)
let poisson_count r mean =
  let limit = exp (-.mean) in
  let rec go k p =
    let p = p *. float r in
    if p < limit then k else go (k + 1) p
  in
  go 0 1.0

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Poisson arrivals: [n] due times in simulated ns from 0, at
   [rate_per_s] requests per simulated second *)
let poisson r ~rate_per_s ~n =
  let mean_ns = 1e9 /. rate_per_s in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t +. exponential r mean_ns;
      int_of_float !t)

(* ------------------------------------------------------------------ *)
(* people and declarations                                            *)

type person = {
  subject : string;
  name : string;
  email : string;
  yob : int;
  analytics : Membrane.consent_scope;
  marketing : Membrane.consent_scope;
}

let syllables =
  [| "ka"; "mi"; "lo"; "ra"; "ben"; "chi"; "ve"; "na"; "tou"; "sel"; "dar";
     "ya"; "zo"; "fe"; "lu" |]

let make_name r =
  let syl () = syllables.(int r (Array.length syllables)) in
  String.capitalize_ascii (syl () ^ syl ())
  ^ " "
  ^ String.capitalize_ascii (syl () ^ syl () ^ syl ())

(* [tag] keeps emails unique across records of one run: an address is
   never a substring of another, so exports and forensic scans can
   look for it verbatim *)
let email_of ~name ~tag =
  Printf.sprintf "%s.%s@example.test"
    (String.lowercase_ascii (String.concat "." (String.split_on_char ' ' name)))
    tag

let person r i =
  let name = make_name r in
  let analytics = if bernoulli r 0.70 then Membrane.View "v_ano" else Membrane.Denied in
  let marketing = if bernoulli r 0.30 then Membrane.View "v_contact" else Membrane.Denied in
  {
    subject = Printf.sprintf "s%06d" i;
    name;
    email = email_of ~name ~tag:(Printf.sprintf "s%d" i);
    yob = 1940 + int r 68;
    analytics;
    marketing;
  }

let type_name = "person"
let yob_min = 1940
let yob_max = 2007

let type_declaration =
  {|
type person {
  fields {
    name: string,
    email: string,
    year_of_birth: int
  };
  view v_contact { name, email };
  view v_ano { year_of_birth };
  consent {
    service: all,
    analytics: v_ano,
    marketing: none
  };
  collection {
    web_form: signup_form.html
  };
  index { email, year_of_birth };
  origin: subject;
  age: 2Y;
  sensitivity: medium;
}
|}

(* purposes live in memory only: redeployed after every reboot *)
let purpose_declarations =
  {|
purpose service {
  description: "operate the account the subject contracted for";
  reads: person;
  legal_basis: contract;
}

purpose analytics {
  description: "aggregate usage statistics over anonymised attributes";
  reads: person.v_ano;
  legal_basis: consent;
}

purpose marketing {
  description: "send promotional offers to subscribed users";
  reads: person.v_contact;
  legal_basis: consent;
}
|}
