(** Quadratic extension Fq12 = Fq6[w]/(w² − v). Since v³ = ξ we get w⁶ = ξ,
    which is exactly the relation the D-type sextic twist of BN254 needs:
    the untwisting map sends a G2 point (x', y') ∈ E'(Fq2) to
    (x'·w², y'·w³) ∈ E(Fq12). *)

module Bigint = Zkvc_num.Bigint

type t = { c0 : Fq6.t; c1 : Fq6.t }

let make c0 c1 = { c0; c1 }
let zero = make Fq6.zero Fq6.zero
let one = make Fq6.one Fq6.zero

let equal a b = Fq6.equal a.c0 b.c0 && Fq6.equal a.c1 b.c1
let is_zero a = equal a zero
let is_one a = equal a one

let add a b = make (Fq6.add a.c0 b.c0) (Fq6.add a.c1 b.c1)
let sub a b = make (Fq6.sub a.c0 b.c0) (Fq6.sub a.c1 b.c1)
let neg a = make (Fq6.neg a.c0) (Fq6.neg a.c1)

(* (a0 + a1 w)(b0 + b1 w) = (a0b0 + a1b1 v) + (a0b1 + a1b0) w *)
let mul a b =
  let m00 = Fq6.mul a.c0 b.c0 in
  let m11 = Fq6.mul a.c1 b.c1 in
  let cross = Fq6.mul (Fq6.add a.c0 a.c1) (Fq6.add b.c0 b.c1) in
  make (Fq6.add m00 (Fq6.mul_by_v m11)) (Fq6.sub cross (Fq6.add m00 m11))

(* Complex squaring: (a0 + a1 w)² = (a0 + a1)(a0 + a1 v) − t − t v + 2t w
   with t = a0 a1, two Fq6 multiplications. *)
let sqr a =
  let t = Fq6.mul a.c0 a.c1 in
  let c0 =
    Fq6.sub (Fq6.mul (Fq6.add a.c0 a.c1) (Fq6.add a.c0 (Fq6.mul_by_v a.c1)))
      (Fq6.add t (Fq6.mul_by_v t))
  in
  make c0 (Fq6.double t)

let conj a = make a.c0 (Fq6.neg a.c1)

let inv a =
  (* 1/(a0 + a1 w) = (a0 - a1 w)/(a0² - a1² v) *)
  let denom = Fq6.sub (Fq6.sqr a.c0) (Fq6.mul_by_v (Fq6.sqr a.c1)) in
  let dinv = Fq6.inv denom in
  make (Fq6.mul a.c0 dinv) (Fq6.neg (Fq6.mul a.c1 dinv))

let pow base e =
  if Bigint.sign e < 0 then invalid_arg "Fq12.pow";
  let nb = Bigint.num_bits e in
  let acc = ref one in
  for i = nb - 1 downto 0 do
    acc := sqr !acc;
    if Bigint.bit e i then acc := mul !acc base
  done;
  !acc

(** Embedding of an E'(Fq2) x-coordinate: x'·w² = (0, x', 0) in the c0 part. *)
let of_twist_x x' = make (Fq6.make Fq2.zero x' Fq2.zero) Fq6.zero

(** Embedding of an E'(Fq2) y-coordinate: y'·w³ = (0, y', 0)·w. *)
let of_twist_y y' = make Fq6.zero (Fq6.make Fq2.zero y' Fq2.zero)

(* f · (l0 + l3·w + l4·v·w), the shape of every Miller-loop line on the
   D-type twist: 3 + 5 + 5 = 13 Fq2 multiplications instead of 18. *)
let mul_by_034 f l0 l3 l4 =
  let a = Fq6.mul_by_fq2 l0 f.c0 in
  let b = Fq6.mul_by_01 f.c1 l3 l4 in
  let e = Fq6.mul_by_01 (Fq6.add f.c0 f.c1) (Fq2.add l0 l3) l4 in
  make (Fq6.add a (Fq6.mul_by_v b)) (Fq6.sub e (Fq6.add a b))

(* w^(q^k) = w·ξ^((q^k − 1)/6). *)
let frob_w = Fq2.frobenius_coeffs 6

let frobenius_map k a =
  let k = k mod 12 in
  make (Fq6.frobenius_map k a.c0) (Fq6.mul_by_fq2 frob_w.(k) (Fq6.frobenius_map k a.c1))

(* Granger–Scott squaring in the cyclotomic subgroup. Viewing Fq12 as
   Fq4³ with Fq4 = Fq2[s]/(s² − ξ), the pairs (r0, r1), (r2, r3),
   (r4, r5) below are the three Fq4 coordinates; each is squared with two
   Fq2 multiplications and the result recombined with the norm-1 relation
   instead of computing the cross terms. *)
let cyclotomic_sqr a =
  let fq4_sqr x y =
    let t = Fq2.mul x y in
    ( Fq2.sub (Fq2.mul (Fq2.add x y) (Fq2.add (Fq2.mul_by_xi y) x)) (Fq2.add t (Fq2.mul_by_xi t)),
      Fq2.double t )
  in
  let r0 = a.c0.Fq6.c0 and r4 = a.c0.Fq6.c1 and r3 = a.c0.Fq6.c2 in
  let r2 = a.c1.Fq6.c0 and r1 = a.c1.Fq6.c1 and r5 = a.c1.Fq6.c2 in
  let t0, t1 = fq4_sqr r0 r1 in
  let t2, t3 = fq4_sqr r2 r3 in
  let t4, t5 = fq4_sqr r4 r5 in
  (* 3t − 2r and 3t + 2r *)
  let minus t r = Fq2.add (Fq2.double (Fq2.sub t r)) t in
  let plus t r = Fq2.add (Fq2.double (Fq2.add t r)) t in
  make
    (Fq6.make (minus t0 r0) (minus t2 r4) (minus t4 r3))
    (Fq6.make (plus (Fq2.mul_by_xi t5) r2) (plus t1 r1) (plus t3 r5))

(* In the cyclotomic subgroup the inverse is the conjugate, so the NAF's
   −1 digits cost one multiplication like the +1 digits. *)
let cyclotomic_exp_by_x a =
  let naf = Bn_params.x_naf in
  let a_inv = conj a in
  let acc = ref a in
  for i = Array.length naf - 2 downto 0 do
    acc := cyclotomic_sqr !acc;
    match naf.(i) with
    | 1 -> acc := mul !acc a
    | -1 -> acc := mul !acc a_inv
    | _ -> ()
  done;
  !acc

let random st = make (Fq6.random st) (Fq6.random st)

(* Canonical encoding: the six Fq2 coefficients in tower order
   (c0.c0, c0.c1, c0.c2, c1.c0, c1.c1, c1.c2), 64 bytes each. *)
let size_in_bytes = 6 * Fq2.size_in_bytes

let to_bytes a =
  Bytes.concat Bytes.empty
    [ Fq2.to_bytes a.c0.Fq6.c0; Fq2.to_bytes a.c0.Fq6.c1; Fq2.to_bytes a.c0.Fq6.c2;
      Fq2.to_bytes a.c1.Fq6.c0; Fq2.to_bytes a.c1.Fq6.c1; Fq2.to_bytes a.c1.Fq6.c2 ]

let of_bytes_exn b =
  if Bytes.length b <> size_in_bytes then invalid_arg "Fq12.of_bytes_exn: bad length";
  let w = Fq2.size_in_bytes in
  let fq2 i = Fq2.of_bytes_exn (Bytes.sub b (i * w) w) in
  make (Fq6.make (fq2 0) (fq2 1) (fq2 2)) (Fq6.make (fq2 3) (fq2 4) (fq2 5))

let pp fmt a = Format.fprintf fmt "[%a; %a]" Fq6.pp a.c0 Fq6.pp a.c1
