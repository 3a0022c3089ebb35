(** Cubic extension Fq6 = Fq2[v]/(v³ − ξ) with ξ = 9 + u. *)

type t = { c0 : Fq2.t; c1 : Fq2.t; c2 : Fq2.t }

let make c0 c1 c2 = { c0; c1; c2 }
let zero = make Fq2.zero Fq2.zero Fq2.zero
let one = make Fq2.one Fq2.zero Fq2.zero
let of_fq2 c = make c Fq2.zero Fq2.zero

let equal a b = Fq2.equal a.c0 b.c0 && Fq2.equal a.c1 b.c1 && Fq2.equal a.c2 b.c2
let is_zero a = equal a zero
let is_one a = equal a one

let add a b = make (Fq2.add a.c0 b.c0) (Fq2.add a.c1 b.c1) (Fq2.add a.c2 b.c2)
let sub a b = make (Fq2.sub a.c0 b.c0) (Fq2.sub a.c1 b.c1) (Fq2.sub a.c2 b.c2)
let neg a = make (Fq2.neg a.c0) (Fq2.neg a.c1) (Fq2.neg a.c2)
let double a = add a a

let mul_xi = Fq2.mul_by_xi

(* Karatsuba over the cubic extension: six Fq2 multiplications. *)
let mul a b =
  let m00 = Fq2.mul a.c0 b.c0 in
  let m11 = Fq2.mul a.c1 b.c1 in
  let m22 = Fq2.mul a.c2 b.c2 in
  let cross x0 x1 y0 y1 mx my = Fq2.sub (Fq2.mul (Fq2.add x0 x1) (Fq2.add y0 y1)) (Fq2.add mx my) in
  let c0 = Fq2.add m00 (mul_xi (cross a.c1 a.c2 b.c1 b.c2 m11 m22)) in
  let c1 = Fq2.add (cross a.c0 a.c1 b.c0 b.c1 m00 m11) (mul_xi m22) in
  let c2 = Fq2.add (cross a.c0 a.c2 b.c0 b.c2 m00 m22) m11 in
  make c0 c1 c2

(* Chung–Hasan SQR2: two squarings and three multiplications in Fq2. *)
let sqr a =
  let s0 = Fq2.sqr a.c0 in
  let s1 = Fq2.double (Fq2.mul a.c0 a.c1) in
  let s2 = Fq2.sqr (Fq2.add (Fq2.sub a.c0 a.c1) a.c2) in
  let s3 = Fq2.double (Fq2.mul a.c1 a.c2) in
  let s4 = Fq2.sqr a.c2 in
  make (Fq2.add s0 (mul_xi s3)) (Fq2.add s1 (mul_xi s4))
    (Fq2.sub (Fq2.add (Fq2.add s1 s2) s3) (Fq2.add s0 s4))

(* a · (b0 + b1 v): the product with a sparse element, five Fq2 muls. *)
let mul_by_01 a b0 b1 =
  let m00 = Fq2.mul a.c0 b0 in
  let m11 = Fq2.mul a.c1 b1 in
  let c0 = Fq2.add m00 (mul_xi (Fq2.mul a.c2 b1)) in
  let c1 = Fq2.sub (Fq2.mul (Fq2.add a.c0 a.c1) (Fq2.add b0 b1)) (Fq2.add m00 m11) in
  let c2 = Fq2.add (Fq2.mul a.c2 b0) m11 in
  make c0 c1 c2

let mul_by_fq2 k a = make (Fq2.mul k a.c0) (Fq2.mul k a.c1) (Fq2.mul k a.c2)

(* Multiplication by v: (c0, c1, c2) * v = (ξ c2, c0, c1). *)
let mul_by_v a = make (mul_xi a.c2) a.c0 a.c1

(* Inverse (Devegili et al., "Multiplication and Squaring on Pairing-
   Friendly Fields"). *)
let inv a =
  let t0 = Fq2.sub (Fq2.sqr a.c0) (mul_xi (Fq2.mul a.c1 a.c2)) in
  let t1 = Fq2.sub (mul_xi (Fq2.sqr a.c2)) (Fq2.mul a.c0 a.c1) in
  let t2 = Fq2.sub (Fq2.sqr a.c1) (Fq2.mul a.c0 a.c2) in
  let denom =
    Fq2.add (Fq2.mul a.c0 t0) (mul_xi (Fq2.add (Fq2.mul a.c2 t1) (Fq2.mul a.c1 t2)))
  in
  let dinv = Fq2.inv denom in
  make (Fq2.mul t0 dinv) (Fq2.mul t1 dinv) (Fq2.mul t2 dinv)

(* v^(q^k) = v·ξ^((q^k − 1)/3) and (v²)^(q^k) = v²·ξ^(2(q^k − 1)/3). *)
let frob_c1 = Fq2.frobenius_coeffs 3
let frob_c2 = Array.map Fq2.sqr frob_c1

let frobenius_map k a =
  let k = k mod 12 in
  make (Fq2.frobenius_map k a.c0)
    (Fq2.mul (Fq2.frobenius_map k a.c1) frob_c1.(k))
    (Fq2.mul (Fq2.frobenius_map k a.c2) frob_c2.(k))

let random st = make (Fq2.random st) (Fq2.random st) (Fq2.random st)

let pp fmt a = Format.fprintf fmt "(%a, %a, %a)" Fq2.pp a.c0 Fq2.pp a.c1 Fq2.pp a.c2
