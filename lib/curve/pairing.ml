module Fq = Zkvc_field.Fq
module Bigint = Zkvc_num.Bigint

let gt_one = Fq12.one

(* A twist point in homogeneous projective coordinates, (X : Y : Z) ↦
   (X/Z, Y/Z): the Miller loop's running point T needs no inversion. *)
type proj = { x : Fq2.t; y : Fq2.t; z : Fq2.t }

(* A line through twist points, up to an Fq2 factor (which the final
   exponentiation kills), evaluated at P = (xP, yP) ∈ G1 under the
   untwisting (x', y') ↦ (x'w², y'w³): l0·yP + l3·xP·w + l4·v·w. *)
type line = { l0 : Fq2.t; l3 : Fq2.t; l4 : Fq2.t }

let two_inv = Fq.inv (Fq.of_int 2)
let b3 = Fq2.mul_by_fq (Fq.of_int 3) G2.b_twist

(* Tangent at T and 2T (Costello–Lange–Naehrig, "Faster pairing
   computations on curves with high-degree twists", PKC 2010). In affine
   terms the line is −2y·yP + 3x²·xP·w + (3b' − y²)·v·w, the textbook
   tangent times −2y. *)
let double_step t =
  let a = Fq2.mul_by_fq two_inv (Fq2.mul t.x t.y) in
  let b = Fq2.sqr t.y in
  let c = Fq2.sqr t.z in
  let e = Fq2.mul b3 c in
  let f = Fq2.add (Fq2.double e) e in
  let g = Fq2.mul_by_fq two_inv (Fq2.add b f) in
  let h = Fq2.sub (Fq2.sqr (Fq2.add t.y t.z)) (Fq2.add b c) in
  let j = Fq2.sqr t.x in
  let e2 = Fq2.sqr e in
  ( { x = Fq2.mul a (Fq2.sub b f);
      y = Fq2.sub (Fq2.sqr g) (Fq2.add (Fq2.double e2) e2);
      z = Fq2.mul b h },
    { l0 = Fq2.neg h; l3 = Fq2.add (Fq2.double j) j; l4 = Fq2.sub e b } )

(* Chord through T and the affine point (qx, qy), and T + Q. With
   θ = y − qy and λ = x − qx (scaled by Z) the line is
   λ·yP − θ·xP·w + (θ·qx − λ·qy)·v·w. *)
let add_step t (qx, qy) =
  let theta = Fq2.sub t.y (Fq2.mul qy t.z) in
  let lambda = Fq2.sub t.x (Fq2.mul qx t.z) in
  let c = Fq2.sqr theta in
  let d = Fq2.sqr lambda in
  let e = Fq2.mul lambda d in
  let f = Fq2.mul t.z c in
  let g = Fq2.mul t.x d in
  let h = Fq2.sub (Fq2.add e f) (Fq2.double g) in
  ( { x = Fq2.mul lambda h;
      y = Fq2.sub (Fq2.mul theta (Fq2.sub g h)) (Fq2.mul e t.y);
      z = Fq2.mul t.z e },
    { l0 = lambda;
      l3 = Fq2.neg theta;
      l4 = Fq2.sub (Fq2.mul theta qx) (Fq2.mul lambda qy) } )

let mul_line f (px, py) l =
  Fq12.mul_by_034 f (Fq2.mul_by_fq py l.l0) (Fq2.mul_by_fq px l.l3) l.l4

(* The q-power Frobenius, untwisted, applied and twisted back:
   (x, y) ↦ (x^q·ξ^((q−1)/3), y^q·ξ^((q−1)/2)), and its square. *)
let twist_frob_x = Fq2.frobenius_coeffs 3
let twist_frob_y = Fq2.frobenius_coeffs 2

let twist_frobenius k (x, y) =
  ( Fq2.mul (Fq2.frobenius_map k x) twist_frob_x.(k),
    Fq2.mul (Fq2.frobenius_map k y) twist_frob_y.(k) )

(* Optimal-ate Miller loop f_{6u+2,Q}(P) · l_{T,π(Q)}(P) · l_{T',−π²(Q)}(P),
   run for all pairs at once: each iteration squares the shared
   accumulator once and multiplies in every pair's line. Pairs with an
   identity member contribute 1 and are dropped up front. *)
let multi_miller_loop pairs =
  let affine1 p = match G1.to_affine p with Some a -> a | None -> assert false in
  let affine2 q = match G2.to_affine q with Some a -> a | None -> assert false in
  let pairs =
    List.filter_map
      (fun (p, q) ->
        if G1.is_zero p || G2.is_zero q then None else Some (affine1 p, affine2 q))
      pairs
    |> Array.of_list
  in
  let ts = Array.map (fun (_, (x, y)) -> { x; y; z = Fq2.one }) pairs in
  let f = ref Fq12.one in
  (* advance every pair's T with [next] and multiply its line in *)
  let step next =
    Array.iteri
      (fun i (p, q) ->
        let t, l = next ts.(i) q in
        ts.(i) <- t;
        f := mul_line !f p l)
      pairs
  in
  let neg (x, y) = (x, Fq2.neg y) in
  let naf = Bn_params.ate_loop_naf in
  let top = Array.length naf - 1 in
  for bit = top - 1 downto 0 do
    if bit < top - 1 then f := Fq12.sqr !f;
    step (fun t _ -> double_step t);
    match naf.(bit) with
    | 1 -> step add_step
    | -1 -> step (fun t q -> add_step t (neg q))
    | _ -> ()
  done;
  step (fun t q -> add_step t (twist_frobenius 1 q));
  step (fun t q -> add_step t (neg (twist_frobenius 2 q)));
  !f

let miller_loop p q = multi_miller_loop [ (p, q) ]

(* Hard part f^((q⁴ − q² + 1)/r · m) by the chain of Fuentes-Castañeda,
   Knapp and Rodríguez-Henríquez ("Faster hashing to G2", SAC 2011, as
   laid out by Beuchat et al. for BN curves): three exponentiations by u
   and Frobenius maps compute f^λ with
     λ = (12u³+6u²+4u−1)q³ + (12u³+6u²+6u)q² + (12u³+6u²+4u)q
         + 12u³+12u²+6u+1 = m·(q⁴ − q² + 1)/r,  gcd(m, r) = 1,
   checked below. The result is a fixed power m of the reduced pairing —
   still bilinear and non-degenerate. *)
let hard_part f =
  let exp_neg_u g = Fq12.conj (Fq12.cyclotomic_exp_by_x g) in
  let mul = Fq12.mul and csqr = Fq12.cyclotomic_sqr in
  let a = exp_neg_u f in (* f^−u *)
  let b = csqr a in (* f^−2u *)
  let d = mul (csqr b) b in (* f^−6u *)
  let e = exp_neg_u d in (* f^6u² *)
  let g = exp_neg_u (csqr e) in (* f^−12u³ *)
  let k = mul (mul (Fq12.conj g) e) (Fq12.conj d) in (* f^(12u³+6u²+6u) *)
  let l = mul k b in (* f^(12u³+6u²+4u) *)
  let n = mul (mul k e) f in (* f^(12u³+12u²+6u+1) *)
  let t = mul (Fq12.conj f) l in (* f^(12u³+6u²+4u−1) *)
  mul
    (mul (Fq12.frobenius_map 3 t) (Fq12.frobenius_map 2 k))
    (mul (Fq12.frobenius_map 1 l) n)

let () =
  let u = Bn_params.x and q = Bn_params.q in
  let poly cs =
    List.fold_left (fun acc c -> Bigint.add (Bigint.mul acc u) (Bigint.of_int c)) Bigint.zero cs
  in
  let lambda =
    List.fold_left
      (fun acc c -> Bigint.add (Bigint.mul acc q) c)
      Bigint.zero
      [ poly [ 12; 6; 4; -1 ]; poly [ 12; 6; 6; 0 ]; poly [ 12; 6; 4; 0 ]; poly [ 12; 12; 6; 1 ] ]
  in
  let phi12 = Bigint.add (Bigint.sub (Bigint.pow q 4) (Bigint.pow q 2)) Bigint.one in
  let h, rem = Bigint.divmod phi12 Bn_params.r in
  assert (Bigint.is_zero rem);
  let m, rem = Bigint.divmod lambda h in
  assert (Bigint.is_zero rem);
  assert (Bigint.equal (Bigint.gcd m Bn_params.r) Bigint.one)

(* Easy part f^((q⁶ − 1)(q² + 1)) — conj f = f^(q⁶), one inversion, one
   Frobenius — lands in the cyclotomic subgroup, where the hard part's
   squarings are valid. A zero Miller value (impossible for group
   elements) maps to zero, which is never the identity. *)
let final_exponentiation f =
  if Fq12.is_zero f then Fq12.zero
  else begin
    let f1 = Fq12.mul (Fq12.conj f) (Fq12.inv f) in
    hard_part (Fq12.mul (Fq12.frobenius_map 2 f1) f1)
  end

let pairing p q = final_exponentiation (miller_loop p q)

let multi_pairing pairs = final_exponentiation (multi_miller_loop pairs)
