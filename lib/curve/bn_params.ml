(** BN254 (alt_bn128) curve parameters. The curve family is parameterised by
    [x]; at module initialisation we re-derive [q], [r] and the trace [t]
    from [x] and check them against the moduli baked into {!Zkvc_field},
    which guards against any transcription error in the constants. *)

module Bigint = Zkvc_num.Bigint

(** BN parameter. *)
let x = Bigint.of_string "4965661367192848881"

(** Trace of Frobenius: [t = 6x^2 + 1]. *)
let t =
  Bigint.add (Bigint.mul (Bigint.of_int 6) (Bigint.mul x x)) Bigint.one

(** [q = 36x^4 + 36x^3 + 24x^2 + 6x + 1] — base field modulus. *)
let q =
  let x2 = Bigint.mul x x in
  let x3 = Bigint.mul x2 x in
  let x4 = Bigint.mul x3 x in
  let term c v = Bigint.mul (Bigint.of_int c) v in
  List.fold_left Bigint.add Bigint.one
    [ term 36 x4; term 36 x3; term 24 x2; term 6 x ]

(** [r = 36x^4 + 36x^3 + 18x^2 + 6x + 1] — group order / scalar modulus. *)
let r =
  let x2 = Bigint.mul x x in
  Bigint.sub q (Bigint.mul (Bigint.of_int 6) x2)

let () =
  (* cross-check the BN polynomial identities against the field moduli *)
  assert (Bigint.equal q Zkvc_field.Fq.modulus);
  assert (Bigint.equal r Zkvc_field.Fr.modulus);
  (* Hasse: #E(Fq) = q + 1 - t must equal r *)
  assert (Bigint.equal (Bigint.add (Bigint.sub q t) Bigint.one) r)

(** Order of the correct sextic twist E'(Fq2) is [r * g2_cofactor] with
    [g2_cofactor = q - 1 + t]. *)
let g2_cofactor = Bigint.add (Bigint.sub q Bigint.one) t

(* Non-adjacent form, least significant digit first: digits in {−1, 0, 1}
   with no two adjacent non-zeros, so Σ d_i 2^i = n. *)
let naf n =
  let rec go n acc =
    if Bigint.is_zero n then Array.of_list (List.rev acc)
    else if Bigint.is_even n then go (Bigint.shift_right n 1) (0 :: acc)
    else begin
      (* n mod 4 = 1 → digit 1, n mod 4 = 3 → digit −1 *)
      let d = if Bigint.bit n 1 then -1 else 1 in
      go (Bigint.shift_right (Bigint.sub n (Bigint.of_int d)) 1) (d :: acc)
    end
  in
  go n []

let x_naf = naf x
let ate_loop_naf = naf (Bigint.add (Bigint.mul (Bigint.of_int 6) x) Bigint.two)
