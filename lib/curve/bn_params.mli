(** BN254 curve-family parameters, re-derived from the BN parameter [x] at
    module initialisation and cross-checked against the field moduli. *)

module Bigint = Zkvc_num.Bigint

(** BN parameter. *)
val x : Bigint.t

(** Trace of Frobenius, [t = 6x² + 1]. *)
val t : Bigint.t

(** Base-field modulus, [36x⁴ + 36x³ + 24x² + 6x + 1]. *)
val q : Bigint.t

(** Group order / scalar modulus, [q − 6x²]. *)
val r : Bigint.t

(** Cofactor of the order-[r] subgroup of the sextic twist:
    [#E'(Fq2) = r · (q − 1 + t)]. *)
val g2_cofactor : Bigint.t

(** Non-adjacent forms (least significant digit first, digits in
    [{−1, 0, 1}], no two adjacent ones non-zero) of [x], for the hard
    part's exponentiation by [x], and of [6x + 2], the optimal-ate
    Miller-loop length. *)
val x_naf : int array

val ate_loop_naf : int array
