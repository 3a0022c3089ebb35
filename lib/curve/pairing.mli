(** Optimal-ate pairing e : G1 × G2 → GT ⊂ Fq12* on BN254.

    The Miller loop runs the G2 point over the NAF of [6u + 2] in
    homogeneous projective coordinates on the twist (no inversions), with
    sparse line × Fq12 products, and closes with the two lines through
    [π(Q)] and [−π²(Q)]. {!multi_pairing} shares one loop and one
    squaring per bit across all pairs. The final exponentiation is the
    easy part [(q⁶−1)(q²+1)] followed by the Fuentes-Castañeda hard part
    (three exponentiations by [u] with Granger–Scott cyclotomic squarings),
    which raises to a fixed multiple [m·(q⁴−q²+1)/r] with [gcd(m, r) = 1];
    the Frobenius constants are derived at module initialisation. See
    DESIGN.md (substitution 1). *)

val miller_loop : G1.t -> G2.t -> Fq12.t

val final_exponentiation : Fq12.t -> Fq12.t

(** [pairing p q = final_exponentiation (miller_loop p q)]. *)
val pairing : G1.t -> G2.t -> Fq12.t

(** Product of pairings from one multi-Miller loop and one final
    exponentiation — the Groth16 verification pattern. Pairs with an
    identity member contribute 1. *)
val multi_pairing : (G1.t * G2.t) list -> Fq12.t

(** Identity of GT. *)
val gt_one : Fq12.t
