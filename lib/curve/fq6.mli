(** Cubic extension Fq6 = Fq2[v]/(v³ − ξ), ξ = 9 + u. Middle floor of the
    pairing tower. *)

type t = { c0 : Fq2.t; c1 : Fq2.t; c2 : Fq2.t }

val make : Fq2.t -> Fq2.t -> Fq2.t -> t
val zero : t
val one : t
val of_fq2 : Fq2.t -> t
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val double : t -> t
val mul : t -> t -> t
val sqr : t -> t
val mul_by_fq2 : Fq2.t -> t -> t

(** Multiplication by the tower generator: [(c0,c1,c2)·v = (ξc2, c0, c1)]. *)
val mul_by_v : t -> t

(** [mul_by_01 a b0 b1 = a · (b0 + b1·v)]: the sparse product used by
    the Miller-loop line multiplication. *)
val mul_by_01 : t -> Fq2.t -> Fq2.t -> t

val inv : t -> t

(** [frobenius_map k x = x^(q^k)] for [k ≥ 0], with constants
    [ξ^((q^k − 1)/3)] from {!Fq2.frobenius_coeffs}. *)
val frobenius_map : int -> t -> t

val random : Random.State.t -> t
val pp : Format.formatter -> t -> unit
