(** Quadratic extension Fq12 = Fq6[w]/(w² − v), the pairing target field.
    Since v³ = ξ we get w⁶ = ξ, the relation the D-type sextic twist
    needs: untwisting maps (x', y') ∈ E'(Fq2) to (x'·w², y'·w³). *)

type t = { c0 : Fq6.t; c1 : Fq6.t }

val make : Fq6.t -> Fq6.t -> t
val zero : t
val one : t
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val sqr : t -> t
val conj : t -> t
val inv : t -> t
val pow : t -> Zkvc_num.Bigint.t -> t

(** Embedding of an E'(Fq2) x-coordinate: [x'·w²]. *)
val of_twist_x : Fq2.t -> t

(** Embedding of an E'(Fq2) y-coordinate: [y'·w³]. *)
val of_twist_y : Fq2.t -> t

(** [mul_by_034 f l0 l3 l4 = f · (l0 + l3·w + l4·v·w)]: the sparse
    product with a Miller-loop line of the D-type twist. *)
val mul_by_034 : t -> Fq2.t -> Fq2.t -> Fq2.t -> t

(** [frobenius_map k x = x^(q^k)] for [k ≥ 0], with constants
    [ξ^((q^k − 1)/6)] from {!Fq2.frobenius_coeffs}. *)
val frobenius_map : int -> t -> t

(** Granger–Scott squaring. Equals {!sqr} only on the cyclotomic subgroup
    (elements of norm 1 over Fq6 and Fq2, i.e. images of the easy part of
    the final exponentiation). *)
val cyclotomic_sqr : t -> t

(** [x^u] for the BN parameter [u = Bn_params.x], by cyclotomic squarings
    over the NAF of [u]. Cyclotomic-subgroup inputs only. *)
val cyclotomic_exp_by_x : t -> t

val random : Random.State.t -> t

(** Canonical 384-byte encoding (six Fq2 coefficients in tower order) —
    used to absorb pairing-target elements into Fiat–Shamir transcripts
    and to serialise aggregated-proof commitments. *)
val size_in_bytes : int

val to_bytes : t -> Bytes.t

(** Raises [Invalid_argument] on wrong length or non-canonical limbs. *)
val of_bytes_exn : Bytes.t -> t

val pp : Format.formatter -> t -> unit
