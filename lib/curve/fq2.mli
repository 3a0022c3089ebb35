(** Quadratic extension Fq2 = Fq[u]/(u² + 1). [-1] is a non-residue because
    [q ≡ 3 (mod 4)]. Coordinate field of the BN254 G2 twist. *)

module Fq = Zkvc_field.Fq

type t = { c0 : Fq.t; c1 : Fq.t }

val zero : t
val one : t
val make : Fq.t -> Fq.t -> t
val of_fq : Fq.t -> t
val of_int : int -> t
val of_strings : string -> string -> t

(** The sextic-twist non-residue ξ = 9 + u. *)
val xi : t

val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val double : t -> t
val mul : t -> t -> t
val sqr : t -> t
val mul_by_fq : Fq.t -> t -> t
val inv : t -> t
val div : t -> t -> t
val pow : t -> Zkvc_num.Bigint.t -> t

(** Multiplication by ξ = 9 + u using additions only. *)
val mul_by_xi : t -> t

(** Conjugate [c0 - c1 u]. *)
val conj : t -> t

(** [frobenius_map k x = x^(q^k)]. *)
val frobenius_map : int -> t -> t

(** [frobenius_coeffs d] is [[| ξ^((q^k − 1)/d) | k = 0..11 |]] for a
    divisor [d] of [q − 1], derived at call time from {!Zkvc_num.Bigint}:
    the Frobenius constants of the tower above Fq2 and of the twist. *)
val frobenius_coeffs : int -> t array

(** Square root when it exists (q ≡ 3 mod 4 variant of the complex method);
    used to derive G2 points without relying on hard-coded constants. *)
val sqrt : t -> t option

val random : Random.State.t -> t
val size_in_bytes : int
val to_bytes : t -> Bytes.t

(** Raises [Invalid_argument] on wrong length or non-canonical limbs. *)
val of_bytes_exn : Bytes.t -> t
val pp : Format.formatter -> t -> unit
