module Fq = Zkvc_field.Fq
module Fr = Zkvc_field.Fr
module B = Zkvc_num.Bigint
module Fq2 = Zkvc_curve.Fq2
module Fq6 = Zkvc_curve.Fq6
module Fq12 = Zkvc_curve.Fq12
module G1 = Zkvc_curve.G1
module G2 = Zkvc_curve.G2
module Pairing = Zkvc_curve.Pairing
module Params = Zkvc_curve.Bn_params

let st = Random.State.make [| 2024; 7 |]
let check_bool = Alcotest.(check bool)

(* Easy part of the final exponentiation, f^((q⁶−1)(q²+1)): maps any
   non-zero f into the cyclotomic subgroup. *)
let to_cyclotomic f =
  let f1 = Fq12.mul (Fq12.conj f) (Fq12.inv f) in
  Fq12.mul (Fq12.frobenius_map 2 f1) f1

let fq12_of_fq6 a = Fq12.make a Fq6.zero

(* ---------------- extension tower ---------------- *)

let tower_tests =
  let t name f = Alcotest.test_case name `Quick f in
  [ t "fq2 field laws" (fun () ->
        for _ = 1 to 50 do
          let a = Fq2.random st and b = Fq2.random st and c = Fq2.random st in
          check_bool "assoc" true Fq2.(equal (mul (mul a b) c) (mul a (mul b c)));
          check_bool "distrib" true Fq2.(equal (mul a (add b c)) (add (mul a b) (mul a c)));
          check_bool "sqr" true Fq2.(equal (sqr a) (mul a a));
          if not (Fq2.is_zero a) then
            check_bool "inv" true Fq2.(is_one (mul a (inv a)))
        done);
    t "fq2 u^2 = -1" (fun () ->
        let u = Fq2.make Fq.zero Fq.one in
        check_bool "u²" true (Fq2.equal (Fq2.sqr u) (Fq2.neg Fq2.one)));
    t "fq2 sqrt" (fun () ->
        for _ = 1 to 30 do
          let a = Fq2.random st in
          let sq = Fq2.sqr a in
          match Fq2.sqrt sq with
          | None -> Alcotest.fail "square must have a root"
          | Some r -> check_bool "root" true Fq2.(equal (sqr r) sq)
        done);
    t "fq6 field laws" (fun () ->
        for _ = 1 to 30 do
          let a = Fq6.random st and b = Fq6.random st and c = Fq6.random st in
          check_bool "assoc" true Fq6.(equal (mul (mul a b) c) (mul a (mul b c)));
          check_bool "distrib" true Fq6.(equal (mul a (add b c)) (add (mul a b) (mul a c)));
          if not (Fq6.is_zero a) then check_bool "inv" true Fq6.(is_one (mul a (inv a)))
        done);
    t "fq6 v^3 = xi" (fun () ->
        let v = Fq6.make Fq2.zero Fq2.one Fq2.zero in
        check_bool "v³" true
          (Fq6.equal (Fq6.mul v (Fq6.mul v v)) (Fq6.of_fq2 Fq2.xi)));
    t "fq6 mul_by_v" (fun () ->
        for _ = 1 to 20 do
          let a = Fq6.random st in
          let v = Fq6.make Fq2.zero Fq2.one Fq2.zero in
          check_bool "shift" true (Fq6.equal (Fq6.mul_by_v a) (Fq6.mul a v))
        done);
    t "fq12 field laws" (fun () ->
        for _ = 1 to 20 do
          let a = Fq12.random st and b = Fq12.random st and c = Fq12.random st in
          check_bool "assoc" true Fq12.(equal (mul (mul a b) c) (mul a (mul b c)));
          check_bool "sqr" true Fq12.(equal (sqr a) (mul a a));
          if not (Fq12.is_zero a) then check_bool "inv" true Fq12.(is_one (mul a (inv a)))
        done);
    t "fq12 w^6 = xi" (fun () ->
        let w = Fq12.make Fq6.zero Fq6.one in
        let w6 = Fq12.sqr (Fq12.mul w (Fq12.sqr w)) in
        let xi12 = Fq12.make (Fq6.of_fq2 Fq2.xi) Fq6.zero in
        check_bool "w⁶ = ξ" true (Fq12.equal w6 xi12));
    t "fq12 twist embeddings" (fun () ->
        (* of_twist_x x = x·w², of_twist_y y = y·w³ *)
        let w = Fq12.make Fq6.zero Fq6.one in
        let x = Fq2.random st and y = Fq2.random st in
        let embed2 v = Fq12.make (Fq6.of_fq2 v) Fq6.zero in
        check_bool "x·w²" true
          (Fq12.equal (Fq12.of_twist_x x) (Fq12.mul (embed2 x) (Fq12.sqr w)));
        check_bool "y·w³" true
          (Fq12.equal (Fq12.of_twist_y y) (Fq12.mul (embed2 y) (Fq12.mul w (Fq12.sqr w)))));
    t "fq12 pow homomorphism" (fun () ->
        let a = Fq12.random st in
        let e1 = B.of_int 12345 and e2 = B.of_int 678 in
        check_bool "a^(e1+e2)" true
          (Fq12.equal (Fq12.pow a (B.add e1 e2)) (Fq12.mul (Fq12.pow a e1) (Fq12.pow a e2))));
    t "frobenius_map k = pow q^k" (fun () ->
        List.iter
          (fun k ->
            let qk = B.pow Params.q k in
            let a2 = Fq2.random st and a6 = Fq6.random st and a12 = Fq12.random st in
            check_bool (Printf.sprintf "fq2 k=%d" k) true
              (Fq2.equal (Fq2.frobenius_map k a2) (Fq2.pow a2 qk));
            (* Fq6 has no pow: compare inside Fq12, where it embeds as c0 *)
            check_bool (Printf.sprintf "fq6 k=%d" k) true
              (Fq12.equal (fq12_of_fq6 (Fq6.frobenius_map k a6)) (Fq12.pow (fq12_of_fq6 a6) qk));
            check_bool (Printf.sprintf "fq12 k=%d" k) true
              (Fq12.equal (Fq12.frobenius_map k a12) (Fq12.pow a12 qk)))
          [ 1; 2; 3; 6 ]);
    t "cyclotomic squaring = sqr on the cyclotomic subgroup" (fun () ->
        for _ = 1 to 10 do
          let g = to_cyclotomic (Fq12.random st) in
          check_bool "csqr" true (Fq12.equal (Fq12.cyclotomic_sqr g) (Fq12.sqr g))
        done);
    t "sparse line product = dense mul" (fun () ->
        for _ = 1 to 20 do
          let f = Fq12.random st in
          let l0 = Fq2.random st and l3 = Fq2.random st and l4 = Fq2.random st in
          let dense =
            Fq12.make (Fq6.make l0 Fq2.zero Fq2.zero) (Fq6.make l3 l4 Fq2.zero)
          in
          check_bool "mul_by_034" true
            (Fq12.equal (Fq12.mul_by_034 f l0 l3 l4) (Fq12.mul f dense))
        done);
    t "exp by u = pow u on the cyclotomic subgroup" (fun () ->
        for _ = 1 to 3 do
          let g = to_cyclotomic (Fq12.random st) in
          check_bool "g^u" true
            (Fq12.equal (Fq12.cyclotomic_exp_by_x g) (Fq12.pow g Params.x))
        done) ]

(* ---------------- groups ---------------- *)

module Group_suite (G : sig
  type t

  val zero : t
  val generator : t
  val is_zero : t -> bool
  val is_on_curve : t -> bool
  val add : t -> t -> t
  val double : t -> t
  val neg : t -> t
  val equal : t -> t -> bool
  val mul : t -> B.t -> t
  val mul_fr : t -> Fr.t -> t
  val random : Random.State.t -> t
  val name : string
end) =
struct
  let rand () = G.random st

  let tests =
    let t name f = Alcotest.test_case (G.name ^ " " ^ name) `Quick f in
    [ t "generator on curve" (fun () -> check_bool "on curve" true (G.is_on_curve G.generator));
      t "group laws" (fun () ->
          for _ = 1 to 10 do
            let p = rand () and q = rand () and r = rand () in
            check_bool "closure" true (G.is_on_curve (G.add p q));
            check_bool "comm" true (G.equal (G.add p q) (G.add q p));
            check_bool "assoc" true (G.equal (G.add (G.add p q) r) (G.add p (G.add q r)));
            check_bool "identity" true (G.equal (G.add p G.zero) p);
            check_bool "inverse" true (G.is_zero (G.add p (G.neg p)));
            check_bool "double" true (G.equal (G.double p) (G.add p p))
          done);
      t "scalar mul" (fun () ->
          let p = rand () in
          check_bool "3P" true
            (G.equal (G.mul p (B.of_int 3)) (G.add p (G.add p p)));
          check_bool "0P" true (G.is_zero (G.mul p B.zero));
          let a = Fr.random st and b = Fr.random st in
          check_bool "(a+b)P = aP + bP" true
            (G.equal (G.mul_fr p (Fr.add a b)) (G.add (G.mul_fr p a) (G.mul_fr p b))));
      t "order r" (fun () ->
          check_bool "r·G = O" true (G.is_zero (G.mul G.generator Params.r));
          check_bool "G ≠ O" false (G.is_zero G.generator)) ]
end

module G1_suite = Group_suite (struct
  include G1
  let name = "G1"
end)

module G2_suite = Group_suite (struct
  include G2
  let name = "G2"
end)

(* ---------------- MSM ---------------- *)

module Msm_g1 = Zkvc_curve.Msm.Make (G1)

let msm_tests =
  [ Alcotest.test_case "pippenger = naive" `Quick (fun () ->
        List.iter
          (fun n ->
            let points = Array.init n (fun _ -> G1.random st) in
            let scalars = Array.init n (fun _ -> Fr.random st) in
            let fast = Msm_g1.msm points scalars in
            let slow = Msm_g1.msm_naive ~mul:G1.mul_fr points scalars in
            check_bool (Printf.sprintf "n=%d" n) true (G1.equal fast slow))
          [ 0; 1; 2; 3; 7; 33; 100 ]);
    Alcotest.test_case "msm with zero and repeated scalars" `Quick (fun () ->
        let p = G1.random st in
        let points = [| p; p; G1.generator |] in
        let scalars = [| Fr.of_int 5; Fr.of_int 0; Fr.of_int 1 |] in
        let expect = G1.add (G1.mul p (B.of_int 5)) G1.generator in
        check_bool "combo" true (G1.equal (Msm_g1.msm points scalars) expect)) ]

(* ---------------- pairing ---------------- *)

let pairing_tests =
  let e = Pairing.pairing in
  [ Alcotest.test_case "non-degeneracy" `Quick (fun () ->
        let g = e G1.generator G2.generator in
        check_bool "e(G1,G2) ≠ 1" false (Fq12.is_one g);
        check_bool "e(G1,G2)^r = 1" true
          (Fq12.is_one (Fq12.pow g Params.r)));
    Alcotest.test_case "identity slots" `Quick (fun () ->
        check_bool "e(O,Q)=1" true (Fq12.is_one (e G1.zero G2.generator));
        check_bool "e(P,O)=1" true (Fq12.is_one (e G1.generator G2.zero)));
    Alcotest.test_case "bilinearity in G1" `Quick (fun () ->
        let a = B.of_int 117 in
        let lhs = e (G1.mul G1.generator a) G2.generator in
        let rhs = Fq12.pow (e G1.generator G2.generator) a in
        check_bool "e(aP,Q) = e(P,Q)^a" true (Fq12.equal lhs rhs));
    Alcotest.test_case "bilinearity in G2" `Quick (fun () ->
        let b = B.of_int 2026 in
        let lhs = e G1.generator (G2.mul G2.generator b) in
        let rhs = Fq12.pow (e G1.generator G2.generator) b in
        check_bool "e(P,bQ) = e(P,Q)^b" true (Fq12.equal lhs rhs));
    Alcotest.test_case "full bilinearity" `Quick (fun () ->
        let a = Fr.random st and b = Fr.random st in
        let lhs = e (G1.mul_fr G1.generator a) (G2.mul_fr G2.generator b) in
        let rhs = e (G1.mul_fr G1.generator (Fr.mul a b)) G2.generator in
        check_bool "e(aP,bQ) = e(abP,Q)" true (Fq12.equal lhs rhs));
    Alcotest.test_case "multi-pairing cancellation" `Quick (fun () ->
        let p = G1.random st and q = G2.random st in
        let prod = Pairing.multi_pairing [ (p, q); (G1.neg p, q) ] in
        check_bool "e(P,Q)·e(-P,Q) = 1" true (Fq12.is_one prod));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:8 ~name:"e(aP, bQ) = e(P, Q)^(ab)"
         QCheck.(pair int int)
         (fun (sa, sb) ->
           let rs = Random.State.make [| sa; sb |] in
           let p = G1.random rs and q = G2.random rs in
           let a = Fr.random rs and b = Fr.random rs in
           Fq12.equal
             (e (G1.mul_fr p a) (G2.mul_fr q b))
             (Fq12.pow (e p q) (Fr.to_bigint (Fr.mul a b)))));
    Alcotest.test_case "multi-pairing = product of pairings" `Quick (fun () ->
        let p1 = G1.random st and p2 = G1.random st and q1 = G2.random st
        and q2 = G2.random st in
        List.iter
          (fun pairs ->
            let expect =
              List.fold_left (fun acc (p, q) -> Fq12.mul acc (e p q)) Fq12.one pairs
            in
            check_bool
              (Printf.sprintf "%d pairs" (List.length pairs))
              true
              (Fq12.equal (Pairing.multi_pairing pairs) expect))
          [ [];
            [ (p1, q1) ];
            [ (p1, q1); (p2, q2); (G1.neg p2, q1) ];
            [ (G1.zero, q1); (p1, q2); (p2, G2.zero) ];
            [ (G1.zero, G2.zero) ] ]);
    Alcotest.test_case "e(P,Q)^r = 1 and e(P,Q) ≠ 1 for random P, Q" `Quick (fun () ->
        for _ = 1 to 3 do
          let g = e (G1.random st) (G2.random st) in
          check_bool "≠ 1" false (Fq12.is_one g);
          check_bool "^r = 1" true (Fq12.is_one (Fq12.pow g Params.r))
        done);
    Alcotest.test_case "final exponentiation = f^(m(q¹²−1)/r)" `Quick (fun () ->
        (* the hard part raises to λ = m·(q⁴−q²+1)/r; recompute λ from its
           polynomials in u and q and compare against a plain pow *)
        let u = Params.x and q = Params.q in
        let horner x cs = List.fold_left (fun acc c -> B.add (B.mul acc x) c) B.zero cs in
        let pu cs = horner u (List.map B.of_int cs) in
        let lambda =
          horner q [ pu [ 12; 6; 4; -1 ]; pu [ 12; 6; 6; 0 ]; pu [ 12; 6; 4; 0 ]; pu [ 12; 12; 6; 1 ] ]
        in
        let easy = B.mul (B.sub (B.pow q 6) B.one) (B.add (B.pow q 2) B.one) in
        let f = Fq12.random st in
        check_bool "f^(easy·λ)" true
          (Fq12.equal (Pairing.final_exponentiation f) (Fq12.pow f (B.mul easy lambda))));
    Alcotest.test_case "GT pin: sha256(e(G1, G2))" `Quick (fun () ->
        (* any kernel edit that changes GT values must update this pin *)
        Alcotest.(check string)
          "digest" "417d64657a7980c051d27607bd5d39c32568f0069ec56816fa0afbb47cd9ae3e"
          (Zkvc_hash.Sha256.to_hex
             (Zkvc_hash.Sha256.digest (Fq12.to_bytes (e G1.generator G2.generator))))) ]

let () =
  Alcotest.run "zkvc_curve"
    [ ("tower", tower_tests);
      ("g1", G1_suite.tests);
      ("g2", G2_suite.tests);
      ("msm", msm_tests);
      ("pairing", pairing_tests) ]
