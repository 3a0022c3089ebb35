module Sha256 = Zkvc_hash.Sha256
module Merkle = Zkvc_hash.Merkle

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* FIPS 180-4 / NIST CAVP vectors *)
let test_vectors () =
  check_str "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex_of_string "");
  check_str "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex_of_string "abc");
  check_str "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex_of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex_of_string (String.make 1_000_000 'a'))

let test_incremental_matches_oneshot () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let oneshot = Sha256.to_hex (Sha256.digest_string data) in
  (* feed in pieces of every size from 1 to 130 to cross block boundaries *)
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < String.length data do
        let take = Stdlib.min chunk (String.length data - !pos) in
        Sha256.update_string ctx (String.sub data !pos take);
        pos := !pos + take
      done;
      check_str (Printf.sprintf "chunk %d" chunk) oneshot (Sha256.to_hex (Sha256.finalize ctx)))
    [ 1; 7; 31; 63; 64; 65; 127; 128; 130 ]

let prop_incremental =
  QCheck.Test.make ~name:"incremental = oneshot" ~count:100
    (QCheck.pair QCheck.string QCheck.string)
    (fun (a, b) ->
      let ctx = Sha256.init () in
      Sha256.update_string ctx a;
      Sha256.update_string ctx b;
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest_string (a ^ b)))

(* Regression: the message schedule used to be one module-level array, so
   two domains hashing at once corrupted each other's digests. *)
let test_domains_hash_independently () =
  let n = 10_000 in
  (* 100-byte inputs span two compression blocks each *)
  let input d i = Printf.sprintf "domain-%d-input-%06d-%s" d i (String.make 70 (Char.chr (97 + d))) in
  let expected = Array.init 2 (fun d -> Array.init n (fun i -> Sha256.digest_string (input d i))) in
  let worker d () =
    let bad = ref 0 in
    for i = 0 to n - 1 do
      if not (Bytes.equal (Sha256.digest_string (input d i)) expected.(d).(i)) then incr bad
    done;
    !bad
  in
  let domains = List.init 2 (fun d -> Domain.spawn (worker d)) in
  List.iteri
    (fun d dom ->
      Alcotest.(check int) (Printf.sprintf "domain %d corrupted digests" d) 0 (Domain.join dom))
    domains

let leaves n = List.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" i))

let test_merkle_roundtrip () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let tree = Merkle.of_leaves ls in
      List.iteri
        (fun i leaf ->
          let path = Merkle.path tree i in
          check_bool
            (Printf.sprintf "n=%d leaf=%d verifies" n i)
            true
            (Merkle.verify ~root:(Merkle.root tree) ~leaf ~index:i ~path))
        ls)
    [ 1; 2; 3; 4; 5; 7; 8; 16; 33 ]

let test_merkle_rejects_tamper () =
  let tree = Merkle.of_leaves (leaves 8) in
  let root = Merkle.root tree in
  let path = Merkle.path tree 3 in
  check_bool "wrong leaf" false
    (Merkle.verify ~root ~leaf:(Bytes.of_string "evil") ~index:3 ~path);
  check_bool "wrong index" false
    (Merkle.verify ~root ~leaf:(Bytes.of_string "leaf-3") ~index:4 ~path);
  let bad_root = Bytes.copy root in
  Bytes.set bad_root 0 (Char.chr (Char.code (Bytes.get bad_root 0) lxor 1));
  check_bool "wrong root" false
    (Merkle.verify ~root:bad_root ~leaf:(Bytes.of_string "leaf-3") ~index:3 ~path)

let test_merkle_distinct_roots () =
  let r1 = Merkle.root (Merkle.of_leaves (leaves 4)) in
  let r2 = Merkle.root (Merkle.of_leaves (leaves 5)) in
  check_bool "different leaf sets, different roots" false (Bytes.equal r1 r2)

module T = Zkvc_transcript.Transcript
module Ch = T.Challenge (Zkvc_field.Fr)

let test_transcript_determinism () =
  let run () =
    let t = T.create ~label:"test" in
    T.absorb_string t ~label:"a" "hello";
    Ch.absorb t ~label:"x" (Zkvc_field.Fr.of_int 42);
    Ch.challenge t ~label:"c"
  in
  check_bool "same inputs, same challenge" true (Zkvc_field.Fr.equal (run ()) (run ()))

let test_transcript_sensitivity () =
  let chal absorb_what =
    let t = T.create ~label:"test" in
    T.absorb_string t ~label:"a" absorb_what;
    Ch.challenge t ~label:"c"
  in
  check_bool "different absorptions, different challenges" false
    (Zkvc_field.Fr.equal (chal "hello") (chal "hellp"))

let test_transcript_label_sensitivity () =
  let chal label =
    let t = T.create ~label:"test" in
    T.absorb_string t ~label "payload";
    Ch.challenge t ~label:"c"
  in
  check_bool "labels matter" false (Zkvc_field.Fr.equal (chal "l1") (chal "l2"))

let test_transcript_challenges_differ () =
  let t = T.create ~label:"test" in
  let c1 = Ch.challenge t ~label:"c" in
  let c2 = Ch.challenge t ~label:"c" in
  check_bool "successive challenges differ" false (Zkvc_field.Fr.equal c1 c2)

let test_transcript_clone () =
  let t = T.create ~label:"test" in
  T.absorb_string t ~label:"a" "shared prefix";
  let t' = T.clone t in
  let c = Ch.challenge t ~label:"c" and c' = Ch.challenge t' ~label:"c" in
  check_bool "clone replays identically" true (Zkvc_field.Fr.equal c c')

let () =
  Alcotest.run "zkvc_hash"
    [ ( "sha256",
        [ Alcotest.test_case "NIST vectors" `Quick test_vectors;
          Alcotest.test_case "incremental" `Quick test_incremental_matches_oneshot;
          QCheck_alcotest.to_alcotest prop_incremental;
          Alcotest.test_case "two domains hash concurrently" `Quick
            test_domains_hash_independently ] );
      ( "merkle",
        [ Alcotest.test_case "roundtrip" `Quick test_merkle_roundtrip;
          Alcotest.test_case "tamper rejected" `Quick test_merkle_rejects_tamper;
          Alcotest.test_case "distinct roots" `Quick test_merkle_distinct_roots ] );
      ( "transcript",
        [ Alcotest.test_case "determinism" `Quick test_transcript_determinism;
          Alcotest.test_case "input sensitivity" `Quick test_transcript_sensitivity;
          Alcotest.test_case "label sensitivity" `Quick test_transcript_label_sensitivity;
          Alcotest.test_case "fresh challenges" `Quick test_transcript_challenges_differ;
          Alcotest.test_case "clone" `Quick test_transcript_clone ] ) ]
