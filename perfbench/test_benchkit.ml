(* Tests of the benchmark's measurement helpers. *)

module Bk = Benchkit

let check_int = Alcotest.(check int)

let test_percentile_ranks () =
  let xs = Array.init 1000 (fun i -> i + 1) in
  let p50 = Bk.percentile xs ~per_mille:500 in
  check_int "p50 value" 500 p50.Bk.value;
  check_int "p50 beyond" 500 p50.Bk.beyond;
  let p99 = Bk.percentile xs ~per_mille:990 in
  (* Rank 990 exactly: 0.99 * 1000 must not round up to 991. *)
  check_int "p99 value" 990 p99.Bk.value;
  check_int "p99 samples" 1000 p99.Bk.samples;
  check_int "p99 beyond" 10 p99.Bk.beyond;
  let max = Bk.percentile xs ~per_mille:1000 in
  check_int "p100 is the maximum" 1000 max.Bk.value;
  check_int "nothing beyond the maximum" 0 max.Bk.beyond

let test_percentile_small () =
  let xs = [| 7 |] in
  let p = Bk.percentile xs ~per_mille:990 in
  check_int "single sample" 7 p.Bk.value;
  check_int "nothing beyond a single sample" 0 p.Bk.beyond;
  (* 101 samples: rank ceil(0.99 * 101) = 100, one sample beyond. *)
  let xs = Array.init 101 Fun.id in
  let p = Bk.percentile xs ~per_mille:990 in
  check_int "rank rounds up" 99 p.Bk.value;
  check_int "one beyond" 1 p.Bk.beyond;
  Alcotest.check_raises "empty" (Invalid_argument "Benchkit.percentile: empty sample")
    (fun () -> ignore (Bk.percentile [||] ~per_mille:500))

let span ~id ~parent a b =
  { Bk.id; parent; name = "s"; run = "r"; start_ns = Int64.of_int a; stop_ns = Int64.of_int b }

let test_self_time () =
  let root = span ~id:0 ~parent:(-1) 0 100 in
  (* Children [10, 30) and [20, 50) overlap: together they cover 40 ns. A
     grandchild is covered by its parent and does not count again. *)
  let spans =
    [
      root; span ~id:1 ~parent:0 10 30; span ~id:2 ~parent:0 20 50; span ~id:3 ~parent:1 12 14;
      span ~id:4 ~parent:0 90 120;
    ]
  in
  (* The last child sticks out of the root; only [90, 100) is charged. *)
  check_int "root self" (100 - 40 - 10) (Bk.self_ns spans root);
  check_int "child self" (20 - 2) (Bk.self_ns spans (List.nth spans 1));
  check_int "leaf self" 2 (Bk.self_ns spans (List.nth spans 3));
  check_int "no children" 100 (Bk.self_ns [ root ] root)

let test_recorder () =
  let t = ref 0L in
  let clock () =
    t := Int64.add !t 10L;
    !t
  in
  let r = Bk.recorder ~enabled:true ~run_id:"w/1" ~clock in
  Bk.with_span r "outer" (fun () -> Bk.with_span r "inner" (fun () -> ()));
  let spans = Bk.spans r in
  check_int "two spans" 2 (List.length spans);
  let outer = List.nth spans 0 and inner = List.nth spans 1 in
  check_int "inner parent" outer.Bk.id inner.Bk.parent;
  check_int "outer duration" 30 (Bk.duration_ns outer);
  check_int "outer self" 20 (Bk.self_ns_named spans "outer");
  let off = Bk.recorder ~enabled:false ~run_id:"w/1" ~clock in
  check_int "disabled recorder returns the body's value" 3 (Bk.with_span off "x" (fun () -> 3));
  check_int "and records nothing" 0 (List.length (Bk.spans off))

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Bk.valid_name n))
    [ "qps"; "serve.query_ns"; "9lives"; "a-b_c.d" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Bk.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Bk.valid_unit u))
    [ "ms"; "s"; "1/s"; "count"; "%"; "queries/s" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (Bk.valid_unit u))
    [ ""; "per second"; String.make 17 's' ]

let test_catalogue () =
  let all = Bk.end_to_end @ Bk.per_layer in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("name " ^ n) true (Bk.valid_name n);
      Alcotest.(check bool) ("unit " ^ u) true (Bk.valid_unit u))
    all;
  let names = List.map fst all in
  check_int "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "setup_s is end to end" true (List.mem_assoc "setup_s" Bk.end_to_end)

let () =
  Alcotest.run "benchkit"
    [
      ( "percentile",
        [
          Alcotest.test_case "ranks and counts" `Quick test_percentile_ranks;
          Alcotest.test_case "small samples" `Quick test_percentile_small;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "names",
        [
          Alcotest.test_case "syntax" `Quick test_names;
          Alcotest.test_case "catalogue" `Quick test_catalogue;
        ] );
    ]
