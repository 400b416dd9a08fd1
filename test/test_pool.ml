(* Tests for Ron_util.Pool (chunked parallel-for over domains) and
   Ron_util.Fsort (the monomorphic dual-array sort behind Indexed). *)

module Pool = Ron_util.Pool
module Fsort = Ron_util.Fsort
module Rng = Ron_util.Rng

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

(* ----------------------------------------------------------------- Pool *)

let test_parallel_for_covers_all () =
  List.iter
    (fun n ->
      List.iter
        (fun jobs ->
          let hits = Array.make (max n 1) 0 in
          Pool.parallel_for ~jobs n (fun i -> hits.(i) <- hits.(i) + 1);
          check_bool
            (Printf.sprintf "every index once (n=%d jobs=%d)" n jobs)
            (Array.for_all (fun h -> h = 1) (Array.sub hits 0 n)))
        [ 1; 2; 3; 7 ])
    [ 0; 1; 2; 5; 17; 100 ]

let test_parallel_sum_matches_sequential () =
  let n = 1000 in
  let seq = ref 0 in
  for i = 0 to n - 1 do
    seq := !seq + (i * i)
  done;
  List.iter
    (fun jobs ->
      let partial = Array.make n 0 in
      Pool.parallel_for ~jobs n (fun i -> partial.(i) <- i * i);
      check_int
        (Printf.sprintf "sum of squares (jobs=%d)" jobs)
        !seq
        (Array.fold_left ( + ) 0 partial))
    [ 1; 2; 4; 8 ]

let test_init_matches_array_init () =
  List.iter
    (fun jobs ->
      let a = Pool.init ~jobs 57 (fun i -> (i * 3) - 1) in
      check_bool
        (Printf.sprintf "init = Array.init (jobs=%d)" jobs)
        (a = Array.init 57 (fun i -> (i * 3) - 1)))
    [ 1; 3; 5 ]

let test_init_empty () = check_int "empty init" 0 (Array.length (Pool.init ~jobs:4 0 Fun.id))

let test_map_matches_array_map () =
  let input = Array.init 123 (fun i -> i * 7) in
  List.iter
    (fun jobs ->
      let m = Pool.map ~jobs (fun x -> x + 1) input in
      check_bool
        (Printf.sprintf "map = Array.map (jobs=%d)" jobs)
        (m = Array.map (fun x -> x + 1) input))
    [ 1; 2; 6 ]

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match Pool.parallel_for ~jobs 100 (fun i -> if i = 41 then raise (Boom i)) with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 41 -> ()
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e))
    [ 1; 2; 4 ]

let test_exception_first_chunk_wins () =
  (* Two chunks raise; the re-raised one must be from the earliest chunk, so
     the choice is deterministic at any job count. *)
  match Pool.parallel_for ~jobs:4 100 (fun i -> if i = 10 || i = 90 then raise (Boom i)) with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "earliest chunk's exception" 10 i

let test_nested_parallel_for_is_sequential () =
  (* Nested regions must not deadlock or misbehave: the inner call runs
     sequentially on the worker domain. *)
  let n = 8 in
  let acc = Array.make (n * n) 0 in
  Pool.parallel_for ~jobs:2 n (fun i ->
      Pool.parallel_for ~jobs:2 n (fun j -> acc.((i * n) + j) <- (i * n) + j));
  check_bool "nested writes all" (Array.for_all Fun.id (Array.init (n * n) (fun k -> acc.(k) = k)))

let test_jobs_env_default () =
  check_bool "jobs() positive" (Pool.jobs () >= 1)

(* ---------------------------------------------------------------- Fsort *)

let dual_sorted d v =
  let n = Array.length d in
  let ok = ref true in
  for i = 0 to n - 2 do
    if d.(i) > d.(i + 1) then ok := false;
    if d.(i) = d.(i + 1) && v.(i) > v.(i + 1) then ok := false
  done;
  !ok

let reference_dual_sort d v =
  let pairs = Array.init (Array.length d) (fun i -> (d.(i), v.(i))) in
  Array.sort compare pairs;
  (Array.map fst pairs, Array.map snd pairs)

let test_dual_sort_matches_tuple_sort () =
  let rng = Rng.create 424242 in
  for trial = 1 to 200 do
    let n = Rng.int rng 300 in
    (* Coarse values force many duplicate keys, exercising stability. *)
    let d = Array.init n (fun _ -> float_of_int (Rng.int rng 10)) in
    let v = Array.init n Fun.id in
    let (ed, ev) = reference_dual_sort d v in
    Fsort.dual_sort d v;
    check_bool (Printf.sprintf "trial %d keys" trial) (d = ed);
    check_bool (Printf.sprintf "trial %d values (id tie-break)" trial) (v = ev);
    check_bool (Printf.sprintf "trial %d sorted" trial) (dual_sorted d v)
  done

let test_dual_sort_with_scratch () =
  let scratch_d = Array.make 64 0.0 and scratch_v = Array.make 64 0 in
  let rng = Rng.create 7 in
  for _ = 1 to 50 do
    let n = Rng.int rng 64 in
    let d = Array.init n (fun _ -> Rng.float rng 4.0) in
    let v = Array.init n Fun.id in
    let (ed, ev) = reference_dual_sort d v in
    Fsort.dual_sort ~scratch_d ~scratch_v d v;
    check_bool "scratch run keys" (d = ed);
    check_bool "scratch run values" (v = ev)
  done

let test_sort_floats () =
  let rng = Rng.create 99 in
  for _ = 1 to 50 do
    let a = Array.init (Rng.int rng 200) (fun _ -> Rng.float rng 1.0) in
    let expect = Array.copy a in
    Array.sort compare expect;
    Fsort.sort_floats a;
    check_bool "floats sorted" (a = expect)
  done

let test_inside_chunk_flag () =
  check_bool "false outside any region" (not (Pool.inside_chunk ()));
  (* The flag answers identically at every job count — a jobs=1 body is
     still "in a chunk" — so chunk-gated code (telemetry sampling) cannot
     behave differently depending on how the work was split. *)
  List.iter
    (fun jobs ->
      let seen = Array.make 8 false in
      Pool.parallel_for ~jobs 8 (fun i -> seen.(i) <- Pool.inside_chunk ());
      check_bool
        (Printf.sprintf "true inside every chunk at jobs=%d" jobs)
        (Array.for_all Fun.id seen))
    [ 1; 3 ];
  check_bool "restored after the region" (not (Pool.inside_chunk ()))

let test_observer_fires_once_per_top_level_batch () =
  let batches = ref [] in
  Pool.set_observer (fun ~jobs ~items -> batches := (jobs, items) :: !batches);
  Fun.protect
    ~finally:(fun () -> Pool.set_observer (fun ~jobs:_ ~items:_ -> ()))
    (fun () ->
      Pool.parallel_for ~jobs:2 6 (fun _ -> ());
      (* Nested and jobs=1-nested regions are implementation details of
         the outer batch: no observer call, at any top-level job count. *)
      List.iter
        (fun jobs ->
          Pool.parallel_for ~jobs 4 (fun _ -> Pool.parallel_for ~jobs:2 3 (fun _ -> ())))
        [ 1; 2 ];
      Pool.parallel_for ~jobs:1 0 (fun _ -> ()));
  check_bool "one record per top-level nonempty batch"
    (List.rev !batches = [ (2, 6); (1, 4); (2, 4) ])

(* RON_JOBS: absent or empty keeps the default; a malformed value fails
   with an error naming the variable and the value. *)
let test_jobs_env_validated () =
  check_bool "absent" (Pool.jobs_of_env None = None);
  check_bool "empty" (Pool.jobs_of_env (Some "") = None);
  check_bool "blank" (Pool.jobs_of_env (Some " ") = None);
  check_bool "4" (Pool.jobs_of_env (Some "4") = Some 4);
  check_bool "padded" (Pool.jobs_of_env (Some " 2 ") = Some 2);
  List.iter
    (fun v ->
      Alcotest.check_raises v
        (Invalid_argument (Printf.sprintf "bad RON_JOBS %S (expected an integer >= 1)" v))
        (fun () -> ignore (Pool.jobs_of_env (Some v))))
    [ "four"; "0"; "-2"; "3x" ]

let test_sort_ints () =
  let a = [| 5; -1; 3; 3; 0; 42; -7 |] in
  Fsort.sort_ints a;
  check_bool "ints sorted" (a = [| -7; -1; 0; 3; 3; 5; 42 |])

let () =
  Alcotest.run "ron_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "covers every index once" `Quick test_parallel_for_covers_all;
          Alcotest.test_case "sum matches sequential" `Quick test_parallel_sum_matches_sequential;
          Alcotest.test_case "init = Array.init" `Quick test_init_matches_array_init;
          Alcotest.test_case "init n=0" `Quick test_init_empty;
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_array_map;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "earliest chunk's exception wins" `Quick test_exception_first_chunk_wins;
          Alcotest.test_case "nested regions run sequentially" `Quick test_nested_parallel_for_is_sequential;
          Alcotest.test_case "jobs() sane" `Quick test_jobs_env_default;
          Alcotest.test_case "RON_JOBS values validated" `Quick test_jobs_env_validated;
          Alcotest.test_case "inside_chunk is jobs-invariant" `Quick test_inside_chunk_flag;
          Alcotest.test_case "observer fires once per top-level batch" `Quick
            test_observer_fires_once_per_top_level_batch;
        ] );
      ( "fsort",
        [
          Alcotest.test_case "dual_sort = tuple sort" `Quick test_dual_sort_matches_tuple_sort;
          Alcotest.test_case "dual_sort reusable scratch" `Quick test_dual_sort_with_scratch;
          Alcotest.test_case "sort_floats" `Quick test_sort_floats;
          Alcotest.test_case "sort_ints" `Quick test_sort_ints;
        ] );
    ]
