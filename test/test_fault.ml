(* Tests for ron_fault: the deterministic failure models, the retry/
   fallback wrapper, and the two bit-identity guarantees the experiment
   pipeline leans on — same seed => same fault schedule at every job
   count, and a null model => byte-identical to the fault-free path. *)

module Rng = Ron_util.Rng
module Pool = Ron_util.Pool
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric
module Scheme = Ron_routing.Scheme
module Basic = Ron_routing.Basic
module Labelled = Ron_routing.Labelled
module Two_mode = Ron_routing.Two_mode
module Meridian = Ron_smallworld.Meridian
module Fault = Ron_fault.Fault

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

let sp_fixture = lazy (Sp_metric.create (Graph_gen.grid 8 8))

let sample_pairs rng ~n ~count =
  List.init count (fun _ ->
      let u = Rng.int rng n in
      let v = Rng.int rng n in
      (u, v))
  |> List.filter (fun (u, v) -> u <> v)

(* ---------------------------------------------------------------- model *)

let test_make_deterministic () =
  let mk () =
    Fault.make ~seed:7 ~crash_fraction:0.1 ~drop_rate:0.05 ~dead_link_fraction:0.05 ~n:200 ()
  in
  let a = mk () and b = mk () in
  check_bool "crashed sets equal" (Fault.crashed_nodes a = Fault.crashed_nodes b);
  check_bool "describe equal" (Fault.describe a = Fault.describe b);
  for q = 0 to 20 do
    for hop = 0 to 20 do
      check_bool "drop schedule equal"
        (Fault.drops a ~query:q ~hop = Fault.drops b ~query:q ~hop)
    done
  done;
  for u = 0 to 40 do
    for v = 0 to 40 do
      check_bool "dead links equal" (Fault.link_dead a u v = Fault.link_dead b u v)
    done
  done

let test_make_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "crash_fraction 1.0 rejected"
    (bad (fun () -> Fault.make ~crash_fraction:1.0 ~n:10 ()));
  check_bool "negative drop_rate rejected" (bad (fun () -> Fault.make ~drop_rate:(-0.1) ~n:10 ()));
  check_bool "dead_link_fraction 2.0 rejected"
    (bad (fun () -> Fault.make ~dead_link_fraction:2.0 ~n:10 ()));
  check_bool "negative n rejected" (bad (fun () -> Fault.make ~n:(-1) ()))

let test_crashed_set () =
  let n = 200 in
  let f = Fault.make ~seed:3 ~crash_fraction:0.1 ~n () in
  check_int "floor(0.1 * 200) crashed" 20 (Fault.crash_count f);
  let set = Fault.crashed_nodes f in
  check_int "crashed_nodes length" 20 (Array.length set);
  Array.iter (fun v -> check_bool "listed node is crashed" (Fault.crashed f v)) set;
  let listed v = Array.exists (( = ) v) set in
  for v = 0 to n - 1 do
    check_bool "crashed iff listed" (Fault.crashed f v = listed v)
  done;
  check_bool "out of range not crashed" (not (Fault.crashed f (-1) || Fault.crashed f n))

let test_link_dead_symmetric () =
  let f = Fault.make ~seed:5 ~dead_link_fraction:0.3 ~n:60 () in
  let some_dead = ref false and some_live = ref false in
  for u = 0 to 59 do
    for v = 0 to 59 do
      let d = Fault.link_dead f u v in
      check_bool "symmetric" (d = Fault.link_dead f v u);
      if u <> v then if d then some_dead := true else some_live := true
    done
  done;
  check_bool "some links dead at 0.3" !some_dead;
  check_bool "some links live at 0.3" !some_live

let test_drop_schedule_varies () =
  let f = Fault.make ~seed:9 ~drop_rate:0.5 ~n:10 () in
  let hits = ref 0 and total = 0 + (50 * 50) in
  for q = 0 to 49 do
    for hop = 0 to 49 do
      if Fault.drops f ~query:q ~hop then incr hits
    done
  done;
  (* A fair-ish coin: both outcomes occur, and the rate is in the right
     ballpark (the draws are a hash chain, not a statistical claim). *)
  check_bool "some drops" (!hits > total / 4);
  check_bool "some passes" (!hits < 3 * total / 4)

(* -------------------------------------------------------------- wrapper *)

(* Drive the wrapped hop directly with a toy hop: the primary next hop is
   always a crashed node, so the packet survives iff the alternates list
   offers a live one. *)
let test_wrapper_detours_to_live_alternate () =
  let f = Fault.make ~seed:1 ~crash_fraction:0.3 ~n:10 () in
  let crashed_v = (Fault.crashed_nodes f).(0) in
  let live_v =
    let v = ref 0 in
    while Fault.crashed f !v do incr v done;
    !v
  in
  let w = Fault.wrapper f ~query:0 in
  check_bool "cycle detection off under faults" (not w.Scheme.detect_cycles);
  let r = Scheme.regs () in
  let hop _ s = Scheme.forward_to r crashed_v s 1.0 in
  let wrapped =
    w.Scheme.wrap r hop ~alternates:(fun _ s -> [ (crashed_v, s, 1.0); (live_v, s, 2.0) ])
  in
  check_int "forwarded" Scheme.forward (wrapped 8 0);
  check_int "detoured to the live alternate" live_v r.Scheme.next;
  Alcotest.(check (float 0.0)) "at the alternate's link cost" 2.0 r.Scheme.link.(0);
  let wrapped_dead = w.Scheme.wrap r hop ~alternates:(fun _ s -> [ (crashed_v, s, 1.0) ]) in
  check_int "dropped when every alternate is dead" Scheme.drop (wrapped_dead 8 0)

let test_wrapper_drop_schedule_matches_simulate () =
  (* A pure line walk under a drop-only model: the loop's outcome is
     predictable from the drop schedule alone. *)
  let f = Fault.make ~seed:2 ~drop_rate:0.4 ~n:16 () in
  let hops_to_deliver = 6 in
  List.iter
    (fun query ->
      let first_drop = ref None in
      for hop = hops_to_deliver - 1 downto 0 do
        if Fault.drops f ~query ~hop then first_drop := Some hop
      done;
      let r = Scheme.live () in
      let res =
        Scheme.route ~wrapper:(Fault.wrapper f ~query) r ~header_bits:0 ~max_hops:100 ~src:0
          ~dst:hops_to_deliver 0 (fun u s ->
            if u = r.Scheme.target then Scheme.deliver else Scheme.forward_to r (u + 1) s 1.0)
      in
      match !first_drop with
      | None ->
        check_bool "delivered when no coin fires" (res.Scheme.outcome = Scheme.Delivered);
        check_int "full walk" hops_to_deliver res.Scheme.hops
      | Some k ->
        check_bool "dropped when a coin fires" (res.Scheme.outcome = Scheme.Dropped);
        check_int "dropped at the scheduled hop" k res.Scheme.hops)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* -------------------------------------------- rate 0 => byte-identical *)

let test_null_wrapper_is_identity () =
  let f = Fault.make ~seed:99 ~n:50 () in
  check_bool "all-zero rates are null" (Fault.is_null f);
  check_bool "null wrapper is THE identity wrapper"
    (Fault.wrapper f ~query:0 == Scheme.identity_wrapper);
  check_bool "none is null" (Fault.is_null Fault.none)

let test_rate_zero_identical_graph_schemes () =
  let sp = Lazy.force sp_fixture in
  let n = Ron_graph.Graph.size (Sp_metric.graph sp) in
  let null = Fault.make ~seed:4242 ~n () in
  let pairs = sample_pairs (Rng.create 21) ~n ~count:200 in
  let b = Basic.build sp ~delta:0.25 in
  let l = Labelled.build sp ~delta:0.25 in
  List.iteri
    (fun i (u, v) ->
      let w = Fault.wrapper null ~query:i in
      check_bool "basic identical"
        (Basic.route b ~src:u ~dst:v = Basic.route_wrapped w b ~src:u ~dst:v);
      check_bool "labelled identical"
        (Labelled.route l ~src:u ~dst:v = Labelled.route_wrapped w l ~src:u ~dst:v))
    pairs

let test_rate_zero_identical_two_mode () =
  let idx = Indexed.create (Generators.grid2d 6 6) in
  let tm = Two_mode.build idx ~delta:0.125 in
  let n = Indexed.size idx in
  let pairs = sample_pairs (Rng.create 22) ~n ~count:100 in
  let null = Fault.make ~seed:7 ~n () in
  List.iteri
    (fun i (u, v) ->
      let w = Fault.wrapper null ~query:i in
      check_bool "two-mode identical"
        (Two_mode.route tm ~src:u ~dst:v = Two_mode.route_wrapped w tm ~src:u ~dst:v))
    pairs

let test_rate_zero_identical_meridian () =
  let idx = Indexed.create (Generators.random_cloud (Rng.create 4) ~n:120 ~dim:2) in
  let members = Array.init 100 Fun.id in
  let t = Meridian.build idx (Rng.create 5) ~ring_size:6 ~members in
  let null = Fault.make ~seed:1 ~n:120 () in
  for target = 100 to 119 do
    let start = target mod 100 in
    check_bool "meridian identical"
      (Meridian.closest t ~start ~target
      = Meridian.closest ~fault:(null, target) t ~start ~target)
  done

(* ------------------------------------------- jobs-invariant schedules *)

let test_fault_routes_jobs_invariant () =
  (* The whole point of keying every draw by (seed, query, hop): routing a
     batch under faults must give identical results at jobs=1 and jobs=4,
     whatever the evaluation order. *)
  let sp = Lazy.force sp_fixture in
  let n = Ron_graph.Graph.size (Sp_metric.graph sp) in
  let b = Basic.build sp ~delta:0.25 in
  let f =
    Fault.make ~seed:4242 ~crash_fraction:0.1 ~drop_rate:0.02 ~dead_link_fraction:0.02 ~n ()
  in
  let pairs =
    sample_pairs (Rng.create 31) ~n ~count:300
    |> List.filter (fun (u, v) -> not (Fault.crashed f u || Fault.crashed f v))
    |> Array.of_list
  in
  let run ~jobs =
    Pool.init ~jobs (Array.length pairs) (fun i ->
        let (u, v) = pairs.(i) in
        Basic.route_wrapped (Fault.wrapper f ~query:i) b ~src:u ~dst:v)
  in
  let r1 = run ~jobs:1 and r4 = run ~jobs:4 in
  check_bool "jobs=1 equals jobs=4" (r1 = r4);
  check_bool "rerun equals first run" (run ~jobs:4 = r4);
  (* The sweep actually exercised the fault machinery. *)
  check_bool "some packets dropped"
    (Array.exists (fun r -> r.Scheme.outcome = Scheme.Dropped) r1);
  let d = Array.fold_left (fun a r -> if r.Scheme.delivered then a + 1 else a) 0 r1 in
  check_bool
    (Printf.sprintf "most packets still delivered (%d/%d)" d (Array.length pairs))
    (2 * d > Array.length pairs)

let () =
  Alcotest.run "ron_fault"
    [
      ( "model",
        [
          Alcotest.test_case "make is deterministic" `Quick test_make_deterministic;
          Alcotest.test_case "make validates rates" `Quick test_make_validation;
          Alcotest.test_case "crashed set" `Quick test_crashed_set;
          Alcotest.test_case "dead links symmetric" `Quick test_link_dead_symmetric;
          Alcotest.test_case "drop schedule varies" `Quick test_drop_schedule_varies;
        ] );
      ( "wrapper",
        [
          Alcotest.test_case "detours to live alternate" `Quick
            test_wrapper_detours_to_live_alternate;
          Alcotest.test_case "drop schedule drives simulate" `Quick
            test_wrapper_drop_schedule_matches_simulate;
        ] );
      ( "rate zero",
        [
          Alcotest.test_case "null wrapper is identity" `Quick test_null_wrapper_is_identity;
          Alcotest.test_case "graph schemes byte-identical" `Quick
            test_rate_zero_identical_graph_schemes;
          Alcotest.test_case "two-mode byte-identical" `Quick test_rate_zero_identical_two_mode;
          Alcotest.test_case "meridian byte-identical" `Quick test_rate_zero_identical_meridian;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fault routes jobs-invariant" `Quick
            test_fault_routes_jobs_invariant;
        ] );
    ]
