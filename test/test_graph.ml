(* Tests for the ron_graph library: Graph, Dijkstra, Sp_metric, Graph_gen. *)

module Rng = Ron_util.Rng
module Graph = Ron_graph.Graph
module Dijkstra = Ron_graph.Dijkstra
module Sp_metric = Ron_graph.Sp_metric
module Graph_gen = Ron_graph.Graph_gen
module Metric = Ron_metric.Metric

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)
let check_float msg = Alcotest.(check (float 1e-9)) msg

(* ---------------------------------------------------------------- Graph *)

let test_graph_basics () =
  let g = Graph.undirected 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.5) ] in
  check_int "size" 4 (Graph.size g);
  check_int "degree of 1" 2 (Graph.out_degree g 1);
  check_int "max degree" 2 (Graph.max_out_degree g);
  check_int "arcs" 6 (Graph.edge_count g);
  check_bool "connected" (Graph.is_connected g)

let test_graph_rejects_bad_input () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop") (fun () ->
      ignore (Graph.create 2 [ (0, 0, 1.0) ]));
  Alcotest.check_raises "bad weight" (Invalid_argument "Graph.create: weight must be positive")
    (fun () -> ignore (Graph.create 2 [ (0, 1, 0.0) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.create: node out of range") (fun () ->
      ignore (Graph.create 2 [ (0, 5, 1.0) ]))

let test_graph_disconnected () =
  let g = Graph.undirected 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  check_bool "disconnected" (not (Graph.is_connected g))

(* ------------------------------------------------------------- Dijkstra *)

let floyd_warshall g =
  let n = Graph.size g in
  let d = Array.make_matrix n n infinity in
  for u = 0 to n - 1 do
    d.(u).(u) <- 0.0;
    Array.iter
      (fun e -> d.(u).(e.Graph.dst) <- Float.min d.(u).(e.Graph.dst) e.Graph.weight)
      (Graph.out_edges g u)
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) +. d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) +. d.(k).(j)
      done
    done
  done;
  d

let random_graph seed n extra =
  let rng = Rng.create seed in
  (* Random spanning tree plus extra random edges: always connected. *)
  let edges = ref [] in
  for v = 1 to n - 1 do
    let u = Rng.int rng v in
    edges := (u, v, 0.5 +. Rng.float rng 4.5) :: !edges
  done;
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then edges := (u, v, 0.5 +. Rng.float rng 4.5) :: !edges
  done;
  Graph.undirected n !edges

let test_dijkstra_matches_floyd_warshall () =
  let g = random_graph 1 40 60 in
  let fw = floyd_warshall g in
  let ap = Dijkstra.all_pairs g in
  for u = 0 to 39 do
    for v = 0 to 39 do
      check_bool "distance agrees" (Float.abs (fw.(u).(v) -. Dijkstra.distance ap u v) < 1e-9)
    done
  done

let test_flat_apsp_matches_reference () =
  (* The flat heap must reproduce the boxed reference implementation bit for
     bit: distances by float equality (not tolerance), first hops exactly. *)
  List.iter
    (fun seed ->
      let n = 30 + (seed * 7) in
      let g = random_graph (100 + seed) n (2 * n) in
      let ap = Dijkstra.all_pairs g in
      let ref_ap = Dijkstra.all_pairs_reference g in
      for u = 0 to n - 1 do
        let s = ref_ap.(u) in
        for v = 0 to n - 1 do
          check_bool "dist bit-identical"
            (Float.equal (Dijkstra.distance ap u v) s.Dijkstra.dist.(v));
          check_int "first hop identical" s.Dijkstra.first_hop.(v) (Dijkstra.first_hop ap u v)
        done
      done)
    [ 1; 2; 3 ]

let test_all_pairs_jobs_bit_identical () =
  (* Same contract as test_pool.ml: any job count, identical bits. *)
  let g = random_graph 11 60 120 in
  let a1 = Dijkstra.all_pairs ~jobs:1 g in
  let a4 = Dijkstra.all_pairs ~jobs:4 g in
  for u = 0 to 59 do
    for v = 0 to 59 do
      check_bool "dist jobs=1 = jobs=4" (Float.equal (Dijkstra.distance a1 u v) (Dijkstra.distance a4 u v));
      check_int "fh jobs=1 = jobs=4" (Dijkstra.first_hop a1 u v) (Dijkstra.first_hop a4 u v)
    done
  done

let prop_flat_apsp_vs_floyd_warshall =
  QCheck.Test.make ~name:"flat all-pairs matches Floyd-Warshall on random connected graphs"
    ~count:12
    QCheck.(int_range 5 45)
    (fun n ->
      let g = random_graph (n * 13 + 5) n (3 * n / 2) in
      let fw = floyd_warshall g in
      let ap = Dijkstra.all_pairs g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Float.abs (fw.(u).(v) -. Dijkstra.distance ap u v) > 1e-9 then ok := false;
          (* The first hop must start a shortest path: one edge of the right
             weight, then a shortest remainder. *)
          if u <> v then begin
            let next = Dijkstra.next_toward g ap u v in
            let w =
              Array.fold_left
                (fun acc e -> if e.Graph.dst = next then Float.min acc e.Graph.weight else acc)
                infinity (Graph.out_edges g u)
            in
            if Float.abs (w +. fw.(next).(v) -. fw.(u).(v)) > 1e-9 then ok := false
          end
        done
      done;
      !ok)

let test_dijkstra_first_hop_walk () =
  (* Walking first hops from u must reach v with total length = dist. *)
  let g = random_graph 2 50 80 in
  let sp = Sp_metric.create g in
  for u = 0 to 49 do
    for v = 0 to 49 do
      if u <> v then begin
        let rec walk cur acc guard =
          if guard > 1000 then Alcotest.fail "walk did not terminate";
          if cur = v then acc
          else begin
            let next = Sp_metric.next_toward sp cur v in
            (* Parallel edges are possible in the random graph: a shortest
               path uses the lightest one. *)
            let w =
              Array.fold_left
                (fun acc e -> if e.Graph.dst = next then Float.min acc e.Graph.weight else acc)
                infinity (Graph.out_edges g cur)
            in
            walk next (acc +. w) (guard + 1)
          end
        in
        let len = walk u 0.0 0 in
        check_bool "walk length = distance" (Float.abs (len -. Sp_metric.dist sp u v) < 1e-6)
      end
    done
  done

let test_dijkstra_source () =
  let g = random_graph 3 10 10 in
  let s = Dijkstra.run g 4 in
  check_float "self distance" 0.0 s.Dijkstra.dist.(4);
  check_int "self first hop" (-1) s.Dijkstra.first_hop.(4)

let test_sp_metric_is_metric () =
  let g = random_graph 4 30 40 in
  let sp = Sp_metric.create g in
  check_bool "valid metric" (Result.is_ok (Metric.check (Sp_metric.metric sp)))

let test_sp_metric_path () =
  let g = Graph_gen.grid 5 5 in
  let sp = Sp_metric.create g in
  let p = Sp_metric.path sp 0 24 in
  check_int "path hops" 9 (List.length p);
  check_int "starts at src" 0 (List.hd p);
  check_int "ends at dst" 24 (List.nth p 8)

(* ------------------------------------------------------------ Graph_gen *)

let test_grid_properties () =
  let g = Graph_gen.grid 6 4 in
  check_int "size" 24 (Graph.size g);
  check_bool "connected" (Graph.is_connected g);
  check_int "max degree" 4 (Graph.max_out_degree g);
  let sp = Sp_metric.create g in
  check_float "manhattan distance" 8.0 (Sp_metric.dist sp 0 23)

let test_torus_properties () =
  let g = Graph_gen.torus 5 5 in
  check_bool "connected" (Graph.is_connected g);
  let sp = Sp_metric.create g in
  (* Wrap-around: opposite corner is 2+2 away, not 4+4. *)
  check_float "torus wraps" 4.0 (Sp_metric.dist sp 0 18)

let test_random_geometric_connected () =
  List.iter
    (fun seed ->
      let g = Graph_gen.random_geometric (Rng.create seed) ~n:80 ~radius:0.12 in
      check_bool "forced connectivity" (Graph.is_connected g))
    [ 1; 2; 3; 4; 5 ]

let test_ring_with_chords_metric () =
  (* Chords are weighted by ring distance, so the metric equals the plain
     ring metric. *)
  let g = Graph_gen.ring_with_chords (Rng.create 8) ~n:20 ~chords:15 in
  let sp = Sp_metric.create g in
  for u = 0 to 19 do
    for v = 0 to 19 do
      let k = abs (u - v) in
      let expect = float_of_int (min k (20 - k)) in
      check_bool "ring metric preserved" (Float.abs (Sp_metric.dist sp u v -. expect) < 1e-9)
    done
  done

let test_exponential_line_graph_metric () =
  let g = Graph_gen.exponential_line_graph 10 in
  let sp = Sp_metric.create g in
  check_float "endpoints" (float_of_int ((1 lsl 9) - 1)) (Sp_metric.dist sp 0 9);
  check_float "middle" (float_of_int ((1 lsl 5) - (1 lsl 2))) (Sp_metric.dist sp 2 5)

(* ------------------------------------------------------------ Hop_paths *)

module Hop_paths = Ron_graph.Hop_paths

let test_hop_paths_grid_exact () =
  (* At stretch 1 on a unit grid, the minimum hop count is the Manhattan
     distance itself. *)
  let sp = Sp_metric.create (Graph_gen.grid 5 5) in
  let hops = Hop_paths.min_hops_within_stretch sp ~src:0 ~stretch:1.0 in
  for v = 0 to 24 do
    check_int "hops = manhattan" (int_of_float (Sp_metric.dist sp 0 v)) hops.(v)
  done

let test_hop_paths_monotone_in_stretch () =
  let g = random_graph 6 40 80 in
  let sp = Sp_metric.create g in
  let tight = Hop_paths.min_hops_within_stretch sp ~src:3 ~stretch:1.0 in
  let loose = Hop_paths.min_hops_within_stretch sp ~src:3 ~stretch:1.5 in
  Array.iteri (fun v h -> check_bool "looser stretch never needs more hops" (loose.(v) <= h)) tight

let test_hop_paths_witness_exists () =
  (* The reported hop count must be achievable: verify against a BFS-like
     layered check that some path with that many hops and allowed length
     exists (we recompute independently with one extra round and equality). *)
  let g = random_graph 7 30 50 in
  let sp = Sp_metric.create g in
  let hops = Hop_paths.min_hops_within_stretch sp ~src:0 ~stretch:1.25 in
  (* h = 0 only for the source; every other node needs at least 1 hop and at
     most n-1 hops. *)
  check_int "source" 0 hops.(0);
  Array.iteri (fun v h -> if v <> 0 then check_bool "range" (h >= 1 && h < 30)) hops

let test_n_delta_small_on_geometric () =
  (* The paper's claim: good topologies have small N_delta. *)
  let g = Graph_gen.random_geometric (Rng.create 5) ~n:60 ~radius:0.25 in
  let sp = Sp_metric.create g in
  let nd = Hop_paths.n_delta sp ~stretch:1.25 in
  check_bool (Printf.sprintf "N_delta=%d small" nd) (nd <= 20)

let test_hop_paths_rejects_bad_stretch () =
  let sp = Sp_metric.create (Graph_gen.grid 3 3) in
  Alcotest.check_raises "stretch < 1"
    (Invalid_argument "Hop_paths.min_hops_within_stretch: stretch must be >= 1") (fun () ->
      ignore (Hop_paths.min_hops_within_stretch sp ~src:0 ~stretch:0.9))

(* ----------------------------------------------- on-demand oracle golden *)

(* Every backend must reproduce the eager all-pairs matrix bit for bit:
   distances by Float.equal, first hops exactly. *)

let test_oracle_matches_all_pairs () =
  let n = 90 in
  let g = random_graph 21 n 150 in
  let ap = Dijkstra.all_pairs g in
  (* capacity 3 << 90 sources: the LRU must evict and recompute, and
     recomputed rows must still be bit-identical. *)
  let o = Dijkstra.Oracle.create ~capacity:3 g in
  check_int "capacity" 3 (Dijkstra.Oracle.capacity o);
  for u = 0 to n - 1 do
    let dist = Dijkstra.Oracle.distances o u in
    let hops = Dijkstra.Oracle.first_hops o u in
    for v = 0 to n - 1 do
      check_bool "oracle dist = apsp" (Float.equal dist.(v) (Dijkstra.distance ap u v));
      check_int "oracle hop = apsp" (Dijkstra.first_hop ap u v) hops.(v)
    done
  done;
  (* Revisit sources long since evicted, via the element accessors. *)
  for u = 0 to 20 do
    check_bool "re-derived row identical"
      (Float.equal (Dijkstra.Oracle.distance o u (n - 1 - u)) (Dijkstra.distance ap u (n - 1 - u)));
    check_int "re-derived hop identical" (Dijkstra.first_hop ap u (u + 7))
      (Dijkstra.Oracle.first_hop o u (u + 7))
  done

let test_run_bounded_matches_run () =
  let g = random_graph 22 70 120 in
  List.iter
    (fun radius ->
      for src = 0 to 69 do
        let full = Dijkstra.run g src in
        let b = Dijkstra.run_bounded g src ~radius in
        check_bool "radius recorded" (Float.equal b.Dijkstra.radius radius);
        (* Settled set is exactly the closed ball. *)
        let expect = ref 0 in
        Array.iter (fun d -> if d <= radius then incr expect) full.Dijkstra.dist;
        check_int "ball size" !expect (Array.length b.Dijkstra.nodes);
        let prev = ref neg_infinity in
        Array.iteri
          (fun i v ->
            check_bool "dist bit-identical on ball"
              (Float.equal b.Dijkstra.dists.(i) full.Dijkstra.dist.(v));
            check_int "hop bit-identical on ball" full.Dijkstra.first_hop.(v) b.Dijkstra.hops.(i);
            check_bool "pop order nondecreasing" (b.Dijkstra.dists.(i) >= !prev);
            prev := b.Dijkstra.dists.(i))
          b.Dijkstra.nodes
      done)
    [ 0.0; 2.5; 6.0; 1e9 ]

let test_sp_metric_modes_bit_identical () =
  let n = 80 in
  let g = random_graph 23 n 130 in
  let eager = Sp_metric.create ~mode:Sp_metric.Eager g in
  let lazy_ = Sp_metric.create ~mode:Sp_metric.On_demand g in
  check_bool "modes recorded"
    (Sp_metric.mode eager = Sp_metric.Eager && Sp_metric.mode lazy_ = Sp_metric.On_demand);
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      check_bool "dist identical across modes"
        (Float.equal (Sp_metric.dist eager u v) (Sp_metric.dist lazy_ u v));
      if u <> v then
        check_int "first hop identical across modes" (Sp_metric.first_hop_index eager u v)
          (Sp_metric.first_hop_index lazy_ u v)
    done;
    let re = Sp_metric.distances_from eager u and rl = Sp_metric.distances_from lazy_ u in
    for v = 0 to n - 1 do
      check_bool "raw row identical across modes" (Float.equal re.(v) rl.(v))
    done
  done

let test_sample_ground_truth_golden () =
  let g = random_graph 24 120 200 in
  let eager = Sp_metric.create ~mode:Sp_metric.Eager g in
  let lazy1 = Sp_metric.create ~jobs:1 ~mode:Sp_metric.On_demand g in
  let lazy4 = Sp_metric.create ~jobs:4 ~mode:Sp_metric.On_demand g in
  let se = Sp_metric.sample_ground_truth eager ~seed:5 ~count:400 in
  let s1 = Sp_metric.sample_ground_truth lazy1 ~seed:5 ~count:400 in
  let s4 = Sp_metric.sample_ground_truth lazy4 ~seed:5 ~count:400 in
  check_int "sample size" 400 (Array.length se);
  check_bool "eager = ondemand jobs1" (se = s1);
  check_bool "ondemand jobs1 = jobs4" (s1 = s4);
  Array.iter
    (fun (u, v, d) ->
      check_bool "distinct endpoints" (u <> v);
      check_bool "distance is ground truth" (Float.equal d (Sp_metric.dist eager u v)))
    se

(* --------------------------------------------- streamed generator golden *)

(* The CSR arrays of the streamed grid/torus, pinned to the adjacency order
   of the original list-built generators (verified bit-for-bit against the
   old implementation when the streaming path landed): routing first-hop
   indices point into this order, so silently permuting it would change
   every scheme's bits. *)
let test_grid_csr_golden () =
  let off, dst, w = Graph.csr (Graph_gen.grid 3 2) in
  Alcotest.(check (array int)) "grid off" [| 0; 2; 5; 7; 9; 12; 14 |] off;
  Alcotest.(check (array int)) "grid dst" [| 3; 1; 4; 2; 0; 5; 1; 4; 0; 5; 3; 1; 4; 2 |] dst;
  Float.Array.iter (fun x -> check_float "grid unit weight" 1.0 x) w

let test_torus_csr_golden () =
  let off, dst, _ = Graph.csr (Graph_gen.torus 3 3) in
  Alcotest.(check (array int)) "torus off" [| 0; 4; 8; 12; 16; 20; 24; 28; 32; 36 |] off;
  Alcotest.(check (array int)) "torus dst"
    [| 6; 2; 3; 1; 7; 4; 2; 0; 8; 5; 0; 1; 5; 6; 4; 0; 7; 5; 3; 1; 8; 3; 4; 2; 8; 0; 7; 3; 1; 8; 6; 4; 2; 6; 7; 5 |]
    dst

let test_is_connected_deep_path () =
  (* A path this long overflowed the call stack under the old recursive
     DFS; the iterative version must handle it, in both verdict polarities. *)
  let n = 200_000 in
  let path = Graph.of_edge_stream n (fun emit -> for v = 0 to n - 2 do emit v (v + 1) 1.0 done) in
  check_bool "long path connected" (Graph.is_connected path);
  let broken =
    Graph.of_edge_stream n (fun emit ->
        for v = 0 to n - 2 do
          if v <> n / 2 then emit v (v + 1) 1.0
        done)
  in
  check_bool "broken path disconnected" (not (Graph.is_connected broken))

let test_random_geometric_cells_connected () =
  List.iter
    (fun seed ->
      let g = Graph_gen.random_geometric_cells (Rng.create seed) ~n:2000 ~radius:0.02 in
      check_bool "cells generator forced connectivity" (Graph.is_connected g))
    [ 1; 2; 3 ]

(* ------------------------------------------------------ landmark labels *)

module Landmark = Ron_labeling.Landmark

let test_landmark_sandwich () =
  let g = Graph_gen.torus 12 12 in
  let sp = Sp_metric.create ~mode:Sp_metric.Eager g in
  let lm = Landmark.build sp (Rng.create 31) ~k:8 ~local_radius:2.0 in
  let n = Graph.size g in
  check_int "beacon count" 8 (Landmark.order lm);
  for u = 0 to n - 1 do
    (* Radius-2 ball on a unit torus: u, 4 neighbors, 8 at distance 2. *)
    check_int "ball size" 13 (Landmark.ball_size lm u);
    for v = 0 to n - 1 do
      let d = Sp_metric.dist sp u v in
      let lo, hi = Landmark.estimate lm u v in
      check_bool "lower bound holds" (lo <= d);
      check_bool "upper bound holds" (d <= hi);
      if d <= 2.0 then check_bool "in-ball pairs exact" (Float.equal lo d && Float.equal hi d)
    done
  done;
  let is_beacon = Array.make n false in
  Array.iter (fun b -> is_beacon.(b) <- true) (Landmark.beacons lm);
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if is_beacon.(u) || is_beacon.(v) then begin
        let lo, hi = Landmark.estimate lm u v in
        check_bool "beacon-endpoint pairs exact"
          (Float.equal lo hi && Float.equal hi (Sp_metric.dist sp u v))
      end
    done
  done;
  Array.iter (fun bits -> check_bool "positive label bits" (bits > 0)) (Landmark.label_bits lm)

let test_landmark_jobs_bit_identical () =
  let g = Graph_gen.torus 10 10 in
  let sp = Sp_metric.create ~mode:Sp_metric.On_demand g in
  let lm1 = Landmark.build ~jobs:1 sp (Rng.create 31) ~k:6 ~local_radius:2.0 in
  let lm4 = Landmark.build ~jobs:4 sp (Rng.create 31) ~k:6 ~local_radius:2.0 in
  Alcotest.(check (array int)) "beacons identical" (Landmark.beacons lm1) (Landmark.beacons lm4);
  Alcotest.(check (array int)) "label bits identical" (Landmark.label_bits lm1)
    (Landmark.label_bits lm4);
  for u = 0 to 99 do
    for v = 0 to 99 do
      let lo1, hi1 = Landmark.estimate lm1 u v and lo4, hi4 = Landmark.estimate lm4 u v in
      check_bool "estimates identical" (Float.equal lo1 lo4 && Float.equal hi1 hi4)
    done
  done

(* --------------------------------------------------------------- QCheck *)

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"shortest-path metric satisfies triangle inequality" ~count:15
    QCheck.(int_range 5 40)
    (fun n ->
      let g = random_graph (n * 3 + 1) n (2 * n) in
      let sp = Sp_metric.create g in
      Result.is_ok (Metric.check (Sp_metric.metric sp)))

let prop_first_hop_progress =
  QCheck.Test.make ~name:"first hops strictly reduce distance to target" ~count:15
    QCheck.(int_range 5 40)
    (fun n ->
      let g = random_graph (n * 5 + 2) n n in
      let sp = Sp_metric.create g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let next = Sp_metric.next_toward sp u v in
            if not (Sp_metric.dist sp next v < Sp_metric.dist sp u v) then ok := false
          end
        done
      done;
      !ok)

(* RON_ORACLE_ROWS: absent or empty keeps the default cache; a malformed
   value fails with an error naming the variable and the value, also when
   [Oracle.create] reads it from the environment. *)
let test_oracle_rows_env () =
  let module O = Dijkstra.Oracle in
  check_bool "absent" (O.rows_of_env None = None);
  check_bool "empty" (O.rows_of_env (Some "") = None);
  check_bool "8" (O.rows_of_env (Some "8") = Some 8);
  let bad v =
    Invalid_argument (Printf.sprintf "bad RON_ORACLE_ROWS %S (expected an integer >= 1)" v)
  in
  List.iter
    (fun v -> Alcotest.check_raises v (bad v) (fun () -> ignore (O.rows_of_env (Some v))))
    [ "0"; "-1"; "many" ];
  let g = Graph_gen.grid 4 4 in
  let saved = Option.value (Sys.getenv_opt "RON_ORACLE_ROWS") ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RON_ORACLE_ROWS" saved)
    (fun () ->
      Unix.putenv "RON_ORACLE_ROWS" "0";
      Alcotest.check_raises "create reads the variable" (bad "0") (fun () -> ignore (O.create g));
      Unix.putenv "RON_ORACLE_ROWS" "";
      check_int "empty keeps the default"
        (max 2 (min 32 (4_194_304 / 16)))
        (O.capacity (O.create g)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ron_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "bad input rejected" `Quick test_graph_rejects_bad_input;
          Alcotest.test_case "disconnected detected" `Quick test_graph_disconnected;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "matches Floyd-Warshall" `Quick test_dijkstra_matches_floyd_warshall;
          Alcotest.test_case "flat apsp = reference, bit for bit" `Quick
            test_flat_apsp_matches_reference;
          Alcotest.test_case "all_pairs bit-identical across jobs" `Quick
            test_all_pairs_jobs_bit_identical;
          Alcotest.test_case "first-hop walks" `Quick test_dijkstra_first_hop_walk;
          Alcotest.test_case "source fields" `Quick test_dijkstra_source;
          Alcotest.test_case "sp metric valid" `Quick test_sp_metric_is_metric;
          Alcotest.test_case "sp path" `Quick test_sp_metric_path;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "oracle = all_pairs, bit for bit (LRU evicting)" `Quick
            test_oracle_matches_all_pairs;
          Alcotest.test_case "RON_ORACLE_ROWS values validated" `Quick test_oracle_rows_env;
          Alcotest.test_case "run_bounded = run on the ball" `Quick test_run_bounded_matches_run;
          Alcotest.test_case "eager/on-demand modes bit-identical" `Quick
            test_sp_metric_modes_bit_identical;
          Alcotest.test_case "sampled ground truth golden" `Quick test_sample_ground_truth_golden;
        ] );
      ( "landmark",
        [
          Alcotest.test_case "sandwich bounds + local exactness" `Quick test_landmark_sandwich;
          Alcotest.test_case "bit-identical across jobs" `Quick test_landmark_jobs_bit_identical;
        ] );
      ( "generators",
        [
          Alcotest.test_case "grid" `Quick test_grid_properties;
          Alcotest.test_case "grid CSR golden" `Quick test_grid_csr_golden;
          Alcotest.test_case "torus CSR golden" `Quick test_torus_csr_golden;
          Alcotest.test_case "is_connected on deep paths" `Quick test_is_connected_deep_path;
          Alcotest.test_case "random geometric cells connected" `Quick
            test_random_geometric_cells_connected;
          Alcotest.test_case "torus" `Quick test_torus_properties;
          Alcotest.test_case "random geometric connected" `Quick test_random_geometric_connected;
          Alcotest.test_case "ring with chords" `Quick test_ring_with_chords_metric;
          Alcotest.test_case "exponential line graph" `Quick test_exponential_line_graph_metric;
        ] );
      ( "hop-paths",
        [
          Alcotest.test_case "grid exact" `Quick test_hop_paths_grid_exact;
          Alcotest.test_case "monotone in stretch" `Quick test_hop_paths_monotone_in_stretch;
          Alcotest.test_case "witness range" `Quick test_hop_paths_witness_exists;
          Alcotest.test_case "N_delta small on geometric" `Quick test_n_delta_small_on_geometric;
          Alcotest.test_case "stretch validation" `Quick test_hop_paths_rejects_bad_stretch;
        ] );
      ( "properties",
        [ qt prop_dijkstra_triangle; qt prop_first_hop_progress; qt prop_flat_apsp_vs_floyd_warshall ]
      );
    ]
