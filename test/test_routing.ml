(* Tests for ron_routing: Theorem 2.1 (Basic), Theorem 4.1 (Labelled), the
   metric variant (On_metric, Section 4.1), and the stretch-1 baseline. *)

module Rng = Ron_util.Rng
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Graph = Ron_graph.Graph
module Graph_gen = Ron_graph.Graph_gen
module Sp_metric = Ron_graph.Sp_metric
module Scheme = Ron_routing.Scheme
module Basic = Ron_routing.Basic
module Labelled = Ron_routing.Labelled
module On_metric = Ron_routing.On_metric
module Full_table = Ron_routing.Full_table

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

let grid = lazy (Sp_metric.create (Graph_gen.grid 7 7))
let geo = lazy (Sp_metric.create (Graph_gen.random_geometric (Rng.create 3) ~n:70 ~radius:0.18))
let expg = lazy (Sp_metric.create (Graph_gen.exponential_line_graph 18))

let basic_grid = lazy (Basic.build (Lazy.force grid) ~delta:0.25)
let basic_geo = lazy (Basic.build (Lazy.force geo) ~delta:0.25)
let basic_expg = lazy (Basic.build (Lazy.force expg) ~delta:0.25)

(* ------------------------------------------------------------ route loop *)

module Probe = Ron_obs.Probe
module Counter = Ron_obs.Counter

(* A synthetic scheme over (node, state): [step u s] is [None] to deliver,
   else [Some (next, state')]; a link costs [cost u v] (default 1). *)
let synthetic ?(wrapper = Scheme.identity_wrapper) ?(cost = fun _ _ -> 1.0) ?(header_bits = 1)
    ~max_hops ~src state step =
  let r = Scheme.live () in
  Scheme.route ~wrapper r ~header_bits ~max_hops ~src ~dst:(-1) state (fun u s ->
      match step u s with
      | None -> Scheme.deliver
      | Some (next, s') -> Scheme.forward_to r next s' (cost u next))

(* A line walk: [line.(i)] forwards to [line.(i+1)] and offers
   [line.(i+2)] as its one alternate, every link at cost 1. *)
let synthetic_alts ~wrapper ~max_hops ~dst line =
  let at u =
    let rec find i = if line.(i) = u then i else find (i + 1) in
    find 0
  in
  let r = Scheme.live () in
  let n = Array.length line in
  Scheme.route ~wrapper
    ~alternates:(fun u s ->
      let i = at u in
      if i + 2 < n then [ (line.(i + 2), s, 1.0) ] else [])
    r ~header_bits:1 ~max_hops ~src:line.(0) ~dst 0
    (fun u s ->
      if u = r.Scheme.target then Scheme.deliver
      else Scheme.forward_to r line.(at u + 1) s 1.0)

let test_simulator_basics () =
  (* A 3-node line walked by a hand-rolled scheme. *)
  let cost a b = Float.abs (float_of_int (a - b)) in
  let r =
    synthetic ~cost ~header_bits:5 ~max_hops:10 ~src:0 2 (fun u target ->
        if u = target then None else Some (u + 1, target))
  in
  check_bool "delivered" r.Scheme.delivered;
  check_int "hops" 2 r.Scheme.hops;
  Alcotest.(check (float 1e-9)) "length" 2.0 r.Scheme.length;
  Alcotest.(check (list int)) "path" [ 0; 1; 2 ] r.Scheme.path;
  check_int "header bits" 5 r.Scheme.max_header_bits

let test_simulator_max_hops () =
  (* An ever-advancing walk (no state ever repeats) so the only way out is
     the hop budget — cycle detection must not fire. *)
  let r = synthetic ~max_hops:5 ~src:0 99 (fun u s -> Some (u + 1, s)) in
  check_bool "not delivered" (not r.Scheme.delivered);
  check_bool "truncated outcome" (r.Scheme.outcome = Scheme.Truncated);
  check_int "capped" 5 r.Scheme.hops

let test_simulator_two_cycle_detected () =
  (* A 2-cycle 0 -> 1 -> 0 with a constant state: without detection this
     spins to the hop budget and misreports Truncated. Brent's detection
     must flag it as Cycled within O(cycle length) hops, far below the
     budget. *)
  let r =
    synthetic ~max_hops:10_000 ~src:0 99 (fun u s -> Some ((if u = 0 then 1 else 0), s))
  in
  check_bool "not delivered" (not r.Scheme.delivered);
  check_bool "cycled outcome" (r.Scheme.outcome = Scheme.Cycled);
  check_bool "detected in O(cycle length) hops" (r.Scheme.hops <= 8)

let test_simulator_longer_cycle_detected () =
  (* A tail of 3 hops into a 5-cycle; detection cost must stay proportional
     to tail + cycle length, not the budget. *)
  let step u s = if u < 3 then Some (u + 1, s) else Some ((if u = 7 then 3 else u + 1), s) in
  let r = synthetic ~max_hops:10_000 ~src:0 0 step in
  check_bool "cycled outcome" (r.Scheme.outcome = Scheme.Cycled);
  check_bool "detected promptly" (r.Scheme.hops <= 40)

let test_simulator_header_rewrite_not_cycled () =
  (* Revisiting a node in a *different* state is not a cycle: the state
     counts down to delivery. *)
  let r =
    synthetic ~header_bits:4 ~max_hops:100 ~src:0 9 (fun u s ->
        if s = 0 then None else Some ((if u = 0 then 1 else 0), s - 1))
  in
  check_bool "delivered" r.Scheme.delivered;
  check_int "hops" 9 r.Scheme.hops

let no_detection = { Scheme.identity_wrapper with detect_cycles = false }

let test_simulator_no_detect_opt_out () =
  (* A wrapper without cycle detection restores the spin-to-budget
     behaviour (needed when the hop is not state-determined, e.g. under
     faults). *)
  let r =
    synthetic ~wrapper:no_detection ~max_hops:17 ~src:0 99 (fun u s ->
        Some ((if u = 0 then 1 else 0), s))
  in
  check_bool "truncated outcome" (r.Scheme.outcome = Scheme.Truncated);
  check_int "ran to budget" 17 r.Scheme.hops

let test_simulator_self_forward_outcome () =
  let r = synthetic ~max_hops:5 ~src:0 0 (fun u s -> Some (u, s)) in
  check_bool "not delivered" (not r.Scheme.delivered);
  check_bool "self-forward outcome" (r.Scheme.outcome = Scheme.Self_forward);
  check_int "no hops taken" 0 r.Scheme.hops;
  Alcotest.(check (list int)) "path is just the source" [ 0 ] r.Scheme.path

(* The loop against the header-polymorphic simulator it replaced
   ([Simulate_oracle]), on random step tables over (node, state): each
   entry delivers or forwards (to any node, itself included, in any state,
   reporting a rewrite or not), so walks deliver, self-forward, cycle and
   hit the budget; lasso tables add cycles of every length up to 28 (of
   nodes, or of nodes and an alternating state), entered at the source or
   after a tail. Both run with and without cycle detection and under a
   drop-and-detour fault model ([Fault.wrapper] against the injector as it
   wrapped header steps), and must agree on the result — outcome, hops,
   length, path, header bits — and on every route and fault counter. *)
type table = {
  n : int;
  k : int;
  act : (int * int * bool) option array array;  (** per (node, state): [None] delivers *)
  alts : (int * int) list array array;  (** per (node, state): ranked alternates *)
  salt : int;
  src : int;
  state : int;
  max_hops : int;
}

let table_cost t u v = float_of_int (1 + (((u * 7) + (v * 13) + t.salt) mod 8)) /. 4.0

let gen_random =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* k = int_range 1 3 in
  let entry =
    frequency
      [
        (1, return None);
        (7, map3 (fun v s f -> Some (v, s, f)) (int_bound (n - 1)) (int_bound (k - 1))
              (frequency [ (4, return false); (1, return true) ]));
      ]
  in
  let alt = pair (int_bound (n - 1)) (int_bound (k - 1)) in
  let* act = array_size (return n) (array_size (return k) entry) in
  let* alts = array_size (return n) (array_size (return k) (list_size (int_bound 2) alt)) in
  let* salt = int_bound 7 and* src = int_bound (n - 1) and* state = int_bound (k - 1) in
  let+ max_hops = int_bound 40 in
  { n; k; act; alts; salt; src; state; max_hops }

(* Nodes 0 .. tail-1 lead into a cycle over nodes tail .. tail+c-1; with
   [flip] the state toggles at the cycle's end, doubling its length. *)
let gen_lasso =
  let open QCheck.Gen in
  let* tail = int_bound 6 and* c = int_range 2 14 and* flip = bool in
  let n = tail + c and k = if flip then 2 else 1 in
  let act =
    Array.init n (fun u ->
        Array.init k (fun s ->
            if u = n - 1 then Some (tail, (if flip then 1 - s else s), false)
            else Some (u + 1, s, false)))
  in
  let alts = Array.init n (fun u -> Array.make k [ ((u + 2) mod n, 0) ]) in
  let* salt = int_bound 7 in
  let+ max_hops = int_range 20 80 in
  { n; k; act; alts; salt; src = 0; state = 0; max_hops }

let arb_table =
  QCheck.make
    ~print:(fun t ->
      Printf.sprintf "n=%d k=%d src=%d state=%d budget=%d salt=%d act=[%s]" t.n t.k t.src t.state
        t.max_hops t.salt
        (String.concat "; "
           (List.concat_map
              (fun row ->
                List.map
                  (function
                    | None -> "D"
                    | Some (v, s, f) -> Printf.sprintf "%d/%d%s" v s (if f then "!" else ""))
                  (Array.to_list row))
              (Array.to_list t.act))))
    QCheck.Gen.(frequency [ (3, gen_random); (1, gen_lasso) ])

let route_counters =
  Probe.
    [
      route_hops; route_header_rewrites; route_delivered; route_truncated; route_self_forward;
      route_cycled; route_dropped; fault_drops; fault_crashed_hits; fault_dead_links;
      fault_retries; fault_detours;
    ]

(* [f ()] with the probes on, and the deltas of [counters]. *)
let counted ?(counters = route_counters) f =
  let before = List.map Counter.value counters in
  let was_on = !Probe.on in
  Probe.on := true;
  let r = Fun.protect ~finally:(fun () -> Probe.on := was_on) f in
  (r, List.map2 (fun c v -> Counter.value c - v) counters before)

type header = { s : int }

let loop_matches_oracle ~mode t =
  let fault =
    Ron_fault.Fault.make ~seed:t.salt ~crash_fraction:0.2 ~drop_rate:0.15
      ~dead_link_fraction:0.15 ~n:t.n ()
  in
  let hb = 3 + t.k in
  let loop () =
    let r = Scheme.live () in
    let wrapper =
      match mode with
      | `Detect -> Scheme.identity_wrapper
      | `No_detect -> no_detection
      | `Fault -> Ron_fault.Fault.wrapper fault ~query:t.salt
    in
    Scheme.route ~wrapper
      ~alternates:(fun u s -> List.map (fun (v, s') -> (v, s', table_cost t u v)) t.alts.(u).(s))
      r ~header_bits:hb ~max_hops:t.max_hops ~src:t.src ~dst:(-1) t.state (fun u s ->
        match t.act.(u).(s) with
        | None -> Scheme.deliver
        | Some (v, s', fresh) ->
          ignore (Scheme.forward_to r v s' (table_cost t u v) : int);
          if fresh then Scheme.rewrite else Scheme.forward)
  in
  let oracle () =
    let module O = Simulate_oracle in
    let step u h =
      match t.act.(u).(h.s) with
      | None -> O.Deliver
      | Some (v, s', fresh) -> O.Forward (v, if fresh || s' <> h.s then { s = s' } else h)
    in
    let alternates u h =
      List.map (fun (v, s') -> (v, if s' <> h.s then { s = s' } else h)) t.alts.(u).(h.s)
    in
    let step, detect_cycles =
      match mode with
      | `Detect -> (step, true)
      | `No_detect -> (step, false)
      | `Fault -> (O.fault_wrap fault ~query:t.salt step ~alternates, false)
    in
    O.simulate ~detect_cycles ~dist:(table_cost t) ~step ~header_bits:(fun _ -> hb) ~src:t.src
      ~header:{ s = t.state } ~max_hops:t.max_hops ()
  in
  counted loop = counted oracle

let prop_loop_oracle name mode =
  QCheck.Test.make ~name:("route loop = header simulator, " ^ name) ~count:400 arb_table
    (loop_matches_oracle ~mode)

let test_stretch_requires_delivery () =
  let r =
    {
      Scheme.delivered = false;
      outcome = Scheme.Truncated;
      hops = 1;
      length = 1.0;
      path = [ 0 ];
      max_header_bits = 0;
    }
  in
  Alcotest.check_raises "undelivered stretch"
    (Invalid_argument "Scheme.stretch: packet not delivered") (fun () ->
      ignore (Scheme.stretch r 1.0))

let test_stretch_zero_distance () =
  (* A delivered-but-wandering packet between coincident points used to read
     as perfect stretch 1.0; it must read as infinite stretch. *)
  let delivered length hops =
    {
      Scheme.delivered = true;
      outcome = Scheme.Delivered;
      hops;
      length;
      path = [ 0 ];
      max_header_bits = 0;
    }
  in
  Alcotest.(check (float 0.0)) "wandering to coincident point" infinity
    (Scheme.stretch (delivered 3.0 2) 0.0);
  Alcotest.(check (float 0.0)) "zero-length path to coincident point" 1.0
    (Scheme.stretch (delivered 0.0 0) 0.0);
  Alcotest.(check (float 1e-9)) "normal case unchanged" 1.5
    (Scheme.stretch (delivered 3.0 2) 2.0)

(* -------------------------------------------------------------- compose *)

module Fault = Ron_fault.Fault
module Churn = Ron_churn.Churn

(* A wrapper that passes the hop through, with the given detection. *)
let passing detect_cycles = { Scheme.wrap = (fun _ hop ~alternates:_ -> hop); detect_cycles }

let test_compose_identity () =
  let fault = Fault.wrapper (Fault.make ~seed:1 ~drop_rate:0.1 ~n:8 ()) ~query:0 in
  let st = Churn.fresh_state 8 in
  Churn.mark_leave st 3;
  let churn = Churn.wrapper st in
  List.iter
    (fun w ->
      check_bool "identity outside" (Scheme.compose Scheme.identity_wrapper w == w);
      check_bool "identity inside" (Scheme.compose w Scheme.identity_wrapper == w))
    [ fault; churn; passing true; passing false ]

let test_compose_detect_cycles () =
  List.iter
    (fun (outer, inner) ->
      check_bool
        (Printf.sprintf "%b && %b" outer inner)
        ((Scheme.compose (passing outer) (passing inner)).Scheme.detect_cycles = (outer && inner)))
    [ (true, true); (true, false); (false, true); (false, false) ]

(* Along the line 0 -> 5, node 2 is down: the churn layer detours 1's
   forward to the alternate 3, and a recording outer layer sees 3. *)
let test_compose_outer_sees_inner_detour () =
  let st = Churn.fresh_state 6 in
  Churn.mark_leave st 2;
  let seen = ref [] in
  let recording =
    {
      Scheme.wrap =
        (fun r hop ~alternates:_ ->
          let record u = seen := (u, r.Scheme.next) :: !seen in
          fun u s ->
            let code = hop u s in
            if code <> Scheme.deliver then record u;
            code);
      detect_cycles = true;
    }
  in
  let res =
    synthetic_alts ~wrapper:(Scheme.compose recording (Churn.wrapper st)) ~max_hops:10 ~dst:5
      [| 0; 1; 2; 3; 4; 5 |]
  in
  Alcotest.(check (list (pair int int))) "outer saw the detour" [ (0, 1); (1, 3); (3, 4); (4, 5) ]
    (List.rev !seen);
  Alcotest.(check (list int)) "path" [ 0; 1; 3; 4; 5 ] res.Scheme.path

(* A churn-then-fault route along a line of seven nodes: the third is down
   under churn, the fifth crashed under the fault model (no drops, no dead
   links). From the second node churn detours past the departed node (one
   stale hit, one detour); from the fourth the fault layer detours past
   the crashed one (one crashed hit, one retry, one detour); the packet
   arrives in four hops. *)
let test_compose_churn_then_fault () =
  let f = Fault.make ~seed:5 ~crash_fraction:0.1 ~n:10 () in
  let crashed = (Fault.crashed_nodes f).(0) in
  let others = List.filter (fun v -> v <> crashed) (List.init 10 Fun.id) in
  let line =
    match others with
    | p0 :: p1 :: gone :: p3 :: p5 :: p6 :: _ -> [| p0; p1; gone; p3; crashed; p5; p6 |]
    | _ -> assert false
  in
  let st = Churn.fresh_state 10 in
  Churn.mark_leave st line.(2);
  let res, counts =
    counted
      ~counters:
        Probe.
          [ churn_stale_hits; churn_detours; fault_crashed_hits; fault_retries; fault_detours;
            fault_drops; fault_dead_links ]
      (fun () ->
        synthetic_alts
          ~wrapper:(Scheme.compose (Fault.wrapper f ~query:0) (Churn.wrapper st))
          ~max_hops:20 ~dst:line.(6) line)
  in
  check_bool "delivered" (res.Scheme.outcome = Scheme.Delivered);
  check_int "hops" 4 res.Scheme.hops;
  Alcotest.(check (list int)) "path" [ line.(0); line.(1); line.(3); line.(5); line.(6) ]
    res.Scheme.path;
  Alcotest.(check (list int)) "churn stale hits, detours; fault crashed hits, retries, detours, \
                               drops, dead-link hits"
    [ 1; 1; 1; 1; 1; 0; 0 ] counts

(* ----------------------------------------------------- Basic (Thm 2.1) *)

let all_pairs_basic name sp scheme delta =
  let n = Graph.size (Sp_metric.graph sp) in
  let bound = (1.0 +. delta) /. (1.0 -. delta) in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let r = Basic.route scheme ~src:u ~dst:v in
        check_bool (name ^ ": delivered") r.Scheme.delivered;
        let s = Scheme.stretch r (Sp_metric.dist sp u v) in
        check_bool (Printf.sprintf "%s: stretch %.3f within %.3f" name s bound) (s <= bound +. 1e-9)
      end
    done
  done

let test_basic_grid () = all_pairs_basic "grid" (Lazy.force grid) (Lazy.force basic_grid) 0.25
let test_basic_geo () = all_pairs_basic "geo" (Lazy.force geo) (Lazy.force basic_geo) 0.25
let test_basic_expg () = all_pairs_basic "expg" (Lazy.force expg) (Lazy.force basic_expg) 0.25

let test_basic_path_follows_graph_edges () =
  let sp = Lazy.force grid in
  let g = Sp_metric.graph sp in
  let scheme = Lazy.force basic_grid in
  let r = Basic.route scheme ~src:0 ~dst:48 in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      check_bool "edge exists"
        (Array.exists (fun e -> e.Graph.dst = b) (Graph.out_edges g a));
      pairs rest
    | _ -> ()
  in
  pairs r.Scheme.path

(* A Basic header is rewritten when the chased level changes, and only
   then: on every route of the 7x7 grid the [route.header_rewrites] count
   equals the level changes a replay of the hop's pieces sees (the first
   hop sets the level), and falls short of the hops. *)
let test_basic_rewrites_are_level_changes () =
  let module St = Ron_routing.Structure in
  let b = Lazy.force basic_grid in
  let c = Basic.export b in
  let n = c.Basic.st.St.n in
  let m = Array.make c.st.St.scales 0 in
  let changes = ref 0 and hops = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let rec replay u level =
        if u <> dst then begin
          let j = Basic.target_level c c.st dst m u level in
          if j <> level then incr changes;
          incr hops;
          replay c.table.Ron_routing.First_hop.t_next.{Basic.hop_entry c u m j} j
        end
      in
      replay src (-1)
    done
  done;
  let _, counts =
    counted ~counters:[ Probe.route_header_rewrites; Probe.route_hops ] (fun () ->
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            ignore (Basic.route b ~src ~dst)
          done
        done)
  in
  Alcotest.(check (list int)) "rewrites = level changes, hops" [ !changes; !hops ] counts;
  check_bool "fewer rewrites than hops" (!changes < !hops)

let test_basic_zooming_proximity () =
  (* f_tj lies within Delta/2^j of t. *)
  let sp = Lazy.force geo in
  let scheme = Lazy.force basic_geo in
  let idx = Indexed.create (Sp_metric.metric sp) in
  let diam = Indexed.diameter idx in
  let n = Indexed.size idx in
  for t = 0 to n - 1 do
    let f = Basic.zooming scheme t in
    Array.iteri
      (fun j fj ->
        check_bool "zoom proximity"
          (Indexed.dist idx t fj <= (diam /. Float.of_int (1 lsl j)) +. 1e-9))
      f
  done

let test_basic_ring_sizes_bounded () =
  (* K <= (16/delta)^alpha; grids have alpha <= 3. *)
  let scheme = Lazy.force basic_grid in
  check_bool "K bounded" (Basic.max_ring_size scheme <= int_of_float ((16.0 /. 0.25) ** 3.0))

let test_basic_bits_positive () =
  let scheme = Lazy.force basic_grid in
  Array.iter (fun b -> check_bool "table bits > 0" (b > 0)) (Basic.table_bits scheme);
  Array.iter (fun b -> check_bool "label bits > 0" (b > 0)) (Basic.label_bits scheme);
  check_bool "header bits > 0" (Basic.header_bits scheme > 0);
  (* Dense accounting dominates sparse accounting. *)
  let sparse = Basic.table_bits scheme in
  let dense = Structure_oracle.table_bits_dense (Lazy.force grid) scheme in
  Array.iteri (fun i s -> check_bool "dense >= sparse" (dense.(i) >= s)) sparse

let test_basic_delta_validation () =
  Alcotest.check_raises "delta" (Invalid_argument "Structure.build: delta must be in (0, 1/4]")
    (fun () -> ignore (Basic.build (Lazy.force grid) ~delta:0.3))

let test_basic_labels_compact () =
  (* Labels are O(log Delta * log K) bits — far below n for the geo graph. *)
  let scheme = Lazy.force basic_geo in
  let lb = Basic.label_bits scheme in
  Array.iter (fun b -> check_bool "label compact" (b < 70 * 8)) lb

(* -------------------------------------------------- Labelled (Thm 4.1) *)

let labelled_grid = lazy (Labelled.build (Lazy.force grid) ~delta:0.25)

let test_labelled_all_pairs () =
  let sp = Lazy.force grid in
  let scheme = Lazy.force labelled_grid in
  let n = Graph.size (Sp_metric.graph sp) in
  (* Stretch 1 + O(delta): each intermediate-target round contributes a
     (1 + 3/2 delta) factor on a geometric series; 1 + 4*delta is safe. *)
  let bound = 1.0 +. (4.0 *. 0.25) in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let r = Labelled.route scheme ~src:u ~dst:v in
        check_bool "delivered" r.Scheme.delivered;
        check_bool "stretch" (Scheme.stretch r (Sp_metric.dist sp u v) <= bound +. 1e-9)
      end
    done
  done

let test_labelled_header_independent_of_target () =
  let scheme = Lazy.force labelled_grid in
  let r1 = Labelled.route scheme ~src:0 ~dst:48 in
  check_bool "header bounded by published max"
    (r1.Scheme.max_header_bits <= Labelled.header_bits scheme)

let test_labelled_degree_positive () =
  let scheme = Lazy.force labelled_grid in
  check_bool "degree" (Labelled.out_degree scheme >= 1);
  check_bool "neighbors of 0 nonempty" (Array.length (Labelled.neighbors scheme 0) >= 1)

let test_labelled_delta_validation () =
  Alcotest.check_raises "delta" (Invalid_argument "Labelled.build: delta must be in (0, 2/3)")
    (fun () -> ignore (Labelled.build (Lazy.force grid) ~delta:0.7))

(* ------------------------------------------------- On_metric (Sec 4.1) *)

let test_on_metric_all_pairs () =
  List.iter
    (fun (name, m, delta) ->
      let idx = Indexed.create m in
      let scheme = On_metric.build idx ~delta in
      let n = Indexed.size idx in
      let bound = (1.0 +. delta) /. (1.0 -. delta) in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let r = On_metric.route scheme ~src:u ~dst:v in
            check_bool (name ^ ": delivered") r.Scheme.delivered;
            check_bool (name ^ ": stretch")
              (Scheme.stretch r (Indexed.dist idx u v) <= bound +. 1e-9);
            (* Hop count is at most the number of scales: each hop zooms at
               least one scale (in fact many). *)
            check_bool (name ^ ": few hops") (r.Scheme.hops <= On_metric.scales scheme)
          end
        done
      done)
    [
      ("grid", Generators.grid2d 7 7, 0.25);
      ("expline", Generators.exponential_line 20, 0.25);
      ("cloud", Generators.random_cloud (Rng.create 11) ~n:60 ~dim:2, 0.2);
    ]

let test_on_metric_degree_vs_table () =
  let idx = Indexed.create (Generators.exponential_line 24) in
  let scheme = On_metric.build idx ~delta:0.25 in
  check_bool "degree <= n" (On_metric.out_degree scheme <= 24);
  check_bool "mean <= max" (On_metric.mean_out_degree scheme <= float_of_int (On_metric.out_degree scheme));
  Array.iter (fun b -> check_bool "table bits > 0" (b > 0)) (On_metric.table_bits scheme)

(* ------------------------------------------------- Two_mode (Thm 4.2) *)

module Two_mode = Ron_routing.Two_mode

let test_two_mode_all_pairs () =
  let idx = Indexed.create (Generators.random_cloud (Rng.create 7) ~n:70 ~dim:2) in
  let tm = Two_mode.build idx ~delta:0.125 in
  let n = Indexed.size idx in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let r = Two_mode.route tm ~src:u ~dst:v in
        check_bool "delivered" r.Scheme.delivered;
        (* M1 progress factor is m1_threshold * 3/2 per jump; with the
           default 1/3 the geometric series stays below 1 + 2. *)
        check_bool "stretch bounded" (Scheme.stretch r (Indexed.dist idx u v) <= 3.0)
      end
    done
  done

let test_two_mode_forced_m2 () =
  (* A strict M1 threshold forces the packing-ball directories to carry
     packets; delivery must be maintained and M2 must actually fire. *)
  let idx =
    Indexed.create
      (Generators.exponential_clusters (Rng.create 9) ~clusters:10 ~per_cluster:6 ~base:64.0)
  in
  let tm = Two_mode.build ~m1_threshold:0.01 idx ~delta:0.125 in
  Two_mode.reset_counters tm;
  let n = Indexed.size idx in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then check_bool "delivered" (Two_mode.route tm ~src:u ~dst:v).Scheme.delivered
    done
  done;
  check_bool "M2 exercised" (Two_mode.mode2_switches tm > 0)

let test_two_mode_bits_and_degree () =
  let idx = Indexed.create (Generators.exponential_line 20) in
  let tm = Two_mode.build idx ~delta:0.125 in
  Array.iter (fun b -> check_bool "m1 bits > 0" (b > 0)) (Two_mode.table_bits_m1 tm);
  Array.iter (fun b -> check_bool "m2 bits > 0" (b > 0)) (Two_mode.table_bits_m2 tm);
  check_bool "m2 far below m1 at high aspect ratio"
    (Array.fold_left max 0 (Two_mode.table_bits_m2 tm)
    < Array.fold_left max 0 (Two_mode.table_bits_m1 tm));
  check_bool "header positive" (Two_mode.header_bits tm > 0);
  check_bool "degree positive" (Two_mode.out_degree tm > 0)

let test_two_mode_validation () =
  let idx = Indexed.create (Generators.grid2d 4 4) in
  Alcotest.check_raises "delta" (Invalid_argument "Two_mode.build: delta must be in (0, 1/8]")
    (fun () -> ignore (Two_mode.build idx ~delta:0.2));
  Alcotest.check_raises "threshold"
    (Invalid_argument "Two_mode.build: m1_threshold must be in (0, 1/2)") (fun () ->
      ignore (Two_mode.build ~m1_threshold:0.6 idx ~delta:0.125))

(* ----------------------------------------------------------- Full_table *)

let test_full_table_stretch_one () =
  let sp = Lazy.force geo in
  let ft = Full_table.build sp in
  let n = Graph.size (Sp_metric.graph sp) in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let r = Full_table.route ft ~src:u ~dst:v in
        check_bool "delivered" r.Scheme.delivered;
        check_bool "stretch exactly 1"
          (Float.abs (Scheme.stretch r (Sp_metric.dist sp u v) -. 1.0) < 1e-9)
      end
    done
  done

let test_full_table_bits_linear () =
  let sp = Lazy.force grid in
  let ft = Full_table.build sp in
  let bits = Full_table.table_bits ft in
  check_bool "Omega(n)" (bits.(0) >= 48 (* (n-1) * >=1 bit *));
  check_int "header is an id" 6 (Full_table.header_bits ft)

(* Compact-vs-trivial contrast: on the geometric graph the Theorem 2.1
   labels are much smaller than n log n routing-table rows. *)
let test_compactness_contrast () =
  let sp = Lazy.force geo in
  let basic = Lazy.force basic_geo in
  let ft = Full_table.build sp in
  let b_label = Array.fold_left max 0 (Basic.label_bits basic) in
  let ft_table = (Full_table.table_bits ft).(0) in
  check_bool "labels are sub-table-sized" (b_label < ft_table)

(* A packet chasing a level above j_ut breaks Claim 2.4(b), and the hop
   says so, though it decodes only up to the chased level: for every
   (u, t), u <> t, on the 20x20 grid (where the rings of the finer scales
   differ by node, so j_ut is often below the last scale), [target_level]
   at level j_ut + 1 raises. *)
let test_basic_level_above_jut () =
  let module St = Ron_routing.Structure in
  let c = Basic.export (Basic.build (Sp_metric.create (Graph_gen.grid 20 20)) ~delta:0.25) in
  let st = c.Basic.st in
  let m = Array.make st.St.scales 0 in
  let below_top = ref 0 and silent = ref 0 in
  for u = 0 to st.St.n - 1 do
    for t = 0 to st.St.n - 1 do
      if u <> t then begin
        let jut = St.decode st u st t m in
        if jut < st.St.scales - 1 then incr below_top;
        match Basic.target_level c st t m u (jut + 1) with
        | _ -> incr silent
        | exception Failure msg ->
          if msg <> "Basic: Claim 2.4(b) violated (j > j_ut)" then incr silent
      end
    done
  done;
  check_int "pairs without the Claim 2.4(b) failure" 0 !silent;
  check_bool "some j_ut below the last scale" (!below_top > 0)

(* Building the scheme is not a query: it must not count as ring probes. *)
let test_basic_build_reads_no_ring_probes () =
  let module Probe = Ron_obs.Probe in
  let module Counter = Ron_obs.Counter in
  let was_on = !Probe.on in
  Probe.on := true;
  Fun.protect
    ~finally:(fun () -> Probe.on := was_on)
    (fun () ->
      let probes = Counter.value Probe.ring_probes in
      let scanned = Counter.value Probe.ring_members_scanned in
      ignore (Basic.build (Lazy.force grid) ~delta:0.25);
      check_int "rings.probes" probes (Counter.value Probe.ring_probes);
      check_int "rings.members_scanned" scanned (Counter.value Probe.ring_members_scanned))

(* --------------------------------------------------------------- QCheck *)

module Structure = Ron_routing.Structure
module Pool = Ron_util.Pool

let at_jobs jobs f =
  Pool.set_default_jobs (Some jobs);
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs None) f

let structure_at ~jobs idx ~delta = at_jobs jobs (fun () -> Structure.build idx ~delta)

(* The flat rows against the hash-join reference: equal segment by
   segment, all columns equal at 1 and 2 domains, and [Structure.decode]
   recovering the same zooming prefixes as the oracle's walk (over the hash
   tables and over the rows) for random (u, t), charging the probes one
   zoom step and one translation lookup per step of the walk. *)
let zetas_match_oracle idx ~delta ~seed =
  let st = structure_at ~jobs:1 idx ~delta in
  let st2 = structure_at ~jobs:2 idx ~delta in
  let c = st.Structure.cols and c2 = st2.Structure.cols in
  let scales = c.Structure.scales in
  let oracle = Zeta_oracle.build st.Structure.rings ~scales in
  let n = Indexed.size idx in
  let rng = Rng.create seed in
  let m = Array.make scales (-1) in
  let decode c u t = Array.sub m 0 (Structure.decode c u c t m + 1) in
  let decodes_agree = ref true in
  for _ = 1 to 40 do
    let u = Rng.int rng n and t = Rng.int rng n in
    let label = Zeta_oracle.label_of c t in
    let want = Zeta_oracle.decode oracle u label in
    let steps0 = Counter.value Probe.zoom_decode_steps in
    let lookups0 = Counter.value Probe.translation_lookups in
    let was_on = !Probe.on in
    Probe.on := true;
    let got = Fun.protect ~finally:(fun () -> Probe.on := was_on) (fun () -> decode c u t) in
    let walk_steps = min (Array.length want) (scales - 1) in
    if
      got <> want
      || decode c2 u t <> want
      || Zeta_oracle.decode_rows c u label <> want
      || Counter.value Probe.zoom_decode_steps - steps0 <> walk_steps
      || Counter.value Probe.translation_lookups - lookups0 <> walk_steps
    then decodes_agree := false
  done;
  Zeta_oracle.of_rows c = Zeta_oracle.segments oracle && c2 = c && !decodes_agree

(* Sparse translation-table bits: three ring indices per stored triple,
   counted against the hash-join oracle's triples, and never more than
   the dense table's (scales-1) * K^2 entries. *)
let test_translation_bits () =
  let st = Structure.build (Indexed.create (Sp_metric.metric (Lazy.force grid))) ~delta:0.25 in
  let scales = st.Structure.cols.Structure.scales in
  let oracle = Zeta_oracle.build st.Structure.rings ~scales in
  let segs = Zeta_oracle.segments oracle in
  let sm1 = scales - 1 in
  for u = 0 to Indexed.size st.Structure.idx - 1 do
    let triples = ref 0 in
    for j = 0 to sm1 - 1 do
      triples := !triples + Array.length segs.((u * sm1) + j)
    done;
    check_int "sparse bits" (3 * st.Structure.ring_index_bits * !triples)
      (Structure.zeta_bits_sparse st u);
    let dense = Structure_oracle.zeta_bits_dense st.Structure.rings ~scales in
    check_bool "sparse <= dense" (Structure.zeta_bits_sparse st u <= dense)
  done

let deltas = [| 0.25; 0.125 |]

let prop_zetas_graphs =
  QCheck.Test.make ~name:"flat zetas = hash-join oracle on random grids and geometric graphs"
    ~count:10
    QCheck.(triple bool (int_range 3 8) (pair (int_range 10 50) (int_range 0 1)))
    (fun (is_grid, side, (n, d)) ->
      (* Shrinking may step outside the generator's ranges. *)
      let side = max 3 side and n = max 10 n and d = d land 1 in
      let g =
        if is_grid then Graph_gen.grid side (side + (n mod 3))
        else Graph_gen.random_geometric (Rng.create (n * 13)) ~n ~radius:0.3
      in
      let idx = Indexed.create (Sp_metric.metric (Sp_metric.create g)) in
      zetas_match_oracle idx ~delta:deltas.(d) ~seed:(side + n))

let prop_zetas_clouds =
  QCheck.Test.make ~name:"flat zetas = hash-join oracle on random clouds" ~count:10
    QCheck.(triple (int_range 10 50) (int_range 1 3) (int_range 0 1))
    (fun (n, dim, d) ->
      let n = max 10 n and dim = max 1 dim and d = d land 1 in
      let idx = Indexed.create (Generators.random_cloud (Rng.create (n + (7 * dim))) ~n ~dim) in
      zetas_match_oracle idx ~delta:deltas.(d) ~seed:n)

module Rings = Ron_core.Rings
module First_hop = Ron_routing.First_hop

(* The build against the record-based reference ([Structure_oracle]),
   field by field, at 1 and 2 domains: the rings, the zoomings, the flat
   columns (ring_off, ring_node, the labels), [shared] against the
   oracle's whole-net levels, the zeta row the walk addresses at each
   node, level and position (node 0's below [shared]) against the node's
   own row in the oracle, which keeps every node's rows, and each node's
   count of present slots; on a graph also Basic's columns, its
   first-hop table and ring_hop. Each returns the fields that differ. *)
let rec same_slots (a : Structure.u16s) i (b : Structure.u16s) k len =
  len = 0 || (a.{i} = b.{k} && same_slots a (i + 1) b (k + 1) (len - 1))

let rows_agree (c : Structure.cols) (oc : Structure.cols) =
  let scales = c.Structure.scales in
  let row (c : Structure.cols) u j x =
    let p = c.ring_off.{(Zeta_oracle.row_owner c u j * scales) + j} + x in
    (c.z_run.{p}, c.z_run.{p + 1})
  in
  List.for_all
    (fun r ->
      let u = r / scales and j = r mod scales in
      j = scales - 1
      || List.for_all
           (fun x ->
             let lo, hi = row c u j x and olo, ohi = row oc u j x in
             hi - lo = ohi - olo && same_slots c.z_z lo oc.z_z olo (hi - lo))
           (List.init (oc.ring_off.{r + 1} - oc.ring_off.{r}) Fun.id))
    (List.init (c.n * scales) Fun.id)

let cols_diff (c : Structure.cols) (o : Structure_oracle.t) =
  let oc = o.Structure_oracle.cols in
  [
    ("ring_off", c.Structure.ring_off = oc.Structure.ring_off);
    ("ring_node", c.ring_node = oc.ring_node);
    ("shared", c.shared = Structure_oracle.whole_net_levels o.rings ~scales:oc.scales);
    ("zeta rows", c.scales = oc.scales && c.n = oc.n && rows_agree c oc);
    ("label_first", c.label_first = oc.label_first);
    ("label_rest", c.label_rest = oc.label_rest);
    ("scales", c.scales = oc.scales && c.n = oc.n);
  ]

let differing = List.filter_map (fun (name, same) -> if same then None else Some name)

let structure_diff (st : Structure.t) (o : Structure_oracle.t) =
  let n = Indexed.size st.Structure.idx in
  differing
    ([
       ( "rings",
         List.for_all
           (fun u -> Rings.rings_of st.Structure.rings u = Rings.rings_of o.rings u)
           (List.init n Fun.id) );
       ("zoomings", st.Structure.zoomings = o.zoomings);
       ("present", st.Structure.present = o.present);
     ]
    @ cols_diff st.Structure.cols o)

let basic_diff sp (o : Structure_oracle.t) b =
  let c = Basic.export b and table, ring_hop = Structure_oracle.tables sp o in
  let n = o.Structure_oracle.cols.Structure.n in
  List.map (( ^ ) "basic ")
    (differing
       (cols_diff c.Basic.st o
       @ [
           ( "rings",
             List.for_all
               (fun u -> Rings.rings_of (Basic.rings_collection b) u = Rings.rings_of o.rings u)
               (List.init n Fun.id) );
           ("zoomings", Array.init n (Basic.zooming b) = o.zoomings);
           ("t_off", c.table.First_hop.t_off = table.First_hop.t_off);
           ("t_w", c.table.t_w = table.t_w);
           ("t_next", c.table.t_next = table.t_next);
           ("t_cost", c.table.t_cost = table.t_cost);
           ("ring_hop", c.ring_hop = ring_hop);
         ]))

let matches_structure_oracle ?sp idx ~delta =
  let o = Structure_oracle.build idx ~delta in
  let diffs =
    List.concat_map
      (fun jobs ->
        at_jobs jobs (fun () ->
            let tag = Printf.sprintf "jobs=%d %s" jobs in
            List.map tag
              (structure_diff (Structure.build idx ~delta) o
              @
              match sp with
              | Some sp -> basic_diff sp o (Basic.build sp ~delta)
              | None -> [])))
      [ 1; 2 ]
  in
  diffs = [] || QCheck.Test.fail_reportf "fields differ: %s" (String.concat ", " diffs)

let prop_structure_graphs =
  QCheck.Test.make
    ~name:"Thm 2.1 build = record-based oracle on grids, geometric graphs, exponential lines"
    ~count:12
    QCheck.(triple (int_range 0 2) (int_range 3 9) (pair (int_range 10 50) (int_range 0 1)))
    (fun (kind, side, (n, d)) ->
      (* Shrinking may step outside the generator's ranges. *)
      let side = max 3 side and n = max 10 n and d = d land 1 in
      let g =
        match kind with
        | 0 -> Graph_gen.grid side (side + (n mod 3))
        | 1 -> Graph_gen.random_geometric (Rng.create (n * 17)) ~n ~radius:0.3
        | _ -> Graph_gen.exponential_line_graph (side + 6)
      in
      let sp = Sp_metric.create g in
      matches_structure_oracle ~sp (Indexed.create (Sp_metric.metric sp)) ~delta:deltas.(d))

let prop_structure_metrics =
  QCheck.Test.make
    ~name:"Thm 2.1 build = record-based oracle on clouds (On_metric) and exponential lines"
    ~count:10
    QCheck.(triple bool (int_range 10 50) (pair (int_range 1 3) (int_range 0 1)))
    (fun (cloud, n, (dim, d)) ->
      let n = max 10 n and dim = max 1 dim and d = d land 1 in
      let m =
        if cloud then Generators.random_cloud (Rng.create (n + (11 * dim))) ~n ~dim
        else Generators.exponential_line (6 + (n mod 12))
      in
      matches_structure_oracle (Indexed.create m) ~delta:deltas.(d))

(* The premise of storing the whole-net levels' zeta rows once: ring j
   has radius 4 Delta / (delta 2^j), so for 2^j <= 4/delta it covers the
   whole metric and lists, at every node, node 0's ring j member by
   member; and [shared] counts at least the levels j whose rings j and
   j + 1 are such rings, min(scales - 1, floor(log2(4/delta))). *)
let whole_net_premise idx ~delta =
  let st = Structure.build idx ~delta in
  let scales = st.Structure.cols.Structure.scales in
  let rec covering j = if Ron_util.Bits.pow2 (j + 1) <= 4.0 /. delta then covering (j + 1) else j in
  let top = covering 0 in
  let ring u j = (Rings.rings_of st.Structure.rings u).(j).Rings.members in
  let split =
    List.find_opt
      (fun (u, j) -> ring u j <> ring 0 j)
      (List.concat_map
         (fun u -> List.init (min (top + 1) scales) (fun j -> (u, j)))
         (List.init (Indexed.size idx) Fun.id))
  in
  match split with
  | Some (u, j) -> QCheck.Test.fail_reportf "node %d's ring %d is not node 0's" u j
  | None ->
    let shared = st.Structure.cols.Structure.shared in
    shared >= min (scales - 1) top
    || QCheck.Test.fail_reportf "shared %d, below min(%d, %d)" shared (scales - 1) top

let prop_whole_net_levels =
  QCheck.Test.make
    ~name:"Thm 2.1 rings of 2^j <= 4/delta are node 0's everywhere, and shared counts them"
    ~count:15
    QCheck.(triple (int_range 0 5) (int_range 10 40) (int_range 0 2))
    (fun (kind, n, d) ->
      let n = max 10 n and d = min 2 (max 0 d) in
      let graph g = Sp_metric.metric (Sp_metric.create g) in
      let m =
        match kind with
        | 0 -> graph (Graph_gen.grid (3 + (n mod 5)) (n / 4))
        | 1 -> graph (Graph_gen.random_geometric (Rng.create (n * 19)) ~n ~radius:0.3)
        | 2 -> graph (Graph_gen.exponential_line_graph (6 + (n mod 12)))
        | 3 -> Generators.random_cloud (Rng.create (n + 5)) ~n ~dim:(1 + (n mod 3))
        | 4 -> Generators.grid2d (2 + (n mod 4)) (n / 4)
        | _ -> Generators.ring n
      in
      whole_net_premise (Indexed.create m) ~delta:[| 0.25; 0.125; 0.0625 |].(d))

let prop_basic_random_geometric =
  QCheck.Test.make ~name:"Thm 2.1 delivers with bounded stretch on random geometric graphs"
    ~count:8
    QCheck.(int_range 20 60)
    (fun n ->
      let n = max 20 n in
      let g = Graph_gen.random_geometric (Rng.create (n * 7)) ~n ~radius:0.25 in
      let sp = Sp_metric.create g in
      let scheme = Basic.build sp ~delta:0.25 in
      let rng = Rng.create n in
      let ok = ref true in
      for _ = 1 to 50 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then begin
          let r = Basic.route scheme ~src:u ~dst:v in
          if not r.Scheme.delivered then ok := false
          else if Scheme.stretch r (Sp_metric.dist sp u v) > (1.25 /. 0.75) +. 1e-9 then ok := false
        end
      done;
      !ok)

let prop_on_metric_random_clouds =
  QCheck.Test.make ~name:"metric scheme delivers with bounded stretch on clouds" ~count:8
    QCheck.(pair (int_range 15 50) (int_range 1 3))
    (fun (n, dim) ->
      let n = max 15 n and dim = max 1 dim in
      let idx = Indexed.create (Generators.random_cloud (Rng.create (n + dim)) ~n ~dim) in
      let scheme = On_metric.build idx ~delta:0.25 in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let r = On_metric.route scheme ~src:u ~dst:v in
            if (not r.Scheme.delivered)
               || Scheme.stretch r (Indexed.dist idx u v) > (1.25 /. 0.75) +. 1e-9
            then ok := false
          end
        done
      done;
      !ok)

(* Thm 4.1's neighbor sets and selection against their definitions, on
   grids and random geometric graphs: [neighbors u] is F(u) =
   U_j B_u(2^(j+2)/delta) ∩ F_j computed ball by ball over the same net
   hierarchy — which holds u, since F_0 is every node — and is u plus u's
   first-hop targets; [select] over those targets is the brute-force
   argmin by (Labelled.estimate, id). *)
module Net = Ron_metric.Net
module Triangulation = Ron_labeling.Triangulation

let labelled_matches_definition sp ~delta ~seed =
  let t = Labelled.build sp ~delta in
  let idx = Indexed.create (Ron_metric.Metric.normalize (Sp_metric.metric sp)) in
  let hier = Triangulation.hierarchy (Triangulation.build idx ~delta:Labelled.dls_delta) in
  let n = Indexed.size idx in
  let f_of u =
    let seen = Hashtbl.create 16 in
    for j = 0 to Net.Hierarchy.jmax hier do
      Indexed.ball_iter idx u (Ron_util.Bits.pow2 (j + 2) /. delta) (fun v _ ->
          if Net.Hierarchy.mem hier j v then Hashtbl.replace seen v ())
    done;
    List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) seen [])
  in
  let c = Labelled.export t in
  let tb = c.Labelled.table in
  let targets u =
    List.init (First_hop.entries tb u) (fun k -> tb.First_hop.t_w.{tb.t_off.{u} + k})
  in
  let sets_ok =
    List.for_all
      (fun u ->
        let f = f_of u in
        List.mem u f
        && Array.to_list (Labelled.neighbors t u) = f
        && List.sort compare (u :: targets u) = f)
      (List.init n Fun.id)
  in
  let m = Labelled.memo () and sc = Ron_labeling.Dls.new_scratch () in
  Labelled.reserve m n;
  let rng = Rng.create seed in
  let select_ok =
    List.for_all
      (fun _ ->
        let u = Rng.int rng n and dst = Rng.int rng n in
        let brute =
          List.fold_left
            (fun best v ->
              let key = (Labelled.estimate t v dst, v) in
              match best with Some (k, _) when compare k key <= 0 -> best | _ -> Some (key, v))
            None
            (List.filter (fun v -> v <> u) (Array.to_list (Labelled.neighbors t u)))
        in
        Labelled.fresh m;
        let got = Labelled.select c.dls sc m tb.t_w ~dst tb.t_off.{u} tb.t_off.{u + 1} in
        got = match brute with Some (_, v) -> v | None -> -1)
      (List.init 40 Fun.id)
  in
  sets_ok && select_ok

let prop_labelled_definition =
  QCheck.Test.make ~name:"Thm 4.1 neighbor sets and selection = their definitions" ~count:6
    QCheck.(pair bool (int_range 16 40))
    (fun (is_grid, n) ->
      let n = max 16 n in
      let g =
        if is_grid then Graph_gen.grid (3 + (n mod 4)) (n / 8)
        else Graph_gen.random_geometric (Rng.create (n * 11)) ~n ~radius:0.3
      in
      labelled_matches_definition (Sp_metric.create g) ~delta:0.25 ~seed:n)

(* Two_mode against the Hashtbl oracle it replaced: the columns equal the
   oracle's flattened directories, and every route agrees on outcome,
   hops, length, path and header bits, with the same M1 -> M2 switch
   count and the same header rewrites and translation lookups charged to
   the probes — built and routed at 1 and at 2 domains. *)
let rows (off : Two_mode.ints) (data : Two_mode.ints) =
  Array.init (Bigarray.Array1.dim off - 1) (fun i ->
      Array.init (off.{i + 1} - off.{i}) (fun k -> data.{off.{i} + k}))

let probed f =
  let counters = [ Probe.route_header_rewrites; Probe.translation_lookups ] in
  let before = List.map Counter.value counters in
  let was_on = !Probe.on in
  Probe.on := true;
  let r = Fun.protect ~finally:(fun () -> Probe.on := was_on) f in
  (r, List.map2 (fun c v -> Counter.value c - v) counters before)

let two_mode_matches_oracle ?m1_threshold idx =
  let oracle = Two_mode_oracle.build ?m1_threshold idx ~delta:0.125 in
  let flat = Two_mode_oracle.flatten oracle in
  let n = Indexed.size idx in
  let route_all ?jobs route =
    probed (fun () -> Pool.init ?jobs (n * n) (fun k -> route ~src:(k / n) ~dst:(k mod n)))
  in
  (* The oracle counts its switches in a plain field: one domain. *)
  let want = route_all ~jobs:1 (Two_mode_oracle.route oracle) in
  let to_array a = Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a) in
  List.for_all
    (fun jobs ->
      Pool.set_default_jobs (Some jobs);
      Fun.protect
        ~finally:(fun () -> Pool.set_default_jobs None)
        (fun () ->
          let tm = Two_mode.build ?m1_threshold idx ~delta:0.125 in
          let c = Two_mode.export tm in
          let got = route_all (Two_mode.route tm) in
          to_array c.Two_mode.hub_ptr = flat.Two_mode_oracle.f_hub_ptr
          && to_array c.hub_g = flat.f_hub_g
          && rows c.dir_off c.dir_mem = flat.f_dir_members
          && rows c.dir_off c.dir_bnd = flat.f_dir_boundaries
          && rows c.own_off c.own_tgt = flat.f_owned
          && got = want
          && Two_mode.mode2_switches tm = oracle.Two_mode_oracle.switches))
    [ 1; 2 ]

let prop_two_mode_clouds =
  QCheck.Test.make ~name:"Two_mode = Hashtbl oracle on random clouds" ~count:4
    QCheck.(pair (int_range 20 50) (int_range 1 1000))
    (fun (n, seed) ->
      let n = max 20 n in
      let cloud = Generators.random_cloud (Rng.create seed) ~n ~dim:2 in
      two_mode_matches_oracle (Indexed.create cloud))

let prop_two_mode_forced_m2 =
  QCheck.Test.make ~name:"Two_mode = Hashtbl oracle forced into M2" ~count:4
    QCheck.(pair (int_range 4 10) (int_range 1 1000))
    (fun (clusters, seed) ->
      let clusters = max 4 clusters in
      let idx =
        Indexed.create
          (Generators.exponential_clusters (Rng.create seed) ~clusters ~per_cluster:6 ~base:64.0)
      in
      two_mode_matches_oracle ~m1_threshold:0.01 idx)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ron_routing"
    [
      ( "simulator",
        [
          Alcotest.test_case "basics" `Quick test_simulator_basics;
          Alcotest.test_case "max hops" `Quick test_simulator_max_hops;
          Alcotest.test_case "two-cycle detected" `Quick test_simulator_two_cycle_detected;
          Alcotest.test_case "longer cycle detected" `Quick test_simulator_longer_cycle_detected;
          Alcotest.test_case "header rewrite not cycled" `Quick
            test_simulator_header_rewrite_not_cycled;
          Alcotest.test_case "cycle detection opt-out" `Quick test_simulator_no_detect_opt_out;
          Alcotest.test_case "self forward outcome" `Quick test_simulator_self_forward_outcome;
          Alcotest.test_case "stretch requires delivery" `Quick test_stretch_requires_delivery;
          Alcotest.test_case "stretch at zero distance" `Quick test_stretch_zero_distance;
        ] );
      ( "compose",
        [
          Alcotest.test_case "identity on either side" `Quick test_compose_identity;
          Alcotest.test_case "detect_cycles is the conjunction" `Quick test_compose_detect_cycles;
          Alcotest.test_case "outer sees the inner detour" `Quick
            test_compose_outer_sees_inner_detour;
          Alcotest.test_case "churn then fault" `Quick test_compose_churn_then_fault;
        ] );
      ("translation", [ Alcotest.test_case "bit accounting" `Quick test_translation_bits ]);
      ( "basic-thm21",
        [
          Alcotest.test_case "all pairs on grid" `Quick test_basic_grid;
          Alcotest.test_case "all pairs on geometric" `Slow test_basic_geo;
          Alcotest.test_case "all pairs on exponential-weight graph" `Quick test_basic_expg;
          Alcotest.test_case "path follows graph edges" `Quick test_basic_path_follows_graph_edges;
          Alcotest.test_case "header rewrites are level changes" `Quick
            test_basic_rewrites_are_level_changes;
          Alcotest.test_case "zooming proximity" `Quick test_basic_zooming_proximity;
          Alcotest.test_case "ring sizes bounded" `Quick test_basic_ring_sizes_bounded;
          Alcotest.test_case "bit accounting" `Quick test_basic_bits_positive;
          Alcotest.test_case "delta validation" `Quick test_basic_delta_validation;
          Alcotest.test_case "labels compact" `Quick test_basic_labels_compact;
          Alcotest.test_case "build reads no ring probes" `Quick
            test_basic_build_reads_no_ring_probes;
          Alcotest.test_case "level above j_ut raises Claim 2.4(b)" `Quick
            test_basic_level_above_jut;
        ] );
      ( "labelled-thm41",
        [
          Alcotest.test_case "all pairs" `Slow test_labelled_all_pairs;
          Alcotest.test_case "header bounded" `Quick test_labelled_header_independent_of_target;
          Alcotest.test_case "degree" `Quick test_labelled_degree_positive;
          Alcotest.test_case "delta validation" `Quick test_labelled_delta_validation;
        ] );
      ( "on-metric",
        [
          Alcotest.test_case "all pairs" `Quick test_on_metric_all_pairs;
          Alcotest.test_case "degree and table" `Quick test_on_metric_degree_vs_table;
        ] );
      ( "two-mode-thm42",
        [
          Alcotest.test_case "all pairs" `Slow test_two_mode_all_pairs;
          Alcotest.test_case "forced M2" `Quick test_two_mode_forced_m2;
          Alcotest.test_case "bits and degree" `Quick test_two_mode_bits_and_degree;
          Alcotest.test_case "validation" `Quick test_two_mode_validation;
        ] );
      ( "full-table",
        [
          Alcotest.test_case "stretch 1" `Quick test_full_table_stretch_one;
          Alcotest.test_case "bits linear" `Quick test_full_table_bits_linear;
          Alcotest.test_case "compactness contrast" `Quick test_compactness_contrast;
        ] );
      ( "properties",
        [
          qt (prop_loop_oracle "cycle detection on" `Detect);
          qt (prop_loop_oracle "cycle detection off" `No_detect);
          qt (prop_loop_oracle "drop-and-detour wrapper" `Fault);
          qt prop_basic_random_geometric;
          qt prop_on_metric_random_clouds;
          qt prop_zetas_graphs;
          qt prop_zetas_clouds;
          qt prop_structure_graphs;
          qt prop_structure_metrics;
          qt prop_whole_net_levels;
          qt prop_labelled_definition;
          qt prop_two_mode_clouds;
          qt prop_two_mode_forced_m2;
        ] );
    ]
