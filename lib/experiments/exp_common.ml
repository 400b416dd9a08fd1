module Rng = Ron_util.Rng
module Scheme = Ron_routing.Scheme

let section id title =
  Printf.printf "\n================================================================================\n";
  Printf.printf "[%s] %s\n" id title;
  Printf.printf "================================================================================\n"

let subsection title = Printf.printf "\n--- %s ---\n" title

let row cells = Printf.printf "%s\n" (String.concat " " cells)

let header cells =
  row cells;
  let width = List.fold_left (fun acc c -> acc + String.length c + 1) 0 cells - 1 in
  Printf.printf "%s\n" (String.make (max 1 width) '-')

let cell ?(w = 12) s =
  let len = String.length s in
  if len >= w then String.sub s 0 w else s ^ String.make (w - len) ' '

let cell_int ?w i = cell ?w (string_of_int i)

let cell_float ?w ?(prec = 3) f = cell ?w (Printf.sprintf "%.*f" prec f)

let note s = Printf.printf "  | %s\n" s

let sample_pairs rng ~n ~count =
  let rec go acc k guard =
    if k = 0 || guard > 50 * count then List.rev acc
    else begin
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then go ((u, v) :: acc) (k - 1) guard else go acc k (guard + 1)
    end
  in
  go [] count 0

type route_quality = {
  queries : int;
  failures : int;
  truncated : int;
  self_forwards : int;
  cycled : int;
  dropped : int;
  stretch_max : float;
  stretch_mean : float;
  hops_max : int;
  hops_mean : float;
  ring_lookups_mean : float;
  ring_lookups_max : int;
  dist_evals_mean : float;
  zoom_steps_mean : float;
}

let collect_routes_keyed ~route ~dist pairs =
  (* The route evaluations are independent, so they run in parallel; the
     aggregation below folds the per-pair results in index order, making the
     output bit-identical to a sequential run (float sums are not
     reassociated).

     Observability is forced on for the duration so the cost columns report
     what the queries actually did (ring lookups, distance evaluations,
     zoom steps) rather than re-deriving them from scheme parameters. Each
     pair is charged to a ledger entry keyed by its index, which keeps the
     ledger — and hence any snapshot taken afterwards — identical at every
     RON_JOBS. *)
  let pairs_a = Array.of_list pairs in
  let np = Array.length pairs_a in
  let eval i =
    let (u, v) = pairs_a.(i) in
    let r = Ron_obs.Ledger.with_query ~kind:"route" ~id:i (fun () -> route ~query:i u v) in
    if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ();
    r
  in
  let was_on = !Ron_obs.Probe.on in
  Ron_obs.Probe.on := true;
  let results =
    Fun.protect
      ~finally:(fun () -> Ron_obs.Probe.on := was_on)
      (fun () ->
        Ron_obs.Profile.phase "query.routes" (fun () ->
            Ron_util.Pool.init np eval))
  in
  let queries = ref 0 and truncated = ref 0 and self_forwards = ref 0 in
  let cycled = ref 0 and dropped = ref 0 in
  let smax = ref 0.0 and ssum = ref 0.0 in
  let hmax = ref 0 and hsum = ref 0 in
  let rsum = ref 0 and rmax = ref 0 and dsum = ref 0 and zsum = ref 0 in
  Array.iteri
    (fun i (r, (e : Ron_obs.Ledger.entry)) ->
      let (u, v) = pairs_a.(i) in
      incr queries;
      rsum := !rsum + e.ring_lookups;
      rmax := max !rmax e.ring_lookups;
      dsum := !dsum + e.dist_evals;
      zsum := !zsum + e.zoom_steps;
      (match r.Scheme.outcome with
      | Scheme.Delivered ->
        let s = Scheme.stretch r (dist u v) in
        smax := Float.max !smax s;
        ssum := !ssum +. s;
        hmax := max !hmax e.hops;
        hsum := !hsum + e.hops
      | Scheme.Truncated -> incr truncated
      | Scheme.Self_forward -> incr self_forwards
      | Scheme.Cycled -> incr cycled
      | Scheme.Dropped -> incr dropped))
    results;
  let failures = !truncated + !self_forwards + !cycled + !dropped in
  let ok = max 1 (!queries - failures) in
  let nq = max 1 !queries in
  {
    queries = !queries;
    failures;
    truncated = !truncated;
    self_forwards = !self_forwards;
    cycled = !cycled;
    dropped = !dropped;
    stretch_max = !smax;
    stretch_mean = !ssum /. float_of_int ok;
    hops_max = !hmax;
    hops_mean = float_of_int !hsum /. float_of_int ok;
    ring_lookups_mean = float_of_int !rsum /. float_of_int nq;
    ring_lookups_max = !rmax;
    dist_evals_mean = float_of_int !dsum /. float_of_int nq;
    zoom_steps_mean = float_of_int !zsum /. float_of_int nq;
  }

let collect_routes ~route ~dist pairs =
  collect_routes_keyed ~route:(fun ~query:_ u v -> route u v) ~dist pairs

let pp_quality q =
  Printf.sprintf "stretch max %.3f mean %.3f | hops max %d mean %.1f | fails %d/%d" q.stretch_max
    q.stretch_mean q.hops_max q.hops_mean q.failures q.queries

let pp_observed q =
  Printf.sprintf
    "observed: ring lookups mean %.1f max %d | dist evals mean %.1f | zoom steps mean %.1f%s"
    q.ring_lookups_mean q.ring_lookups_max q.dist_evals_mean q.zoom_steps_mean
    (if q.truncated > 0 || q.self_forwards > 0 || q.cycled > 0 || q.dropped > 0 then
       Printf.sprintf " | truncated %d self-forward %d cycled %d dropped %d" q.truncated
         q.self_forwards q.cycled q.dropped
     else "")
