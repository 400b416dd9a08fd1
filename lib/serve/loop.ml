(* The batch serving loop over a frozen server.

   Workloads are generated off-heap as Bigarray columns whose entries are
   pure functions of (seed, global query index) — [Rng.mix] draws and the
   Zipf sampler from [Ron_util.Workload] — so a workload is bit-identical
   at every RON_JOBS and under any evaluation order. Execution shards each
   batch across Pool domains into disjoint result slots, so result columns
   (and their digest) are also jobs-invariant. *)

module A1 = Bigarray.Array1
module Pool = Ron_util.Pool
module Rng = Ron_util.Rng
module Workload = Ron_util.Workload
module Probe = Ron_obs.Probe
module Gauge = Ron_obs.Gauge
module Telemetry = Ron_obs.Telemetry
module Flight = Ron_obs.Flight
module Slo = Ron_obs.Slo
module Clock = Ron_obs.Clock

type ints = Image.ints
type floats = Image.floats

let[@inline always] ig (a : ints) i = A1.unsafe_get a i

let default_batch = 65536

(* ------------------------------------------------------------- workload *)

type workload = { wq : int; w_kind : ints; w_src : ints; w_dst : ints }

let queries w = w.wq
let kind_of w i = ig w.w_kind i
let src_of w i = ig w.w_src i
let dst_of w i = ig w.w_dst i

(* Per-query draw streams, keyed off the workload seed. *)
let kind_seed seed = Rng.mix seed 1
let dst_seed seed = Rng.mix seed 2
let src_seed seed = Rng.mix seed 3

let prepare t ~seed ~queries ~zipf_s ~route_frac ~dist_frac =
  if queries < 0 then invalid_arg "Loop.prepare: negative query count";
  if not (route_frac >= 0.0 && dist_frac >= 0.0 && route_frac +. dist_frac <= 1.0) then
    invalid_arg "Loop.prepare: traffic mix must be non-negative and sum to at most 1";
  let n = Server.size t in
  let zipf = Workload.Zipf.create ~n ~s:zipf_s in
  let srcs = Server.sources t in
  let w_kind = Image.ints_create queries in
  let w_src = Image.ints_create queries in
  let w_dst = Image.ints_create queries in
  let ks = kind_seed seed and ds = dst_seed seed and ss = src_seed seed in
  for i = 0 to queries - 1 do
    let uk = Workload.u01 ~seed:ks i in
    let kind =
      if uk < route_frac then 0 else if uk < route_frac +. dist_frac then 1 else 2
    in
    A1.unsafe_set w_kind i (Server.effective_kind t kind);
    (* Zipf rank k names node k: rank 0 is the hottest target. *)
    A1.unsafe_set w_dst i (Workload.Zipf.sample_at zipf ~seed:ds i);
    let r = Rng.mix ss i in
    let src =
      match srcs with Some members -> ig members (r mod A1.dim members) | None -> r mod n
    in
    A1.unsafe_set w_src i src
  done;
  { wq = queries; w_kind; w_src; w_dst }

(* -------------------------------------------------------------- results *)

(* Result columns, by effective kind:
   route:  ra = outcome, rb = hops, rx = path length, ry = header bits
   dist:   ra = 0,       rb = 0,    rx = lower bound, ry = upper bound
   locate: ra = found,   rb = hops, rx = measurements, ry = 0 *)
type results = { ra : ints; rb : ints; rx : floats; ry : floats }

let results_create q =
  {
    ra = Image.ints_create q;
    rb = Image.ints_create q;
    rx = Image.floats_create q;
    ry = Image.floats_create q;
  }

(* One query into result slot [i]. Top-level and float-free (floats move
   straight from scratch slots into the float64 columns, unboxed), so the
   steady-state loop body allocates nothing. *)
let run_query t sc work res i =
  let kind = ig work.w_kind i in
  Server.query t sc ~kind ~src:(ig work.w_src i) ~dst:(ig work.w_dst i);
  if kind = 0 then begin
    A1.unsafe_set res.ra i sc.Server.r_outcome;
    A1.unsafe_set res.rb i sc.Server.r_hops;
    A1.unsafe_set res.rx i sc.Server.fbuf.(2);
    A1.unsafe_set res.ry i (float_of_int sc.Server.r_aux)
  end
  else if kind = 1 then begin
    A1.unsafe_set res.ra i 0;
    A1.unsafe_set res.rb i 0;
    A1.unsafe_set res.rx i sc.Server.fbuf.(3);
    A1.unsafe_set res.ry i sc.Server.fbuf.(4)
  end
  else begin
    A1.unsafe_set res.ra i sc.Server.r_next;
    A1.unsafe_set res.rb i sc.Server.r_hops;
    A1.unsafe_set res.rx i (float_of_int sc.Server.r_aux);
    A1.unsafe_set res.ry i 0.0
  end

(* ------------------------------------------------------------ execution *)

(* Run the whole workload in batches of [batch], each sharded across Pool
   domains into disjoint result slots. Chunk boundaries depend only on
   (size, jobs), so results are bit-identical at every job count. *)
let run ?(batch = default_batch) ?jobs t work res =
  if batch < 1 then invalid_arg "Loop.run: batch must be positive";
  let q = work.wq in
  let b = ref 0 in
  while !b < q do
    let b0 = !b in
    let size = min batch (q - b0) in
    if !Probe.on then Probe.serve_batch ~size ~inflight:size;
    Pool.parallel_for ?jobs size (fun k ->
        run_query t (Server.scratch_for t) work res (b0 + k));
    if !Telemetry.active then Telemetry.tick ();
    b := b0 + size
  done;
  if !Probe.on then Gauge.set_int Probe.serve_inflight 0

(* ----------------------------------------------------------- observed run *)

(* The latency clock for observed serving. Wall mode reads the monotonic
   clock around each query (honest nanoseconds, not replayable); logical mode
   charges a deterministic per-query cost — 1 for a dist lookup, else
   [hops * 256 + min aux 255] — a pure function of the query's result, so
   observed latencies (hence flight dumps and SLO verdicts) are
   bit-identical at every RON_JOBS. *)
let[@inline] logical_cost (sc : Server.scratch) kind =
  if kind = 1 then 1 else (sc.Server.r_hops * 256) + min sc.Server.r_aux 255

(* One observed query: optional per-hop capture, latency on the chosen
   clock, a flight-recorder record, and the query's slot in the latency
   column feeding the SLO monitor. Runs on the worker domain; every write
   outside the scratch goes to slot [i] of an off-heap column or into the
   worker's own flight shard, so workers never contend. *)
let observed_query t sc work res ~scheme ~wall ~flight ~(lat_col : ints option) i =
  let want_tr = match flight with Some f -> Flight.want_trace f i | None -> false in
  sc.Server.log_hops <- want_tr;
  let t0 = if wall then Clock.now_ns () else 0 in
  run_query t sc work res i;
  let kind = ig work.w_kind i in
  let lat = if wall then Clock.now_ns () - t0 else logical_cost sc kind in
  (match flight with
  | Some f ->
    let outcome = if kind = 0 then sc.Server.r_outcome else 0 in
    let trace_len =
      if want_tr then min sc.Server.hop_len (Array.length sc.Server.hop_log) else -1
    in
    Flight.record f ~qid:i ~scheme ~kind ~src:(ig work.w_src i) ~dst:(ig work.w_dst i)
      ~outcome ~hops:sc.Server.r_hops ~lat ~trace:sc.Server.hop_log ~trace_len
  | None -> ());
  (match lat_col with
  | Some col -> A1.unsafe_set col i lat
  | None -> ());
  (* Leave the shared scratch clean for any later plain [run]. *)
  sc.Server.log_hops <- false

(* [run] plus observability: flight recording on the workers, SLO feeding
   from the orchestrator. Same batching/sharding as [run], so the result
   columns are identical to an unobserved run's. *)
let run_observed ?(batch = default_batch) ?jobs ?(wall = false) ?flight ?slo t work res =
  if batch < 1 then invalid_arg "Loop.run_observed: batch must be positive";
  (* Ring safety: cap the batch so concurrently-recorded qids span at most
     [retain - 1] flight windows — a slot is never recycled mid-batch, and
     across batch barriers recycling only evicts windows the dump has
     already aged out. *)
  let batch =
    match flight with
    | Some fr -> max 1 (min batch (Flight.window fr * (Flight.retain fr - 1)))
    | None -> batch
  in
  let scheme = Server.scheme_tag t in
  let lat_col = match slo with Some _ -> Some (Image.ints_create work.wq) | None -> None in
  let q = work.wq in
  let b = ref 0 in
  while !b < q do
    let b0 = !b in
    let size = min batch (q - b0) in
    if !Probe.on then Probe.serve_batch ~size ~inflight:size;
    Pool.parallel_for ?jobs size (fun k ->
        observed_query t (Server.scratch_for t) work res ~scheme ~wall ~flight ~lat_col
          (b0 + k));
    (* Feed the SLO monitor from the orchestrator, between batches, in qid
       order: windows are sequential state, and the single ordered feeder
       is what keeps the verdict jobs-invariant under the logical clock. *)
    (match (slo, lat_col) with
    | Some s, Some col ->
      for i = b0 to b0 + size - 1 do
        let kind = ig work.w_kind i in
        let ok =
          if kind = 0 then ig res.ra i = 0
          else if kind = 2 then ig res.ra i >= 0
          else true
        in
        Slo.observe s ~lat:(ig col i) ~ok
      done
    | _ -> ());
    if !Telemetry.active then Telemetry.tick ();
    b := b0 + size
  done;
  (match slo with Some s -> Slo.finish s | None -> ());
  if !Probe.on then Gauge.set_int Probe.serve_inflight 0

(* --------------------------------------------------------------- digest *)

let fnv_prime = 0x100000001b3L

(* Order-sensitive digest of the result columns; equal digests at
   different job counts certify bit-identical serving output. *)
let digest res =
  let mix h c = Int64.mul (Int64.logxor h c) fnv_prime in
  let h = 0xcbf29ce484222325L in
  let h = mix h (Image.checksum_ints res.ra) in
  let h = mix h (Image.checksum_ints res.rb) in
  let h = mix h (Image.checksum_floats res.rx) in
  let h = mix h (Image.checksum_floats res.ry) in
  Int64.to_int (Int64.logand h Int64.max_int)

(* -------------------------------------------------- latency measurement *)

(* Sequential per-query latency pass (monotonic clock per query, ns) into
   a bounded-memory histogram, and into its kind's histogram of
   [by_kind] where there is one. Separate from the throughput run: two
   clock reads per query would tax qps. *)
let measure_latency ?(limit = max_int) ?(by_kind = [||]) t work res hist =
  let q = min limit work.wq in
  let sc = Server.scratch_for t in
  for i = 0 to q - 1 do
    let t0 = Clock.now_ns () in
    run_query t sc work res i;
    let ns = Clock.now_ns () - t0 in
    Ron_obs.Histogram.observe_int hist ns;
    let k = kind_of work i in
    if k < Array.length by_kind then
      Option.iter (fun h -> Ron_obs.Histogram.observe_int h ns) by_kind.(k)
  done

(* ------------------------------------------------------------- GC audit *)

(* Steady-state minor-heap allocation per query, in words: one warm pass
   grows every scratch buffer, then an audited sequential pass is measured
   with [Gc.minor_words] deltas. [Gc.quick_stat] would not do: its count
   leaves out the words allocated since the last minor collection, so a
   pass that fits in the minor heap would read 0 whatever it allocates. *)
let minor_words_per_query t work res =
  if work.wq = 0 then 0.0
  else begin
    let sc = Server.scratch_for t in
    for i = 0 to work.wq - 1 do
      run_query t sc work res i
    done;
    let w0 = Gc.minor_words () in
    for i = 0 to work.wq - 1 do
      run_query t sc work res i
    done;
    (Gc.minor_words () -. w0) /. float_of_int work.wq
  end
