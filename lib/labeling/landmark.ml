module Rng = Ron_util.Rng
module Bits = Ron_util.Bits
module Qfloat = Ron_util.Qfloat
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile
module Graph = Ron_graph.Graph
module Dijkstra = Ron_graph.Dijkstra
module Sp_metric = Ron_graph.Sp_metric
module Indexed = Ron_metric.Indexed

(* Near-linear distance labeling for the million-node regime: k seeded
   beacons with full SSSP rows (k single-source runs through the on-demand
   oracle) plus one bounded-radius ball per node (the "ring of neighbors"
   local exactness). Total state is k rows + sum of ball sizes — no O(n^2)
   structure anywhere, unlike the Indexed-backed schemes. *)

module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let ints_create n : ints = A1.create Bigarray.int Bigarray.c_layout n
let floats_create n : floats = A1.create Bigarray.float64 Bigarray.c_layout n
let[@inline always] ig (a : ints) i = A1.unsafe_get a i
let[@inline always] fg (a : floats) i = A1.unsafe_get a i

(* The landmark snapshot's layout, built once and served as is. *)
type cols = {
  n : int;
  k : int;
  beacons : ints; (* sorted beacon ids *)
  col : ints; (* col.{v}: beacon index of v, or -1 *)
  rows : floats; (* rows.{i * n + v}: dist from beacons.{i} to v *)
  ball_off : ints; (* CSR over per-node local balls *)
  ball_node : ints; (* node ids, ascending within each ball *)
  ball_dist : floats;
}

type t = { c : cols; local_radius : float; qbits : int; id_bits : int }

(* Sort a ball's (node, dist) parallel arrays by node id — insertion sort:
   balls are small by construction, and the sort is deterministic. *)
let sort_ball nodes dists =
  let len = Array.length nodes in
  for i = 1 to len - 1 do
    let nv = nodes.(i) and dv = dists.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && nodes.(!j) > nv do
      nodes.(!j + 1) <- nodes.(!j);
      dists.(!j + 1) <- dists.(!j);
      decr j
    done;
    nodes.(!j + 1) <- nv;
    dists.(!j + 1) <- dv
  done

(* [k] of the [n] nodes by seeded shuffle, sorted: the beacon draw of
   both builders. *)
let draw what rng ~n ~k =
  if k < 1 || k > n then invalid_arg (what ^ ": k out of range");
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let beacons = Array.sub perm 0 k in
  Ron_util.Fsort.sort_ints beacons;
  beacons

(* The columns over [beacons], their rows ([rows.(i).(v)]: beacon [i] to
   [v]) and one ball per node, sorted by node id: what both builders
   share once each has its rows and balls. *)
let assemble ~beacons ~rows ~balls ~local_radius =
  let n = Array.length balls and k = Array.length beacons in
  let col = ints_create n in
  A1.fill col (-1);
  Array.iteri (fun i b -> col.{b} <- i) beacons;
  let ball_off = ints_create (n + 1) in
  ball_off.{0} <- 0;
  for u = 0 to n - 1 do
    ball_off.{u + 1} <- ball_off.{u} + Array.length (fst balls.(u))
  done;
  let total = ball_off.{n} in
  let ball_node = ints_create (max total 1) and ball_dist = floats_create (max total 1) in
  A1.fill ball_node 0;
  A1.fill ball_dist 0.0;
  for u = 0 to n - 1 do
    let nodes, dists = balls.(u) in
    Array.iteri (fun i v -> ball_node.{ball_off.{u} + i} <- v) nodes;
    Array.iteri (fun i d -> ball_dist.{ball_off.{u} + i} <- d) dists;
    if !Probe.on then Probe.label_node ();
    if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ()
  done;
  (* Aspect ratio for the distance codec, from the beacon rows (global
     reach) — every stored distance is <= the largest row entry. *)
  let max_d = ref 1.0 and min_d = ref infinity in
  Array.iter
    (fun row ->
      Array.iter
        (fun d ->
          if Float.is_finite d && d > 0.0 then begin
            if d > !max_d then max_d := d;
            if d < !min_d then min_d := d
          end)
        row)
    rows;
  let aspect = if Float.is_finite !min_d && !min_d > 0.0 then !max_d /. !min_d else 2.0 in
  let codec = Qfloat.codec_for ~delta:0.25 ~aspect_ratio:(Float.max 2.0 aspect) in
  let flat = floats_create (k * n) in
  Array.iteri (fun i row -> Array.iteri (fun v d -> flat.{(i * n) + v} <- d) row) rows;
  let bs = ints_create k in
  Array.iteri (fun i b -> bs.{i} <- b) beacons;
  {
    c = { n; k; beacons = bs; col; rows = flat; ball_off; ball_node; ball_dist };
    local_radius;
    qbits = Qfloat.bits codec;
    id_bits = Bits.index_bits n;
  }

let build ?jobs sp rng ~k ~local_radius =
  Profile.phase "construct.landmark" @@ fun () ->
  let g = Sp_metric.graph sp in
  let n = Graph.size g in
  let beacons = draw "Landmark.build" rng ~n ~k in
  if not (local_radius >= 0.0) then invalid_arg "Landmark.build: negative radius";
  let rows =
    Profile.phase "beacon_rows" @@ fun () ->
    Pool.init ?jobs k (fun i -> Sp_metric.distances_from sp beacons.(i))
  in
  let balls =
    Profile.phase "local_balls" @@ fun () ->
    Pool.init ?jobs n (fun u ->
        let b = Dijkstra.run_bounded g u ~radius:local_radius in
        let nodes = b.Dijkstra.nodes and dists = b.Dijkstra.dists in
        sort_ball nodes dists;
        if !Probe.on then Probe.ring_node ();
        (* In-chunk ticks are no-ops (sampling is chunk-free); this fires
           exactly once per build, via Pool.init's seed call for u = 0,
           giving a snapshot at the start of the long ball phase. *)
        if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ();
        (nodes, dists))
  in
  Profile.phase "labels" @@ fun () -> assemble ~beacons ~rows ~balls ~local_radius

(* The [33, 50] baseline: row entry (b, v) is d(v, b), the argument order
   of a per-pair fold over the metric, and each ball is its node alone. *)
let of_metric idx rng ~k =
  let n = Indexed.size idx in
  let beacons = draw "Landmark.of_metric" rng ~n ~k in
  let rows = Array.map (fun b -> Array.init n (fun v -> Indexed.dist idx v b)) beacons in
  assemble ~beacons ~rows ~balls:(Array.init n (fun u -> ([| u |], [| 0.0 |]))) ~local_radius:0.0

let order t = t.c.k
let beacons t = Array.init t.c.k (fun i -> ig t.c.beacons i)
let size t = t.c.n
let local_radius t = t.local_radius
let ball_size t u = ig t.c.ball_off (u + 1) - ig t.c.ball_off u

(* Fresh copy of [u]'s ball membership (ascending node ids, [u] included):
   the reference list the churn layer's table overlay repairs. *)
let ball_members t u =
  let s = ig t.c.ball_off u in
  Array.init (ball_size t u) (fun i -> ig t.c.ball_node (s + i))

(* ------------------------------------------------------------ Estimates *)

(* The landmark sandwich, shared by the live scheme and the frozen server.
   It allocates nothing: the loops are top-level tail-recursive functions
   over ints, the bounds flow only through the caller's float array, and
   the column types are annotated so the reads compile inline. *)

(* Index of [v] in the sorted ball run [s, e), or -1 (index-returning so
   the recursion stays float-free). *)
let rec ball_idx (nodes : ints) s e v =
  if s >= e then -1
  else begin
    let mid = (s + e) / 2 in
    let x = ig nodes mid in
    if x < v then ball_idx nodes (mid + 1) e v
    else if x = v then mid
    else ball_idx nodes s mid v
  end

(* One common beacon, at [da = a.{i}] from one endpoint and [db = b.{j}]
   from the other, folded into lo = max |da - db| ([out.(at)]) and
   hi = min da + db ([out.(at + 1)]). It takes positions, not floats, so a
   call that is not inlined boxes nothing. *)
let[@inline] sandwich_step (out : float array) at (a : floats) i (b : floats) j =
  let da = fg a i and db = fg b j in
  let diff = Float.abs (da -. db) in
  if diff > out.(at) then out.(at) <- diff;
  if da +. db < out.(at + 1) then out.(at + 1) <- da +. db

let rec sandwich c (out : float array) at u v i =
  if i < c.k then begin
    sandwich_step out at c.rows ((i * c.n) + u) c.rows ((i * c.n) + v);
    sandwich c out at u v (i + 1)
  end

(* Exact on self, exact inside the ball, exact when either endpoint is a
   beacon (one row read), else the triangle bounds over all k rows. The
   bounds land in [out.(at)] (lo) and [out.(at + 1)] (hi). *)
let bounds c (out : float array) ~at u v =
  if u = v then begin
    out.(at) <- 0.0;
    out.(at + 1) <- 0.0
  end
  else begin
    let bi = ball_idx c.ball_node (ig c.ball_off u) (ig c.ball_off (u + 1)) v in
    if bi >= 0 then begin
      let d = fg c.ball_dist bi in
      out.(at) <- d;
      out.(at + 1) <- d
    end
    else begin
      let cv = ig c.col v in
      if cv >= 0 then begin
        if !Probe.on then Probe.table_touch ();
        let d = fg c.rows ((cv * c.n) + u) in
        out.(at) <- d;
        out.(at + 1) <- d
      end
      else begin
        let cu = ig c.col u in
        if cu >= 0 then begin
          if !Probe.on then Probe.table_touch ();
          let d = fg c.rows ((cu * c.n) + v) in
          out.(at) <- d;
          out.(at + 1) <- d
        end
        else begin
          if !Probe.on then
            for _ = 1 to c.k do
              Probe.table_touch ()
            done;
          out.(at) <- 0.0;
          out.(at + 1) <- infinity;
          sandwich c out at u v 0
        end
      end
    end
  end

let estimate t u v =
  let out = Array.make 2 0.0 in
  bounds t.c out ~at:0 u v;
  (out.(0), out.(1))

(* Each row [u] counts its own pairs (u, v > u) into an integer: parallel
   over rows, with a result independent of the job count. *)
let bad_fraction t ~delta =
  let c = t.c in
  let per_row =
    Pool.init c.n (fun u ->
        let out = Array.make 2 0.0 and bad = ref 0 in
        for v = u + 1 to c.n - 1 do
          bounds c out ~at:0 u v;
          if out.(0) <= 0.0 || out.(1) > (1.0 +. delta) *. out.(0) then incr bad
        done;
        !bad)
  in
  let total = c.n * (c.n - 1) / 2 in
  if total = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 per_row) /. float_of_int total

let label_bits t =
  Array.init t.c.n (fun u ->
      (* Per-node label: k quantized beacon distances, plus the local ball
         as (id, quantized distance) pairs, plus the node's own id. *)
      t.id_bits
      + (t.c.k * t.qbits)
      + (ball_size t u * (t.id_bits + t.qbits)))

let export t = t.c
