(* Distances and node ids are kept in parallel unboxed arrays (rather than
   tuple arrays) so that an index over n nodes costs ~16 n^2 bytes; this is
   what allows the experiments to run at n in the thousands. Rows are built
   with no per-entry boxing and sorted by a monomorphic float-keyed merge
   sort (Ron_util.Fsort); rows are independent, so construction is
   parallelized over domains (Ron_util.Pool, RON_JOBS). *)
type t = {
  metric : Metric.t;
  (* sorted_d.(u).(k) / sorted_v.(u).(k): distance and id of the k-th
     closest node to u (k = 0 is u itself). Equal distances are tie-broken
     by ascending node id: ids start in increasing order and the sort is
     stable. *)
  sorted_d : float array array;
  sorted_v : int array array;
  diameter : float;
  min_distance : float;
}

let finish m sorted_d sorted_v =
  let n = Metric.size m in
  let diameter = ref 0.0 and dmin = ref infinity in
  for u = 0 to n - 1 do
    let far = sorted_d.(u).(n - 1) in
    if far > !diameter then diameter := far;
    if n > 1 then begin
      let near = sorted_d.(u).(1) in
      if near < !dmin then dmin := near
    end
  done;
  { metric = m; sorted_d; sorted_v; diameter = !diameter; min_distance = !dmin }

(* Per-domain merge-sort scratch, reused across rows (and across calls);
   grown on demand. Each domain sees its own pair, so parallel row builds
   never share a buffer. *)
let scratch : (float array * int array) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref ([||], [||]))

let with_scratch n =
  let r = Domain.DLS.get scratch in
  let (d, _) = !r in
  if Array.length d >= n then !r
  else begin
    let s = (Array.make n 0.0, Array.make n 0) in
    r := s;
    s
  end

let create ?jobs m =
  let n = Metric.size m in
  let sorted_d = Array.make n [||] and sorted_v = Array.make n [||] in
  Ron_util.Pool.parallel_for ?jobs n (fun u ->
      let d = Array.make n 0.0 and v = Array.make n 0 in
      for w = 0 to n - 1 do
        Array.unsafe_set d w (Metric.dist m u w);
        Array.unsafe_set v w w
      done;
      let (scratch_d, scratch_v) = with_scratch n in
      Ron_util.Fsort.dual_sort ~scratch_d ~scratch_v d v;
      sorted_d.(u) <- d;
      sorted_v.(u) <- v);
  finish m sorted_d sorted_v

(* The pre-optimization construction (boxed (float, int) tuples sorted with
   the polymorphic comparator), kept verbatim as the baseline that
   bench/main.exe --json and the equivalence tests measure against. Tuple
   order (distance, id) ties by id, matching [create]. *)
let create_reference m =
  let n = Metric.size m in
  let sorted_d = Array.make n [||] and sorted_v = Array.make n [||] in
  for u = 0 to n - 1 do
    let row = Array.init n (fun v -> (Metric.dist m u v, v)) in
    Array.sort compare row;
    sorted_d.(u) <- Array.map fst row;
    sorted_v.(u) <- Array.map snd row
  done;
  finish m sorted_d sorted_v

let metric t = t.metric
let size t = Metric.size t.metric
let dist t u v =
  if !Ron_obs.Probe.on then Ron_obs.Probe.dist_eval ();
  Metric.dist t.metric u v
let diameter t = t.diameter
let min_distance t = t.min_distance

let aspect_ratio t = if size t < 2 then 1.0 else t.diameter /. t.min_distance

let log2_aspect_ratio t =
  let a = aspect_ratio t in
  max 1 (int_of_float (ceil (Ron_util.Bits.flog2 (max 2.0 a))))

let log2_size t = max 1 (Ron_util.Bits.ilog2_ceil (max 2 (size t)))

let nth_neighbor t u k = (t.sorted_v.(u).(k), t.sorted_d.(u).(k))
let row t u = t.sorted_v.(u)

(* Number of nodes at distance <= r from u: binary search for the last index
   with distance <= r. *)
let count_le t u r =
  if !Ron_obs.Probe.on then Ron_obs.Probe.ball_query ();
  if r < 0.0 then 0
  else begin
    let row = t.sorted_d.(u) in
    let n = Array.length row in
    let rec go lo hi =
      (* invariant: row.(lo-1) <= r (or lo = 0), row.(hi) > r (or hi = n) *)
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if row.(mid) <= r then go (mid + 1) hi else go lo mid
    in
    go 0 n
  end

let ball_count = count_le

let ball t u r =
  let k = count_le t u r in
  Array.sub t.sorted_v.(u) 0 k

let ball_iter t u r f =
  let k = count_le t u r in
  for i = 0 to k - 1 do
    f t.sorted_v.(u).(i) t.sorted_d.(u).(i)
  done

let ball_filter t u r keep =
  let k = count_le t u r in
  let row = t.sorted_v.(u) in
  let out = Array.make k 0 in
  let m = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get row i in
    if keep v then begin
      Array.unsafe_set out !m v;
      incr m
    end
  done;
  if !m = k then out else Array.sub out 0 !m

let annulus t u r_in r_out =
  let k_in = count_le t u r_in and k_out = count_le t u r_out in
  Array.sub t.sorted_v.(u) k_in (max 0 (k_out - k_in))

let radius_for_count t u k =
  if !Ron_obs.Probe.on then Ron_obs.Probe.ball_query ();
  let n = size t in
  if k < 1 || k > n then invalid_arg "Indexed.radius_for_count";
  t.sorted_d.(u).(k - 1)

let r_eps t u eps =
  let n = size t in
  let k = int_of_float (ceil (eps *. float_of_int n)) in
  radius_for_count t u (max 1 (min n k))

let r_level t u i =
  if i < 0 then infinity
  else begin
    let n = size t in
    (* ceil (n / 2^i), computed in integers to avoid float rounding. *)
    let p = if i >= 62 then max_int else 1 lsl i in
    let k = if p >= n then 1 else (n + p - 1) / p in
    radius_for_count t u k
  end

let nearest_of t u candidates =
  if Array.length candidates = 0 then invalid_arg "Indexed.nearest_of: empty";
  let best = ref candidates.(0) and best_d = ref (dist t u candidates.(0)) in
  Array.iter
    (fun v ->
      let d = dist t u v in
      if d < !best_d || (d = !best_d && v < !best) then begin
        best := v;
        best_d := d
      end)
    candidates;
  (!best, !best_d)
