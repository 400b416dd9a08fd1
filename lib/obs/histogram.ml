(* Bounded log-bucketed histograms (HDR/DDSketch-style): memory is
   O(occupied buckets), whatever the observation count. A finite positive
   value v lands in bucket floor(log v / log gamma) with
   gamma = (1+e)/(1-e) for the relative error e = 1%; zeros and negatives
   count in a dedicated zero bucket with representative 0.0. Non-finite
   inputs (nan, +/-infinity — e.g. stretch values computed against an
   unreachable node) are rejected: they bump a separate [nonfinite] tally
   and never touch the buckets, the totals, or min/max, so one bad sample
   cannot corrupt the summary.

   Quantiles use the same rank rule as Ron_util.Stats.percentile
   (rank = ceil(q*n), element at rank-1) over the cumulative bucket
   counts, answering with the bucket's geometric midpoint gamma^(i+0.5)
   clamped to the observed [min, max]. Bucket index is monotone in the
   value, so the rank-r element of the sorted raw sample lies in the
   bucket the estimator picks: the answer is within one bucket — a factor
   of gamma — of the exact raw-sample quantile (tested by QCheck). The
   boundary q = 1.0 bypasses the bucket estimate entirely and returns the
   exact recorded max, matching the raw-sample maximum bit-for-bit.

   Shard counts merge by per-bucket addition and min/max by order-free
   extrema, so summaries are bit-identical at every RON_JOBS. *)

(* All-float, so stored flat: updating an extremum does not box. *)
type extrema = { mutable mn : float; mutable mx : float }

type shard = {
  tbl : (int, int ref) Hashtbl.t;
  mutable zero : int;
  mutable nonfinite : int;
  mutable total : int;
  ext : extrema;
}

type t = { name : string; shards : shard Shard.t }
type Registry.metric += Histogram of t

type summary = {
  count : int;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let relative_error = 0.01
let gamma = (1.0 +. relative_error) /. (1.0 -. relative_error)
let log_gamma = log gamma

let fresh_shard () =
  { tbl = Hashtbl.create 64; zero = 0; nonfinite = 0; total = 0;
    ext = { mn = infinity; mx = neg_infinity } }

let make name =
  match
    Registry.declare name (fun () -> Histogram { name; shards = Shard.make fresh_shard })
  with
  | Histogram t -> t
  | _ -> Registry.clash "Histogram" name

let name t = t.name

(* One finite observation. Inlined into both observers, so the int path
   keeps its float in a register and allocates nothing. *)
let[@inline] record s x =
  let e = s.ext in
  if x > 0.0 then begin
    let idx = int_of_float (Float.floor (log x /. log_gamma)) in
    (* [find] over [find_opt]: the hit path (every observation after a
       bucket's first) must not allocate an option. *)
    (match Hashtbl.find s.tbl idx with
    | r -> incr r
    | exception Not_found -> Hashtbl.add s.tbl idx (ref 1));
    if x < e.mn then e.mn <- x;
    if x > e.mx then e.mx <- x
  end
  else begin
    s.zero <- s.zero + 1;
    if 0.0 < e.mn then e.mn <- 0.0;
    if 0.0 > e.mx then e.mx <- 0.0
  end;
  s.total <- s.total + 1

let observe t x =
  let s = Domain.DLS.get t.shards.Shard.key in
  if Float.is_finite x then record s x else s.nonfinite <- s.nonfinite + 1

let observe_int t i = record (Domain.DLS.get t.shards.Shard.key) (float_of_int i)

let count t = List.fold_left (fun a s -> a + s.total) 0 (Shard.all t.shards)
let nonfinite_count t = List.fold_left (fun a s -> a + s.nonfinite) 0 (Shard.all t.shards)

(* Merge every shard: (zero count, sorted (bucket, count) array, total,
   min, max). Addition and extrema commute, so the merge is independent
   of shard registration order. *)
let merged t =
  let acc = Hashtbl.create 64 in
  let zero = ref 0 and total = ref 0 in
  let mn = ref infinity and mx = ref neg_infinity in
  List.iter
    (fun s ->
      zero := !zero + s.zero;
      total := !total + s.total;
      if s.ext.mn < !mn then mn := s.ext.mn;
      if s.ext.mx > !mx then mx := s.ext.mx;
      Hashtbl.iter
        (fun idx c ->
          match Hashtbl.find_opt acc idx with
          | Some r -> r := !r + !c
          | None -> Hashtbl.add acc idx (ref !c))
        s.tbl)
    (Shard.all t.shards);
  let buckets =
    Hashtbl.fold (fun idx c l -> (idx, !c) :: l) acc []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> Array.of_list
  in
  (!zero, buckets, !total, !mn, !mx)

let bucket_count t =
  let _, buckets, _, _, _ = merged t in
  Array.length buckets

(* Merged occupied buckets as (inclusive upper bound, count), ascending.
   The zero bucket (zeros and negatives, representative 0.0) leads as
   (0.0, count) when occupied; log bucket i spans (gamma^i, gamma^(i+1)]
   and is reported by its upper edge. This is the cumulative-bucket view
   the Prometheus exposition and the SLO fraction-above-limit
   computation both consume; it depends only on the merged multiset, so
   it is bit-identical at every RON_JOBS. *)
let buckets t =
  let zero, bs, _, _, _ = merged t in
  let logs =
    Array.map (fun (idx, c) -> (exp (float_of_int (idx + 1) *. log_gamma), c)) bs
  in
  if zero = 0 then logs else Array.append [| (0.0, zero) |] logs

(* Deterministic approximate sum: per-bucket count times the bucket's
   geometric midpoint (clamped to the observed [min, max]), folded in
   bucket order. Within a factor of gamma of the exact sum, and — unlike
   a per-shard float accumulator — independent of how Pool sharded the
   observations. Zero-bucket entries contribute their representative
   0.0. *)
let approx_sum t =
  let _, bs, total, mn, mx = merged t in
  if total = 0 then 0.0
  else
    Array.fold_left
      (fun a (idx, c) ->
        let mid = exp ((float_of_int idx +. 0.5) *. log_gamma) in
        let mid = Stdlib.max mn (Stdlib.min mx mid) in
        a +. (float_of_int c *. mid))
      0.0 bs

let quantile_of_merged (zero, buckets, total, mn, mx) q =
  if total = 0 then nan
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int total)) in
      Stdlib.max 1 (Stdlib.min total r)
    in
    if rank <= zero then 0.0
    else if rank = total then
      (* q = 1.0 (or a rank landing on the last element): the maximum is
         tracked exactly, so answer with it instead of the top bucket's
         midpoint. *)
      mx
    else begin
      let seen = ref zero and est = ref mx in
      (try
         Array.iter
           (fun (idx, c) ->
             seen := !seen + c;
             if !seen >= rank then begin
               est := exp ((float_of_int idx +. 0.5) *. log_gamma);
               raise Exit
             end)
           buckets
       with Exit -> ());
      Stdlib.max mn (Stdlib.min mx !est)
    end
  end

let quantile t q = quantile_of_merged (merged t) q

let summary t =
  let ((_, _, total, mn, mx) as m) = merged t in
  {
    count = total;
    min = (if total = 0 then nan else mn);
    max = (if total = 0 then nan else mx);
    p50 = quantile_of_merged m 0.50;
    p95 = quantile_of_merged m 0.95;
    p99 = quantile_of_merged m 0.99;
  }

let reset t =
  List.iter
    (fun s ->
      Hashtbl.reset s.tbl;
      s.zero <- 0;
      s.nonfinite <- 0;
      s.total <- 0;
      s.ext.mn <- infinity;
      s.ext.mx <- neg_infinity)
    (Shard.all t.shards)

let all () = List.filter_map (function Histogram t -> Some t | _ -> None) (Registry.all ())

let to_json () =
  Json.Obj
    (List.filter_map
       (fun h ->
         let s = summary h in
         if s.count = 0 then None
         else
           Some
             ( h.name,
               Json.Obj
                 [
                   ("count", Json.Int s.count);
                   ("min", Json.Float s.min);
                   ("max", Json.Float s.max);
                   ("p50", Json.Float s.p50);
                   ("p95", Json.Float s.p95);
                   ("p99", Json.Float s.p99);
                 ] ))
       (all ()))
