module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Measure = Ron_metric.Measure
module Rng = Ron_util.Rng
module Pool = Ron_util.Pool
module Fsort = Ron_util.Fsort

type ring = { scale : int; radius : float; members : int array }

type t = {
  rings : ring array array;
  (* Distinct-neighbor sets are needed once per node but queried many times
     (out_degree, max_out_degree, link enumeration), so the dedup is
     computed lazily and cached. *)
  neighbors_cache : int array option array;
}

let of_rings rings = { rings; neighbors_cache = Array.make (Array.length rings) None }

(* Deep copy: member arrays are duplicated so in-place repair (the churn
   layer) never aliases the pristine collection; the dedup cache restarts
   cold. *)
let copy t =
  {
    rings =
      Array.map
        (fun rs -> Array.map (fun r -> { r with members = Array.copy r.members }) rs)
        t.rings;
    neighbors_cache = Array.make (Array.length t.rings) None;
  }

let ring t u i =
  let r = t.rings.(u).(i) in
  if !Ron_obs.Probe.on then
    Ron_obs.Probe.ring_probe ~members:(Array.length r.members);
  r
let rings_of t u = t.rings.(u)
let scales t u = Array.length t.rings.(u)
let size t = Array.length t.rings

(* Every member of every ring, sorted, then deduplicated in place. *)
let compute_neighbors t u =
  let all = Array.concat (Array.to_list (Array.map (fun r -> r.members) t.rings.(u))) in
  Fsort.sort_ints all;
  let k = ref 0 in
  Array.iter
    (fun v ->
      if !k = 0 || all.(!k - 1) <> v then begin
        all.(!k) <- v;
        incr k
      end)
    all;
  Array.sub all 0 !k

let cached_neighbors t u =
  match t.neighbors_cache.(u) with
  | Some a -> a
  | None ->
    let a = compute_neighbors t u in
    t.neighbors_cache.(u) <- Some a;
    a

(* A copy, so callers may mutate the result without corrupting the cache. *)
let neighbors t u = Array.copy (cached_neighbors t u)

let out_degree t u = Array.length (cached_neighbors t u)

let max_out_degree t =
  let best = ref 0 in
  for u = 0 to size t - 1 do
    best := max !best (out_degree t u)
  done;
  !best

let max_ring_size t =
  Array.fold_left
    (fun acc rs -> Array.fold_left (fun a r -> max a (Array.length r.members)) acc rs)
    0 t.rings

let net_rings idx hier ~scales ~radius_of ~level_of =
  let n = Indexed.size idx in
  of_rings
    (Pool.init n (fun u ->
         Array.init scales (fun i ->
             let radius = radius_of i in
             let level = level_of i in
             let members =
               Indexed.ball_filter idx u radius (fun v -> Net.Hierarchy.mem hier level v)
             in
             { scale = i; radius; members })))

let uniform_rings idx rng ~scales ~samples =
  let n = Indexed.size idx in
  (* Sequential on purpose: the draws consume one shared RNG stream, and the
     per-node work after the index is built is O(samples). *)
  of_rings
    (Array.init n (fun u ->
         Array.init scales (fun i ->
             let p = if i >= 62 then max_int else 1 lsl i in
             let k = if p >= n then 1 else (n + p - 1) / p in
             let radius = Indexed.radius_for_count idx u k in
             let ball = Indexed.ball idx u radius in
             let members = Array.init samples (fun _ -> Rng.pick rng ball) in
             { scale = i; radius; members })))

let measure_rings idx mu rng ~scales ~samples ~radius_of =
  let n = Indexed.size idx in
  (* Sequential for the same reason as [uniform_rings]. *)
  of_rings
    (Array.init n (fun u ->
         let cum = Measure.cumulative_by_distance mu idx u in
         Array.init scales (fun j ->
             let radius = radius_of j in
             let count = Indexed.ball_count idx u radius in
             let prefix = Array.sub cum 0 (max 1 count) in
             let members =
               Array.init samples (fun _ ->
                   let k = Rng.weighted_index rng prefix in
                   fst (Indexed.nth_neighbor idx u k))
             in
             { scale = j; radius; members })))

(* In-place membership surgery for incremental repair. Both operations
   invalidate [u]'s dedup cache; neither reallocates the member array, so a
   repaired collection keeps its footprint. *)

let replace_member t u i ~at ~with_ =
  let r = t.rings.(u).(i) in
  if at < 0 || at >= Array.length r.members then
    invalid_arg "Rings.replace_member: slot out of range";
  r.members.(at) <- with_;
  t.neighbors_cache.(u) <- None

let find_member t u i v =
  let r = t.rings.(u).(i) in
  let out = ref (-1) in
  (try
     Array.iteri
       (fun k w ->
         if w = v then begin
           out := k;
           raise Exit
         end)
       r.members
   with Exit -> ());
  !out

let check_containment idx t =
  let ok = ref true in
  Array.iteri
    (fun u rs ->
      Array.iter
        (fun r ->
          Array.iter
            (fun v -> if Indexed.dist idx u v > r.radius +. 1e-9 then ok := false)
            r.members)
        rs)
    t.rings;
  !ok
