module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Packing = Ron_metric.Packing
module Bits = Ron_util.Bits
module Qfloat = Ron_util.Qfloat
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module A1 = Bigarray.Array1

type t = {
  idx : Indexed.t;
  delta : float;
  levels : int;
  hierarchy : Net.Hierarchy.t;
  packings : Packing.t array;
  xn : int array array array; (* xn.(u).(i) *)
  yn : int array array array;
  b_off : Landmark.ints; (* n + 1 row starts *)
  b_node : Landmark.ints; (* each row's beacon ids, ascending *)
  b_dist : Landmark.floats; (* Indexed.dist u b, at b's position in row u *)
}

let[@inline always] ig (a : Landmark.ints) i = A1.unsafe_get a i

let idx t = t.idx
let delta t = t.delta
let levels t = t.levels
let hierarchy t = t.hierarchy
let packing t i = t.packings.(i)
let x_neighbors t u i = t.xn.(u).(i)
let y_neighbors t u i = t.yn.(u).(i)

(* [f b] for each beacon [b] of [u] (the union of its X- and Y-sets over
   all scales), in ascending order. *)
let iter_row ~n xn yn u f =
  let mark = Bytes.make n '\000' in
  Array.iter (Array.iter (fun b -> Bytes.unsafe_set mark b '\001')) (Array.append xn.(u) yn.(u));
  for b = 0 to n - 1 do
    if Bytes.unsafe_get mark b = '\001' then f b
  done

(* Net level of the Y-ring at scale i, given the ball radius r_ui. *)
let y_net_level r_ui delta ~net_divisor =
  if r_ui <= 0.0 then 0
  else max 0 (int_of_float (Float.floor (Bits.flog2 (delta *. r_ui /. net_divisor))))

let build ?(radius_factor = 12.0) ?(net_divisor = 4.0) idx_ ~delta =
  if not (delta > 0.0 && delta < 0.5) then
    invalid_arg "Triangulation.build: delta must be in (0, 1/2)";
  if Indexed.size idx_ >= 2 && Indexed.min_distance idx_ < 1.0 then
    invalid_arg "Triangulation.build: metric must be normalized";
  Ron_obs.Profile.phase "construct.triangulation" @@ fun () ->
  let n = Indexed.size idx_ in
  let levels = Indexed.log2_size idx_ + 1 in
  let hierarchy = Net.Hierarchy.create idx_ in
  let packings =
    Array.init levels (fun i -> Packing.create idx_ ~eps:(1.0 /. Bits.pow2 i))
  in
  let aspect = Float.max 2.0 (Indexed.diameter idx_) in
  (* X-type: designated nodes h_B of packing balls B with
     d(u, h_B) + radius <= r_(u, i-1) (Appendix-B form of "B inside the
     previous ball"); at i = 0 the previous radius is unbounded. *)
  (* The per-node passes are pure reads of the immutable index, packings,
     and hierarchy (plus, for the row passes, the finished xn/yn):
     parallel fan-out over nodes, barriers between passes. *)
  let xn =
    Pool.init n (fun u ->
        Array.init levels (fun i ->
            let r_prev = Indexed.r_level idx_ u (i - 1) in
            let keep b =
              Indexed.dist idx_ u b.Packing.center +. b.Packing.radius <= r_prev
            in
            Array.to_list (Packing.balls packings.(i))
            |> List.filter keep
            |> List.map (fun b -> b.Packing.center)
            |> Array.of_list))
  in
  (* Y-type: net points of G_(j_i) within 12 r_ui / delta. Scale 0 is made
     canonical (identical for all nodes): the whole space intersected with
     G_(floor(log2 (delta * Delta / 8))) — a superset of the paper's
     per-node Y_u0, needed so that all host enumerations can share their
     scale-0 prefix (see DESIGN.md). *)
  let y0_level =
    max 0 (int_of_float (Float.floor (Bits.flog2 (delta *. aspect /. (2.0 *. net_divisor)))))
  in
  let y0 = Array.copy (Net.Hierarchy.level hierarchy y0_level) in
  Ron_util.Fsort.sort_ints y0;
  let yn =
    Pool.init n (fun u ->
        Array.init levels (fun i ->
            if i = 0 then y0
            else begin
              let r_ui = Indexed.r_level idx_ u i in
              let level = y_net_level r_ui delta ~net_divisor in
              let radius = radius_factor *. r_ui /. delta in
              Indexed.ball_filter idx_ u radius (fun v ->
                  Net.Hierarchy.mem hierarchy level v)
            end))
  in
  (* The rows: a count pass, then a fill pass into disjoint ranges. *)
  let counts =
    Pool.init n (fun u ->
        let c = ref 0 in
        iter_row ~n xn yn u (fun _ -> incr c);
        !c)
  in
  let b_off = A1.create Bigarray.int Bigarray.c_layout (n + 1) in
  b_off.{0} <- 0;
  Array.iteri (fun u c -> b_off.{u + 1} <- b_off.{u} + c) counts;
  let b_node = A1.create Bigarray.int Bigarray.c_layout b_off.{n} in
  let b_dist = A1.create Bigarray.float64 Bigarray.c_layout b_off.{n} in
  Pool.parallel_for n (fun u ->
      let p = ref b_off.{u} in
      iter_row ~n xn yn u (fun b ->
          b_node.{!p} <- b;
          b_dist.{!p} <- Indexed.dist idx_ u b;
          incr p);
      if !Probe.on then Probe.label_node ());
  { idx = idx_; delta; levels; hierarchy; packings; xn; yn; b_off; b_node; b_dist }

let row_len t u = ig t.b_off (u + 1) - ig t.b_off u

let beacons t u =
  let s = ig t.b_off u in
  Array.init (row_len t u) (fun k -> ig t.b_node (s + k))

let order t = Array.fold_left max 0 (Array.init (Indexed.size t.idx) (row_len t))

(* Merge-join of the rows [i, ie) and [j, je): each common beacon folds
   into [out] through the landmark sandwich step. Returns how many
   beacons the rows share. *)
let rec join t out i ie j je common =
  if i >= ie || j >= je then common
  else begin
    let a = ig t.b_node i and b = ig t.b_node j in
    if a < b then join t out (i + 1) ie j je common
    else if a > b then join t out i ie (j + 1) je common
    else begin
      Landmark.sandwich_step out 0 t.b_dist i t.b_dist j;
      join t out (i + 1) ie (j + 1) je (common + 1)
    end
  end

let estimate t u v =
  if u = v then (0.0, 0.0)
  else begin
    if !Probe.on then
      for _ = 1 to min (row_len t u) (row_len t v) do
        Probe.table_touch ()
      done;
    let out = [| 0.0; infinity |] in
    let common =
      join t out (ig t.b_off u) (ig t.b_off (u + 1)) (ig t.b_off v) (ig t.b_off (v + 1)) 0
    in
    if common = 0 then failwith "Triangulation.estimate: no common beacon (Theorem 3.2 violated)";
    (out.(0), out.(1))
  end

let label_bits t =
  let n = Indexed.size t.idx in
  let id_bits = Bits.index_bits n in
  let codec = Qfloat.codec_for ~delta:t.delta ~aspect_ratio:(Float.max 2.0 (Indexed.aspect_ratio t.idx)) in
  let per_entry = id_bits + Qfloat.bits codec in
  Array.init n (fun u -> row_len t u * per_entry)
