(* Test oracle for Theorem 3.2's beacon rows and for the [33, 50]
   common-beacon baseline, each written independently of the library's
   columns.

   The triangulation side keeps one Hashtbl per node, beacon -> exact
   distance, filled from the X- and Y-sets a triangulation exposes, and
   folds the smaller table against the larger; its estimate tracks a
   witness beacon. The baseline side draws k shared beacons by seeded
   shuffle and folds every pair's bounds over all of them, reading each
   distance from the metric. *)

module Indexed = Ron_metric.Indexed
module Triangulation = Ron_labeling.Triangulation
module Bits = Ron_util.Bits
module Qfloat = Ron_util.Qfloat
module Rng = Ron_util.Rng

type t = { tri : Triangulation.t; tables : (int, float) Hashtbl.t array }

let build tri =
  let idx = Triangulation.idx tri in
  let tables =
    Array.init (Indexed.size idx) (fun u ->
        let tbl = Hashtbl.create 64 in
        let addall arr =
          Array.iter
            (fun b -> if not (Hashtbl.mem tbl b) then Hashtbl.replace tbl b (Indexed.dist idx u b))
            arr
        in
        for i = 0 to Triangulation.levels tri - 1 do
          addall (Triangulation.x_neighbors tri u i)
        done;
        for i = 0 to Triangulation.levels tri - 1 do
          addall (Triangulation.y_neighbors tri u i)
        done;
        tbl)
  in
  { tri; tables }

let beacons t u =
  let a = Array.of_list (Hashtbl.fold (fun b _ acc -> b :: acc) t.tables.(u) []) in
  Array.sort compare a;
  a

let order t = Array.fold_left (fun best tbl -> max best (Hashtbl.length tbl)) 0 t.tables

(* Iterate over the smaller table. *)
let fold_common t u v f init =
  let a, b =
    if Hashtbl.length t.tables.(u) <= Hashtbl.length t.tables.(v) then (t.tables.(u), t.tables.(v))
    else (t.tables.(v), t.tables.(u))
  in
  Hashtbl.fold
    (fun beacon da acc ->
      match Hashtbl.find_opt b beacon with Some db -> f acc beacon da db | None -> acc)
    a init

let estimate t u v =
  if u = v then (0.0, 0.0)
  else begin
    let lo, hi, wit =
      fold_common t u v
        (fun (lo, hi, wit) beacon da db ->
          let s = da +. db and d = Float.abs (da -. db) in
          let hi, wit = if s < hi then (s, beacon) else (hi, wit) in
          (Float.max lo d, hi, wit))
        (0.0, infinity, -1)
    in
    if wit < 0 then failwith "Triangulation_oracle.estimate: no common beacon";
    (lo, hi)
  end

(* A common beacon achieving D+. *)
let witness t u v =
  if u = v then u
  else begin
    let _, wit =
      fold_common t u v
        (fun (hi, wit) beacon da db ->
          let s = da +. db in
          if s < hi then (s, beacon) else (hi, wit))
        (infinity, -1)
    in
    if wit < 0 then failwith "Triangulation_oracle.witness: no common beacon";
    wit
  end

let label_bits t =
  let idx = Triangulation.idx t.tri in
  let codec =
    Qfloat.codec_for ~delta:(Triangulation.delta t.tri)
      ~aspect_ratio:(Float.max 2.0 (Indexed.aspect_ratio idx))
  in
  let per_entry = Bits.index_bits (Indexed.size idx) + Qfloat.bits codec in
  Array.map (fun tbl -> Hashtbl.length tbl * per_entry) t.tables

(* The common-beacon baseline: one beacon set for every node. *)
module Beacon = struct
  type t = { idx : Indexed.t; beacons : int array }

  let build idx rng ~k =
    let n = Indexed.size idx in
    if k < 1 || k > n then invalid_arg "Beacon.build: k out of range";
    let perm = Array.init n Fun.id in
    Rng.shuffle rng perm;
    let beacons = Array.sub perm 0 k in
    Array.sort compare beacons;
    { idx; beacons }

  let estimate t u v =
    if u = v then (0.0, 0.0)
    else
      Array.fold_left
        (fun (lo, hi) b ->
          let da = Indexed.dist t.idx u b and db = Indexed.dist t.idx v b in
          (Float.max lo (Float.abs (da -. db)), Float.min hi (da +. db)))
        (0.0, infinity) t.beacons

  (* Fraction of unordered pairs with D- = 0 or D+ > (1 + delta) D-. *)
  let bad_fraction t ~delta =
    let n = Indexed.size t.idx in
    let bad = ref 0 and total = ref 0 in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        incr total;
        let lo, hi = estimate t u v in
        if lo <= 0.0 || hi > (1.0 +. delta) *. lo then incr bad
      done
    done;
    if !total = 0 then 0.0 else float_of_int !bad /. float_of_int !total
end
