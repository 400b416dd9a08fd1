module A1 = Bigarray.Array1
module Graph = Ron_graph.Graph
module Sp_metric = Ron_graph.Sp_metric

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type t = { t_off : ints; t_w : ints; t_next : ints; t_cost : floats }

(* Offsets from the row lengths, then one fill pass; nodes own disjoint
   ranges, so it fans out per node. *)
let build sp (rows : int array array) =
  let g = Sp_metric.graph sp in
  let n = Array.length rows in
  let t_off = A1.create Bigarray.int Bigarray.c_layout (n + 1) in
  t_off.{0} <- 0;
  Array.iteri (fun u row -> t_off.{u + 1} <- t_off.{u} + Array.length row) rows;
  let total = t_off.{n} in
  let t_w = A1.create Bigarray.int Bigarray.c_layout total in
  let t_next = A1.create Bigarray.int Bigarray.c_layout total in
  let t_cost = A1.create Bigarray.float64 Bigarray.c_layout total in
  Ron_util.Pool.parallel_for n (fun u ->
      let e = t_off.{u} in
      Array.iteri
        (fun k v ->
          let next = Graph.hop g u (Sp_metric.first_hop_index sp u v) in
          t_w.{e + k} <- v;
          t_next.{e + k} <- next;
          t_cost.{e + k} <- Sp_metric.dist sp u next)
        rows.(u);
      if !Ron_obs.Probe.on then Ron_obs.Probe.table_node ());
  { t_off; t_w; t_next; t_cost }

(* Binary search for [w] in the sorted run [s, e) of [tw]. The column type
   is annotated so the reads compile inline. *)
let rec search (tw : ints) s e w =
  if s >= e then -1
  else begin
    let mid = (s + e) / 2 in
    let mw = A1.unsafe_get tw mid in
    if mw < w then search tw (mid + 1) e w
    else if mw = w then mid
    else search tw s mid w
  end

let find t u w = search t.t_w (A1.unsafe_get t.t_off u) (A1.unsafe_get t.t_off (u + 1)) w

let entries t u = t.t_off.{u + 1} - t.t_off.{u}
