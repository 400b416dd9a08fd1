module Indexed = Ron_metric.Indexed
module Bits = Ron_util.Bits
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls
module Metric = Ron_metric.Metric

type t = {
  idx : Indexed.t;
  dls : Dls.t;
  nbr_off : Labelled.ints; (* n + 1: CSR over F(u) \ {u} *)
  nbr : Labelled.ints;
  dls_bits : int array;
}

let build idx ~delta =
  if not (delta > 0.0 && delta < 2.0 /. 3.0) then
    invalid_arg "Labelled_m.build: delta must be in (0, 2/3)";
  if Indexed.size idx >= 2 && Indexed.min_distance idx < 1.0 then
    invalid_arg "Labelled_m.build: metric must be normalized";
  let tri = Triangulation.build idx ~delta:Labelled.dls_delta in
  let dls = Dls.build tri in
  let nbr_off, nbr = Labelled.targets idx tri ~delta in
  { idx; dls; nbr_off; nbr; dls_bits = Dls.label_bits dls }

(* Every hop re-scores the node's neighbors: a fresh memo generation per
   hop, so each hop pays its own label decodes. The state is unused. *)
let hop t sc m (r : Scheme.regs) u =
  let target = r.target in
  if u = target then Scheme.deliver
  else begin
    Labelled.fresh m;
    let best =
      Labelled.select (Dls.export t.dls) sc m t.nbr ~dst:target t.nbr_off.{u} t.nbr_off.{u + 1}
    in
    if best < 0 then failwith "Labelled_m.hop: no neighbors";
    Scheme.forward_to r best 0 (Metric.dist (Indexed.metric t.idx) u best)
  end

let route t ~src ~dst =
  let n = Indexed.size t.idx in
  let m = Labelled.memo () and sc = Dls.scratch () and r = Scheme.live () in
  Labelled.reserve m n;
  Scheme.route r
    ~header_bits:(t.dls_bits.(dst) + Bits.index_bits n)
    ~max_hops:(max 64 (4 * n)) ~src ~dst 0 (fun u _ -> hop t sc m r u)
  |> Scheme.charge_dist

(* |F(u)|: the run plus [u] itself. *)
let degrees t = Array.init (Indexed.size t.idx) (fun u -> t.nbr_off.{u + 1} - t.nbr_off.{u} + 1)
let out_degree t = Array.fold_left max 0 (degrees t)

let mean_out_degree t =
  float_of_int (Array.fold_left ( + ) 0 (degrees t)) /. float_of_int (max 1 (Indexed.size t.idx))

let table_bits t =
  let n = Indexed.size t.idx in
  Array.init n (fun u ->
      let acc = ref (t.dls_bits.(u) + Bits.index_bits n) in
      for e = t.nbr_off.{u} to t.nbr_off.{u + 1} - 1 do
        acc := !acc + t.dls_bits.(t.nbr.{e})
      done;
      !acc)

let label_bits t = Array.copy t.dls_bits

let header_bits t =
  Array.fold_left max 0 t.dls_bits + Bits.index_bits (Indexed.size t.idx)
