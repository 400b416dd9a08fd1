module Indexed = Ron_metric.Indexed
module Metric = Ron_metric.Metric
module Bits = Ron_util.Bits
module Rings = Ron_core.Rings

type t = { st : Structure.t }

let build idx ~delta = { st = Structure.build idx ~delta }

let scales t = t.st.Structure.cols.Structure.scales
let max_ring_size t = Rings.max_ring_size t.st.Structure.rings

(* Each hop jumps straight to the best intermediate target: the overlay
   link to f_(t, j_ut). The state is unused; [m] is the route's decode
   buffer. *)
let hop t m (r : Scheme.regs) u =
  let target = r.target in
  if u = target then Scheme.deliver
  else begin
    let c = t.st.Structure.cols in
    let jut = Structure.decode c u c target m in
    let w = Structure.member c u jut m.(jut) in
    if w = u then failwith "On_metric.hop: intermediate target equals current node"
    else Scheme.forward_to r w 0 (Metric.dist (Indexed.metric t.st.Structure.idx) u w)
  end

let route t ~src ~dst =
  let m = Array.make (scales t) 0 and r = Scheme.live () in
  Scheme.route r ~header_bits:(Structure.label_bits t.st)
    ~max_hops:(max 64 (4 * scales t)) ~src ~dst 0 (fun u _ -> hop t m r u)
  |> Scheme.charge_dist

let out_degree t = Rings.max_out_degree t.st.Structure.rings

let mean_out_degree t =
  let n = Rings.size t.st.Structure.rings in
  let acc = ref 0 in
  for u = 0 to n - 1 do
    acc := !acc + Rings.out_degree t.st.Structure.rings u
  done;
  float_of_int !acc /. float_of_int n

let table_bits t =
  let n = Indexed.size t.st.Structure.idx in
  Array.init n (fun u -> Structure.zeta_bits_sparse t.st u + Bits.index_bits n)

let label_bits t = Array.make (Indexed.size t.st.Structure.idx) (Structure.label_bits t.st)

let header_bits t = Structure.label_bits t.st
