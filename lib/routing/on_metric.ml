module Indexed = Ron_metric.Indexed
module Bits = Ron_util.Bits
module Rings = Ron_core.Rings

type t = { st : Structure.t }

let build idx ~delta = { st = Structure.build idx ~delta }

let scales t = t.st.Structure.cols.Structure.scales
let max_ring_size t = Rings.max_ring_size t.st.Structure.rings

(* Each step jumps straight to the best intermediate target: the overlay
   link to f_(t, j_ut). The header is the target; [m] is the route's
   decode buffer. *)
let step t m u target : int Scheme.action =
  if u = target then Deliver
  else begin
    let c = t.st.Structure.cols in
    let jut = Structure.decode c u c target m in
    let w = Structure.member c u jut m.(jut) in
    if w = u then failwith "On_metric.step: intermediate target equals current node"
    else Forward (w, target)
  end

let route t ~src ~dst =
  let hb = Structure.label_bits t.st in
  Scheme.simulate
    ~dist:(fun a b -> Indexed.dist t.st.Structure.idx a b)
    ~step:(step t (Array.make (scales t) 0))
    ~header_bits:(fun _ -> hb)
    ~src ~header:dst
    ~max_hops:(max 64 (4 * scales t)) ()

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
