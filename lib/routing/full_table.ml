module Sp_metric = Ron_graph.Sp_metric
module Graph = Ron_graph.Graph
module Bits = Ron_util.Bits

type t = { sp : Sp_metric.t }

let build sp = { sp }

let route t ~src ~dst =
  let n = Graph.size (Sp_metric.graph t.sp) in
  let r = Scheme.live () in
  Scheme.route r ~header_bits:(Bits.index_bits n) ~max_hops:(max 64 (2 * n)) ~src ~dst 0
    (fun u _ ->
      if u = dst then Scheme.deliver
      else begin
        let next = Sp_metric.next_toward t.sp u dst in
        Scheme.forward_to r next 0 (Sp_metric.dist t.sp u next)
      end)

let table_bits t =
  let g = Sp_metric.graph t.sp in
  let n = Graph.size g in
  let fh_bits = Bits.index_bits (max 2 (Graph.max_out_degree g)) in
  (* One first-hop entry per target, indexed by the target's global id. *)
  Array.make n ((n - 1) * fh_bits)

let header_bits t = Bits.index_bits (Graph.size (Sp_metric.graph t.sp))
