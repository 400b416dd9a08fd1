module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Sp_metric = Ron_graph.Sp_metric
module Graph = Ron_graph.Graph
module Bits = Ron_util.Bits
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls
module Pool = Ron_util.Pool

(* Internal delta for the black-box DLS: (1+2d)(1+d/8) <= 3/2 holds for
   d = 0.22. *)
let dls_delta = 0.22

type t = {
  sp : Sp_metric.t;
  idx : Indexed.t;
  delta : float;
  dls : Dls.t;
  nbrs : int array array; (* per node: sorted distinct neighbor ids *)
  table : First_hop.t;
  dls_bits : int array;
}

let neighbors t u = Array.copy t.nbrs.(u)

let build sp ~delta =
  if not (delta > 0.0 && delta < 2.0 /. 3.0) then
    invalid_arg "Labelled.build: delta must be in (0, 2/3)";
  Ron_obs.Profile.phase "construct.labelled" @@ fun () ->
  let metric = Ron_metric.Metric.normalize (Sp_metric.metric sp) in
  let idx = Indexed.create metric in
  let n = Indexed.size idx in
  let tri = Triangulation.build idx ~delta:dls_delta in
  let dls = Dls.build tri in
  (* F_j = 2^j-nets (the hierarchy's levels); F_j(u) = B_u(2^(j+2)/delta). *)
  let hier = Triangulation.hierarchy tri in
  let jmax = Net.Hierarchy.jmax hier in
  (* Both per-node passes read only immutable state (the index, the
     hierarchy, and — for the second — the finished [nbrs]), so each is a
     parallel fan-out over nodes. *)
  let nbrs =
    Ron_obs.Profile.phase "neighbors" @@ fun () ->
    Pool.init n (fun u ->
        let tbl = Hashtbl.create 32 in
        for j = 0 to jmax do
          let r = Ron_util.Bits.pow2 (j + 2) /. delta in
          Indexed.ball_iter idx u r (fun v _ ->
              if Net.Hierarchy.mem hier j v then Hashtbl.replace tbl v ())
        done;
        let a = Array.of_list (Hashtbl.fold (fun v () acc -> v :: acc) tbl []) in
        Ron_util.Fsort.sort_ints a;
        a)
  in
  let table = Ron_obs.Profile.phase "tables" @@ fun () -> First_hop.build sp n (Array.get nbrs) in
  { sp; idx; delta; dls; nbrs; table; dls_bits = Dls.label_bits dls }

type header = { target : int; intermediate : int }

let step t ~score u (h : header) : header Scheme.action =
  if u = h.target then Deliver
  else begin
    let forward_to v h' =
      match First_hop.find t.table u v with
      | -1 -> failwith "Labelled.step: intermediate target is not a neighbor"
      | e -> Scheme.Forward (t.table.First_hop.t_next.{e}, h')
    in
    if h.intermediate = u then begin
      (* Select a new intermediate target: the neighbor minimizing the
         labeled distance estimate to the target. *)
      let best = ref (-1) and best_d = ref infinity in
      Array.iter
        (fun v ->
          if v <> u then begin
            let d = score v in
            if d < !best_d || (d = !best_d && v < !best) then begin
              best := v;
              best_d := d
            end
          end)
        t.nbrs.(u);
      if !best < 0 then failwith "Labelled.step: no neighbors";
      forward_to !best { h with intermediate = !best }
    end
    else forward_to h.intermediate h
  end

(* Ranked fallback forwards: the node's neighbors ordered by their labeled
   distance estimate to the target (the same score the primary selection
   uses), each re-aimed as the new intermediate target. Capped — the fault
   layer only ever needs the first few live ones. *)
let alternates t ~score u (h : header) =
  if u = h.target then []
  else begin
    let scored = ref [] in
    Array.iter
      (fun v -> if v <> u then scored := (score v, v) :: !scored)
      t.nbrs.(u);
    let ranked =
      List.sort
        (fun (d1, v1) (d2, v2) ->
          match Float.compare d1 d2 with 0 -> compare v1 v2 | c -> c)
        !scored
    in
    let seen = Hashtbl.create 8 in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | (_, v) :: rest -> (
        match First_hop.find t.table u v with
        | -1 -> take k rest
        | e ->
          let next = t.table.First_hop.t_next.{e} in
          if next = u || Hashtbl.mem seen next then take k rest
          else begin
            Hashtbl.replace seen next ();
            (next, { h with intermediate = v }) :: take (k - 1) rest
          end)
    in
    take 4 ranked
  end

let route_wrapped (w : Scheme.wrapper) t ~src ~dst =
  let n = Indexed.size t.idx in
  let hdr_bits _ = t.dls_bits.(dst) + Bits.index_bits n in
  (* Per-route memo of the labeled estimate v -> dst. The target never
     changes within a route, but intermediate re-selection re-scores a
     node's whole neighbor set, and fault detours re-select at every
     blocked hop — without the memo a long detour walk pays |nbrs| label
     decodes per revisited node instead of one array read. *)
  let lt = Dls.label t.dls dst in
  let memo = Array.make n nan in
  let score v =
    let s = memo.(v) in
    if Float.is_nan s then begin
      let s = Dls.estimate (Dls.label t.dls v) lt in
      memo.(v) <- s;
      s
    end
    else s
  in
  Scheme.simulate ~detect_cycles:w.Scheme.detect_cycles
    ~dist:(fun a b -> Sp_metric.dist t.sp a b)
    ~step:(w.Scheme.wrap (step t ~score) ~alternates:(alternates t ~score))
    ~header_bits:hdr_bits ~src
    ~header:{ target = dst; intermediate = src }
    ~max_hops:(max 64 (8 * n)) ()

let route t ~src ~dst = route_wrapped Scheme.identity_wrapper t ~src ~dst
let estimate t u v = Dls.estimate (Dls.label t.dls u) (Dls.label t.dls v)

let table_bits t =
  let g = Sp_metric.graph t.sp in
  let n = Indexed.size t.idx in
  let fh_bits = Bits.index_bits (max 2 (Graph.max_out_degree g)) in
  Array.init n (fun u ->
      Array.fold_left (fun acc v -> acc + t.dls_bits.(v) + fh_bits) 0 t.nbrs.(u)
      + Bits.index_bits n)

let label_bits t = Array.copy t.dls_bits

let header_bits t =
  let n = Indexed.size t.idx in
  Array.fold_left max 0 t.dls_bits + Bits.index_bits n

let out_degree t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.nbrs

(* ----------------------------------------------------------------- Export *)

type export = {
  x_n : int;
  x_max_hops : int;
  x_header_bits : int array;
  x_nbrs : int array array;
  x_table : First_hop.t;
  x_dls : Dls.cols;
}

let export t =
  let n = Indexed.size t.idx in
  {
    x_n = n;
    x_max_hops = max 64 (8 * n);
    x_header_bits = Array.map (fun b -> b + Bits.index_bits n) t.dls_bits;
    x_nbrs = t.nbrs;
    x_table = t.table;
    x_dls = Dls.export t.dls;
  }
