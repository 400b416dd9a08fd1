module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Sp_metric = Ron_graph.Sp_metric
module Graph = Ron_graph.Graph
module Bits = Ron_util.Bits
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls
module Pool = Ron_util.Pool
module A1 = Bigarray.Array1

type ints = First_hop.ints

(* Internal delta for the black-box DLS: (1+2d)(1+d/8) <= 3/2 holds for
   d = 0.22. *)
let dls_delta = 0.22

type cols = {
  n : int;
  max_hops : int;
  header_bits : ints;
  table : First_hop.t;
  dls : Dls.cols;
}

type t = { sp : Sp_metric.t; dls : Dls.t; cols : cols; dls_bits : int array }

let hop_budget n = max 64 (8 * n)
let export t = t.cols

(* v joins F(u) at the first scale j whose ball reaches it, if it is a
   point of F_j there: the nets are nested and the radii grow with j, so
   that is the only scale to ask, and no set needs deduplicating. *)
let targets idx tri ~delta =
  let hier = Triangulation.hierarchy tri in
  let jmax = Net.Hierarchy.jmax hier in
  let n = Indexed.size idx in
  let sets =
    Pool.init n (fun u ->
        let acc = ref [] in
        for j = 0 to jmax do
          let inner = if j = 0 then -1.0 else Bits.pow2 (j + 1) /. delta in
          Indexed.ball_iter idx u (Bits.pow2 (j + 2) /. delta) (fun v d ->
              if v <> u && d > inner && Net.Hierarchy.mem hier j v then acc := v :: !acc)
        done;
        let a = Array.of_list !acc in
        Ron_util.Fsort.sort_ints a;
        a)
  in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun u a -> off.(u + 1) <- off.(u) + Array.length a) sets;
  let ints a : ints = A1.of_array Bigarray.int Bigarray.c_layout a in
  (ints off, ints (Array.concat (Array.to_list sets)))

let build sp ~delta =
  if not (delta > 0.0 && delta < 2.0 /. 3.0) then
    invalid_arg "Labelled.build: delta must be in (0, 2/3)";
  Ron_obs.Profile.phase "construct.labelled" @@ fun () ->
  let metric = Ron_metric.Metric.normalize (Sp_metric.metric sp) in
  let idx = Indexed.create metric in
  let n = Indexed.size idx in
  let tri = Triangulation.build idx ~delta:dls_delta in
  let dls = Dls.build tri in
  let off, ids = Ron_obs.Profile.phase "neighbors" @@ fun () -> targets idx tri ~delta in
  let table =
    Ron_obs.Profile.phase "tables" @@ fun () ->
    First_hop.build sp
      (Array.init n (fun u -> Array.init (off.{u + 1} - off.{u}) (fun k -> ids.{off.{u} + k})))
  in
  let dls_bits = Dls.label_bits dls in
  let header_bits =
    A1.of_array Bigarray.int Bigarray.c_layout
      (Array.map (fun b -> b + Bits.index_bits n) dls_bits)
  in
  let cols = { n; max_hops = hop_budget n; header_bits; table; dls = Dls.export dls } in
  { sp; dls; cols; dls_bits }

(* ------------------------------------------------------------ Selection *)

type memo = { mutable est : float array; mutable stamp : int array; mutable gen : int }

let memo () = { est = [||]; stamp = [||]; gen = 0 }

let reserve m n =
  if Array.length m.est < n then begin
    m.est <- Array.make n 0.0;
    m.stamp <- Array.make n (-1);
    m.gen <- 0
  end

let fresh m = m.gen <- m.gen + 1

(* Make m.est.(v) the labeled estimate v -> dst, scanning only on a memo
   miss ([Dls.estimate] short-circuits identical labels to 0). The
   finiteness test is [Float.is_finite] inlined, so no float is boxed. *)
let score d sc m ~dst v =
  if m.stamp.(v) <> m.gen then begin
    if v = dst then m.est.(v) <- 0.0
    else begin
      Dls.scan d v d dst sc ~exclude:(-1);
      let e = (Dls.results sc).(0) in
      if not (e -. e = 0.0) then
        failwith "Labelled: no common beacon identified (Theorem 3.4 violated)";
      m.est.(v) <- e
    end;
    m.stamp.(v) <- m.gen
  end

let rec select_from d sc m (ids : ints) ~dst i e best =
  if i >= e then best
  else begin
    let v = A1.unsafe_get ids i in
    score d sc m ~dst v;
    let better =
      best < 0 || m.est.(v) < m.est.(best) || (m.est.(v) = m.est.(best) && v < best)
    in
    select_from d sc m ids ~dst (i + 1) e (if better then v else best)
  end

let select d sc m ids ~dst s e = select_from d sc m ids ~dst s e (-1)

let hop c sc m (r : Scheme.regs) u inter =
  let dst = r.target in
  if u = dst then Scheme.deliver
  else begin
    let tb = c.table in
    let w =
      if inter = u then
        select c.dls sc m tb.First_hop.t_w ~dst (A1.unsafe_get tb.t_off u)
          (A1.unsafe_get tb.t_off (u + 1))
      else inter
    in
    if w < 0 then failwith "Labelled: no neighbors";
    let e = First_hop.find tb u w in
    if e < 0 then failwith "Labelled: intermediate target is not a neighbor";
    r.next <- A1.unsafe_get tb.t_next e;
    r.state <- w;
    r.link.(0) <- A1.unsafe_get tb.t_cost e;
    Scheme.forward
  end

(* ---------------------------------------------------------- Live routes *)

(* Ranked fallback forwards: the node's neighbors ordered by their labeled
   distance estimate to the target (the same score the primary selection
   uses), each re-aimed as the new intermediate target. Capped — the fault
   layer only ever needs the first few live ones. *)
let alternates c sc m ~dst u _ =
  if u = dst then []
  else begin
    let tb = c.table in
    let s = tb.First_hop.t_off.{u} in
    let ranked =
      List.sort compare
        (List.init (tb.t_off.{u + 1} - s) (fun k ->
             let v = tb.t_w.{s + k} in
             score c.dls sc m ~dst v;
             (m.est.(v), v, s + k)))
    in
    let rec take k seen = function
      | [] -> []
      | _ when k = 0 -> []
      | (_, v, e) :: rest ->
        let next = tb.t_next.{e} in
        if next = u || List.mem next seen then take k seen rest
        else (next, v, tb.t_cost.{e}) :: take (k - 1) (next :: seen) rest
    in
    take 4 [] ranked
  end

let route_wrapped (w : Scheme.wrapper) t ~src ~dst =
  let c = t.cols in
  (* Per route: the target never changes within a route, but intermediate
     re-selection re-scores a node's whole neighbor set, and fault detours
     re-select at every blocked hop — without the memo a long detour walk
     pays |nbrs| label decodes per revisited node instead of one read. *)
  let m = memo () and sc = Dls.scratch () in
  reserve m c.n;
  let r = Scheme.live () in
  Scheme.route ~wrapper:w ~alternates:(alternates c sc m ~dst) r ~header_bits:c.header_bits.{dst}
    ~max_hops:c.max_hops ~src ~dst src (fun u inter -> hop c sc m r u inter)

let route t ~src ~dst = route_wrapped Scheme.identity_wrapper t ~src ~dst
let estimate t u v = Dls.estimate (Dls.label t.dls u) (Dls.label t.dls v)

(* -------------------------------------------------------------- Accounting *)

let neighbors t u =
  let tb = t.cols.table in
  let s = tb.First_hop.t_off.{u} in
  let a =
    Array.init (First_hop.entries tb u + 1) (fun k -> if k = 0 then u else tb.t_w.{s + k - 1})
  in
  Ron_util.Fsort.sort_ints a;
  a

let table_bits t =
  let g = Sp_metric.graph t.sp in
  let n = t.cols.n in
  let fh_bits = Bits.index_bits (max 2 (Graph.max_out_degree g)) in
  Array.init n (fun u ->
      Array.fold_left (fun acc v -> acc + t.dls_bits.(v) + fh_bits) 0 (neighbors t u)
      + Bits.index_bits n)

let label_bits t = Array.copy t.dls_bits

let header_bits t = Array.fold_left max 0 t.dls_bits + Bits.index_bits t.cols.n

let out_degree t =
  Array.fold_left max 0 (Array.init t.cols.n (fun u -> Array.length (neighbors t u)))
