(* Reference implementation of the Theorem 2.1 build: the record-based
   passes the library ran before it built on flat scratch. Rings are
   [Indexed.ball_filter] with a membership closure, then an int sort;
   zoomings are [Indexed.nearest_of] over each net; the zeta join reads
   every member's next ring from its ring record and branches on each
   slot; first-hop rows are each node's ring members deduplicated through
   a Hashtbl, built by a count pass and a fill pass, and every ring
   position finds its row offset by a binary search. Sequential
   throughout. Every node keeps its own zeta rows at every level ([shared]
   is 0), as the library stored them before it kept the whole-net levels
   once. Tests hold [Structure.build] and [Basic]'s columns to it, field
   by field, and each row the library's walk addresses to the node's own
   row here. *)

module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Bits = Ron_util.Bits
module Rings = Ron_core.Rings
module Zooming = Ron_core.Zooming
module Zeta = Ron_core.Zeta
module Structure = Ron_routing.Structure
module First_hop = Ron_routing.First_hop
module Graph = Ron_graph.Graph
module Sp_metric = Ron_graph.Sp_metric
module Basic = Ron_routing.Basic
module A1 = Bigarray.Array1

(* Ring [i] of [u] is [B_u(radius_of i)] filtered by [member_of i], in
   ascending node id. *)
let of_membership idx ~scales ~radius_of ~member_of =
  let n = Indexed.size idx in
  Rings.of_rings
    (Array.init n (fun u ->
         Array.init scales (fun i ->
             let radius = radius_of i in
             let members = Indexed.ball_filter idx u radius (member_of i) in
             Array.sort Int.compare members;
             { Rings.scale = i; radius; members })))

type t = {
  rings : Rings.t;
  zoomings : int array array;
  cols : Structure.cols;
  present : int array;
}

let members rings u j = (Rings.rings_of rings u).(j).Rings.members

let ints_create n = A1.create Bigarray.int Bigarray.c_layout n

let unmark_ring mark ring = Array.iter (fun w -> mark.(w) <- -1) ring

let mark_ring mark ring =
  Array.iteri
    (fun i w ->
      if mark.(w) >= 0 then begin
        unmark_ring mark ring;
        invalid_arg "Structure.build: duplicate ring member"
      end;
      mark.(w) <- i)
    ring

let join rings mark (zz : Structure.u16s) (run : Structure.ints) ~base u j =
  let next_u = members rings u (j + 1) in
  mark_ring mark next_u;
  let ring = members rings u j in
  let present = ref 0 in
  for x = 0 to Array.length ring - 1 do
    let c = run.{base + x} in
    let next = members rings ring.(x) (j + 1) in
    for y = 0 to Array.length next - 1 do
      let z = mark.(next.(y)) in
      if z >= 0 then begin
        zz.{c + y} <- z;
        incr present
      end
      else zz.{c + y} <- Zeta.absent
    done
  done;
  unmark_ring mark next_u;
  !present

let build_flat rings ~scales n =
  let sm1 = scales - 1 in
  let ring_off = ints_create ((n * scales) + 1) in
  ring_off.{0} <- 0;
  for r = 0 to (n * scales) - 1 do
    let size = Array.length (members rings (r / scales) (r mod scales)) in
    if size > Zeta.max_members then
      invalid_arg
        (Printf.sprintf
           "Structure.build: node %d's ring at scale %d has %d members, more than the %d a \
            16-bit position indexes"
           (r / scales) (r mod scales) size Zeta.max_members);
    ring_off.{r + 1} <- ring_off.{r} + size
  done;
  let positions = ring_off.{n * scales} in
  let ring_node = ints_create positions and z_run = ints_create (positions + 1) in
  let slots = ref 0 in
  for r = 0 to (n * scales) - 1 do
    let j = r mod scales and base = ring_off.{r} in
    Array.iteri
      (fun x f ->
        ring_node.{base + x} <- f;
        z_run.{base + x} <- !slots;
        if j < sm1 then
          slots := !slots + ring_off.{(f * scales) + j + 2} - ring_off.{(f * scales) + j + 1})
      (members rings (r / scales) j)
  done;
  z_run.{positions} <- !slots;
  let z_z = A1.create Bigarray.int16_unsigned Bigarray.c_layout !slots in
  let present = Array.make n 0 in
  let mark = Array.make n (-1) in
  for u = 0 to n - 1 do
    mark_ring mark (members rings u 0);
    unmark_ring mark (members rings u 0);
    for j = 0 to sm1 - 1 do
      let base = ring_off.{(u * scales) + j} in
      present.(u) <- present.(u) + join rings mark z_z z_run ~base u j
    done
  done;
  (ring_off, ring_node, z_run, z_z, present)

let build idx ~delta =
  if not (delta > 0.0 && delta <= 0.25) then
    invalid_arg "Structure.build: delta must be in (0, 1/4]";
  let n = Indexed.size idx in
  let diam = Float.max (Indexed.diameter idx) 1e-9 in
  let scales = Indexed.log2_aspect_ratio idx + 1 in
  let nets = Array.make scales [||] in
  nets.(0) <- Net.r_net idx ~r:diam ();
  for j = 1 to scales - 1 do
    nets.(j) <- Net.r_net idx ~seeds:nets.(j - 1) ~r:(diam /. Bits.pow2 j) ()
  done;
  let net_member =
    Array.map
      (fun pts ->
        let b = Array.make n false in
        Array.iter (fun u -> b.(u) <- true) pts;
        b)
      nets
  in
  let radius_of j = 4.0 *. diam /. (delta *. Bits.pow2 j) in
  let rings =
    of_membership idx ~scales ~radius_of ~member_of:(fun j v -> net_member.(j).(v))
  in
  let zoomings =
    Array.init n (fun t_ -> Array.init scales (fun j -> fst (Indexed.nearest_of idx t_ nets.(j))))
  in
  let ring_off, ring_node, z_run, z_z, present = build_flat rings ~scales n in
  let sm1 = scales - 1 in
  let label_first = ints_create n and label_rest = ints_create (n * sm1) in
  for t_ = 0 to n - 1 do
    let sequence = zoomings.(t_) in
    let first_index = Rings.find_member rings t_ 0 sequence.(0) in
    if first_index < 0 then invalid_arg "Structure.build: f_t0 is not in t's ring 0";
    let enc =
      Zooming.encode ~sequence
        ~enum_of_prev:(fun j next ->
          match Rings.find_member rings sequence.(j) (j + 1) next with
          | -1 -> None
          | i -> Some i)
        ~first_index
    in
    label_first.{t_} <- enc.Zooming.first;
    Array.iteri (fun j y -> label_rest.{(t_ * sm1) + j} <- y) enc.Zooming.rest
  done;
  {
    rings;
    zoomings;
    cols = { n; scales; shared = 0; ring_off; ring_node; z_run; z_z; label_first; label_rest };
    present;
  }

(* The leading levels j whose rings j and j + 1 list node 0's members, in
   node 0's order, at every node: the levels whose zeta rows the library
   stores once. *)
let whole_net_levels rings ~scales =
  let same j u = members rings u j = members rings 0 j in
  let whole j = j < scales && List.for_all (same j) (List.init (Rings.size rings) Fun.id) in
  let rec count j = if whole j then count (j + 1) else j in
  max 0 (count 0 - 1)

(* The paper's dense accounting: every translation function a K x K
   matrix of [ceil(log2 K)]-bit entries. [table_bits_dense] adds a Basic
   node's first-hop pointers and id, as [Basic.table_bits] charges them. *)
let zeta_bits_dense rings ~scales =
  let k = max 2 (Rings.max_ring_size rings) in
  (scales - 1) * k * k * Bits.index_bits k

let table_bits_dense sp b =
  let c = Basic.export b in
  let n = c.Basic.st.Structure.n in
  let dense = zeta_bits_dense (Basic.rings_collection b) ~scales:c.st.scales in
  let fh_bits = Bits.index_bits (max 2 (Graph.max_out_degree (Sp_metric.graph sp))) in
  Array.init n (fun u -> dense + (First_hop.entries c.table u * fh_bits) + Bits.index_bits n)

(* Distinct neighbors of [u] across all rings, sorted ascending. *)
let neighbors rings u =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun r -> Array.iter (fun v -> Hashtbl.replace tbl v ()) r.Rings.members)
    (Rings.rings_of rings u);
  let out = Array.of_list (Hashtbl.fold (fun v () acc -> v :: acc) tbl []) in
  Array.sort Int.compare out;
  out

(* Node [u]'s entries for [targets u] without [u] itself: a count pass
   sizes each range, a fill pass writes it. *)
let first_hop sp n targets =
  let g = Sp_metric.graph sp in
  let counts = Array.make n 0 in
  for u = 0 to n - 1 do
    Array.iter (fun v -> if v <> u then counts.(u) <- counts.(u) + 1) (targets u)
  done;
  let t_off = ints_create (n + 1) in
  t_off.{0} <- 0;
  Array.iteri (fun u k -> t_off.{u + 1} <- t_off.{u} + k) counts;
  let total = t_off.{n} in
  let t_w = ints_create total and t_next = ints_create total in
  let t_cost = A1.create Bigarray.float64 Bigarray.c_layout total in
  for u = 0 to n - 1 do
    let e = ref t_off.{u} in
    Array.iter
      (fun v ->
        if v <> u then begin
          let next = Graph.hop g u (Sp_metric.first_hop_index sp u v) in
          t_w.{!e} <- v;
          t_next.{!e} <- next;
          t_cost.{!e} <- Sp_metric.dist sp u next;
          incr e
        end)
      (targets u)
  done;
  { First_hop.t_off; t_w; t_next; t_cost }

let rec search (tw : Structure.ints) s e w =
  if s >= e then -1
  else begin
    let mid = (s + e) / 2 in
    if tw.{mid} < w then search tw (mid + 1) e w
    else if tw.{mid} = w then mid
    else search tw s mid w
  end

(* Each ring position's offset in its node's first-hop row, found by a
   binary search over the row; 0 where the member is the node itself. *)
let ring_hops (st : Structure.cols) (table : First_hop.t) =
  let hops = A1.create Bigarray.int16_unsigned Bigarray.c_layout (A1.dim st.ring_node) in
  for u = 0 to st.n - 1 do
    let row = table.t_off.{u} in
    if table.t_off.{u + 1} - row > Zeta.max_members then
      invalid_arg
        (Printf.sprintf
           "Basic.build: node %d's first-hop row has %d entries, more than the %d a 16-bit \
            offset indexes"
           u (table.t_off.{u + 1} - row) Zeta.max_members);
    for p = st.ring_off.{u * st.scales} to st.ring_off.{(u + 1) * st.scales} - 1 do
      let w = st.ring_node.{p} in
      hops.{p} <- (if w = u then 0 else search table.t_w row table.t_off.{u + 1} w - row)
    done
  done;
  hops

(* Basic's first-hop table and ring_hop column over [t]'s rings. *)
let tables sp t =
  let table = first_hop sp t.cols.Structure.n (neighbors t.rings) in
  (table, ring_hops t.cols table)
