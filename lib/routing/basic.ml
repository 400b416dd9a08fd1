module Indexed = Ron_metric.Indexed
module Sp_metric = Ron_graph.Sp_metric
module Graph = Ron_graph.Graph
module Bits = Ron_util.Bits
module Rings = Ron_core.Rings
module A1 = Bigarray.Array1

type cols = {
  st : Structure.cols;
  table : First_hop.t;
  ring_hop : Structure.u16s;
  max_hops : int;
  header_bits : int;
}

type t = { sp : Sp_metric.t; structure : Structure.t; cols : cols }

(* A packet's target and its label: read off the wire as
   [| first; rest... |], or left implicit ([wire] empty) as the target's
   row of the scheme's columns. The chased level is the loop's state. *)
type header = { target : int; wire : int array }

let scales t = t.cols.st.Structure.scales

let zooming t u = Array.copy t.structure.Structure.zoomings.(u)

let max_ring_size t = Rings.max_ring_size t.structure.Structure.rings

(* Structural accessors for the churn layer: the live ring collection and
   the metric substrate it was built over, so incremental ring repair can
   explore each ring's own ball. Borrowed — callers must repair a copy. *)
let rings_collection t = t.structure.Structure.rings
let substrate t = t.structure.Structure.idx

let hop_budget n = max 64 (8 * n)

(* Each node's first-hop row — its distinct ring members but itself,
   ascending — and each ring position's member as an offset in that row,
   in 16 bits, from one pass over the node's flat ring columns. A
   per-domain mark flags the members, a scan of the ids in order ranks
   them, and every position reads its member's rank from the mark. A
   position holding the node itself reads 0 and is never read. The row
   size is checked once the marks are clean again. *)
let neighbor_rows (st : Structure.cols) =
  let hops = A1.create Bigarray.int16_unsigned Bigarray.c_layout (A1.dim st.ring_node) in
  let rows =
    Ron_util.Pool.init st.n (fun u ->
        let mark = Ron_util.Marks.get st.n in
        let lo = st.ring_off.{u * st.scales} and hi = st.ring_off.{(u + 1) * st.scales} in
        mark.(u) <- 0;
        let d = ref 0 in
        for p = lo to hi - 1 do
          let w = st.ring_node.{p} in
          if mark.(w) < 0 then begin
            mark.(w) <- 0;
            incr d
          end
        done;
        let row = Array.make !d 0 in
        let k = ref 0 and v = ref 0 in
        while !k < !d do
          if !v <> u && mark.(!v) = 0 then begin
            row.(!k) <- !v;
            mark.(!v) <- !k;
            incr k
          end;
          incr v
        done;
        for p = lo to hi - 1 do
          hops.{p} <- mark.(st.ring_node.{p})
        done;
        Array.iter (fun w -> mark.(w) <- -1) row;
        mark.(u) <- -1;
        if !d > Ron_core.Zeta.max_members then
          invalid_arg
            (Printf.sprintf
               "Basic.build: node %d's first-hop row has %d entries, more than the %d a 16-bit \
                offset indexes"
               u !d Ron_core.Zeta.max_members);
        row)
  in
  (rows, hops)

let build sp ~delta =
  Ron_obs.Profile.phase "construct.basic" @@ fun () ->
  let idx = Indexed.create (Sp_metric.metric sp) in
  let structure = Structure.build idx ~delta in
  let n = Indexed.size idx in
  let st = structure.Structure.cols in
  let table, ring_hop =
    Ron_obs.Profile.phase "tables" @@ fun () ->
    let rows, ring_hop = neighbor_rows st in
    (First_hop.build sp rows, ring_hop)
  in
  let cols =
    { st; table; ring_hop; max_hops = hop_budget n; header_bits = Structure.header_bits structure }
  in
  { sp; structure; cols }

let export t = t.cols

(* ---------------------------------------------------------------- The hop *)

(* Unchecked reads of the built or validated columns, with the column
   types annotated so they compile inline. *)
let[@inline] ig (a : Structure.ints) i = A1.unsafe_get a i
let[@inline] ug (a : Structure.u16s) i = A1.unsafe_get a i

(* Only m_0 .. m_level are decoded on the way to a set level's target; the
   walk goes on to j_ut at the source and on re-zoom. *)
let target_level c l row m u level =
  if level < 0 then Structure.decode c.st u l row m
  else if Structure.decode_to c.st u l row m level < level then
    failwith "Basic: Claim 2.4(b) violated (j > j_ut)"
  else if Structure.member c.st u level m.(level) = u then
    Structure.resume c.st u l row m level (* reached: re-zoom *)
  else level

(* The ring position of the level-[j] target, and its first-hop entry. *)
let[@inline] position c u j x = ig c.st.Structure.ring_off ((u * c.st.Structure.scales) + j) + x
let[@inline] entry c u p = ig c.table.First_hop.t_off u + ug c.ring_hop p

let hop_entry c u m j =
  let p = position c u j m.(j) in
  if ig c.st.Structure.ring_node p = u then
    failwith "Basic: intermediate target equals current node (invariant broken)";
  entry c u p

(* [l]/[row] locate the packet's label; [m] is the route's decode buffer. *)
let hop c l row m (r : Scheme.regs) u level =
  if u = r.target then Scheme.deliver
  else begin
    let j = target_level c l row m u level in
    let e = hop_entry c u m j in
    r.next <- ig c.table.First_hop.t_next e;
    r.state <- j;
    r.link.(0) <- A1.unsafe_get c.table.First_hop.t_cost e;
    Scheme.forward
  end

(* Ranked fallback forwards: first hops toward the intermediate targets at
   every other level, coarsest first — the same links the routing table
   already pays for, just aimed at a different member of the zooming
   sequence. Used only by the fault and churn layers when the primary hop
   is dead. *)
let alternates c l row m ~dst u _ =
  if u = dst then []
  else begin
    let jut = Structure.decode c.st u l row m in
    let acc = ref [] in
    for j = 0 to jut do
      let p = position c u j m.(j) in
      if ig c.st.Structure.ring_node p <> u then begin
        let e = entry c u p in
        let next = ig c.table.First_hop.t_next e in
        if next <> u && not (List.exists (fun (v, _, _) -> v = next) !acc) then
          acc := (next, j, c.table.First_hop.t_cost.{e}) :: !acc
      end
    done;
    !acc (* built 0..jut with prepends, so coarsest (jut) comes first *)
  end

let ints_of a = A1.of_array Bigarray.int Bigarray.c_layout a

(* The label set and row a header's label is read from: the scheme's own
   columns, or a one-row set holding the wire label. *)
let labels t h =
  let st = t.cols.st in
  if Array.length h.wire = 0 then (st, h.target)
  else
    ( {
        st with
        Structure.label_first = ints_of [| h.wire.(0) |];
        label_rest = ints_of (Array.sub h.wire 1 (st.Structure.scales - 1));
      },
      0 )

let route_label w t ~src h =
  let c = t.cols in
  let l, row = labels t h in
  (* Per route: experiments route in parallel. *)
  let m = Array.make c.st.Structure.scales 0 in
  let r = Scheme.live () in
  Scheme.route ~wrapper:w ~alternates:(alternates c l row m ~dst:h.target) r
    ~header_bits:c.header_bits ~max_hops:c.max_hops ~src ~dst:h.target (-1) (fun u level ->
      hop c l row m r u level)

let route_wrapped w t ~src ~dst = route_label w t ~src { target = dst; wire = [||] }
let route t ~src ~dst = route_wrapped Scheme.identity_wrapper t ~src ~dst
let route_header t ~src h = route_label Scheme.identity_wrapper t ~src h

(* -------------------------------------------------------------- Accounting *)

(* Sparse translation bits, first-hop pointers ([ceil(log2 Dout)] bits
   each) and the node's global id. *)
let table_bits t =
  let n = t.cols.st.Structure.n in
  let fh_bits = Bits.index_bits (max 2 (Graph.max_out_degree (Sp_metric.graph t.sp))) in
  Array.init n (fun u ->
      Structure.zeta_bits_sparse t.structure u
      + (First_hop.entries t.cols.table u * fh_bits)
      + Bits.index_bits n)

let label_bits t = Array.make t.cols.st.Structure.n (Structure.label_bits t.structure)

let header_bits t = t.cols.header_bits

(* ----------------------------------------------------------- Wire format *)

module Bitio = Ron_util.Bitio

let serialize_label t dst =
  let c = t.cols.st and width = t.structure.Structure.ring_index_bits in
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w dst ~width:(Bits.index_bits c.Structure.n);
  Bitio.Writer.bits w c.Structure.label_first.{dst} ~width;
  let sm1 = c.Structure.scales - 1 in
  for j = 0 to sm1 - 1 do
    Bitio.Writer.bits w c.Structure.label_rest.{(dst * sm1) + j} ~width
  done;
  (Bitio.Writer.to_bytes w, Bitio.Writer.length w)

let deserialize_label t bytes =
  let c = t.cols.st and width = t.structure.Structure.ring_index_bits in
  let r = Bitio.Reader.of_bytes bytes in
  let target = Bitio.Reader.bits r ~width:(Bits.index_bits c.Structure.n) in
  if target >= c.Structure.n then invalid_arg "Basic.deserialize_label: target is not a node id";
  let first = Bitio.Reader.bits r ~width in
  if first >= Structure.first_bound c then
    invalid_arg "Basic.deserialize_label: first index is outside ring 0";
  let wire = Array.make c.Structure.scales first in
  for j = 1 to c.Structure.scales - 1 do
    wire.(j) <- Bitio.Reader.bits r ~width
  done;
  { target; wire }
