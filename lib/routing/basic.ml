module Indexed = Ron_metric.Indexed
module Sp_metric = Ron_graph.Sp_metric
module Graph = Ron_graph.Graph
module Bits = Ron_util.Bits
module Rings = Ron_core.Rings
module Zooming = Ron_core.Zooming
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe

type t = {
  sp : Sp_metric.t;
  st : Structure.t;
  first_hop : (int, int) Hashtbl.t array; (* per node: neighbor -> out-edge index *)
}

type header = { label : Zooming.encoded; target : int; level : int option }

let scales t = t.st.Structure.scales

let ring t u j = Array.copy (Rings.ring t.st.Structure.rings u j).Rings.members

let zooming t u = Array.copy t.st.Structure.zoomings.(u)

let max_ring_size t = Rings.max_ring_size t.st.Structure.rings

(* Structural accessors for the churn layer: the live ring collection and
   the metric substrate it was built over, so incremental ring repair can
   explore each ring's own ball. Borrowed — callers must repair a copy. *)
let rings_collection t = t.st.Structure.rings
let substrate t = t.st.Structure.idx

let build sp ~delta =
  Ron_obs.Profile.phase "construct.basic" @@ fun () ->
  let idx = Indexed.create (Sp_metric.metric sp) in
  let st = Structure.build idx ~delta in
  let n = Indexed.size idx in
  (* Per-node fan-out: each table reads only shared immutable state (the
     apsp and u's own cached neighbor slot), so nodes build in parallel. *)
  let first_hop =
    Ron_obs.Profile.phase "tables" @@ fun () ->
    Pool.init n (fun u ->
        let tbl = Hashtbl.create 64 in
        Array.iter
          (fun v ->
            if v <> u && not (Hashtbl.mem tbl v) then
              Hashtbl.replace tbl v (Sp_metric.first_hop_index sp u v))
          (Rings.neighbors st.Structure.rings u);
        if !Probe.on then Probe.table_node ();
        tbl)
  in
  { sp; st; first_hop }

let initial_header t dst = { label = t.st.Structure.labels.(dst); target = dst; level = None }

let step t u (h : header) : header Scheme.action =
  if u = h.target then Deliver
  else begin
    let m = Structure.decode t.st u h.label in
    let jut = Array.length m - 1 in
    let forward_to j =
      let w = Structure.intermediate_of t.st u m j in
      if w = u then
        failwith "Basic.step: intermediate target equals current node (invariant broken)"
      else begin
        match Hashtbl.find_opt t.first_hop.(u) w with
        | None -> failwith "Basic.step: no first-hop pointer to intermediate target"
        | Some k -> Scheme.Forward (Graph.hop (Sp_metric.graph t.sp) u k, { h with level = Some j })
      end
    in
    match h.level with
    | None -> forward_to jut
    | Some j ->
      if j > jut then failwith "Basic.step: Claim 2.4(b) violated (j > j_ut)";
      let w = Structure.intermediate_of t.st u m j in
      if w = u then forward_to jut (* u is the intermediate target: re-zoom *)
      else forward_to j
  end

(* Ranked fallback forwards: first hops toward the intermediate targets at
   every other level, coarsest first — the same links the routing table
   already pays for, just aimed at a different member of the zooming
   sequence. Used only by the fault layer when the primary hop is dead. *)
let alternates t u (h : header) =
  if u = h.target then []
  else begin
    let m = Structure.decode t.st u h.label in
    let jut = Array.length m - 1 in
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    for j = 0 to jut do
      let w = Structure.intermediate_of t.st u m j in
      if w <> u then
        match Hashtbl.find_opt t.first_hop.(u) w with
        | None -> ()
        | Some k ->
          let next = Graph.hop (Sp_metric.graph t.sp) u k in
          if next <> u && not (Hashtbl.mem seen next) then begin
            Hashtbl.replace seen next ();
            acc := (next, { h with level = Some j }) :: !acc
          end
    done;
    !acc (* built 0..jut with prepends, so coarsest (jut) comes first *)
  end

let route_wrapped (w : Scheme.wrapper) t ~src ~dst =
  let n = Indexed.size t.st.Structure.idx in
  let hb = Structure.label_bits t.st dst + Bits.index_bits (scales t + 1) in
  Scheme.simulate ~detect_cycles:w.Scheme.detect_cycles
    ~dist:(fun a b -> Sp_metric.dist t.sp a b)
    ~step:(w.Scheme.wrap (step t) ~alternates:(alternates t))
    ~header_bits:(fun _ -> hb)
    ~src ~header:(initial_header t dst)
    ~max_hops:(max 64 (8 * n)) ()

let route t ~src ~dst = route_wrapped Scheme.identity_wrapper t ~src ~dst

let table_bits t =
  let n = Indexed.size t.st.Structure.idx in
  let g = Sp_metric.graph t.sp in
  let fh_bits = Bits.index_bits (max 2 (Graph.max_out_degree g)) in
  Array.init n (fun u ->
      Structure.zeta_bits_sparse t.st u
      + (Hashtbl.length t.first_hop.(u) * fh_bits)
      + Bits.index_bits n)

let table_bits_dense t =
  let n = Indexed.size t.st.Structure.idx in
  let g = Sp_metric.graph t.sp in
  let fh_bits = Bits.index_bits (max 2 (Graph.max_out_degree g)) in
  let dense = Structure.zeta_bits_dense t.st in
  Array.init n (fun u ->
      dense + (Hashtbl.length t.first_hop.(u) * fh_bits) + Bits.index_bits n)

let label_bits t =
  Array.init (Indexed.size t.st.Structure.idx) (fun u -> Structure.label_bits t.st u)

let header_bits t = Structure.header_bits t.st

(* ----------------------------------------------------------- Wire format *)

module Bitio = Ron_util.Bitio

let serialize_label t dst =
  let n = Indexed.size t.st.Structure.idx in
  let enc = t.st.Structure.labels.(dst) in
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w dst ~width:(Bits.index_bits n);
  Bitio.Writer.bits w enc.Zooming.first ~width:t.st.Structure.ring_index_bits;
  Array.iter
    (fun y -> Bitio.Writer.bits w y ~width:t.st.Structure.ring_index_bits)
    enc.Zooming.rest;
  (Bitio.Writer.to_bytes w, Bitio.Writer.length w)

let deserialize_label t bytes =
  let n = Indexed.size t.st.Structure.idx in
  let r = Bitio.Reader.of_bytes bytes in
  let target = Bitio.Reader.bits r ~width:(Bits.index_bits n) in
  let first = Bitio.Reader.bits r ~width:t.st.Structure.ring_index_bits in
  let rest =
    Array.init (t.st.Structure.scales - 1) (fun _ ->
        Bitio.Reader.bits r ~width:t.st.Structure.ring_index_bits)
  in
  { label = { Zooming.first; rest }; target; level = None }

let route_header t ~src header =
  let n = Indexed.size t.st.Structure.idx in
  let hb =
    Structure.label_bits t.st header.target + Bits.index_bits (t.st.Structure.scales + 1)
  in
  Scheme.simulate
    ~dist:(fun a b -> Sp_metric.dist t.sp a b)
    ~step:(step t)
    ~header_bits:(fun _ -> hb)
    ~src ~header
    ~max_hops:(max 64 (8 * n)) ()

(* ----------------------------------------------------------------- Export *)

type export = {
  x_n : int;
  x_scales : int;
  x_max_hops : int;
  x_header_bits : int array;
  x_label_first : int array;
  x_label_rest : int array array;
  x_enums : int array array array;
  x_z_off : Structure.ints;
  x_z_x : Structure.ints;
  x_z_y : Structure.ints;
  x_z_z : Structure.ints;
  x_table : (int * int * float) array array;
}

let compare_w (w1, _, _) (w2, _, _) = Int.compare w1 w2

let export t =
  let st = t.st in
  let n = Indexed.size st.Structure.idx in
  let g = Sp_metric.graph t.sp in
  let scales = st.Structure.scales in
  {
    x_n = n;
    x_scales = scales;
    x_max_hops = max 64 (8 * n);
    x_header_bits =
      Array.init n (fun dst ->
          Structure.label_bits st dst + Bits.index_bits (scales + 1));
    x_label_first = Array.map (fun enc -> enc.Zooming.first) st.Structure.labels;
    x_label_rest = Array.map (fun enc -> Array.copy enc.Zooming.rest) st.Structure.labels;
    x_enums =
      Array.init n (fun u ->
          Array.map (fun r -> r.Rings.members) (Rings.rings_of st.Structure.rings u));
    x_z_off = st.Structure.z_off;
    x_z_x = st.Structure.z_x;
    x_z_y = st.Structure.z_y;
    x_z_z = st.Structure.z_z;
    x_table =
      Array.init n (fun u ->
          let entries =
            Hashtbl.fold
              (fun w k acc ->
                let next = Graph.hop g u k in
                (w, next, Sp_metric.dist t.sp u next) :: acc)
              t.first_hop.(u) []
          in
          let a = Array.of_list entries in
          Array.sort compare_w a;
          a);
  }
