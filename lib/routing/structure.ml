module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Bits = Ron_util.Bits
module Rings = Ron_core.Rings
module Zooming = Ron_core.Zooming
module Zeta = Ron_core.Zeta
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile
module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) A1.t

type cols = {
  n : int;
  scales : int;
  ring_off : ints;
  ring_node : ints;
  z_run : ints;
  z_y : u16s;
  z_z : u16s;
  label_first : ints;
  label_rest : ints;
}

type t = {
  idx : Indexed.t;
  rings : Rings.t;
  cols : cols;
  zoomings : int array array;
  ring_index_bits : int;
}

(* Ring reads go through [rings_of], not [Rings.ring]: the probe counters
   measure query-time ring reads, and nothing here is one. *)
let members rings u j = (Rings.rings_of rings u).(j).Rings.members

(* Per-domain dense marks for the zeta join: [mark.(w)] is [w]'s position
   in the ring being joined against, else -1. Each join unmarks what it
   marked, so the array is all -1 between joins. *)
let mark_key : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let marks n =
  let m = Domain.DLS.get mark_key in
  if Array.length !m < n then m := Array.make n (-1);
  !m

let unmark_ring mark ring = Array.iter (fun w -> mark.(w) <- -1) ring

(* Marking doubles as the host enumeration's well-definedness check: a
   node listed twice would have two indices. *)
let mark_ring mark ring =
  Array.iteri
    (fun i w ->
      if mark.(w) >= 0 then begin
        unmark_ring mark ring;
        invalid_arg "Structure.build: duplicate ring member"
      end;
      mark.(w) <- i)
    ring

let ints_create n : ints = A1.create Bigarray.int Bigarray.c_layout n

(* The Figure 2 join of zeta_uj: mark u's ring [j+1]; then for each member
   [f = ring_j(u).(x)] in order, and each [w = ring_(j+1)(f).(y)] in order
   that is marked at [z], emit [(y, z)] into row [x]. Rows come out in x
   order and sorted by y, with no hashing and no sort. Without [fill] this
   only counts; with it, it writes from cursor [c], and row [x] starts at
   [run.{base + x}]. Returns the advanced cursor. *)
let join rings mark ~fill (sink : Zeta.sink) ~base u j c =
  let next_u = members rings u (j + 1) in
  mark_ring mark next_u;
  let ring = members rings u j in
  let c = ref c in
  for x = 0 to Array.length ring - 1 do
    if fill then sink.run.{base + x} <- !c;
    let next = members rings ring.(x) (j + 1) in
    for y = 0 to Array.length next - 1 do
      let z = mark.(next.(y)) in
      if z >= 0 then begin
        if fill then begin
          sink.zy.{!c} <- y;
          sink.zz.{!c} <- z
        end;
        incr c
      end
    done
  done;
  unmark_ring mark next_u;
  !c

(* The rings flat, then two passes over the join: the first counts each
   node's entries, the second writes every node's rows from its offset.
   Nodes own disjoint ranges, so both passes fan out per node. The
   columns are Bigarrays, so the snapshot layer adopts them without a
   copy. *)
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
  let ring_node = ints_create positions in
  let counts = Array.make n 0 in
  Pool.parallel_for n (fun u ->
      let mark = marks n in
      (* Rings 1 .. scales-1 are checked as the joins mark them. *)
      mark_ring mark (members rings u 0);
      unmark_ring mark (members rings u 0);
      for j = 0 to sm1 - 1 do
        counts.(u) <- join rings mark ~fill:false Zeta.counting ~base:0 u j counts.(u)
      done);
  let node_off = Array.make (n + 1) 0 in
  Array.iteri (fun u k -> node_off.(u + 1) <- node_off.(u) + k) counts;
  let total = node_off.(n) in
  let sink = Zeta.sink ~rows:positions ~entries:total in
  Pool.parallel_for n (fun u ->
      let mark = marks n in
      let c = ref node_off.(u) in
      for j = 0 to scales - 1 do
        let base = ring_off.{(u * scales) + j} in
        Array.iteri (fun x w -> ring_node.{base + x} <- w) (members rings u j);
        if j < sm1 then c := join rings mark ~fill:true sink ~base u j !c
        else
          (* The last ring has no zeta: its rows are empty, at u's end. *)
          A1.fill (A1.sub sink.run base (ring_off.{(u * scales) + j + 1} - base)) !c
      done;
      assert (!c = node_off.(u + 1)));
  (ring_off, ring_node, sink)

let build idx ~delta =
  if not (delta > 0.0 && delta <= 0.25) then
    invalid_arg "Structure.build: delta must be in (0, 1/4]";
  Profile.phase "construct.structure" @@ fun () ->
  let n = Indexed.size idx in
  let diam = Float.max (Indexed.diameter idx) 1e-9 in
  let big_l = Indexed.log2_aspect_ratio idx in
  let scales = big_l + 1 in
  (* Nested nets: G_j is a (Delta/2^j)-net; G_L is the whole node set. *)
  let nets, net_member =
    Profile.phase "nets" @@ fun () ->
    let nets = Array.make scales [||] in
    nets.(0) <- Net.r_net idx ~r:diam ();
    for j = 1 to scales - 1 do
      nets.(j) <- Net.r_net idx ~seeds:nets.(j - 1) ~r:(diam /. Bits.pow2 j) ()
    done;
    ( nets,
      Array.map
        (fun pts ->
          let b = Array.make n false in
          Array.iter (fun u -> b.(u) <- true) pts;
          b)
        nets )
  in
  let radius_of j = 4.0 *. diam /. (delta *. Bits.pow2 j) in
  let rings =
    Profile.phase "rings" @@ fun () ->
    Rings.of_membership idx ~scales ~radius_of ~member_of:(fun j v -> net_member.(j).(v))
  in
  (* The per-node passes below read only immutable shared state (rings,
     nets, and the previous passes' finished arrays), so each runs as a
     parallel per-node fan-out; the passes themselves stay ordered because
     each [Pool] call is a barrier. *)
  let zoomings =
    Profile.phase "zoomings" @@ fun () ->
    Pool.init n (fun t_ -> Array.init scales (fun j -> fst (Indexed.nearest_of idx t_ nets.(j))))
  in
  let ring_off, ring_node, sink = Profile.phase "zetas" @@ fun () -> build_flat rings ~scales n in
  let sm1 = scales - 1 in
  let label_first = ints_create n and label_rest = ints_create (n * sm1) in
  Profile.phase "labels" (fun () ->
      Pool.parallel_for n (fun t_ ->
          let sequence = zoomings.(t_) in
          (* A ring member's host-enumeration index is its position. *)
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
          Array.iteri (fun j y -> label_rest.{(t_ * sm1) + j} <- y) enc.Zooming.rest;
          if !Probe.on then Probe.label_node ()));
  let ring_index_bits = Bits.index_bits (max 2 (Rings.max_ring_size rings)) in
  {
    idx;
    rings;
    cols =
      {
        n;
        scales;
        ring_off;
        ring_node;
        z_run = sink.run;
        z_y = sink.zy;
        z_z = sink.zz;
        label_first;
        label_rest;
      };
    zoomings;
    ring_index_bits;
  }

(* The query kernels read unchecked: built columns are consistent by
   construction, and the snapshot layer validates mapped ones before it
   serves them. The column types are annotated so the reads compile
   inline, not as calls to the generic Bigarray accessor. *)
let[@inline] ig (a : ints) i = A1.unsafe_get a i

(* Claim 2.2's walk: m_(j+1) = zeta_uj(m_j, rest_j), from level [j] up to
   level [top] or the first null, whichever comes first. *)
let rec walk (c : cols) u (l : cols) row (m : int array) top j =
  if j >= top then j
  else begin
    if !Probe.on then begin
      Probe.zoom_decode_step ();
      Probe.translation_lookup ()
    end;
    let p = ig c.ring_off ((u * c.scales) + j) + m.(j) in
    let y = ig l.label_rest ((row * (c.scales - 1)) + j) in
    let z = Zeta.find c.z_y c.z_z y (ig c.z_run p) (ig c.z_run (p + 1)) in
    if z < 0 then j
    else begin
      m.(j + 1) <- z;
      walk c u l row m top (j + 1)
    end
  end

let decode_to (c : cols) u (l : cols) row m top =
  m.(0) <- ig l.label_first row;
  walk c u l row m (min top (c.scales - 1)) 0

let decode c u l row m = decode_to c u l row m (c.scales - 1)
let resume (c : cols) u l row m j = walk c u l row m (c.scales - 1) j

let member (c : cols) u j x = ig c.ring_node (ig c.ring_off ((u * c.scales) + j) + x)

let first_bound (c : cols) =
  let b = ref max_int in
  for u = 0 to c.n - 1 do
    b := min !b (c.ring_off.{(u * c.scales) + 1} - c.ring_off.{u * c.scales})
  done;
  !b

(* A node's rows are contiguous, so its entries span from the start of
   its first row to the start of the next node's. *)
let zeta_bits_sparse t u =
  let c = t.cols in
  (c.z_run.{c.ring_off.{(u + 1) * c.scales}} - c.z_run.{c.ring_off.{u * c.scales}})
  * 3 * t.ring_index_bits

let zeta_bits_dense t =
  let k = max 2 (Rings.max_ring_size t.rings) in
  (t.cols.scales - 1) * k * k * t.ring_index_bits

let label_bits t = (t.cols.scales * t.ring_index_bits) + Bits.index_bits t.cols.n

let header_bits t = label_bits t + Bits.index_bits (t.cols.scales + 1)
