module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Bits = Ron_util.Bits
module Rings = Ron_core.Rings
module Zooming = Ron_core.Zooming
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile
module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type t = {
  idx : Indexed.t;
  delta : float;
  scales : int;
  nets : int array array;
  rings : Rings.t;
  ring_off : int array;
  z_off : ints;
  z_run : int array;
  z_x : ints;
  z_y : ints;
  z_z : ints;
  zoomings : int array array;
  labels : Zooming.encoded array;
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

(* Where the join writes: the x-run starts and the triple columns. The
   count pass passes [counting] and writes nothing. *)
type cols = { run : int array; zx : ints; zy : ints; zz : ints }

let counting = { run = [||]; zx = ints_create 0; zy = ints_create 0; zz = ints_create 0 }

(* The Figure 2 join of zeta_uj: mark u's ring [j+1]; then for each member
   [f = ring_j(u).(x)] in order, and each [w = ring_(j+1)(f).(y)] in order
   that is marked at [z], emit the triple [(x, y, z)]. The triples come out
   sorted by [(x, y)], with no hashing and no sort. Without [fill] this
   only counts; with it, it writes the triples from cursor [c] and each
   x's run start at [run.(base + x)]. Returns the advanced cursor. *)
let join rings mark ~fill cols ~base u j c =
  let next_u = members rings u (j + 1) in
  mark_ring mark next_u;
  let ring = members rings u j in
  let c = ref c in
  for x = 0 to Array.length ring - 1 do
    if fill then cols.run.(base + x) <- !c;
    let next = members rings ring.(x) (j + 1) in
    for y = 0 to Array.length next - 1 do
      let z = mark.(next.(y)) in
      if z >= 0 then begin
        if fill then begin
          cols.zx.{!c} <- x;
          cols.zy.{!c} <- y;
          cols.zz.{!c} <- z
        end;
        incr c
      end
    done
  done;
  unmark_ring mark next_u;
  !c

(* Two passes over the join: the first counts each segment's triples, the
   second writes them into one CSR over all [n * (scales - 1)] segments,
   segment [(u, j)] at [u * (scales - 1) + j]. Nodes own disjoint ranges,
   so both passes fan out per node. The columns are Bigarrays, so the
   snapshot layer adopts them without a copy. *)
let build_zetas rings ~scales n =
  let sm1 = scales - 1 in
  let ring_off = Array.make ((n * scales) + 1) 0 in
  for r = 0 to (n * scales) - 1 do
    ring_off.(r + 1) <- ring_off.(r) + Array.length (members rings (r / scales) (r mod scales))
  done;
  let counts = Array.make (n * sm1) 0 in
  Pool.parallel_for n (fun u ->
      let mark = marks n in
      (* Rings 1 .. scales-1 are checked as the joins mark them. *)
      mark_ring mark (members rings u 0);
      unmark_ring mark (members rings u 0);
      for j = 0 to sm1 - 1 do
        counts.((u * sm1) + j) <- join rings mark ~fill:false counting ~base:0 u j 0
      done);
  let z_off = ints_create ((n * sm1) + 1) in
  z_off.{0} <- 0;
  Array.iteri (fun s k -> z_off.{s + 1} <- z_off.{s} + k) counts;
  let total = z_off.{n * sm1} in
  let cols =
    {
      run = Array.make (ring_off.(n * scales) + 1) total;
      zx = ints_create total;
      zy = ints_create total;
      zz = ints_create total;
    }
  in
  Pool.parallel_for n (fun u ->
      let mark = marks n in
      for j = 0 to sm1 - 1 do
        let s = (u * sm1) + j in
        let c = join rings mark ~fill:true cols ~base:ring_off.((u * scales) + j) u j z_off.{s} in
        assert (c = z_off.{s + 1})
      done;
      (* The last ring has no segment: its x-runs are empty, at u's end. *)
      let last = (u * scales) + sm1 in
      Array.fill cols.run ring_off.(last) (ring_off.(last + 1) - ring_off.(last))
        z_off.{(u + 1) * sm1});
  (ring_off, z_off, cols)

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
  let ring_off, z_off, cols = Profile.phase "zetas" @@ fun () -> build_zetas rings ~scales n in
  let labels =
    Profile.phase "labels" @@ fun () ->
    Pool.init n (fun t_ ->
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
        if !Probe.on then Probe.label_node ();
        enc)
  in
  let ring_index_bits = Bits.index_bits (max 2 (Rings.max_ring_size rings)) in
  {
    idx;
    delta;
    scales;
    nets;
    rings;
    ring_off;
    z_off;
    z_run = cols.run;
    z_x = cols.zx;
    z_y = cols.zy;
    z_z = cols.zz;
    zoomings;
    labels;
    ring_index_bits;
  }

(* [y]'s z within the x-run [lo, hi) of z_y (sorted), or -1. The column
   types are annotated so the reads compile inline, not as calls to the
   generic Bigarray accessor. *)
let rec run_find (zy : ints) (zz : ints) y lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let v = zy.{mid} in
    if v < y then run_find zy zz y (mid + 1) hi
    else if v > y then run_find zy zz y lo mid
    else zz.{mid}
  end

let translate t u j ~x ~y =
  if !Probe.on then Probe.translation_lookup ();
  let r = (u * t.scales) + j in
  let p = t.ring_off.(r) + x in
  if p >= t.ring_off.(r + 1) then -1
  else run_find t.z_y t.z_z y t.z_run.(p) t.z_run.(p + 1)

let decode t u label = Zooming.decode_walk ~translate:(translate t u) label

let intermediate_of t u m j = (members t.rings u j).(m.(j))

let zeta_bits_sparse t u =
  let sm1 = t.scales - 1 in
  (t.z_off.{(u + 1) * sm1} - t.z_off.{u * sm1}) * 3 * t.ring_index_bits

let zeta_bits_dense t =
  let k = max 2 (Rings.max_ring_size t.rings) in
  (t.scales - 1) * k * k * t.ring_index_bits

let label_bits t u =
  Zooming.bits t.labels.(u) ~index_bits:t.ring_index_bits + Bits.index_bits (Indexed.size t.idx)

let header_bits t =
  let n = Indexed.size t.idx in
  Array.fold_left
    (fun acc enc ->
      max acc
        (Zooming.bits enc ~index_bits:t.ring_index_bits
        + Bits.index_bits n
        + Bits.index_bits (t.scales + 1)))
    0 t.labels
