module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Bits = Ron_util.Bits
module Rings = Ron_core.Rings
module Zooming = Ron_core.Zooming
module Zeta = Ron_core.Zeta
module Pool = Ron_util.Pool
module Marks = Ron_util.Marks
module Fsort = Ron_util.Fsort
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile
module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) A1.t

type cols = {
  n : int;
  scales : int;
  shared : int;
  ring_off : ints;
  ring_node : ints;
  z_run : ints;
  z_z : u16s;
  label_first : ints;
  label_rest : ints;
}

type t = {
  idx : Indexed.t;
  rings : Rings.t;
  cols : cols;
  zoomings : int array array;
  present : int array;
  ring_index_bits : int;
}

(* Ring reads go through [rings_of], not [Rings.ring]: the probe counters
   measure query-time ring reads, and nothing here is one. *)
let members rings u j = (Rings.rings_of rings u).(j).Rings.members

let ints_create n : ints = A1.create Bigarray.int Bigarray.c_layout n

(* Ring (u, j) = B_u(radius) ∩ G_j in id order. The ball is a prefix of
   u's sorted row: one scan of it flags the net's members in [mark], then
   a scan of the net in id order collects them, unflagging each, and stops
   at the last. No closure per entry, no sort. *)
let ring_members idx mark (member : bool array) (ids : int array) u radius =
  let row = Indexed.row idx u in
  let count = ref 0 in
  for i = 0 to Indexed.ball_count idx u radius - 1 do
    let v = Array.unsafe_get row i in
    if Array.unsafe_get member v then begin
      Array.unsafe_set mark v 0;
      incr count
    end
  done;
  let out = Array.make !count 0 in
  let k = ref 0 and i = ref 0 in
  while !k < !count do
    let v = Array.unsafe_get ids !i in
    if Array.unsafe_get mark v = 0 then begin
      Array.unsafe_set out !k v;
      Array.unsafe_set mark v (-1);
      incr k
    end;
    incr i
  done;
  out

(* f_tj is the G_j member nearest to t, ties by smallest id: the first
   G_j member in t's sorted row, which ties the same way. The nets are
   nested, so G_j's first member comes no earlier than G_(j+1)'s: one scan
   per node, finest scale first. *)
let zooming idx (net_member : bool array array) t_ =
  let row = Indexed.row idx t_ in
  let scales = Array.length net_member in
  let f = Array.make scales 0 in
  let i = ref 0 in
  for j = scales - 1 downto 0 do
    let member = net_member.(j) in
    while not (Array.unsafe_get member row.(!i)) do
      incr i
    done;
    f.(j) <- row.(!i)
  done;
  f

let unmark_ring mark (ring_node : ints) lo hi =
  for p = lo to hi - 1 do
    mark.(ring_node.{p}) <- -1
  done

(* Marks the ring at positions [lo, hi) with each member's position in
   it. Marking doubles as the host enumeration's well-definedness check:
   a node listed twice would have two positions. *)
let mark_ring mark (ring_node : ints) lo hi =
  for p = lo to hi - 1 do
    let w = ring_node.{p} in
    if mark.(w) >= 0 then begin
      unmark_ring mark ring_node lo hi;
      invalid_arg "Structure.build: duplicate ring member"
    end;
    mark.(w) <- p - lo
  done

(* One slot row: slot [y] holds the mark of the node at ring position
   [lo + y]. Written without a branch: the mark is -1 off the ring and
   [-1 land absent] is the absent mark; bit 16 is set in -1 and in no
   position, which counts the present slots. A function of its own, so
   the loop keeps its state in registers. Returns the present count. *)
let fill_row (mark : int array) (ring_node : ints) (zz : u16s) lo c len =
  let absent = Zeta.absent in
  let present = ref 0 in
  for y = 0 to len - 1 do
    let z = Array.unsafe_get mark (A1.unsafe_get ring_node (lo + y)) in
    A1.unsafe_set zz (c + y) (z land absent);
    present := !present + 1 - ((z lsr 16) land 1)
  done;
  !present

(* The Figure 2 join of zeta_uj into slot rows: mark u's ring [j+1]; then
   row [x], for [f = ring_j(u).(x)], holds one slot per position [y] of
   f's ring [j+1]: the mark of [w = ring_(j+1)(f).(y)], its position in
   u's ring [j+1], or absent. Every ring is read from the flat columns.
   No hashing, no sort. Returns the number of present slots. *)
let join ~(ring_off : ints) ~(ring_node : ints) ~(z_run : ints) ~scales mark (zz : u16s) u j =
  let r = (u * scales) + j in
  let next_lo = ring_off.{r + 1} and next_hi = ring_off.{r + 2} in
  mark_ring mark ring_node next_lo next_hi;
  let present = ref 0 in
  for p = ring_off.{r} to ring_off.{r + 1} - 1 do
    let f = (ring_node.{p} * scales) + j + 1 in
    let lo = ring_off.{f} in
    present := !present + fill_row mark ring_node zz lo z_run.{p} (ring_off.{f + 1} - lo)
  done;
  unmark_ring mark ring_node next_lo next_hi;
  !present

(* The leading levels j whose rings j and j + 1 are the whole nets G_j
   and G_(j+1) at every node. A ring is a subset of its net in id order, so
   one of the net's size is the net: every node's ring is node 0's, and so
   is each row of zeta_uj. Ring 0's radius is at least 16 Delta, so ring 0
   always spans its net. *)
let whole_net_levels rings (nets : int array array) n =
  let whole j =
    let size = Array.length nets.(j) and u = ref 0 in
    while !u < n && Array.length (members rings !u j) = size do
      incr u
    done;
    !u = n
  in
  let w = ref 0 in
  while !w < Array.length nets && whole !w do
    incr w
  done;
  max 0 (!w - 1)

(* The rings flat, each row's start from the ring sizes (row x of ring
   (u, j) spans the size of its member's ring j+1; a node's last ring has
   no zeta, so its rows are empty), then one pass over the join writes
   every slot. Below level [shared] only node 0 holds rows: every other
   node's are empty, and its walk reads node 0's. Nodes own disjoint
   ranges, so that pass fans out per node; each node still marks every
   one of its rings, which checks it for a duplicate member. The columns
   are Bigarrays, so the snapshot layer adopts them without a copy. Also
   returns each node's count of present slots, node 0's at the shared
   levels included. *)
let build_flat rings ~scales ~shared n =
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
    let u = r / scales and j = r mod scales and base = ring_off.{r} in
    let rows = j < sm1 && (u = 0 || j >= shared) in
    Array.iteri
      (fun x f ->
        ring_node.{base + x} <- f;
        z_run.{base + x} <- !slots;
        if rows then
          slots := !slots + ring_off.{(f * scales) + j + 2} - ring_off.{(f * scales) + j + 1})
      (members rings u j)
  done;
  z_run.{positions} <- !slots;
  let z_z = A1.create Bigarray.int16_unsigned Bigarray.c_layout !slots in
  let present = Array.make n 0 and whole = ref 0 in
  Pool.parallel_for n (fun u ->
      let mark = Marks.get n in
      (* Rings 1 .. scales-1 are checked as the joins mark them, or here. *)
      let r = u * scales in
      mark_ring mark ring_node ring_off.{r} ring_off.{r + 1};
      unmark_ring mark ring_node ring_off.{r} ring_off.{r + 1};
      for j = 0 to sm1 - 1 do
        if j >= shared then
          present.(u) <- present.(u) + join ~ring_off ~ring_node ~z_run ~scales mark z_z u j
        else if u = 0 then whole := !whole + join ~ring_off ~ring_node ~z_run ~scales mark z_z u j
        else begin
          mark_ring mark ring_node ring_off.{r + j + 1} ring_off.{r + j + 2};
          unmark_ring mark ring_node ring_off.{r + j + 1} ring_off.{r + j + 2}
        end
      done);
  (* [whole] was written by node 0's pass, before the pool's barrier. *)
  (ring_off, ring_node, z_run, z_z, Array.map (fun p -> p + !whole) present)

let build idx ~delta =
  if not (delta > 0.0 && delta <= 0.25) then
    invalid_arg "Structure.build: delta must be in (0, 1/4]";
  Profile.phase "construct.structure" @@ fun () ->
  let n = Indexed.size idx in
  let diam = Float.max (Indexed.diameter idx) 1e-9 in
  let big_l = Indexed.log2_aspect_ratio idx in
  let scales = big_l + 1 in
  (* Nested nets: G_j is a (Delta/2^j)-net; G_L is the whole node set.
     Each is then kept in id order, the order its rings list it in. *)
  let nets, net_member =
    Profile.phase "nets" @@ fun () ->
    let nets = Array.make scales [||] in
    nets.(0) <- Net.r_net idx ~r:diam ();
    for j = 1 to scales - 1 do
      nets.(j) <- Net.r_net idx ~seeds:nets.(j - 1) ~r:(diam /. Bits.pow2 j) ()
    done;
    Array.iter Fsort.sort_ints nets;
    ( nets,
      Array.map
        (fun pts ->
          let b = Array.make n false in
          Array.iter (fun u -> b.(u) <- true) pts;
          b)
        nets )
  in
  let radius_of j = 4.0 *. diam /. (delta *. Bits.pow2 j) in
  (* The per-node passes below read only immutable shared state (the
     index, the nets, and the previous passes' finished arrays), so each
     runs as a parallel per-node fan-out; the passes themselves stay
     ordered because each [Pool] call is a barrier. *)
  let rings =
    Profile.phase "rings" @@ fun () ->
    Rings.of_rings
      (Pool.init n (fun u ->
           let mark = Marks.get n in
           Array.init scales (fun j ->
               let radius = radius_of j in
               {
                 Rings.scale = j;
                 radius;
                 members = ring_members idx mark net_member.(j) nets.(j) u radius;
               })))
  in
  let zoomings = Profile.phase "zoomings" @@ fun () -> Pool.init n (zooming idx net_member) in
  let shared = whole_net_levels rings nets n in
  let ring_off, ring_node, z_run, z_z, present =
    Profile.phase "zetas" @@ fun () -> build_flat rings ~scales ~shared n
  in
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
        shared;
        ring_off;
        ring_node;
        z_run;
        z_z;
        label_first;
        label_rest;
      };
    zoomings;
    present;
    ring_index_bits;
  }

(* The query kernels read unchecked: built columns are consistent by
   construction, and the snapshot layer validates mapped ones before it
   serves them. The column types are annotated so the reads compile
   inline, not as calls to the generic Bigarray accessor. *)
let[@inline] ig (a : ints) i = A1.unsafe_get a i

(* Claim 2.2's walk: m_(j+1) = zeta_uj(m_j, rest_j), from level [j] up to
   level [top] or the first null, whichever comes first. rest_j is slot y
   of row m_j; a y outside the row is a null, as is an absent slot, so a
   label's y needs no check of its own. Below level [shared] the row is
   node 0's, the one copy every node reads. *)
let rec walk (c : cols) u (l : cols) row (m : int array) top j =
  if j >= top then j
  else begin
    if !Probe.on then begin
      Probe.zoom_decode_step ();
      Probe.translation_lookup ()
    end;
    let p = ig c.ring_off (((if j < c.shared then 0 else u) * c.scales) + j) + m.(j) in
    let y = ig l.label_rest ((row * (c.scales - 1)) + j) in
    let z = Zeta.slot c.z_z y (ig c.z_run p) (ig c.z_run (p + 1)) in
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

let zeta_bits_sparse t u = t.present.(u) * 3 * t.ring_index_bits

let label_bits t = (t.cols.scales * t.ring_index_bits) + Bits.index_bits t.cols.n

let header_bits t = label_bits t + Bits.index_bits (t.cols.scales + 1)
