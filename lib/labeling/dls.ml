module Indexed = Ron_metric.Indexed
module Net = Ron_metric.Net
module Bits = Ron_util.Bits
module Qfloat = Ron_util.Qfloat
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile
module Zeta = Ron_core.Zeta
module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t
type u16s = Zeta.u16s

let ints_create n : ints = A1.create Bigarray.int Bigarray.c_layout n
let floats_create n : floats = A1.create Bigarray.float64 Bigarray.c_layout n
let[@inline always] ig (a : ints) i = A1.unsafe_get a i
let[@inline always] fg (a : floats) i = A1.unsafe_get a i

(* Every label of a scheme lives in one set of columns, row [u] for node
   [u]: the layout of the Labelled/Two_mode snapshot's DLS sections. *)
type cols = {
  rows : int;
  levels : int;
  prefix_len : int;
  max_virt : int;
  d_off : ints;
  d_val : floats;
  hosts : ints;
  zoom_first : ints;
  zoom_rest : ints;
  z_run : ints;
  z_y : u16s;
  z_z : u16s;
}

type label = { c : cols; row : int; id : int }

type wire_codec = {
  wc_n : int;
  wc_li : int;
  wc_prefix_len : int;
  wc_host_bits : int;
  wc_virt_bits : int;
  wc_qcodec : Qfloat.codec;
}

type t = {
  tri : Triangulation.t;
  cols : cols;
  labels : label array;
  bits : int array;
  virtuals : int array array; (* T_u sorted, for tests *)
  zooms : int array array;
  wire : wire_codec;
}

let triangulation t = t.tri
let label t u = t.labels.(u)
let label_of_id l = l.id
let virtual_neighbors t u = Array.copy t.virtuals.(u)
let zooming_sequence t u = Array.copy t.zooms.(u)
let label_bits t = Array.copy t.bits
let max_label_bits t = Array.fold_left max 0 t.bits
let export t = t.cols

let host_beacons t u =
  let s = ig t.cols.d_off u in
  Array.init (ig t.cols.d_off (u + 1) - s) (fun k -> ig t.cols.hosts (s + k))

(* Deduplicate a list of node ids into a sorted array. Node ids are < n, so
   a per-domain mark array beats a fresh hash table per call: the build calls
   this O(n) times per pass, and the scratch makes each call allocate only
   its result. Marks are cleared by re-walking the output, so cost tracks
   the list length, not n. *)
type dedup_scratch = { mutable dcap : int; mutable mark : Bytes.t; mutable buf : int array }

let dedup_key : dedup_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { dcap = 0; mark = Bytes.empty; buf = [||] })

let sorted_distinct n lst =
  let sc = Domain.DLS.get dedup_key in
  if sc.dcap < n then begin
    sc.dcap <- n;
    sc.mark <- Bytes.make n '\000';
    sc.buf <- Array.make n 0
  end;
  let mark = sc.mark and buf = sc.buf in
  let len = ref 0 in
  List.iter
    (fun v ->
      if Bytes.unsafe_get mark v = '\000' then begin
        Bytes.unsafe_set mark v '\001';
        buf.(!len) <- v;
        incr len
      end)
    lst;
  let a = Array.sub buf 0 !len in
  for i = 0 to !len - 1 do
    Bytes.unsafe_set mark a.(i) '\000'
  done;
  Ron_util.Fsort.sort_ints a;
  a

(* Per-domain dense marks for the zeta join: [pos.(w)] is [w]'s index in
   the current node's host enumeration, [here.(v)] is set while [v] is in
   the scale set being joined. Both are cleared after use, so they are
   all -1 / '\000' between joins. *)
type marks = { mutable pos : int array; mutable here : Bytes.t }

let marks_key : marks Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { pos = [||]; here = Bytes.empty })

let marks n =
  let m = Domain.DLS.get marks_key in
  if Array.length m.pos < n then begin
    m.pos <- Array.make n (-1);
    m.here <- Bytes.make n '\000'
  end;
  m

let set_pos m hosts = Array.iteri (fun k w -> m.pos.(w) <- k) hosts
let clear_pos m hosts = Array.iter (fun w -> m.pos.(w) <- -1) hosts

(* The Figure 2 join of zeta_ui: for each host index [x] of [u] whose node
   [v] is in the scale-i set, and each [w] of the scale-(i+1) set in node
   order that is virtual at [v] (index [y] in psi_v), emit [(y, z)] into
   row [x], with [z] the host index of [w]. Each row comes out sorted by
   [y], since psi_v is sorted by node id. Without [fill] this only counts;
   with it, it writes from cursor [c], and row [x] starts at
   [run.{base + x}]. Returns the advanced cursor. *)
let join m ~fill (sink : Zeta.sink) ~base ~hosts ~here ~next ~psi_inv c =
  Array.iter (fun v -> Bytes.unsafe_set m.here v '\001') here;
  let c = ref c in
  for x = 0 to Array.length hosts - 1 do
    let v = hosts.(x) in
    if fill then sink.run.{base + x} <- !c;
    if Bytes.unsafe_get m.here v = '\001' then begin
      let piv = psi_inv.(v) in
      Array.iter
        (fun w ->
          let y = piv.(w) in
          if y >= 0 then begin
            if fill then begin
              sink.zy.{!c} <- y;
              sink.zz.{!c} <- m.pos.(w)
            end;
            incr c
          end)
        next
    end
  done;
  Array.iter (fun v -> Bytes.unsafe_set m.here v '\000') here;
  !c

(* Host and virtual indices are stored in 16 bits. *)
let refuse_large what sets =
  Array.iteri
    (fun u e ->
      if Array.length e > Zeta.max_members then
        invalid_arg
          (Printf.sprintf
             "Dls.build: node %d's %s enumeration has %d members, more than the %d a 16-bit \
              index holds"
             u what (Array.length e) Zeta.max_members))
    sets

let build ?(z_divisor = 64.0) tri =
  Profile.phase "construct.dls" @@ fun () ->
  let idx = Triangulation.idx tri in
  let delta = Triangulation.delta tri in
  let hier = Triangulation.hierarchy tri in
  let n = Indexed.size idx in
  let li = Triangulation.levels tri in
  let levels = li - 1 in
  let jmax = Net.Hierarchy.jmax hier in
  (* --- Z-rings: Z_uj = B_u(2^j) ∩ G_l, l = log2(2^j * delta / z_divisor). *)
  let z_level j =
    let r = Bits.pow2 j *. delta /. z_divisor in
    if r <= 1.0 then 0 else int_of_float (Float.floor (Bits.flog2 r))
  in
  let z_of u =
    let acc = ref [] in
    for j = 1 to jmax do
      let level = z_level j in
      Indexed.ball_iter idx u (Bits.pow2 j) (fun v _ ->
          if Net.Hierarchy.mem hier level v then acc := v :: !acc)
    done;
    !acc
  in
  (* Every per-node pass in this build reads only the immutable index,
     hierarchy, triangulation, and earlier passes' finished arrays, so each
     runs as a parallel fan-out over nodes ([Pool.init]/[Pool.map] are
     barriers, keeping the passes ordered). *)
  let z_sets = Profile.phase "z_rings" @@ fun () -> Pool.init n z_of in
  (* --- X_u across scales. *)
  let x_all u =
    let acc = ref [] in
    for i = 0 to li - 1 do
      Array.iter (fun v -> acc := v :: !acc) (Triangulation.x_neighbors tri u i)
    done;
    !acc
  in
  (* --- Virtual neighbors T_u; psi_u enumerates T_u in node order. *)
  let virtuals =
    Profile.phase "virtuals" @@ fun () ->
    Pool.init n (fun u ->
        let xs = x_all u in
        let via_x = List.concat_map (fun v -> z_sets.(v)) (sorted_distinct n xs |> Array.to_list) in
        sorted_distinct n (List.concat [ xs; z_sets.(u); via_x ]))
  in
  (* Dense inverse of every psi: [psi_inv.(v).(w)] is [w]'s index in T_v,
     or -1. The zeta join probes it |S_i| * |S_(i+1)| times per node per
     scale; an array read there is the difference between minutes and
     seconds. The n^2 ints are within the Indexed-backed schemes' existing
     memory class (the metric itself is already materialized at n^2
     floats). *)
  let psi_inv =
    Pool.init n (fun v ->
        let inv = Array.make n (-1) in
        Array.iteri (fun k w -> inv.(w) <- k) virtuals.(v);
        inv)
  in
  refuse_large "virtual" virtuals;
  let max_virtual = Array.fold_left (fun acc a -> max acc (Array.length a)) 1 virtuals in
  (* --- Host neighbor sets per scale (the zeta join reads them) and host
     enumerations phi_u: the canonical scale-0 prefix, then the rest of
     u's beacon row, which holds u's scale-set nodes in node order. *)
  let scale_set u i =
    sorted_distinct n
      (List.concat
         [
           Array.to_list (Triangulation.x_neighbors tri u i);
           Array.to_list (Triangulation.y_neighbors tri u i);
         ])
  in
  let scale_sets =
    Profile.phase "hosts" @@ fun () ->
    Pool.init n (fun u -> Array.init li (fun i -> scale_set u i))
  in
  (* Scale-0 sets coincide for every node by construction; the prefix is
     canonical. *)
  let prefix = scale_sets.(0).(0) in
  let prefix_len = Array.length prefix in
  let prefix_pos = Array.make n (-1) in
  Array.iteri (fun k v -> prefix_pos.(v) <- k) prefix;
  let phi =
    Pool.init n (fun u ->
        let row = Array.to_seq (Triangulation.beacons tri u) in
        Array.append prefix (Array.of_seq (Seq.filter (fun v -> prefix_pos.(v) < 0) row)))
  in
  refuse_large "host" phi;
  let max_host = Array.fold_left (fun acc e -> max acc (Array.length e)) 1 phi in
  (* --- Zooming sequences: f_ui = nearest node of G_(log2 (r_ui/4)). *)
  let zoom_of u =
    Array.init li (fun i ->
        let r = Indexed.r_level idx u i in
        let level =
          if r <= 4.0 then 0 else int_of_float (Float.floor (Bits.flog2 (r /. 4.0)))
        in
        fst (Net.Hierarchy.nearest hier level u))
  in
  let zooms = Profile.phase "zooms" @@ fun () -> Pool.init n zoom_of in
  let d_off = ints_create (n + 1) in
  d_off.{0} <- 0;
  Array.iteri (fun u e -> d_off.{u + 1} <- d_off.{u} + Array.length e) phi;
  (* --- Translation maps zeta_ui as rows, one per host index: node u's
     rows start at levels * d_off.{u}, level i's row x is i * k_u + x
     past that. A count pass, then a fill pass; nodes own disjoint
     ranges, so both fan out per node. *)
  let entries, sink =
    Profile.phase "zetas" @@ fun () ->
    let counts = Array.make n 0 in
    let pass ~fill sink c u =
      let m = marks n in
      set_pos m phi.(u);
      let k = Array.length phi.(u) in
      for i = 0 to levels - 1 do
        c.(u) <-
          join m ~fill sink ~base:((levels * d_off.{u}) + (i * k)) ~hosts:phi.(u)
            ~here:scale_sets.(u).(i) ~next:scale_sets.(u).(i + 1) ~psi_inv c.(u)
      done;
      clear_pos m phi.(u)
    in
    Pool.parallel_for n (pass ~fill:false Zeta.counting counts);
    let cursor = Array.make (n + 1) 0 in
    Array.iteri (fun u k -> cursor.(u + 1) <- cursor.(u) + k) counts;
    let sink = Zeta.sink ~rows:(levels * d_off.{n}) ~entries:cursor.(n) in
    Pool.parallel_for n (pass ~fill:true sink cursor);
    (counts, sink)
  in
  (* --- Quantized host distances, zoom labels and bit counts. *)
  let codec =
    Qfloat.codec_for ~delta ~aspect_ratio:(Float.max 2.0 (Indexed.aspect_ratio idx))
  in
  let host_bits = Bits.index_bits max_host in
  let virt_bits = Bits.index_bits max_virtual in
  let d_val = floats_create d_off.{n} and hosts = ints_create d_off.{n} in
  let zoom_first = ints_create n and zoom_rest = ints_create (n * levels) in
  let bits =
    Profile.phase "labels" @@ fun () ->
    Pool.init n (fun u ->
        let e = phi.(u) in
        let k = Array.length e in
        Array.iteri
          (fun i w ->
            d_val.{d_off.{u} + i} <- Qfloat.quantize codec (Indexed.dist idx u w);
            hosts.{d_off.{u} + i} <- w)
          e;
        let f = zooms.(u) in
        (match prefix_pos.(f.(0)) with
        | -1 -> failwith "Dls.build: f_u0 outside the canonical prefix"
        | i -> zoom_first.{u} <- i);
        for i = 0 to levels - 1 do
          match psi_inv.(f.(i)).(f.(i + 1)) with
          | -1 -> failwith "Dls.build: Claim 3.5(c) violated: f_(u,i+1) not virtual at f_ui"
          | y -> zoom_rest.{(u * levels) + i} <- y
        done;
        if !Probe.on then Probe.label_node ();
        Bits.index_bits n (* global id *)
        + (k * Qfloat.bits codec) (* distance array *)
        + (entries.(u) * (host_bits + virt_bits + host_bits)) (* sparse translation triples *)
        + host_bits (* zoom_first *)
        + (levels * virt_bits) (* zoom_rest *))
  in
  let cols =
    {
      rows = n;
      levels;
      prefix_len;
      max_virt = max_virtual (* every virtual index is below it *);
      d_off;
      d_val;
      hosts;
      zoom_first;
      zoom_rest;
      z_run = sink.run;
      z_y = sink.zy;
      z_z = sink.zz;
    }
  in
  let wire =
    {
      wc_n = n;
      wc_li = li;
      wc_prefix_len = prefix_len;
      wc_host_bits = host_bits;
      wc_virt_bits = virt_bits;
      wc_qcodec = codec;
    }
  in
  {
    tri;
    cols;
    labels = Array.init n (fun u -> { c = cols; row = u; id = u });
    bits;
    virtuals;
    zooms;
    wire;
  }

(* ------------------------------------------------------------- Decoding *)

(* The label-only decoder, shared by the live schemes and the frozen
   server. It allocates nothing in steady state: every loop is a top-level
   tail-recursive function over few arguments (the per-scan constants sit
   in int fields of the scratch), floats flow only through the scratch's
   [acc] array, and the column types are annotated so the reads compile
   inline. *)

type scratch = {
  mutable right_gen : int array; (* join: generation stamp per virtual index *)
  mutable right_val : int array;
  mutable gen : int;
  acc : float array;
  mutable best_w : int;
  mutable collect : bool;
  mutable cand_len : int;
  mutable cand_w : int array;
  mutable cand_d : float array;
  (* The scan in progress: rows, host-list starts and lengths, exclusion. *)
  mutable u : int;
  mutable v : int;
  mutable du0 : int;
  mutable dv0 : int;
  mutable ku : int;
  mutable kv : int;
  mutable exclude : int;
}

let new_scratch () =
  {
    right_gen = [||];
    right_val = [||];
    gen = 0;
    acc = Array.make 2 0.0;
    best_w = -1;
    collect = false;
    cand_len = 0;
    cand_w = [||];
    cand_d = [||];
    u = 0;
    v = 0;
    du0 = 0;
    dv0 = 0;
    ku = 0;
    kv = 0;
    exclude = -1;
  }

let scratch_key : scratch Domain.DLS.key = Domain.DLS.new_key new_scratch
let scratch () = Domain.DLS.get scratch_key

let reserve sc c =
  if Array.length sc.right_gen < c.max_virt then begin
    sc.right_gen <- Array.make c.max_virt 0;
    sc.right_val <- Array.make c.max_virt 0;
    sc.gen <- 0
  end

(* Record one candidate beacon for the ranked alternates (live fault path
   only; grows the buffers). *)
let push sc w (dv : floats) i =
  if sc.cand_len = Array.length sc.cand_w then begin
    let cap = max 16 (2 * sc.cand_len) in
    let w' = Array.make cap 0 and d' = Array.make cap 0.0 in
    Array.blit sc.cand_w 0 w' 0 sc.cand_len;
    Array.blit sc.cand_d 0 d' 0 sc.cand_len;
    sc.cand_w <- w';
    sc.cand_d <- d'
  end;
  sc.cand_w.(sc.cand_len) <- w;
  sc.cand_d.(sc.cand_len) <- fg dv i;
  sc.cand_len <- sc.cand_len + 1

(* One candidate: host index [iu] in u's label, [iv] in v's. Folds
   [du + dv] into acc.(0); with an exclusion, also folds the lex-min
   (dv, host) beacon other than it into (best_w, acc.(1)) — Two_mode's M1
   choice — and, when collecting, records it. Indices past a label's host
   list are no beacon of it and are skipped. Both folds are
   order-independent, so the walk order does not matter. *)
let[@inline] emit cu cv sc iu iv =
  if iu < sc.ku && iv < sc.kv then begin
    let du = fg cu.d_val (sc.du0 + iu) and dv = fg cv.d_val (sc.dv0 + iv) in
    let s = du +. dv in
    if s < sc.acc.(0) then sc.acc.(0) <- s;
    if sc.exclude >= 0 then begin
      let w = ig cu.hosts (sc.du0 + iu) in
      if w <> sc.exclude then begin
        if dv < sc.acc.(1) || (dv = sc.acc.(1) && w < sc.best_w) then begin
          sc.best_w <- w;
          sc.acc.(1) <- dv
        end;
        if sc.collect then push sc w cv.d_val (sc.dv0 + iv)
      end
    end
  end

let[@inline] ug (a : u16s) i = A1.unsafe_get a i

(* Stamp lb's row [i, eb) into the y -> z scratch map. *)
let rec fill (cb : cols) sc gen i eb =
  if i < eb then begin
    let y = ug cb.z_y i in
    sc.right_gen.(y) <- gen;
    sc.right_val.(y) <- ug cb.z_z i;
    fill cb sc gen (i + 1) eb
  end

(* Join la's row [i, ea) of [ca] against the stamped map, emitting each
   match. *)
let rec join_row cu cv (ca : cols) sc flip gen i ea =
  if i < ea then begin
    let y = ug ca.z_y i in
    if sc.right_gen.(y) = gen then begin
      let za = ug ca.z_z i and zb = sc.right_val.(y) in
      if flip then emit cu cv sc zb za else emit cu cv sc za zb
    end;
    join_row cu cv ca sc flip gen (i + 1) ea
  end

(* Row x of a label's level-j map, for the label whose hosts start at d0
   and number k. *)
let[@inline] row (c : cols) d0 k j x = (c.levels * d0) + (j * k) + x

(* The Claim 2.2 walk of lb's zooming sequence through both labels'
   translation maps: emit the current pair (a, b) — a in la's host
   enumeration, b in lb's — join the two labels' level-j rows a and b on
   the virtual index, then step both sides through lb's zoom label. The
   walk stops silently on a failed step; the final emit fires only when
   every level stepped. Each step charges two translation lookups. la is
   u's label and lb v's, or the reverse when [flip]; emitted pairs are
   always in (u, v) order. *)
let rec level cu cv sc flip j a b =
  if flip then emit cu cv sc b a else emit cu cv sc a b;
  let ca = if flip then cv else cu and cb = if flip then cu else cv in
  let rb = if flip then sc.u else sc.v in
  let levels = cb.levels in
  if j < levels then begin
    sc.gen <- sc.gen + 1;
    let gen = sc.gen in
    let pa = if flip then row ca sc.dv0 sc.kv j a else row ca sc.du0 sc.ku j a in
    let pb = if flip then row cb sc.du0 sc.ku j b else row cb sc.dv0 sc.kv j b in
    let sa = ig ca.z_run pa and ea = ig ca.z_run (pa + 1) in
    let sb = ig cb.z_run pb and eb = ig cb.z_run (pb + 1) in
    fill cb sc gen sb eb;
    join_row cu cv ca sc flip gen sa ea;
    if !Probe.on then begin
      Probe.translation_lookup ();
      Probe.translation_lookup ()
    end;
    let y = ig cb.zoom_rest ((rb * levels) + j) in
    let a' = Zeta.find ca.z_y ca.z_z y sa ea in
    if a' >= 0 then begin
      let b' = Zeta.find cb.z_y cb.z_z y sb eb in
      if b' >= 0 then level cu cv sc flip (j + 1) a' b'
    end
  end

(* Canonical prefix: index k names the same node in both labels. *)
let rec prefix cu cv sc k kmax =
  if k < kmax then begin
    emit cu cv sc k k;
    prefix cu cv sc (k + 1) kmax
  end

let scan_gen cu u cv v sc ~exclude ~collect =
  if cu.prefix_len <> cv.prefix_len || cu.levels <> cv.levels then
    failwith "Dls: labels from different schemes";
  if exclude >= 0 && A1.dim cu.hosts = 0 then invalid_arg "Dls.scan: u's label has no hosts";
  if Array.length sc.right_gen < max cu.max_virt cv.max_virt then begin
    reserve sc cu;
    reserve sc cv
  end;
  sc.acc.(0) <- infinity;
  sc.acc.(1) <- infinity;
  sc.best_w <- -1;
  sc.collect <- collect;
  sc.cand_len <- 0;
  sc.u <- u;
  sc.v <- v;
  sc.exclude <- exclude;
  sc.du0 <- ig cu.d_off u;
  sc.dv0 <- ig cv.d_off v;
  sc.ku <- ig cu.d_off (u + 1) - sc.du0;
  sc.kv <- ig cv.d_off (v + 1) - sc.dv0;
  prefix cu cv sc 0 cu.prefix_len;
  (* Zoom in on v, reading indices in both labels; then symmetrically
     zoom in on u. *)
  let zv = ig cv.zoom_first v and zu = ig cu.zoom_first u in
  level cu cv sc false 0 zv zv;
  level cu cv sc true 0 zu zu

let scan cu u cv v sc ~exclude = scan_gen cu u cv v sc ~exclude ~collect:false

let scan_labels l_u l_v sc ~exclude ~collect =
  scan_gen l_u.c l_u.row l_v.c l_v.row sc ~exclude ~collect

let results sc = sc.acc
let best_beacon sc = sc.best_w
let candidates sc = List.init sc.cand_len (fun i -> (sc.cand_d.(i), sc.cand_w.(i)))

let estimate l_u l_v =
  if l_u.id = l_v.id then 0.0
  else begin
    let sc = scratch () in
    scan_gen l_u.c l_u.row l_v.c l_v.row sc ~exclude:(-1) ~collect:false;
    let best = sc.acc.(0) in
    if Float.is_finite best then best
    else failwith "Dls.estimate: no common beacon identified (Theorem 3.4 violated)"
  end

(* ----------------------------------------------------------- Wire format *)

module Bitio = Ron_util.Bitio

let wire_codec t = t.wire

(* A label's triples go out level by level, row by row, each row's
   sorted by y: the (x, y) order. *)
let serialize wc l =
  let c = l.c and r = l.row in
  let w = Bitio.Writer.create () in
  let host v = Bitio.Writer.bits w v ~width:wc.wc_host_bits in
  let virt v = Bitio.Writer.bits w v ~width:wc.wc_virt_bits in
  Bitio.Writer.bits w l.id ~width:(Bits.index_bits wc.wc_n);
  let d0 = ig c.d_off r in
  let k = ig c.d_off (r + 1) - d0 in
  Bitio.Writer.bits w k ~width:(wc.wc_host_bits + 1);
  for i = 0 to k - 1 do
    Qfloat.write wc.wc_qcodec w (fg c.d_val (d0 + i))
  done;
  for j = 0 to c.levels - 1 do
    let p = row c d0 k j 0 in
    Bitio.Writer.bits w
      (ig c.z_run (p + k) - ig c.z_run p)
      ~width:(wc.wc_host_bits + wc.wc_virt_bits + 1);
    for x = 0 to k - 1 do
      for i = ig c.z_run (p + x) to ig c.z_run (p + x + 1) - 1 do
        host x;
        virt (ug c.z_y i);
        host (ug c.z_z i)
      done
    done
  done;
  host (ig c.zoom_first r);
  for j = 0 to c.levels - 1 do
    virt (ig c.zoom_rest ((r * c.levels) + j))
  done;
  (Bitio.Writer.to_bytes w, Bitio.Writer.length w)

(* A deserialized label is a one-row column set. Its hosts column is
   empty: host node ids are the owner's local knowledge, not label
   content. Its rows are read unchecked, so every index that addresses
   one is checked here. *)
let deserialize wc bytes =
  let r = Bitio.Reader.of_bytes bytes in
  let bad fmt = Printf.ksprintf (fun m -> invalid_arg ("Dls.deserialize: " ^ m)) fmt in
  let host () = Bitio.Reader.bits r ~width:wc.wc_host_bits in
  let virt () = Bitio.Reader.bits r ~width:wc.wc_virt_bits in
  let id = Bitio.Reader.bits r ~width:(Bits.index_bits wc.wc_n) in
  let k = Bitio.Reader.bits r ~width:(wc.wc_host_bits + 1) in
  if k < wc.wc_prefix_len then bad "host count %d below the prefix %d" k wc.wc_prefix_len;
  let d_val = Array.init k (fun _ -> Qfloat.read wc.wc_qcodec r) in
  let levels = wc.wc_li - 1 in
  (* The pairs in wire order, and each row's count at its end. *)
  let pairs = ref [] and run = Array.make ((levels * k) + 1) 0 in
  for j = 0 to levels - 1 do
    let count = Bitio.Reader.bits r ~width:(wc.wc_host_bits + wc.wc_virt_bits + 1) in
    for _ = 1 to count do
      let x = host () in
      let y = virt () in
      let z = host () in
      if x >= k then bad "level %d triple x %d at or past the host count %d" j x k;
      if z >= k then bad "level %d triple z %d at or past the host count %d" j z k;
      run.((j * k) + x + 1) <- run.((j * k) + x + 1) + 1;
      pairs := (y, z) :: !pairs
    done
  done;
  let zoom_first = host () in
  if zoom_first >= wc.wc_prefix_len then
    bad "zoom_first %d at or past the prefix %d" zoom_first wc.wc_prefix_len;
  let zoom_rest = Array.init levels (fun _ -> virt ()) in
  for p = 1 to levels * k do
    run.(p) <- run.(p) + run.(p - 1)
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let ints a = A1.of_array Bigarray.int Bigarray.c_layout a in
  let u16s a = A1.of_array Bigarray.int16_unsigned Bigarray.c_layout a in
  let c =
    {
      rows = 1;
      levels;
      prefix_len = wc.wc_prefix_len;
      max_virt = 1 lsl wc.wc_virt_bits;
      d_off = ints [| 0; k |];
      d_val = A1.of_array Bigarray.float64 Bigarray.c_layout d_val;
      hosts = ints [||];
      zoom_first = ints [| zoom_first |];
      zoom_rest = ints zoom_rest;
      z_run = ints run;
      z_y = u16s (Array.map fst pairs);
      z_z = u16s (Array.map snd pairs);
    }
  in
  { c; row = 0; id }
