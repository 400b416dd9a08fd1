(* Frozen, off-heap query servers.

   [freeze_*] maps a constructed scheme's columns to the sections of an
   {!Image.t} (Bigarray sections, int-indexed, string-free); [of_image]
   maps the sections back — zero-copy — to the same columns, and first
   checks each view's structure so that the unchecked reads of its query
   path stay in bounds. Queries run the schemes' own code on the mapped
   columns: the estimators ([Dls.scan], [Landmark.bounds]) and the Basic,
   Labelled and Two_mode hops ([Basic.target_level]/[Basic.hop_entry],
   [Labelled.hop], [Two_mode.hop]), driven by one copy of
   [Scheme.simulate]'s Brent loop, so frozen results are byte-identical to
   the live scheme's. Meridian's locate is the one query replayed here
   ([mer_go] follows [Meridian.closest]).

   The hot path allocates nothing in steady state. The discipline, for the
   non-flambda middle end: every loop is a top-level tail-recursive
   function over ints (inner [let rec]s with free variables allocate a
   closure per call), no hot function takes or returns a float (both are
   boxed across non-inlined calls — float flow goes through the scratch
   [fbuf] float array, whose reads and writes are unboxed), and results
   land in caller-owned scratch registers. Verified by the [Gc.quick_stat]
   minor-words audit in the bench. *)

module A1 = Bigarray.Array1
module Basic = Ron_routing.Basic
module Structure = Ron_routing.Structure
module First_hop = Ron_routing.First_hop
module Labelled = Ron_routing.Labelled
module Two_mode = Ron_routing.Two_mode
module Dls = Ron_labeling.Dls

type ints = Image.ints
type floats = Image.floats
type u16s = Image.u16s

let[@inline always] ig (a : ints) i = A1.unsafe_get a i
let[@inline always] fg (a : floats) i = A1.unsafe_get a i

(* Outcome codes, in declaration order of [Scheme.outcome]. *)
let code_delivered = 0
let code_truncated = 1
let code_self_forward = 2
let code_cycled = 3

(* ------------------------------------------------------- per-domain scratch *)

(* All per-query mutable state. Float accumulators live in [fbuf];
   everything else is ints. Grown only by [prepare_scratch], so
   steady-state queries never allocate.

   fbuf slots: 0 meridian d; 1 meridian best_d; 2 route length; 3 lo;
   4 hi; 5 the route hop's link cost. The DLS decoder keeps its own state
   and results in [dls]. *)
type scratch = {
  mutable m : int array; (* decoded zooming sequence (Basic) *)
  dls : Dls.scratch;
  memo : Labelled.memo; (* Labelled per-route estimates *)
  regs : Two_mode.regs; (* Two_mode's hop output *)
  fbuf : float array;
  mutable sel_w : int; (* Meridian's best member; the route hop's next state *)
  mutable r_outcome : int;
  mutable r_hops : int;
  mutable r_next : int; (* found member (locate); the route hop's next node *)
  mutable r_aux : int; (* header bits (route) / measurements (locate) *)
  (* Per-hop trace capture for the flight recorder: visited nodes land in
     [hop_log] while [log_hops] is set (the observed loop arms it for the
     deterministically sampled queries only). [hop_len] keeps counting
     past the buffer so callers can see truncation; when off, each hop
     pays one load and a fall-through branch — nothing is written and
     nothing allocates, preserving the 0-words-per-query budget. *)
  hop_log : int array;
  mutable hop_len : int;
  mutable log_hops : bool;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        m = [||];
        dls = Dls.new_scratch ();
        memo = Labelled.memo ();
        regs = { Two_mode.next = 0; mode = 0 };
        fbuf = Array.make 6 0.0;
        sel_w = -1;
        r_outcome = 0;
        r_hops = 0;
        r_next = 0;
        r_aux = 0;
        hop_log = Array.make 64 0;
        hop_len = 0;
        log_hops = false;
      })

(* ---------------------------------------------------------- frozen views *)

type fmer = {
  mn : int;
  mscales : int;
  mmembers : ints;
  mr_off : ints; (* n * scales + 1 *)
  mr_node : ints;
  mdmat : floats; (* n * n *)
}

type view =
  | Basic of Basic.cols
  | Labelled of Labelled.cols
  | Two_mode of Two_mode.cols
  | Meridian of fmer
  | Landmark of Ron_labeling.Landmark.cols

type t = { img : Image.t; view : view }

let image t = t.img
let byte_size t = Image.byte_size t.img
let save t file = Image.save t.img file

let tag_basic = 1
let tag_labelled = 2
let tag_two_mode = 3
let tag_meridian = 4
let tag_landmark = 5

let scheme_tag t = t.img.Image.scheme

let scheme_name t =
  match t.view with
  | Basic _ -> "basic"
  | Labelled _ -> "labelled"
  | Two_mode _ -> "two_mode"
  | Meridian _ -> "meridian"
  | Landmark _ -> "landmark"

let size t =
  match t.view with
  | Basic b -> b.Basic.st.Structure.n
  | Labelled l -> l.Labelled.n
  | Two_mode m -> m.Two_mode.n
  | Meridian m -> m.mn
  | Landmark g -> g.Ron_labeling.Landmark.n

(* Source population for workloads: Meridian walks must start at members. *)
let sources t = match t.view with Meridian m -> Some m.mmembers | _ -> None

(* Warm the per-domain scratch to this server's bounds (call once per
   domain before the audited loop so steady-state queries never grow it). *)
let prepare_scratch t sc =
  match t.view with
  | Basic b ->
    let scales = b.Basic.st.Structure.scales in
    if Array.length sc.m < scales then sc.m <- Array.make scales 0
  | Labelled l ->
    Labelled.reserve sc.memo l.Labelled.n;
    Dls.reserve sc.dls l.dls
  | Two_mode m -> Dls.reserve sc.dls m.Two_mode.dls
  | Meridian _ | Landmark _ -> ()

let scratch_for t =
  let sc = Domain.DLS.get scratch_key in
  prepare_scratch t sc;
  sc

(* ------------------------------------------------------------- freezing *)

let flat_ints (arrs : int array array) =
  let n = Array.length arrs in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i a -> off.(i + 1) <- off.(i) + Array.length a) arrs;
  let data = Image.ints_create off.(n) in
  Array.iteri
    (fun i a -> Array.iteri (fun k v -> A1.unsafe_set data (off.(i) + k) v) a)
    arrs;
  (Image.ints_of_array off, data)

(* The columns below are adopted as they are: each scheme builds them in
   its image's layout. The DLS pack is 8 int sections (meta, d_off,
   zoom_first, zoom_rest, z_off, z_x, z_y, z_z) and the d_val float
   section; only the Two_mode image carries the hosts column. *)
let dls_isecs (c : Dls.cols) =
  [
    Image.ints_of_array [| c.rows; c.levels; c.prefix_len; c.max_virt |];
    c.d_off;
    c.zoom_first;
    c.zoom_rest;
    c.z_off;
    c.z_x;
    c.z_y;
    c.z_z;
  ]

let no_hosts : ints = Image.ints_create 0

let dls_of_secs what (isecs : ints array) (fsecs : floats array) i0 f0 ~hosts =
  let meta = isecs.(i0) in
  if A1.dim meta <> 4 then
    Error
      (Printf.sprintf "%s image: DLS meta section has %d entries, expected 4" what (A1.dim meta))
  else
    Ok
      {
        Dls.rows = ig meta 0;
        levels = ig meta 1;
        prefix_len = ig meta 2;
        max_virt = ig meta 3;
        d_off = isecs.(i0 + 1);
        d_val = fsecs.(f0);
        hosts;
        zoom_first = isecs.(i0 + 2);
        zoom_rest = isecs.(i0 + 3);
        z_off = isecs.(i0 + 4);
        z_x = isecs.(i0 + 5);
        z_y = isecs.(i0 + 6);
        z_z = isecs.(i0 + 7);
      }

(* Basic: 9 int sections + 1 float section + 2 uint16 sections — meta
   (n, scales, max_hops, header bits), label_first, label_rest, ring_off,
   ring_node, z_run, t_off, t_w, t_next | t_cost | z_y, z_z. *)
let freeze_basic (c : Basic.cols) =
  let s = c.Basic.st and tb = c.Basic.table in
  {
    Image.scheme = tag_basic;
    isecs =
      [|
        Image.ints_of_array [| s.Structure.n; s.scales; c.max_hops; c.header_bits |];
        s.label_first;
        s.label_rest;
        s.ring_off;
        s.ring_node;
        s.z_run;
        tb.First_hop.t_off;
        tb.t_w;
        tb.t_next;
      |];
    fsecs = [| tb.t_cost |];
    usecs = [| s.z_y; s.z_z |];
  }

(* Labelled: 13 int sections + 2 float sections — meta (n, max_hops),
   header bits, t_off, t_w, t_next, the DLS pack | t_cost, d_val. *)
let freeze_labelled (c : Labelled.cols) =
  let tb = c.Labelled.table in
  {
    Image.scheme = tag_labelled;
    isecs =
      Array.of_list
        (Image.ints_of_array [| c.n; c.max_hops |]
        :: c.header_bits :: tb.First_hop.t_off :: tb.t_w :: tb.t_next :: dls_isecs c.dls);
    fsecs = [| tb.t_cost; c.dls.Dls.d_val |];
    usecs = [||];
  }

(* Two_mode: 17 int sections + 4 float sections — meta (n, li, max_hops,
   header bits), hub_ptr, hub_g, dir_off, dir_mem, dir_bnd, own_off,
   own_tgt, hosts, the DLS pack | threshold, r_level, dist, d_val. *)
let freeze_two_mode (c : Two_mode.cols) =
  {
    Image.scheme = tag_two_mode;
    isecs =
      Array.of_list
        ([
           Image.ints_of_array [| c.Two_mode.n; c.li; c.max_hops; c.header_bits |];
           c.hub_ptr;
           c.hub_g;
           c.dir_off;
           c.dir_mem;
           c.dir_bnd;
           c.own_off;
           c.own_tgt;
           c.dls.Dls.hosts;
         ]
        @ dls_isecs c.dls);
    fsecs = [| Image.floats_of_array [| c.m1_threshold |]; c.r_level; c.dist; c.dls.Dls.d_val |];
    usecs = [||];
  }

let freeze_meridian (e : Ron_smallworld.Meridian.export) =
  let open Ron_smallworld.Meridian in
  let n = e.x_n and scales = e.x_scales in
  let segs = Array.make (n * scales) [||] in
  Array.iteri
    (fun u per_u -> Array.iteri (fun i r -> segs.((u * scales) + i) <- r) per_u)
    e.x_rings;
  let r_off, r_node = flat_ints segs in
  {
    Image.scheme = tag_meridian;
    isecs =
      [|
        Image.ints_of_array [| n; scales |];
        Image.ints_of_array e.x_members;
        r_off;
        r_node;
      |];
    fsecs = [| Image.floats_of_array e.x_dist |];
    usecs = [||];
  }

let freeze_landmark (c : Ron_labeling.Landmark.cols) =
  let open Ron_labeling.Landmark in
  {
    Image.scheme = tag_landmark;
    isecs = [| Image.ints_of_array [| c.n; c.k |]; c.beacons; c.col; c.ball_off; c.ball_node |];
    fsecs = [| c.rows; c.ball_dist |];
    usecs = [||];
  }

(* ------------------------------------------------------------ validation *)

(* Structural checks, O(size), run before a view serves. [what] names the
   scheme in the error and [sec] the section. *)

let ( let* ) = Result.bind

let bad what sec fmt =
  Printf.ksprintf (fun m -> Error (Printf.sprintf "%s image: %s: %s" what sec m)) fmt

let all check l = List.fold_left (fun r x -> Result.bind r (fun () -> check x)) (Ok ()) l

(* First index in [i, hi) failing [ok], or -1. *)
let rec find_bad ok i hi = if i >= hi then -1 else if ok i then find_bad ok (i + 1) hi else i

let length what (sec, got, want) =
  if got = want then Ok () else bad what sec "%d entries, expected %d" got want

(* [got = a * b] for [a >= 1], compared without overflow. *)
let length_product what (sec, got, a, b) =
  if got mod a = 0 && got / a = b then Ok ()
  else bad what sec "%d entries, expected %d * %d" got a b

(* [off] rises from 0 to [last]; with [strict], every run is non-empty. *)
let offsets ?(strict = false) what (sec, (off : ints), last) =
  let k = A1.dim off - 1 in
  let rises i = if strict then off.{i} < off.{i + 1} else off.{i} <= off.{i + 1} in
  if k >= 0 && off.{0} = 0 && off.{k} = last && find_bad rises 0 k < 0 then Ok ()
  else bad what sec "offsets do not rise from 0 to %d" last

let in_range what (sec, (a : ints), lo, hi) =
  match find_bad (fun i -> a.{i} >= lo && a.{i} < hi) 0 (A1.dim a) with
  | -1 -> Ok ()
  | i -> bad what sec "entry %d is %d, outside [%d, %d)" i a.{i} lo hi

let non_negative what (sec, (a : floats)) =
  match find_bad (fun i -> Float.is_finite a.{i} && a.{i} >= 0.0) 0 (A1.dim a) with
  | -1 -> Ok ()
  | i -> bad what sec "entry %d is %g, not finite and >= 0" i a.{i}

(* A first-hop table over [n] nodes: [First_hop.find] and the entry reads
   stay in bounds, and every next hop and cost is usable. *)
let check_table what ~n (tb : First_hop.t) =
  let dim = A1.dim in
  let* () =
    all (length what)
      [
        ("t_off", dim tb.First_hop.t_off, n + 1);
        ("t_next", dim tb.t_next, dim tb.t_w);
        ("t_cost", dim tb.t_cost, dim tb.t_w);
      ]
  in
  let* () = offsets what ("t_off", tb.t_off, dim tb.t_w) in
  let* () = all (in_range what) [ ("t_w", tb.t_w, 0, n); ("t_next", tb.t_next, 0, n) ] in
  non_negative what ("t_cost", tb.t_cost)

(* The Basic view: after it, [Structure.decode], [Structure.member] and
   the table reads are in bounds — lengths agree with the meta section,
   offsets run from 0 to their column's end, ids are nodes, each z of
   zeta_uj is a position in ring [(u, j + 1)], and each label's first index
   is in every ring 0. *)
let check_basic (c : Basic.cols) =
  let what = "basic" and s = c.Basic.st and dim = A1.dim in
  let n = s.Structure.n and scales = s.Structure.scales in
  (* Ring r = (u, j)'s rows span [z_run.{ring_off.{r}}, z_run.{ring_off.{r+1}}),
     and their z are positions in ring r + 1. *)
  let z_z : u16s = s.z_z in
  let rec zetas r =
    if r >= n * scales then Ok ()
    else if r mod scales = scales - 1 then zetas (r + 1)
    else begin
      let size = s.ring_off.{r + 2} - s.ring_off.{r + 1} in
      let ok e = z_z.{e} < size in
      match find_bad ok s.z_run.{s.ring_off.{r}} s.z_run.{s.ring_off.{r + 1}} with
      | -1 -> zetas (r + 1)
      | e ->
        bad what "z_z" "entry %d is %d, outside ring %d of node %d" e z_z.{e}
          ((r mod scales) + 1) (r / scales)
    end
  in
  let* () =
    if n >= 1 && scales >= 1 && c.max_hops >= 0 && c.max_hops <= Basic.hop_budget n then Ok ()
    else
      bad what "meta" "n %d, scales %d, max_hops %d (budget %d)" n scales c.max_hops
        (Basic.hop_budget n)
  in
  let* () =
    all (length what)
      [
        ("label_first", dim s.label_first, n);
        ("ring_off", dim s.ring_off, dim s.label_rest + n + 1);
        ("z_run", dim s.z_run, dim s.ring_node + 1);
        ("z_z", dim s.z_z, dim s.z_y);
      ]
  in
  let* () = length_product what ("label_rest", dim s.label_rest, n, scales - 1) in
  let* () =
    all (offsets what) [ ("ring_off", s.ring_off, dim s.ring_node); ("z_run", s.z_run, dim s.z_y) ]
  in
  let* () = in_range what ("ring_node", s.ring_node, 0, n) in
  let* () = zetas 0 in
  let* () = in_range what ("label_first", s.label_first, 0, Structure.first_bound s) in
  check_table what ~n c.Basic.table

(* The DLS columns of a labelled or two_mode view over [n] nodes ([hosts]:
   the image carries the hosts column). After it, every read [Dls.scan]
   makes unchecked is in bounds and its loops are bounded by the data: the
   offsets rise to their columns' ends, every row holds the prefix,
   zoom_first indexes it, zoom_rest and z_y are virtual indices below
   max_virt (the scratch bound, at most n), and each z of row u's
   translation maps is one of u's host indices. *)
let check_dls what ~n ~hosts (d : Dls.cols) =
  let dim = A1.dim in
  let* () =
    if d.Dls.rows = n && d.levels >= 0 && d.prefix_len >= 0 && d.max_virt >= 1 && d.max_virt <= n
    then Ok ()
    else
      bad what "dls_meta" "rows %d, levels %d, prefix %d, max_virt %d for %d nodes" d.rows d.levels
        d.prefix_len d.max_virt n
  in
  let* () =
    all (length what)
      ([
         ("d_off", dim d.d_off, n + 1);
         ("zoom_first", dim d.zoom_first, n);
         ("z_y", dim d.z_y, dim d.z_x);
         ("z_z", dim d.z_z, dim d.z_x);
       ]
      @ if hosts then [ ("hosts", dim d.hosts, dim d.d_val) ] else [])
  in
  let* () =
    all (length_product what)
      [ ("zoom_rest", dim d.zoom_rest, n, d.levels); ("z_off", dim d.z_off - 1, n, d.levels) ]
  in
  let* () = all (offsets what) [ ("d_off", d.d_off, dim d.d_val); ("z_off", d.z_off, dim d.z_x) ] in
  let* () =
    all (in_range what)
      ([
         ("zoom_first", d.zoom_first, 0, d.prefix_len);
         ("zoom_rest", d.zoom_rest, 0, d.max_virt);
         ("z_y", d.z_y, 0, d.max_virt);
       ]
      @ if hosts then [ ("hosts", d.hosts, 0, n) ] else [])
  in
  let* () = non_negative what ("d_val", d.d_val) in
  let rec rows u =
    if u >= n then Ok ()
    else begin
      let k = d.d_off.{u + 1} - d.d_off.{u} in
      let ok e = d.z_z.{e} >= 0 && d.z_z.{e} < k in
      if k < d.prefix_len then
        bad what "dls_meta" "prefix of %d hosts, node %d has %d" d.prefix_len u k
      else
        match find_bad ok d.z_off.{u * d.levels} d.z_off.{(u + 1) * d.levels} with
        | -1 -> rows (u + 1)
        | e -> bad what "z_z" "entry %d is %d, outside node %d's %d hosts" e d.z_z.{e} u k
    end
  in
  rows 0

let check_labelled (c : Labelled.cols) =
  let what = "labelled" and n = c.Labelled.n in
  let* () =
    if n >= 1 && c.max_hops >= 0 && c.max_hops <= Labelled.hop_budget n then Ok ()
    else bad what "meta" "n %d, max_hops %d (budget %d)" n c.max_hops (Labelled.hop_budget n)
  in
  let* () = length what ("header_bits", A1.dim c.header_bits, n) in
  let* () = check_table what ~n c.table in
  check_dls what ~n ~hosts:false c.dls

(* After it, [Two_mode.hop] reads in bounds: hub pointers and directory
   members are nodes, [hub_g] names a directory or none, every directory
   has a member, and the per-(scale, node) columns have their lengths. *)
let check_two_mode (c : Two_mode.cols) =
  let what = "two_mode" and dim = A1.dim in
  let n = c.Two_mode.n and li = c.li in
  let* () =
    if n >= 1 && li >= 1 && c.max_hops >= 0 && c.max_hops <= Two_mode.hop_budget li then Ok ()
    else
      bad what "meta" "n %d, li %d, max_hops %d (budget %d)" n li c.max_hops
        (Two_mode.hop_budget li)
  in
  let* () =
    if c.m1_threshold > 0.0 && c.m1_threshold < 0.5 then Ok ()
    else bad what "threshold" "%g, outside (0, 1/2)" c.m1_threshold
  in
  let* () =
    all (length_product what)
      [
        ("hub_ptr", dim c.hub_ptr, n, li);
        ("hub_g", dim c.hub_g, li, n);
        ("own_off", dim c.own_off - 1, li, n);
        ("r_level", dim c.r_level, n, li);
        ("dist", dim c.dist, n, n);
      ]
  in
  let* () = length what ("dir_bnd", dim c.dir_bnd, dim c.dir_mem) in
  let* () = offsets ~strict:true what ("dir_off", c.dir_off, dim c.dir_mem) in
  let* () = offsets what ("own_off", c.own_off, dim c.own_tgt) in
  let* () =
    all (in_range what)
      [
        ("hub_ptr", c.hub_ptr, 0, n);
        ("hub_g", c.hub_g, -1, dim c.dir_off - 1);
        ("dir_mem", c.dir_mem, 0, n);
        ("own_tgt", c.own_tgt, 0, n);
      ]
  in
  let* () = all (non_negative what) [ ("r_level", c.r_level); ("dist", c.dist) ] in
  check_dls what ~n ~hosts:true c.dls

(* After it, [mer_locate] reads in bounds: members and ring entries are
   nodes, each node's per-scale ring offsets rise to the ring column's end,
   and the distance matrix is n x n. *)
let check_meridian (m : fmer) =
  let what = "meridian" and n = m.mn and scales = m.mscales and dim = A1.dim in
  let* () =
    if n >= 1 && scales >= 1 then Ok () else bad what "meta" "n %d, scales %d" n scales
  in
  let* () =
    if dim m.mmembers >= 1 then Ok () else bad what "mmembers" "no member to start from"
  in
  let* () = length_product what ("mr_off", dim m.mr_off - 1, n, scales) in
  let* () = length_product what ("mdmat", dim m.mdmat, n, n) in
  let* () = offsets what ("mr_off", m.mr_off, dim m.mr_node) in
  let* () = all (in_range what) [ ("mmembers", m.mmembers, 0, n); ("mr_node", m.mr_node, 0, n) ] in
  non_negative what ("mdmat", m.mdmat)

(* After it, [Landmark.bounds] reads in bounds: beacons are nodes, [col]
   names a beacon or none, the rows are k x n, and each node's ball runs
   over its node and distance columns. *)
let check_landmark (g : Ron_labeling.Landmark.cols) =
  let open Ron_labeling.Landmark in
  let what = "landmark" and n = g.n and k = g.k and dim = A1.dim in
  let* () =
    if n >= 1 && k >= 1 && k <= n then Ok () else bad what "meta" "n %d, k %d" n k
  in
  let* () =
    all (length what)
      [
        ("beacons", dim g.beacons, k);
        ("col", dim g.col, n);
        ("ball_off", dim g.ball_off, n + 1);
        ("ball_dist", dim g.ball_dist, dim g.ball_node);
      ]
  in
  let* () = length_product what ("rows", dim g.rows, k, n) in
  let* () = offsets what ("ball_off", g.ball_off, dim g.ball_node) in
  let* () =
    all (in_range what)
      [ ("beacons", g.beacons, 0, n); ("col", g.col, -1, k); ("ball_node", g.ball_node, 0, n) ]
  in
  all (non_negative what) [ ("rows", g.rows); ("ball_dist", g.ball_dist) ]

(* --------------------------------------------------------------- viewing *)

(* Every section count and meta length is checked before any meta read;
   each view is then checked structurally before it serves. *)
let of_image (img : Image.t) =
  let i = img.Image.isecs and f = img.Image.fsecs and u = img.Image.usecs in
  let need ni nf nu what =
    if Array.length i <> ni || Array.length f <> nf || Array.length u <> nu then
      Error
        (Printf.sprintf
           "%s image: expected %d int / %d float / %d uint16 sections, got %d / %d / %d" what ni
           nf nu (Array.length i) (Array.length f) (Array.length u))
    else Ok ()
  in
  let meta what len =
    let dim = A1.dim i.(0) in
    if dim <> len then
      Error (Printf.sprintf "%s image: meta section has %d entries, expected %d" what dim len)
    else Ok i.(0)
  in
  let view v = Ok { img; view = v } in
  match img.Image.scheme with
  | 1 ->
    let* () = need 9 1 2 "basic" in
    let* meta = meta "basic" 4 in
    let c =
      {
        Basic.st =
          {
            Structure.n = ig meta 0;
            scales = ig meta 1;
            label_first = i.(1);
            label_rest = i.(2);
            ring_off = i.(3);
            ring_node = i.(4);
            z_run = i.(5);
            z_y = u.(0);
            z_z = u.(1);
          };
        table = { First_hop.t_off = i.(6); t_w = i.(7); t_next = i.(8); t_cost = f.(0) };
        max_hops = ig meta 2;
        header_bits = ig meta 3;
      }
    in
    let* () = check_basic c in
    view (Basic c)
  | 2 ->
    let* () = need 13 2 0 "labelled" in
    let* meta = meta "labelled" 2 in
    let* dls = dls_of_secs "labelled" i f 5 1 ~hosts:no_hosts in
    let c =
      {
        Labelled.n = ig meta 0;
        max_hops = ig meta 1;
        header_bits = i.(1);
        table = { First_hop.t_off = i.(2); t_w = i.(3); t_next = i.(4); t_cost = f.(0) };
        dls;
      }
    in
    let* () = check_labelled c in
    view (Labelled c)
  | 3 ->
    let* () = need 17 4 0 "two_mode" in
    let* meta = meta "two_mode" 4 in
    let* () =
      if A1.dim f.(0) <> 1 then
        Error
          (Printf.sprintf "two_mode image: threshold section has %d entries, expected 1"
             (A1.dim f.(0)))
      else Ok ()
    in
    let* dls = dls_of_secs "two_mode" i f 9 3 ~hosts:i.(8) in
    let c =
      {
        Two_mode.n = ig meta 0;
        li = ig meta 1;
        max_hops = ig meta 2;
        header_bits = ig meta 3;
        m1_threshold = fg f.(0) 0;
        hub_ptr = i.(1);
        hub_g = i.(2);
        dir_off = i.(3);
        dir_mem = i.(4);
        dir_bnd = i.(5);
        own_off = i.(6);
        own_tgt = i.(7);
        r_level = f.(1);
        dist = f.(2);
        dls;
      }
    in
    let* () = check_two_mode c in
    view (Two_mode c)
  | 4 ->
    let* () = need 4 1 0 "meridian" in
    let* meta = meta "meridian" 2 in
    let m =
      {
        mn = ig meta 0;
        mscales = ig meta 1;
        mmembers = i.(1);
        mr_off = i.(2);
        mr_node = i.(3);
        mdmat = f.(0);
      }
    in
    let* () = check_meridian m in
    view (Meridian m)
  | 5 ->
    let* () = need 5 2 0 "landmark" in
    let* meta = meta "landmark" 2 in
    let g =
      {
        Ron_labeling.Landmark.n = ig meta 0;
        k = ig meta 1;
        beacons = i.(1);
        col = i.(2);
        rows = f.(0);
        ball_off = i.(3);
        ball_node = i.(4);
        ball_dist = f.(1);
      }
    in
    let* () = check_landmark g in
    view (Landmark g)
  | tag -> Error (Printf.sprintf "unknown scheme tag %d" tag)

let exn_of_result = function
  | Ok t -> t
  | Error msg -> failwith ("Server.of_image: " ^ msg)

let freeze_basic_t e = exn_of_result (of_image (freeze_basic e))
let freeze_labelled_t e = exn_of_result (of_image (freeze_labelled e))
let freeze_two_mode_t e = exn_of_result (of_image (freeze_two_mode e))
let freeze_meridian_t e = exn_of_result (of_image (freeze_meridian e))
let freeze_landmark_t e = exn_of_result (of_image (freeze_landmark e))

let load file =
  match Image.load file with Error e -> Error e | Ok img -> of_image img

(* ---------------------------------------------------------------- routes *)

(* Append a visited node to the hop trace; counting continues past the
   buffer so the recorder can tell a truncated trace from a full one. *)
let[@inline] log_hop sc node =
  if sc.log_hops then begin
    if sc.hop_len < Array.length sc.hop_log then sc.hop_log.(sc.hop_len) <- node;
    sc.hop_len <- sc.hop_len + 1
  end

let[@inline] finish sc code hops =
  sc.r_outcome <- code;
  sc.r_hops <- hops

let[@inline] table_hop (tb : First_hop.t) sc e state =
  sc.r_next <- ig tb.First_hop.t_next e;
  sc.sel_w <- state;
  sc.fbuf.(5) <- fg tb.t_cost e

(* One hop of the view's scheme at [node], which is not [dst]: the next
   node into r_next, the packet's next state into sel_w and the link's
   cost into fbuf.(5). The state is the one int a header varies in — the
   chased level for Basic (-1: none yet), the intermediate target for
   Labelled, the mode for Two_mode. *)
let hop view sc ~dst node state =
  match view with
  | Basic b ->
    let j = Basic.target_level b b.Basic.st dst sc.m node state in
    table_hop b.Basic.table sc (Basic.hop_entry b node sc.m j) j
  | Labelled l ->
    let e = Labelled.hop l sc.dls sc.memo ~dst node state in
    table_hop l.Labelled.table sc e (ig l.table.First_hop.t_w e)
  | Two_mode m ->
    ignore (Two_mode.hop m sc.dls sc.regs ~dst node state : int);
    sc.r_next <- sc.regs.Two_mode.next;
    sc.sel_w <- sc.regs.mode;
    sc.fbuf.(5) <- fg m.Two_mode.dist ((node * m.n) + sc.r_next)
  | Meridian _ | Landmark _ -> invalid_arg "Server: this scheme serves no route"

(* [Scheme.simulate]'s Brent loop over (node, state): per hop, cycle check
   first, then checkpoint refresh at power-of-two hop counts, then the
   step. *)
let rec route_go view sc ~dst ~max_hops node state saved_node saved_state power hops =
  if hops > 0 && node = saved_node && state = saved_state then finish sc code_cycled hops
  else begin
    let refresh = hops = power in
    let saved_node = if refresh then node else saved_node in
    let saved_state = if refresh then state else saved_state in
    let power = if refresh then 2 * power else power in
    if node = dst then finish sc code_delivered hops
    else begin
      hop view sc ~dst node state;
      let next = sc.r_next in
      if next = node then finish sc code_self_forward hops
      else if hops >= max_hops then finish sc code_truncated hops
      else begin
        sc.fbuf.(2) <- sc.fbuf.(2) +. sc.fbuf.(5);
        log_hop sc next;
        route_go view sc ~dst ~max_hops next sc.sel_w saved_node saved_state power (hops + 1)
      end
    end
  end

(* A route from [src] in the scheme's initial state; r_aux = header bits. *)
let route view sc ~src ~dst ~header_bits ~max_hops state =
  sc.r_aux <- header_bits;
  route_go view sc ~dst ~max_hops src state src state 1 0

(* ------------------------------------------------- labeled dist estimates *)

(* The DLS estimate both label-based schemes expose as their distance
   query; [Dls.estimate] short-circuits identical labels to 0. Result in
   fbuf.(3) = fbuf.(4) (a point estimate, not an interval). *)
let dls_estimate d sc ~src ~dst =
  if src <> dst then begin
    Dls.scan d src d dst sc.dls ~exclude:(-1);
    let e = (Dls.results sc.dls).(0) in
    if not (e -. e = 0.0) then
      failwith "Server: no common beacon identified (Theorem 3.4 violated)";
    sc.fbuf.(3) <- e;
    sc.fbuf.(4) <- e
  end

(* -------------------------------------------------------- Meridian locate *)

(* Poll one ring of [u], folding the lex-min (distance-to-target, id) into
   (sel_w, fbuf.(1)) and counting each measurement in r_aux. *)
let rec mer_poll fm sc ~target e e1 =
  if e < e1 then begin
    let v = ig fm.mr_node e in
    sc.r_aux <- sc.r_aux + 1;
    let dv = fg fm.mdmat ((v * fm.mn) + target) in
    if dv < sc.fbuf.(1) || (dv = sc.fbuf.(1) && v < sc.sel_w) then begin
      sc.sel_w <- v;
      sc.fbuf.(1) <- dv
    end;
    mer_poll fm sc ~target (e + 1) e1
  end

let rec mer_rings fm sc ~target u i top =
  if i <= top then begin
    mer_poll fm sc ~target
      (ig fm.mr_off ((u * fm.mscales) + i))
      (ig fm.mr_off ((u * fm.mscales) + i + 1));
    mer_rings fm sc ~target u (i + 1) top
  end

(* [Meridian.closest] without faults: poll rings at scales up to ~2d
   (the scale cap is [Bits.flog2] inlined), advance on strict progress.
   fbuf.(0) carries d across hops. *)
let rec mer_go fm sc ~target u hops =
  let d = sc.fbuf.(0) in
  let limit =
    if 2.0 *. d <= 1.0 then 0
    else min (fm.mscales - 1) (int_of_float (Float.ceil (log (2.0 *. d) /. log 2.0)))
  in
  sc.sel_w <- u;
  sc.fbuf.(1) <- d;
  mer_rings fm sc ~target u 0 (min limit (fm.mscales - 1));
  let best = sc.sel_w in
  let bd = sc.fbuf.(1) in
  if best <> u && (bd <= d /. 2.0 || bd < d) then begin
    sc.fbuf.(0) <- bd;
    log_hop sc best;
    mer_go fm sc ~target best (hops + 1)
  end
  else begin
    sc.r_outcome <- 0;
    sc.r_hops <- hops;
    sc.r_next <- u
  end

let mer_locate fm sc ~start ~target =
  sc.r_aux <- 1 (* the initial self-measurement *);
  sc.fbuf.(0) <- fg fm.mdmat ((start * fm.mn) + target);
  mer_go fm sc ~target start 0

(* ----------------------------------------------------------- dispatching *)

(* Query kinds (workload side): 0 route, 1 dist, 2 locate. Each scheme
   collapses unsupported kinds onto its native operation. *)

let effective_kind t kind =
  match t.view with
  | Basic _ -> 0
  | Labelled _ | Two_mode _ -> if kind = 1 then 1 else 0
  | Meridian _ -> 2
  | Landmark _ -> 1

(* Execute one query, writing the scratch result registers:
   route (kind 0):  r_outcome, r_hops, r_aux = header bits, fbuf.(2) = length
   dist (kind 1):   fbuf.(3) = lo, fbuf.(4) = hi
   locate (kind 2): r_next = found, r_hops, r_aux = measurements *)
let query t sc ~kind ~src ~dst =
  sc.r_outcome <- 0;
  sc.r_hops <- 0;
  sc.r_next <- 0;
  sc.r_aux <- 0;
  if sc.log_hops then sc.hop_len <- 0;
  sc.fbuf.(2) <- 0.0;
  sc.fbuf.(3) <- 0.0;
  sc.fbuf.(4) <- 0.0;
  match t.view with
  | Basic b ->
    route t.view sc ~src ~dst ~header_bits:b.Basic.header_bits ~max_hops:b.max_hops (-1)
  | Labelled l ->
    if kind = 1 then dls_estimate l.Labelled.dls sc ~src ~dst
    else begin
      Labelled.fresh sc.memo;
      route t.view sc ~src ~dst ~header_bits:(ig l.header_bits dst) ~max_hops:l.max_hops src
    end
  | Two_mode m ->
    if kind = 1 then dls_estimate m.Two_mode.dls sc ~src ~dst
    else route t.view sc ~src ~dst ~header_bits:m.header_bits ~max_hops:m.max_hops 0
  | Meridian m -> mer_locate m sc ~start:src ~target:dst
  | Landmark g -> Ron_labeling.Landmark.bounds g sc.fbuf ~at:3 src dst
