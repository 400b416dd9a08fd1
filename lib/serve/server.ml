(* Frozen, off-heap query servers.

   [freeze_*] packs a constructed scheme's exported state into an
   {!Image.t} (Bigarray sections, int-indexed, string-free); [of_image]
   wraps the sections — zero-copy — into per-scheme flat views whose query
   functions replicate the live step functions and [Scheme.simulate]'s
   Brent loop operation for operation, so frozen results are byte-identical
   to the live scheme's.

   The hot path allocates nothing in steady state. The discipline, for the
   non-flambda middle end: every loop is a top-level tail-recursive
   function over ints (inner [let rec]s with free variables allocate a
   closure per call), no hot function takes or returns a float (both are
   boxed across non-inlined calls — float flow goes through the scratch
   [fbuf] float array, whose reads and writes are unboxed), and results
   land in caller-owned scratch registers. Verified by the [Gc.quick_stat]
   minor-words audit in the bench. *)

module A1 = Bigarray.Array1

type ints = Image.ints
type floats = Image.floats

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

   fbuf slots: 0 dls min / meridian d; 1 dls best_dv / meridian best_d;
   2 route length; 3 lo; 4 hi; 5 neighbor-selection best_d; 6 score
   result; 7 switch-scale threshold. *)
type scratch = {
  mutable m : int array; (* decoded zooming sequence (Basic) *)
  mutable right_gen : int array; (* DLS join: generation stamp per virtual *)
  mutable right_val : int array;
  mutable gen : int;
  mutable memo_d : float array; (* Labelled per-route score memo *)
  mutable memo_gen : int array;
  mutable mgen : int;
  fbuf : float array;
  mutable best_w : int; (* dls_scan beacon register *)
  mutable sel_w : int; (* neighbor-selection register *)
  mutable r_outcome : int;
  mutable r_hops : int;
  mutable r_next : int; (* found member (locate) *)
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
        right_gen = [||];
        right_val = [||];
        gen = 0;
        memo_d = [||];
        memo_gen = [||];
        mgen = 0;
        fbuf = Array.make 8 0.0;
        best_w = -1;
        sel_w = -1;
        r_outcome = 0;
        r_hops = 0;
        r_next = 0;
        r_aux = 0;
        hop_log = Array.make 64 0;
        hop_len = 0;
        log_hops = false;
      })

let ensure sc ~decode ~virt ~nodes =
  if Array.length sc.m < decode then sc.m <- Array.make decode 0;
  if Array.length sc.right_gen < virt then begin
    sc.right_gen <- Array.make virt 0;
    sc.right_val <- Array.make virt 0;
    sc.gen <- 0
  end;
  if Array.length sc.memo_d < nodes then begin
    sc.memo_d <- Array.make nodes 0.0;
    sc.memo_gen <- Array.make nodes 0;
    sc.mgen <- 0
  end

(* ------------------------------------------------------------ frozen DLS *)

type fdls = {
  dn : int;
  dlevels : int;
  dprefix : int;
  dmax_virt : int;
  d_off : ints; (* n+1: CSR over per-node host distances (and hosts) *)
  d_val : floats;
  zoom_first : ints; (* n *)
  zoom_rest : ints; (* n * dlevels *)
  z_off : ints; (* n * dlevels + 1 *)
  z_x : ints;
  z_y : ints;
  z_z : ints;
}

(* First index in [s, e) with zx.(i) >= x (entries sorted by (x, y)). *)
let rec z_lower (zx : ints) s e x =
  if s >= e then s
  else begin
    let mid = (s + e) / 2 in
    if ig zx mid < x then z_lower zx (mid + 1) e x else z_lower zx s mid x
  end

(* Exact (x, y) lookup in [s, e): the z value, or -1. *)
let rec z_find (zx : ints) (zy : ints) (zz : ints) s e x y =
  if s >= e then -1
  else begin
    let mid = (s + e) / 2 in
    let mx = ig zx mid in
    if mx < x || (mx = x && ig zy mid < y) then z_find zx zy zz (mid + 1) e x y
    else if mx = x && ig zy mid = y then ig zz mid
    else z_find zx zy zz s mid x y
  end

(* One candidate pair (iu, iv): fold (du + dv) into fbuf.(0); when
   [exclude >= 0], also track the lex-min (dv, host) beacon excluding that
   node — the Two_mode M1 selection. Mirrors [Dls.candidates]'s emit
   guard; both folds are order-independent, so scan order need not match
   the live candidate list order. *)
let[@inline] dls_emit fd (hosts : ints) sc ~exclude du0 dv0 ku kv iu iv =
  if iu < ku && iv < kv then begin
    let du = fg fd.d_val (du0 + iu) and dv = fg fd.d_val (dv0 + iv) in
    let s = du +. dv in
    if s < sc.fbuf.(0) then sc.fbuf.(0) <- s;
    if exclude >= 0 then begin
      let w = ig hosts (du0 + iu) in
      if w <> exclude && (dv < sc.fbuf.(1) || (dv = sc.fbuf.(1) && w < sc.best_w)) then begin
        sc.best_w <- w;
        sc.fbuf.(1) <- dv
      end
    end
  end

(* Stamp lb's (x = b) run of level-j entries into the y -> z scratch map
   (replacing the live walk's per-level Hashtbl). *)
let rec dls_fill fd sc gen i eb b =
  if i < eb && ig fd.z_x i = b then begin
    let y = ig fd.z_y i in
    sc.right_gen.(y) <- gen;
    sc.right_val.(y) <- ig fd.z_z i;
    dls_fill fd sc gen (i + 1) eb b
  end

(* Join la's (x = a) run against the stamped map, emitting each match. *)
let rec dls_join fd hosts sc ~exclude du0 dv0 ku kv flip gen i ea a =
  if i < ea && ig fd.z_x i = a then begin
    let y = ig fd.z_y i in
    if sc.right_gen.(y) = gen then begin
      let za = ig fd.z_z i and zb = sc.right_val.(y) in
      if flip then dls_emit fd hosts sc ~exclude du0 dv0 ku kv zb za
      else dls_emit fd hosts sc ~exclude du0 dv0 ku kv za zb
    end;
    dls_join fd hosts sc ~exclude du0 dv0 ku kv flip gen (i + 1) ea a
  end

(* The zoom walk of [Dls.walk_candidates] over the flat layout: emit the
   current (a, b) pair, join the two labels' level-j entry runs, then step
   both sides through the source's zoom label; the walk stops silently on
   a failed step, and the final emit fires only when every level stepped
   (j = levels is emit-only). [la]/[lb] are node ids; [flip] swaps the
   emitted pair — the live code's second, symmetric walk. *)
let rec dls_level fd hosts sc ~exclude du0 dv0 ku kv src la lb flip j a b =
  if flip then dls_emit fd hosts sc ~exclude du0 dv0 ku kv b a
  else dls_emit fd hosts sc ~exclude du0 dv0 ku kv a b;
  let levels = fd.dlevels in
  if j < levels then begin
    sc.gen <- sc.gen + 1;
    let gen = sc.gen in
    let sb = ig fd.z_off ((lb * levels) + j) and eb = ig fd.z_off ((lb * levels) + j + 1) in
    dls_fill fd sc gen (z_lower fd.z_x sb eb b) eb b;
    let sa = ig fd.z_off ((la * levels) + j) and ea = ig fd.z_off ((la * levels) + j + 1) in
    dls_join fd hosts sc ~exclude du0 dv0 ku kv flip gen (z_lower fd.z_x sa ea a) ea a;
    let y = ig fd.zoom_rest ((src * levels) + j) in
    let a' = z_find fd.z_x fd.z_y fd.z_z sa ea a y in
    if a' >= 0 then begin
      let b' = z_find fd.z_x fd.z_y fd.z_z sb eb b y in
      if b' >= 0 then
        dls_level fd hosts sc ~exclude du0 dv0 ku kv src la lb flip (j + 1) a' b'
    end
  end

let rec dls_prefix fd hosts sc ~exclude du0 dv0 ku kv k kmax =
  if k < kmax then begin
    dls_emit fd hosts sc ~exclude du0 dv0 ku kv k k;
    dls_prefix fd hosts sc ~exclude du0 dv0 ku kv (k + 1) kmax
  end

(* Candidate scan for the pair (u, v): after the call, fbuf.(0) holds
   min (du + dv) over common beacons (infinity if none) and — when
   [exclude >= 0] — best_w / fbuf.(1) hold the lex-min (dv, host) beacon.
   Matches folding [Dls.candidates]: the candidate multisets agree and
   both folds are order-independent (min / lex-min). *)
let dls_scan fd hosts sc ~u ~v ~exclude =
  sc.fbuf.(0) <- infinity;
  if exclude >= 0 then begin
    sc.fbuf.(1) <- infinity;
    sc.best_w <- -1
  end;
  let du0 = ig fd.d_off u and dv0 = ig fd.d_off v in
  let ku = ig fd.d_off (u + 1) - du0 and kv = ig fd.d_off (v + 1) - dv0 in
  dls_prefix fd hosts sc ~exclude du0 dv0 ku kv 0 fd.dprefix;
  let zv = ig fd.zoom_first v and zu = ig fd.zoom_first u in
  dls_level fd hosts sc ~exclude du0 dv0 ku kv v u v false 0 zv zv;
  dls_level fd hosts sc ~exclude du0 dv0 ku kv u v u true 0 zu zu

(* ---------------------------------------------------------- frozen views *)

type fbasic = {
  bn : int;
  bscales : int;
  bmax_hops : int;
  bhb : ints;
  blabel_first : ints;
  blabel_rest : ints; (* n * (scales - 1) *)
  benum_off : ints; (* n * scales + 1 *)
  benum_node : ints;
  bz_off : ints; (* n * (scales - 1) + 1 *)
  bz_x : ints;
  bz_y : ints;
  bz_z : ints;
  bt_off : ints; (* n + 1 *)
  bt_w : ints;
  bt_next : ints;
  bt_cost : floats;
}

type flab = {
  ln : int;
  lmax_hops : int;
  lhb : ints;
  lnbr_off : ints;
  lnbr : ints;
  lt_off : ints;
  lt_w : ints;
  lt_next : ints;
  lt_cost : floats;
  ldls : fdls;
}

type ftm = {
  tn : int;
  tli : int;
  tmax_hops : int;
  thb : int;
  tm1_threshold : float;
  thub_ptr : ints; (* n * li *)
  thub_g : ints; (* li * n; -1 where the node is no hub *)
  tdir_off : ints; (* dirs + 1 *)
  tdir_mem : ints;
  tdir_bnd : ints;
  town_off : ints; (* li * n + 1 *)
  town_tgt : ints;
  tr_level : floats; (* n * li *)
  tdmat : floats; (* n * n *)
  thosts : ints; (* parallel to the DLS d_val *)
  tdls : fdls;
}

type fmer = {
  mn : int;
  mscales : int;
  mmembers : ints;
  mr_off : ints; (* n * scales + 1 *)
  mr_node : ints;
  mdmat : floats; (* n * n *)
}

type flm = {
  gn : int;
  gk : int;
  gcol : ints;
  grows : floats; (* k * n row-major *)
  gball_off : ints;
  gball_node : ints;
  gball_dist : floats;
}

type view =
  | Basic of fbasic
  | Labelled of flab
  | Two_mode of ftm
  | Meridian of fmer
  | Landmark of flm

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
  | Basic b -> b.bn
  | Labelled l -> l.ln
  | Two_mode m -> m.tn
  | Meridian m -> m.mn
  | Landmark g -> g.gn

(* Source population for workloads: Meridian walks must start at members. *)
let sources t = match t.view with Meridian m -> Some m.mmembers | _ -> None

(* Warm the per-domain scratch to this server's bounds (call once per
   domain before the audited loop so steady-state queries never grow it). *)
let prepare_scratch t sc =
  match t.view with
  | Basic b -> ensure sc ~decode:(b.bscales + 1) ~virt:1 ~nodes:1
  | Labelled l -> ensure sc ~decode:1 ~virt:l.ldls.dmax_virt ~nodes:l.ldls.dn
  | Two_mode m -> ensure sc ~decode:1 ~virt:m.tdls.dmax_virt ~nodes:1
  | Meridian _ | Landmark _ -> ensure sc ~decode:1 ~virt:1 ~nodes:1

let scratch_for t =
  let sc = Domain.DLS.get scratch_key in
  prepare_scratch t sc;
  sc

(* ------------------------------------------------------------- freezing *)

let csr_off lens =
  let n = Array.length lens in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + lens.(i)
  done;
  off

let flat_ints (arrs : int array array) =
  let off = csr_off (Array.map Array.length arrs) in
  let data = Image.ints_create off.(Array.length arrs) in
  Array.iteri
    (fun i a -> Array.iteri (fun k v -> A1.unsafe_set data (off.(i) + k) v) a)
    arrs;
  (Image.ints_of_array off, data)

(* Flatten per-cell (x, y, z) triple arrays into a CSR offset array plus
   three parallel columns. *)
let flat_triples (segs : (int * int * int) array array) =
  let off = csr_off (Array.map Array.length segs) in
  let total = off.(Array.length segs) in
  let xs = Image.ints_create total
  and ys = Image.ints_create total
  and zs = Image.ints_create total in
  Array.iteri
    (fun s seg ->
      Array.iteri
        (fun k (x, y, z) ->
          A1.unsafe_set xs (off.(s) + k) x;
          A1.unsafe_set ys (off.(s) + k) y;
          A1.unsafe_set zs (off.(s) + k) z)
        seg)
    segs;
  (Image.ints_of_array off, xs, ys, zs)

(* Flatten per-node (w, next, cost) routing tables. *)
let flat_table (table : (int * int * float) array array) =
  let off = csr_off (Array.map Array.length table) in
  let total = off.(Array.length table) in
  let ws = Image.ints_create total and nexts = Image.ints_create total in
  let costs = Image.floats_create total in
  Array.iteri
    (fun u tbl ->
      Array.iteri
        (fun k (w, next, c) ->
          A1.unsafe_set ws (off.(u) + k) w;
          A1.unsafe_set nexts (off.(u) + k) next;
          A1.unsafe_set costs (off.(u) + k) c)
        tbl)
    table;
  (Image.ints_of_array off, ws, nexts, costs)

(* DLS pack: 8 int sections + 1 float section, appended in order:
   meta, d_off, zoom_first, zoom_rest, z_off, z_x, z_y, z_z | d_val. *)
let dls_isecs (e : Ron_labeling.Dls.export) =
  let open Ron_labeling.Dls in
  let n = e.x_n and levels = e.x_levels in
  let segs = Array.make (n * levels) [||] in
  Array.iteri
    (fun u per_u -> Array.iteri (fun j z -> segs.((u * levels) + j) <- z) per_u)
    e.x_zetas;
  let z_off, z_x, z_y, z_z = flat_triples segs in
  [
    Image.ints_of_array [| e.x_n; e.x_levels; e.x_prefix_len; e.x_max_virt |];
    Image.ints_of_array (csr_off (Array.map Array.length e.x_dists));
    Image.ints_of_array e.x_zoom_first;
    Image.ints_of_array (Array.concat (Array.to_list e.x_zoom_rest));
    z_off;
    z_x;
    z_y;
    z_z;
  ]

let dls_fsecs (e : Ron_labeling.Dls.export) =
  [ Image.floats_of_array (Array.concat (Array.to_list e.Ron_labeling.Dls.x_dists)) ]

let dls_of_secs (isecs : ints array) (fsecs : floats array) i0 f0 =
  let meta = isecs.(i0) in
  {
    dn = ig meta 0;
    dlevels = ig meta 1;
    dprefix = ig meta 2;
    dmax_virt = ig meta 3;
    d_off = isecs.(i0 + 1);
    d_val = fsecs.(f0);
    zoom_first = isecs.(i0 + 2);
    zoom_rest = isecs.(i0 + 3);
    z_off = isecs.(i0 + 4);
    z_x = isecs.(i0 + 5);
    z_y = isecs.(i0 + 6);
    z_z = isecs.(i0 + 7);
  }

(* The translation columns are adopted as they are: Basic builds them in
   this section layout. *)
let freeze_basic (e : Ron_routing.Basic.export) =
  let open Ron_routing.Basic in
  let n = e.x_n and scales = e.x_scales in
  let enum_segs = Array.make (n * scales) [||] in
  Array.iteri
    (fun u per_u -> Array.iteri (fun j a -> enum_segs.((u * scales) + j) <- a) per_u)
    e.x_enums;
  let enum_off, enum_node = flat_ints enum_segs in
  let t_off, t_w, t_next, t_cost = flat_table e.x_table in
  {
    Image.scheme = tag_basic;
    isecs =
      [|
        Image.ints_of_array [| n; scales; e.x_max_hops |];
        Image.ints_of_array e.x_header_bits;
        Image.ints_of_array e.x_label_first;
        Image.ints_of_array (Array.concat (Array.to_list e.x_label_rest));
        enum_off;
        enum_node;
        e.x_z_off;
        e.x_z_x;
        e.x_z_y;
        e.x_z_z;
        t_off;
        t_w;
        t_next;
      |];
    fsecs = [| t_cost |];
  }

let freeze_labelled (e : Ron_routing.Labelled.export) =
  let open Ron_routing.Labelled in
  let nbr_off, nbr = flat_ints e.x_nbrs in
  let t_off, t_w, t_next, t_cost = flat_table e.x_table in
  {
    Image.scheme = tag_labelled;
    isecs =
      Array.of_list
        ([
           Image.ints_of_array [| e.x_n; e.x_max_hops |];
           Image.ints_of_array e.x_header_bits;
           nbr_off;
           nbr;
           t_off;
           t_w;
           t_next;
         ]
        @ dls_isecs e.x_dls);
    fsecs = Array.of_list (t_cost :: dls_fsecs e.x_dls);
  }

let freeze_two_mode (e : Ron_routing.Two_mode.export) =
  let open Ron_routing.Two_mode in
  let n = e.x_n and li = e.x_li in
  let dir_off, dir_mem = flat_ints e.x_dir_members in
  let _, dir_bnd = flat_ints e.x_dir_boundaries in
  let own_segs = Array.make (li * n) [||] in
  Array.iteri
    (fun i per_u -> Array.iteri (fun u a -> own_segs.((i * n) + u) <- a) per_u)
    e.x_owned;
  let own_off, own_tgt = flat_ints own_segs in
  {
    Image.scheme = tag_two_mode;
    isecs =
      Array.of_list
        ([
           Image.ints_of_array [| n; li; e.x_max_hops; e.x_header_bits |];
           Image.ints_of_array (Array.concat (Array.to_list e.x_hub_ptr));
           Image.ints_of_array (Array.concat (Array.to_list e.x_hub_g));
           dir_off;
           dir_mem;
           dir_bnd;
           own_off;
           own_tgt;
           Image.ints_of_array
             (Array.concat (Array.to_list e.x_dls.Ron_labeling.Dls.x_hosts));
         ]
        @ dls_isecs e.x_dls);
    fsecs =
      Array.of_list
        ([
           Image.floats_of_array [| e.x_m1_threshold |];
           Image.floats_of_array (Array.concat (Array.to_list e.x_r_level));
           Image.floats_of_array e.x_dist;
         ]
        @ dls_fsecs e.x_dls);
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
  }

let freeze_landmark (e : Ron_labeling.Landmark.export) =
  let open Ron_labeling.Landmark in
  let k = Array.length e.x_beacons in
  let rows = Image.floats_create (k * e.x_n) in
  Array.iteri
    (fun i row -> Array.iteri (fun v d -> A1.unsafe_set rows ((i * e.x_n) + v) d) row)
    e.x_rows;
  {
    Image.scheme = tag_landmark;
    isecs =
      [|
        Image.ints_of_array [| e.x_n; k |];
        Image.ints_of_array e.x_beacons;
        Image.ints_of_array e.x_col;
        Image.ints_of_array e.x_ball_off;
        Image.ints_of_array e.x_ball_node;
      |];
    fsecs = [| rows; Image.floats_of_array e.x_ball_dist |];
  }

(* --------------------------------------------------------------- viewing *)

let of_image (img : Image.t) =
  let need ni nf what =
    if Array.length img.Image.isecs <> ni || Array.length img.Image.fsecs <> nf then
      Error
        (Printf.sprintf "%s image: expected %d int / %d float sections, got %d / %d" what
           ni nf
           (Array.length img.Image.isecs)
           (Array.length img.Image.fsecs))
    else Ok ()
  in
  let i = img.Image.isecs and f = img.Image.fsecs in
  match img.Image.scheme with
  | 1 -> (
    match need 13 1 "basic" with
    | Error e -> Error e
    | Ok () ->
      let meta = i.(0) in
      Ok
        {
          img;
          view =
            Basic
              {
                bn = ig meta 0;
                bscales = ig meta 1;
                bmax_hops = ig meta 2;
                bhb = i.(1);
                blabel_first = i.(2);
                blabel_rest = i.(3);
                benum_off = i.(4);
                benum_node = i.(5);
                bz_off = i.(6);
                bz_x = i.(7);
                bz_y = i.(8);
                bz_z = i.(9);
                bt_off = i.(10);
                bt_w = i.(11);
                bt_next = i.(12);
                bt_cost = f.(0);
              };
        })
  | 2 -> (
    match need 15 2 "labelled" with
    | Error e -> Error e
    | Ok () ->
      let meta = i.(0) in
      Ok
        {
          img;
          view =
            Labelled
              {
                ln = ig meta 0;
                lmax_hops = ig meta 1;
                lhb = i.(1);
                lnbr_off = i.(2);
                lnbr = i.(3);
                lt_off = i.(4);
                lt_w = i.(5);
                lt_next = i.(6);
                lt_cost = f.(0);
                ldls = dls_of_secs i f 7 1;
              };
        })
  | 3 -> (
    match need 17 4 "two_mode" with
    | Error e -> Error e
    | Ok () ->
      let meta = i.(0) in
      Ok
        {
          img;
          view =
            Two_mode
              {
                tn = ig meta 0;
                tli = ig meta 1;
                tmax_hops = ig meta 2;
                thb = ig meta 3;
                tm1_threshold = fg f.(0) 0;
                thub_ptr = i.(1);
                thub_g = i.(2);
                tdir_off = i.(3);
                tdir_mem = i.(4);
                tdir_bnd = i.(5);
                town_off = i.(6);
                town_tgt = i.(7);
                thosts = i.(8);
                tr_level = f.(1);
                tdmat = f.(2);
                tdls = dls_of_secs i f 9 3;
              };
        })
  | 4 -> (
    match need 4 1 "meridian" with
    | Error e -> Error e
    | Ok () ->
      let meta = i.(0) in
      Ok
        {
          img;
          view =
            Meridian
              {
                mn = ig meta 0;
                mscales = ig meta 1;
                mmembers = i.(1);
                mr_off = i.(2);
                mr_node = i.(3);
                mdmat = f.(0);
              };
        })
  | 5 -> (
    match need 5 2 "landmark" with
    | Error e -> Error e
    | Ok () ->
      let meta = i.(0) in
      Ok
        {
          img;
          view =
            Landmark
              {
                gn = ig meta 0;
                gk = ig meta 1;
                gcol = i.(2);
                grows = f.(0);
                gball_off = i.(3);
                gball_node = i.(4);
                gball_dist = f.(1);
              };
        })
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

(* ------------------------------------------------------------ Basic route *)

(* Index of [w] in the sorted CSR run [s, e) of [tw], or -1. *)
let rec tbl_find (tw : ints) s e w =
  if s >= e then -1
  else begin
    let mid = (s + e) / 2 in
    let mw = ig tw mid in
    if mw < w then tbl_find tw (mid + 1) e w
    else if mw = w then mid
    else tbl_find tw s mid w
  end

(* Append a visited node to the hop trace; counting continues past the
   buffer so the recorder can tell a truncated trace from a full one. *)
let[@inline] log_hop sc node =
  if sc.log_hops then begin
    if sc.hop_len < Array.length sc.hop_log then sc.hop_log.(sc.hop_len) <- node;
    sc.hop_len <- sc.hop_len + 1
  end

let[@inline] finish sc code hops aux =
  sc.r_outcome <- code;
  sc.r_hops <- hops;
  sc.r_aux <- aux

(* Walk dst's zooming label through u's translation maps level by level,
   exactly like [Zooming.decode_walk]; fills sc.m and returns jut, the
   last valid index. *)
let rec basic_walk fb sc ~u ~dst sm1 j mm =
  if j >= sm1 then j
  else begin
    let y = ig fb.blabel_rest ((dst * sm1) + j) in
    let s = ig fb.bz_off ((u * sm1) + j) and e = ig fb.bz_off ((u * sm1) + j + 1) in
    let z = z_find fb.bz_x fb.bz_y fb.bz_z s e mm y in
    if z < 0 then j
    else begin
      sc.m.(j + 1) <- z;
      basic_walk fb sc ~u ~dst sm1 (j + 1) z
    end
  end

let basic_decode fb sc ~u ~dst =
  let first = ig fb.blabel_first dst in
  sc.m.(0) <- first;
  basic_walk fb sc ~u ~dst (fb.bscales - 1) 0 first

(* [Scheme.simulate]'s Brent loop with the Basic header state reduced to
   its varying [level] field (-1 = None): per hop, cycle check first, then
   checkpoint refresh at power-of-two hop counts, then the step. *)
let rec basic_go fb sc ~dst ~hb node level saved_node saved_level power hops =
  if hops > 0 && node = saved_node && level = saved_level then
    finish sc code_cycled hops hb
  else begin
    let refresh = hops = power in
    let saved_node = if refresh then node else saved_node in
    let saved_level = if refresh then level else saved_level in
    let power = if refresh then 2 * power else power in
    if node = dst then finish sc code_delivered hops hb
    else begin
      let jut = basic_decode fb sc ~u:node ~dst in
      let j =
        if level = -1 then jut
        else if level > jut then failwith "Serve.basic: Claim 2.4(b) violated (j > j_ut)"
        else begin
          let w =
            ig fb.benum_node (ig fb.benum_off ((node * fb.bscales) + level) + sc.m.(level))
          in
          if w = node then jut (* node is the intermediate target: re-zoom *) else level
        end
      in
      let w = ig fb.benum_node (ig fb.benum_off ((node * fb.bscales) + j) + sc.m.(j)) in
      if w = node then
        failwith "Serve.basic: intermediate target equals current node (invariant broken)";
      let e = tbl_find fb.bt_w (ig fb.bt_off node) (ig fb.bt_off (node + 1)) w in
      if e < 0 then failwith "Serve.basic: no first-hop pointer to intermediate target";
      let next = ig fb.bt_next e in
      if next = node then finish sc code_self_forward hops hb
      else if hops >= fb.bmax_hops then finish sc code_truncated hops hb
      else begin
        sc.fbuf.(2) <- sc.fbuf.(2) +. fg fb.bt_cost e;
        log_hop sc next;
        basic_go fb sc ~dst ~hb next j saved_node saved_level power (hops + 1)
      end
    end
  end

let basic_route fb sc ~src ~dst =
  sc.fbuf.(2) <- 0.0;
  basic_go fb sc ~dst ~hb:(ig fb.bhb dst) src (-1) src (-1) 1 0

(* --------------------------------------------------------- Labelled route *)

let dummy_hosts : ints = Image.ints_create 0

(* score(v) = labeled estimate v -> dst, memoized per route; result in
   fbuf.(6). [Dls.estimate] short-circuits identical labels to 0; the
   finiteness test is [d -. d = 0.0], i.e. Float.is_finite inlined. *)
let lab_score fl sc ~dst v =
  if v = dst then sc.fbuf.(6) <- 0.0
  else if sc.memo_gen.(v) = sc.mgen then sc.fbuf.(6) <- sc.memo_d.(v)
  else begin
    dls_scan fl.ldls dummy_hosts sc ~u:v ~v:dst ~exclude:(-1);
    let d = sc.fbuf.(0) in
    if not (d -. d = 0.0) then
      failwith "Serve.labelled: no common beacon identified (Theorem 3.4 violated)";
    sc.memo_d.(v) <- d;
    sc.memo_gen.(v) <- sc.mgen;
    sc.fbuf.(6) <- d
  end

(* Select the neighbor of [u] minimizing (score, id) into sel_w/fbuf.(5). *)
let rec lab_select fl sc ~dst e e1 u =
  if e < e1 then begin
    let v = ig fl.lnbr e in
    if v <> u then begin
      lab_score fl sc ~dst v;
      let d = sc.fbuf.(6) in
      if d < sc.fbuf.(5) || (d = sc.fbuf.(5) && v < sc.sel_w) then begin
        sc.sel_w <- v;
        sc.fbuf.(5) <- d
      end
    end;
    lab_select fl sc ~dst (e + 1) e1 u
  end

let rec lab_go fl sc ~dst ~hb node inter saved_node saved_inter power hops =
  if hops > 0 && node = saved_node && inter = saved_inter then
    finish sc code_cycled hops hb
  else begin
    let refresh = hops = power in
    let saved_node = if refresh then node else saved_node in
    let saved_inter = if refresh then inter else saved_inter in
    let power = if refresh then 2 * power else power in
    if node = dst then finish sc code_delivered hops hb
    else begin
      let target =
        if inter = node then begin
          (* Re-select the intermediate target among node's neighbors. *)
          sc.fbuf.(5) <- infinity;
          sc.sel_w <- -1;
          lab_select fl sc ~dst (ig fl.lnbr_off node) (ig fl.lnbr_off (node + 1)) node;
          if sc.sel_w < 0 then failwith "Serve.labelled: no neighbors";
          sc.sel_w
        end
        else inter
      in
      let e = tbl_find fl.lt_w (ig fl.lt_off node) (ig fl.lt_off (node + 1)) target in
      if e < 0 then failwith "Serve.labelled: intermediate target is not a neighbor";
      let next = ig fl.lt_next e in
      if next = node then finish sc code_self_forward hops hb
      else if hops >= fl.lmax_hops then finish sc code_truncated hops hb
      else begin
        sc.fbuf.(2) <- sc.fbuf.(2) +. fg fl.lt_cost e;
        log_hop sc next;
        lab_go fl sc ~dst ~hb next target saved_node saved_inter power (hops + 1)
      end
    end
  end

let lab_route fl sc ~src ~dst =
  sc.fbuf.(2) <- 0.0;
  sc.mgen <- sc.mgen + 1;
  lab_go fl sc ~dst ~hb:(ig fl.lhb dst) src src src src 1 0

(* --------------------------------------------------------- Two_mode route *)

(* Mode encoding: 0 = M1, 2i = M2_hub i, 2i+1 = M2_owner i (i >= 1). *)

let rec tm_owned_find (tgt : ints) s e target =
  if s >= e then false
  else begin
    let mid = (s + e) / 2 in
    let mv = ig tgt mid in
    if mv < target then tm_owned_find tgt (mid + 1) e target
    else if mv = target then true
    else tm_owned_find tgt s mid target
  end

(* Largest index with boundaries <= target in the directory run at [s]. *)
let rec tm_dir_search fm s lo hi target =
  if lo >= hi then lo - 1
  else begin
    let mid = (lo + hi) / 2 in
    if ig fm.tdir_bnd (s + mid) <= target then tm_dir_search fm s (mid + 1) hi target
    else tm_dir_search fm s lo mid target
  end

(* [Two_mode.owner_of] over the flat directory [g]. *)
let tm_owner_of fm g target =
  let s = ig fm.tdir_off g and e = ig fm.tdir_off (g + 1) in
  let m = max 0 (tm_dir_search fm s 0 (e - s) target) in
  ig fm.tdir_mem (s + m)

(* The M2 resolution chain of [Two_mode.step] at node [u]: each function
   either writes (r_next, r_aux = next mode) and returns 1 (Forward) or
   recurses locally — the packet only leaves through an actual link. *)
let rec tm_resolve fm sc ~u ~dst i =
  if i < 1 then failwith "Serve.two_mode: ran out of directory scales";
  let hub = ig fm.thub_ptr ((u * fm.tli) + i) in
  if hub <> u then begin
    sc.r_next <- hub;
    sc.r_aux <- 2 * i;
    1
  end
  else tm_at_hub fm sc ~u ~dst i

and tm_at_hub fm sc ~u ~dst i =
  let g = ig fm.thub_g ((i * fm.tn) + u) in
  if g < 0 then failwith "Serve.two_mode: hub pointer does not name a hub";
  let owner = tm_owner_of fm g dst in
  if owner <> u then begin
    sc.r_next <- owner;
    sc.r_aux <- (2 * i) + 1;
    1
  end
  else tm_as_owner fm sc ~u ~dst i

and tm_as_owner fm sc ~u ~dst i =
  let s = ig fm.town_off ((i * fm.tn) + u) and e = ig fm.town_off ((i * fm.tn) + u + 1) in
  if tm_owned_find fm.town_tgt s e dst then begin
    sc.r_next <- dst;
    sc.r_aux <- 0;
    1
  end
  else if i <= 1 then failwith "Serve.two_mode: scale-1 directory must cover all targets"
  else tm_resolve fm sc ~u ~dst (i - 1)

(* [Two_mode.switch_scale]: deepest i >= 1 whose previous-scale radius
   still dominates the (4/3) d~ threshold in fbuf.(7). *)
let rec tm_switch fm sc ~u i best =
  if i > fm.tli - 1 then best
  else if fg fm.tr_level ((u * fm.tli) + i - 1) >= sc.fbuf.(7) then
    tm_switch fm sc ~u (i + 1) i
  else best

(* One [Two_mode.step] at [u]: 0 = Deliver, 1 = Forward via (r_next,
   r_aux = mode). *)
let tm_step fm sc ~u ~dst ~mode =
  if u = dst then 0
  else if mode = 0 then begin
    dls_scan fm.tdls fm.thosts sc ~u ~v:dst ~exclude:u;
    let d_est = sc.fbuf.(0) in
    if not (d_est -. d_est = 0.0) then
      failwith "Serve.two_mode: no common beacon identified (Theorem 3.4 violated)";
    if sc.best_w >= 0 && sc.fbuf.(1) <= d_est *. fm.tm1_threshold then begin
      sc.r_next <- sc.best_w;
      sc.r_aux <- 0;
      1
    end
    else begin
      sc.fbuf.(7) <- 4.0 /. 3.0 *. d_est;
      tm_resolve fm sc ~u ~dst (tm_switch fm sc ~u 1 1)
    end
  end
  else if mode land 1 = 0 then tm_at_hub fm sc ~u ~dst (mode / 2)
  else tm_as_owner fm sc ~u ~dst (mode / 2)

let rec tm_go fm sc ~dst node mode saved_node saved_mode power hops =
  if hops > 0 && node = saved_node && mode = saved_mode then
    finish sc code_cycled hops fm.thb
  else begin
    let refresh = hops = power in
    let saved_node = if refresh then node else saved_node in
    let saved_mode = if refresh then mode else saved_mode in
    let power = if refresh then 2 * power else power in
    if tm_step fm sc ~u:node ~dst ~mode = 0 then finish sc code_delivered hops fm.thb
    else begin
      let next = sc.r_next and mode' = sc.r_aux in
      if next = node then finish sc code_self_forward hops fm.thb
      else if hops >= fm.tmax_hops then finish sc code_truncated hops fm.thb
      else begin
        sc.fbuf.(2) <- sc.fbuf.(2) +. fg fm.tdmat ((node * fm.tn) + next);
        log_hop sc next;
        tm_go fm sc ~dst next mode' saved_node saved_mode power (hops + 1)
      end
    end
  end

let tm_route fm sc ~src ~dst =
  sc.fbuf.(2) <- 0.0;
  tm_go fm sc ~dst src 0 src 0 1 0

(* ------------------------------------------------- labeled dist estimates *)

(* The DLS estimate both label-based schemes expose as their distance
   query; [Dls.estimate] short-circuits identical labels to 0. Result in
   fbuf.(3) = fbuf.(4) (a point estimate, not an interval). [what] only
   selects the failure message. *)
let dls_estimate fd sc ~src ~dst ~what =
  if src = dst then begin
    sc.fbuf.(3) <- 0.0;
    sc.fbuf.(4) <- 0.0
  end
  else begin
    dls_scan fd dummy_hosts sc ~u:src ~v:dst ~exclude:(-1);
    let d = sc.fbuf.(0) in
    if not (d -. d = 0.0) then
      if what = 0 then
        failwith "Serve.labelled: no common beacon identified (Theorem 3.4 violated)"
      else failwith "Serve.two_mode: no common beacon identified (Theorem 3.4 violated)";
    sc.fbuf.(3) <- d;
    sc.fbuf.(4) <- d
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

(* -------------------------------------------------------- Landmark bounds *)

(* Index of [v] in the sorted ball run [s, e), or -1 (index-returning so
   the recursion stays float-free). *)
let rec lm_ball_idx (nodes : ints) s e v =
  if s >= e then -1
  else begin
    let mid = (s + e) / 2 in
    let x = ig nodes mid in
    if x < v then lm_ball_idx nodes (mid + 1) e v
    else if x = v then mid
    else lm_ball_idx nodes s mid v
  end

let rec lm_beacons g sc ~u ~v i =
  if i < g.gk then begin
    let da = fg g.grows ((i * g.gn) + u) and db = fg g.grows ((i * g.gn) + v) in
    let diff = Float.abs (da -. db) in
    if diff > sc.fbuf.(3) then sc.fbuf.(3) <- diff;
    if da +. db < sc.fbuf.(4) then sc.fbuf.(4) <- da +. db;
    lm_beacons g sc ~u ~v (i + 1)
  end

(* [Landmark.estimate]'s exact branch order: exact on self, exact inside
   the beacon ball, exact when either endpoint is a beacon, else the
   triangle bounds over all beacons. *)
let lm_estimate g sc ~u ~v =
  if u = v then begin
    sc.fbuf.(3) <- 0.0;
    sc.fbuf.(4) <- 0.0
  end
  else begin
    let bi = lm_ball_idx g.gball_node (ig g.gball_off u) (ig g.gball_off (u + 1)) v in
    if bi >= 0 then begin
      let d = fg g.gball_dist bi in
      sc.fbuf.(3) <- d;
      sc.fbuf.(4) <- d
    end
    else begin
      let cv = ig g.gcol v in
      if cv >= 0 then begin
        let d = fg g.grows ((cv * g.gn) + u) in
        sc.fbuf.(3) <- d;
        sc.fbuf.(4) <- d
      end
      else begin
        let cu = ig g.gcol u in
        if cu >= 0 then begin
          let d = fg g.grows ((cu * g.gn) + v) in
          sc.fbuf.(3) <- d;
          sc.fbuf.(4) <- d
        end
        else begin
          sc.fbuf.(3) <- 0.0;
          sc.fbuf.(4) <- infinity;
          lm_beacons g sc ~u ~v 0
        end
      end
    end
  end

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
  | Basic b -> basic_route b sc ~src ~dst
  | Labelled l ->
    if kind = 1 then dls_estimate l.ldls sc ~src ~dst ~what:0 else lab_route l sc ~src ~dst
  | Two_mode m ->
    if kind = 1 then dls_estimate m.tdls sc ~src ~dst ~what:1 else tm_route m sc ~src ~dst
  | Meridian m -> mer_locate m sc ~start:src ~target:dst
  | Landmark g -> lm_estimate g sc ~u:src ~v:dst
