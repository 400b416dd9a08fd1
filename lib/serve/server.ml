(* Frozen, off-heap query servers.

   [freeze_*] packs a constructed scheme's exported state into an
   {!Image.t} (Bigarray sections, int-indexed, string-free); [of_image]
   wraps the sections — zero-copy — into per-scheme flat views, and checks
   a Basic view's structure before serving it. Distance estimates call the
   schemes' own estimators ([Dls.scan], [Landmark.bounds]) on the mapped
   columns. The route and locate loops replicate [Scheme.simulate]'s Brent
   loop; each Basic hop is the live scheme's own ([Basic.target_level],
   [Basic.hop_entry]), Labelled hops use the shared first-hop lookup
   ([First_hop.find]), and the rest of the Labelled, Two_mode and Meridian
   steps replicate the live ones operation for operation, so frozen
   results are byte-identical to the live scheme's.

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

   fbuf slots: 0 meridian d; 1 meridian best_d; 2 route length; 3 lo;
   4 hi; 5 neighbor-selection best_d; 6 score result; 7 switch-scale
   threshold. The DLS decoder keeps its own state and results in [dls]. *)
type scratch = {
  mutable m : int array; (* decoded zooming sequence (Basic) *)
  dls : Ron_labeling.Dls.scratch;
  mutable memo_d : float array; (* Labelled per-route score memo *)
  mutable memo_gen : int array;
  mutable mgen : int;
  fbuf : float array;
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
        dls = Ron_labeling.Dls.new_scratch ();
        memo_d = [||];
        memo_gen = [||];
        mgen = 0;
        fbuf = Array.make 8 0.0;
        sel_w = -1;
        r_outcome = 0;
        r_hops = 0;
        r_next = 0;
        r_aux = 0;
        hop_log = Array.make 64 0;
        hop_len = 0;
        log_hops = false;
      })

let ensure sc ~decode ~nodes =
  if Array.length sc.m < decode then sc.m <- Array.make decode 0;
  if Array.length sc.memo_d < nodes then begin
    sc.memo_d <- Array.make nodes 0.0;
    sc.memo_gen <- Array.make nodes 0;
    sc.mgen <- 0
  end

(* ---------------------------------------------------------- frozen views *)

type flab = {
  ln : int;
  lmax_hops : int;
  lhb : ints;
  lnbr_off : ints;
  lnbr : ints;
  ltable : Ron_routing.First_hop.t;
  ldls : Ron_labeling.Dls.cols; (* no hosts column *)
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
  tdls : Ron_labeling.Dls.cols;
}

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
  | Labelled of flab
  | Two_mode of ftm
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
  | Labelled l -> l.ln
  | Two_mode m -> m.tn
  | Meridian m -> m.mn
  | Landmark g -> g.Ron_labeling.Landmark.n

(* Source population for workloads: Meridian walks must start at members. *)
let sources t = match t.view with Meridian m -> Some m.mmembers | _ -> None

(* Warm the per-domain scratch to this server's bounds (call once per
   domain before the audited loop so steady-state queries never grow it). *)
let prepare_scratch t sc =
  match t.view with
  | Basic b -> ensure sc ~decode:b.Basic.st.Structure.scales ~nodes:1
  | Labelled l ->
    ensure sc ~decode:1 ~nodes:l.ln;
    Ron_labeling.Dls.reserve sc.dls l.ldls
  | Two_mode m ->
    ensure sc ~decode:1 ~nodes:1;
    Ron_labeling.Dls.reserve sc.dls m.tdls
  | Meridian _ | Landmark _ -> ensure sc ~decode:1 ~nodes:1

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

(* DLS pack: 8 int sections + 1 float section, appended in order:
   meta, d_off, zoom_first, zoom_rest, z_off, z_x, z_y, z_z | d_val. The
   columns are adopted as they are: Dls builds them in this layout. *)
let dls_isecs (c : Ron_labeling.Dls.cols) =
  let open Ron_labeling.Dls in
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
        Ron_labeling.Dls.rows = ig meta 0;
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

(* Basic pack: 11 int sections + 1 float section, in order: meta (n,
   scales, max_hops, header bits), label_first, label_rest, ring_off,
   ring_node, z_run, z_y, z_z, t_off, t_w, t_next | t_cost. The columns are
   adopted as they are: Basic builds them in this layout. *)
let freeze_basic (c : Basic.cols) =
  let s = c.Basic.st and tb = c.Basic.table in
  let open Structure in
  {
    Image.scheme = tag_basic;
    isecs =
      [|
        Image.ints_of_array [| s.n; s.scales; c.max_hops; c.header_bits |];
        s.label_first;
        s.label_rest;
        s.ring_off;
        s.ring_node;
        s.z_run;
        s.z_y;
        s.z_z;
        tb.First_hop.t_off;
        tb.t_w;
        tb.t_next;
      |];
    fsecs = [| tb.t_cost |];
  }

let freeze_labelled (e : Ron_routing.Labelled.export) =
  let open Ron_routing.Labelled in
  let nbr_off, nbr = flat_ints e.x_nbrs in
  let tb = e.x_table in
  {
    Image.scheme = tag_labelled;
    isecs =
      Array.of_list
        ([
           Image.ints_of_array [| e.x_n; e.x_max_hops |];
           Image.ints_of_array e.x_header_bits;
           nbr_off;
           nbr;
           tb.First_hop.t_off;
           tb.t_w;
           tb.t_next;
         ]
        @ dls_isecs e.x_dls);
    fsecs = [| tb.t_cost; e.x_dls.Ron_labeling.Dls.d_val |];
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
           e.x_dls.Ron_labeling.Dls.hosts;
         ]
        @ dls_isecs e.x_dls);
    fsecs =
      [|
        Image.floats_of_array [| e.x_m1_threshold |];
        Image.floats_of_array (Array.concat (Array.to_list e.x_r_level));
        Image.floats_of_array e.x_dist;
        e.x_dls.Ron_labeling.Dls.d_val;
      |];
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

(* The landmark columns are adopted as they are. *)
let freeze_landmark (c : Ron_labeling.Landmark.cols) =
  let open Ron_labeling.Landmark in
  {
    Image.scheme = tag_landmark;
    isecs = [| Image.ints_of_array [| c.n; c.k |]; c.beacons; c.col; c.ball_off; c.ball_node |];
    fsecs = [| c.rows; c.ball_dist |];
  }

(* --------------------------------------------------------------- viewing *)

let ( let* ) = Result.bind

(* First index in [i, hi) failing [ok], or -1. *)
let rec find_bad ok i hi = if i >= hi then -1 else if ok i then find_bad ok (i + 1) hi else i

(* The Basic view's structural check, O(size), run before it serves. After
   it, every unchecked read of the route loop ([Structure.decode],
   [Structure.member], [First_hop.find] and the entry reads) is in bounds:
   lengths agree with the meta section, offsets run from 0 to their
   column's end, ids are nodes, each z of zeta_uj is a position in ring
   [(u, j + 1)], and each label's first index is in every ring 0. *)
let check_basic (c : Basic.cols) =
  let s = c.Basic.st and tb = c.Basic.table and dim = A1.dim in
  let n = s.Structure.n and scales = s.Structure.scales in
  let rest = dim s.Structure.label_rest in
  let bad sec fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "basic image: %s: %s" sec m)) fmt
  in
  let all check l = List.fold_left (fun r x -> Result.bind r (fun () -> check x)) (Ok ()) l in
  let length (sec, got, want) =
    if got = want then Ok () else bad sec "%d entries, expected %d" got want
  in
  let offsets (sec, (off : ints), last) =
    let k = dim off - 1 in
    if off.{0} = 0 && off.{k} = last && find_bad (fun i -> off.{i} <= off.{i + 1}) 0 k < 0
    then Ok ()
    else bad sec "offsets do not rise from 0 to %d" last
  in
  let in_range sec (a : ints) hi =
    match find_bad (fun i -> a.{i} >= 0 && a.{i} < hi) 0 (dim a) with
    | -1 -> Ok ()
    | i -> bad sec "entry %d is %d, outside [0, %d)" i a.{i} hi
  in
  (* Ring r = (u, j)'s rows span [z_run.{ring_off.{r}}, z_run.{ring_off.{r+1}}),
     and their z are positions in ring r + 1. *)
  let rec zetas r =
    if r >= n * scales then Ok ()
    else if r mod scales = scales - 1 then zetas (r + 1)
    else begin
      let size = s.ring_off.{r + 2} - s.ring_off.{r + 1} in
      let ok e = s.z_z.{e} >= 0 && s.z_z.{e} < size in
      match find_bad ok s.z_run.{s.ring_off.{r}} s.z_run.{s.ring_off.{r + 1}} with
      | -1 -> zetas (r + 1)
      | e ->
        bad "z_z" "entry %d is %d, outside ring %d of node %d" e s.z_z.{e}
          ((r mod scales) + 1) (r / scales)
    end
  in
  let* () =
    if n >= 1 && scales >= 1 && c.max_hops >= 0 && c.max_hops <= Basic.hop_budget n then Ok ()
    else
      bad "meta" "n %d, scales %d, max_hops %d (budget %d)" n scales c.max_hops
        (Basic.hop_budget n)
  in
  let* () =
    all length
      [
        ("label_first", dim s.label_first, n);
        ("ring_off", dim s.ring_off, rest + n + 1);
        ("z_run", dim s.z_run, dim s.ring_node + 1);
        ("z_z", dim s.z_z, dim s.z_y);
        ("t_off", dim tb.First_hop.t_off, n + 1);
        ("t_next", dim tb.t_next, dim tb.t_w);
        ("t_cost", dim tb.t_cost, dim tb.t_w);
      ]
  in
  (* n * (scales - 1), compared without overflow. *)
  let* () =
    if rest mod n = 0 && rest / n = scales - 1 then Ok ()
    else bad "label_rest" "%d entries, expected %d * %d" rest n (scales - 1)
  in
  let* () =
    all offsets
      [
        ("ring_off", s.ring_off, dim s.ring_node);
        ("z_run", s.z_run, dim s.z_y);
        ("t_off", tb.t_off, dim tb.t_w);
      ]
  in
  let* () =
    all
      (fun (sec, a) -> in_range sec a n)
      [ ("ring_node", s.ring_node); ("t_w", tb.t_w); ("t_next", tb.t_next) ]
  in
  let* () = zetas 0 in
  let* () = in_range "label_first" s.label_first (Structure.first_bound s) in
  let cost_ok e = Float.is_finite tb.t_cost.{e} && tb.t_cost.{e} >= 0.0 in
  match find_bad cost_ok 0 (dim tb.t_cost) with
  | -1 -> Ok ()
  | e -> bad "t_cost" "entry %d is %g, not a finite cost >= 0" e tb.t_cost.{e}

(* Every section count and meta length is checked before any meta read.
   The Basic view is checked structurally as well; the other views' offsets
   and node ids are trusted. *)
let of_image (img : Image.t) =
  let i = img.Image.isecs and f = img.Image.fsecs in
  let need ni nf what =
    if Array.length i <> ni || Array.length f <> nf then
      Error
        (Printf.sprintf "%s image: expected %d int / %d float sections, got %d / %d" what ni nf
           (Array.length i) (Array.length f))
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
    let* () = need 11 1 "basic" in
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
            z_y = i.(6);
            z_z = i.(7);
          };
        table = { First_hop.t_off = i.(8); t_w = i.(9); t_next = i.(10); t_cost = f.(0) };
        max_hops = ig meta 2;
        header_bits = ig meta 3;
      }
    in
    let* () = check_basic c in
    view (Basic c)
  | 2 ->
    let* () = need 15 2 "labelled" in
    let* meta = meta "labelled" 2 in
    let* ldls = dls_of_secs "labelled" i f 7 1 ~hosts:no_hosts in
    view
      (Labelled
         {
           ln = ig meta 0;
           lmax_hops = ig meta 1;
           lhb = i.(1);
           lnbr_off = i.(2);
           lnbr = i.(3);
           ltable = { First_hop.t_off = i.(4); t_w = i.(5); t_next = i.(6); t_cost = f.(0) };
           ldls;
         })
  | 3 ->
    let* () = need 17 4 "two_mode" in
    let* meta = meta "two_mode" 4 in
    let* () =
      if A1.dim f.(0) <> 1 then
        Error
          (Printf.sprintf "two_mode image: threshold section has %d entries, expected 1"
             (A1.dim f.(0)))
      else Ok ()
    in
    let* tdls = dls_of_secs "two_mode" i f 9 3 ~hosts:i.(8) in
    view
      (Two_mode
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
           tr_level = f.(1);
           tdmat = f.(2);
           tdls;
         })
  | 4 ->
    let* () = need 4 1 "meridian" in
    let* meta = meta "meridian" 2 in
    view
      (Meridian
         {
           mn = ig meta 0;
           mscales = ig meta 1;
           mmembers = i.(1);
           mr_off = i.(2);
           mr_node = i.(3);
           mdmat = f.(0);
         })
  | 5 ->
    let* () = need 5 2 "landmark" in
    let* meta = meta "landmark" 2 in
    view
      (Landmark
         {
           Ron_labeling.Landmark.n = ig meta 0;
           k = ig meta 1;
           beacons = i.(1);
           col = i.(2);
           rows = f.(0);
           ball_off = i.(3);
           ball_node = i.(4);
           ball_dist = f.(1);
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

(* [Scheme.simulate]'s Brent loop with the Basic header state reduced to
   its varying [level] field (-1 = None): per hop, cycle check first, then
   checkpoint refresh at power-of-two hop counts, then the step. *)
let rec basic_go (b : Basic.cols) sc ~dst ~hb node level saved_node saved_level power hops =
  if hops > 0 && node = saved_node && level = saved_level then
    finish sc code_cycled hops hb
  else begin
    let refresh = hops = power in
    let saved_node = if refresh then node else saved_node in
    let saved_level = if refresh then level else saved_level in
    let power = if refresh then 2 * power else power in
    if node = dst then finish sc code_delivered hops hb
    else begin
      let j = Basic.target_level b b.Basic.st dst sc.m node level in
      let e = Basic.hop_entry b node sc.m j in
      let next = ig b.Basic.table.First_hop.t_next e in
      if next = node then finish sc code_self_forward hops hb
      else if hops >= b.Basic.max_hops then finish sc code_truncated hops hb
      else begin
        sc.fbuf.(2) <- sc.fbuf.(2) +. fg b.Basic.table.First_hop.t_cost e;
        log_hop sc next;
        basic_go b sc ~dst ~hb next j saved_node saved_level power (hops + 1)
      end
    end
  end

let basic_route (b : Basic.cols) sc ~src ~dst =
  sc.fbuf.(2) <- 0.0;
  basic_go b sc ~dst ~hb:b.Basic.header_bits src (-1) src (-1) 1 0

(* --------------------------------------------------------- Labelled route *)

(* score(v) = labeled estimate v -> dst, memoized per route; result in
   fbuf.(6). [Dls.estimate] short-circuits identical labels to 0; the
   finiteness test is [d -. d = 0.0], i.e. Float.is_finite inlined. *)
let lab_score fl sc ~dst v =
  if v = dst then sc.fbuf.(6) <- 0.0
  else if sc.memo_gen.(v) = sc.mgen then sc.fbuf.(6) <- sc.memo_d.(v)
  else begin
    Ron_labeling.Dls.scan fl.ldls v fl.ldls dst sc.dls ~exclude:(-1);
    let d = (Ron_labeling.Dls.results sc.dls).(0) in
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
      let e = First_hop.find fl.ltable node target in
      if e < 0 then failwith "Serve.labelled: intermediate target is not a neighbor";
      let next = ig fl.ltable.First_hop.t_next e in
      if next = node then finish sc code_self_forward hops hb
      else if hops >= fl.lmax_hops then finish sc code_truncated hops hb
      else begin
        sc.fbuf.(2) <- sc.fbuf.(2) +. fg fl.ltable.First_hop.t_cost e;
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
    Ron_labeling.Dls.scan fm.tdls u fm.tdls dst sc.dls ~exclude:u;
    let acc = Ron_labeling.Dls.results sc.dls in
    let d_est = acc.(0) in
    if not (d_est -. d_est = 0.0) then
      failwith "Serve.two_mode: no common beacon identified (Theorem 3.4 violated)";
    let best = Ron_labeling.Dls.best_beacon sc.dls in
    if best >= 0 && acc.(1) <= d_est *. fm.tm1_threshold then begin
      sc.r_next <- best;
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
    Ron_labeling.Dls.scan fd src fd dst sc.dls ~exclude:(-1);
    let d = (Ron_labeling.Dls.results sc.dls).(0) in
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
  | Landmark g -> Ron_labeling.Landmark.bounds g sc.fbuf ~at:3 src dst
