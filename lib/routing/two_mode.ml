module Indexed = Ron_metric.Indexed
module Packing = Ron_metric.Packing
module Bits = Ron_util.Bits
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module A1 = Bigarray.Array1

type ints = Dls.ints
type floats = Dls.floats

let[@inline always] ig (a : ints) i = A1.unsafe_get a i
let[@inline always] fg (a : floats) i = A1.unsafe_get a i

type cols = {
  n : int;
  li : int;
  max_hops : int;
  header_bits : int;
  m1_threshold : float;
  hub_ptr : ints;
  hub_g : ints;
  dir_off : ints;
  dir_mem : ints;
  dir_bnd : ints;
  own_off : ints;
  own_tgt : ints;
  r_level : floats;
  dist : floats;
  dls : Dls.cols;
}

(* [levels] is the hierarchy's own level count, which the accounting and
   the header charge; [cols.li] is [max 1 levels]. Switches are counted
   atomically, so routes may run on any number of domains. *)
type t = { idx : Indexed.t; dls : Dls.t; levels : int; cols : cols; switches : int Atomic.t }

let mode2_switches t = Atomic.get t.switches
let reset_counters t = Atomic.set t.switches 0
let hop_budget li = max 64 (8 * li)
let export t = t.cols

let ints_of_array = A1.of_array Bigarray.int Bigarray.c_layout

let csr rows =
  let off = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun i r -> off.(i + 1) <- off.(i) + Array.length r) rows;
  (ints_of_array off, ints_of_array (Array.concat (Array.to_list rows)))

(* One M2 directory of scale [i]: the packing ball's hub, its members
   (sorted), and their shares of B' = B_(hub, r_(i-1)) — equal runs of its
   sorted ids, member k owning from boundary k up to the next. *)
let directory idx ~n i (b : Packing.ball) =
  let members = Array.copy b.Packing.members in
  Ron_util.Fsort.sort_ints members;
  let hub = b.Packing.center in
  let big = Indexed.ball idx hub (Indexed.r_level idx hub (i - 1)) in
  Ron_util.Fsort.sort_ints big;
  let k = Array.length members and total = Array.length big in
  let chunk = max 1 ((total + k - 1) / k) in
  let owned m =
    let lo = min total (m * chunk) in
    Array.sub big lo (min total ((m + 1) * chunk) - lo)
  in
  let boundary m = if m = 0 then 0 else if m * chunk < total then big.(m * chunk) else n in
  (hub, members, Array.init k boundary, Array.init k owned)

let build ?(m1_threshold = 1.0 /. 3.0) idx ~delta =
  if not (delta > 0.0 && delta <= 0.125) then
    invalid_arg "Two_mode.build: delta must be in (0, 1/8]";
  if not (m1_threshold > 0.0 && m1_threshold < 0.5) then
    invalid_arg "Two_mode.build: m1_threshold must be in (0, 1/2)";
  Ron_obs.Profile.phase "construct.two_mode" @@ fun () ->
  let n = Indexed.size idx in
  let tri = Triangulation.build idx ~delta in
  let dls = Dls.build tri in
  let levels = Triangulation.levels tri in
  let li = max 1 levels in
  let dir_off, dir_mem, dir_bnd, hub_g, own_off, own_tgt =
    Ron_obs.Profile.phase "directories" @@ fun () ->
    (* Directories are independent (pure ball queries on the immutable
       index); build them in parallel, then number them scale by scale. *)
    let dirs =
      Array.init li (fun i ->
          if i = 0 then [||]
          else Pool.map (directory idx ~n i) (Packing.balls (Triangulation.packing tri i)))
    in
    let all = Array.concat (Array.to_list dirs) in
    let dir_off, dir_mem = csr (Array.map (fun (_, members, _, _) -> members) all) in
    let _, dir_bnd = csr (Array.map (fun (_, _, boundaries, _) -> boundaries) all) in
    let hub_g = Array.make (li * n) (-1) and owned = Array.make (li * n) [||] in
    let g = ref 0 in
    Array.iteri
      (fun i ds ->
        Array.iter
          (fun (hub, members, _, shares) ->
            hub_g.((i * n) + hub) <- !g;
            (* Packing balls are disjoint: a node owns one share per scale. *)
            Array.iteri (fun k v -> owned.((i * n) + v) <- shares.(k)) members;
            incr g)
          ds)
      dirs;
    let own_off, own_tgt = csr owned in
    (dir_off, dir_mem, dir_bnd, ints_of_array hub_g, own_off, own_tgt)
  in
  let hub_ptr =
    Ron_obs.Profile.phase "hub_ptrs" @@ fun () ->
    Pool.init n (fun u ->
        let ptr =
          Array.init li (fun i ->
              if i = 0 then u
              else (Packing.covering_ball (Triangulation.packing tri i) idx u).Packing.center)
        in
        if !Probe.on then Probe.table_node ();
        ptr)
  in
  let floats_init k f = A1.init Bigarray.float64 Bigarray.c_layout k f in
  let cols =
    {
      n;
      li;
      max_hops = hop_budget levels;
      header_bits =
        Array.fold_left max 0 (Dls.label_bits dls)
        + Bits.index_bits n (* target id *)
        + 2 (* mode tag *)
        + Bits.index_bits (levels + 1);
      m1_threshold;
      hub_ptr = ints_of_array (Array.concat (Array.to_list hub_ptr));
      hub_g;
      dir_off;
      dir_mem;
      dir_bnd;
      own_off;
      own_tgt;
      r_level = floats_init (n * li) (fun k -> Indexed.r_level idx (k / li) (k mod li));
      dist = floats_init (n * n) (fun k -> Indexed.dist idx (k / n) (k mod n));
      dls = Dls.export dls;
    }
  in
  { idx; dls; levels; cols; switches = Atomic.make 0 }

(* ---------------------------------------------------------------- The hop *)

(* A forward from [u] to [next] in [mode], at the distance column's cost. *)
let[@inline] forward c (r : Scheme.regs) u next mode code =
  r.next <- next;
  r.state <- mode;
  r.link.(0) <- fg c.dist ((u * c.n) + next);
  code

(* Largest k in [lo, hi) with dir_bnd.{s + k} <= target, or lo - 1. *)
let rec bnd_search c s lo hi target =
  if lo >= hi then lo - 1
  else begin
    let mid = (lo + hi) / 2 in
    if ig c.dir_bnd (s + mid) <= target then bnd_search c s (mid + 1) hi target
    else bnd_search c s lo mid target
  end

(* The member of directory [g] whose share holds [target]. *)
let owner c g target =
  let s = ig c.dir_off g in
  ig c.dir_mem (s + max 0 (bnd_search c s 0 (ig c.dir_off (g + 1) - s) target))

let rec owned_find (tgt : ints) s e target =
  if s >= e then false
  else begin
    let mid = (s + e) / 2 in
    let v = ig tgt mid in
    if v < target then owned_find tgt (mid + 1) e target
    else v = target || owned_find tgt s mid target
  end

let owns c i u target =
  let k = (i * c.n) + u in
  owned_find c.own_tgt (ig c.own_off k) (ig c.own_off (k + 1)) target

(* The M2 resolution at [u] for scale [i]: leave for the hub of u's
   covering ball, at the hub for the target's owner, at the owner for the
   target. When [u] plays the next role itself the lookup continues
   locally — the packet only leaves through an actual link. Scale 1's
   directory spans the whole node set, so the recursion terminates. *)
let rec resolve c r ~dst ~code u i =
  if i < 1 || i >= c.li then failwith "Two_mode: ran out of directory scales";
  let hub = ig c.hub_ptr ((u * c.li) + i) in
  if hub <> u then forward c r u hub (2 * i) code else at_hub c r ~dst ~code u i

and at_hub c r ~dst ~code u i =
  let g = ig c.hub_g ((i * c.n) + u) in
  if g < 0 then failwith "Two_mode: hub pointer does not name a hub";
  let owner = owner c g dst in
  if owner <> u then forward c r u owner ((2 * i) + 1) code else as_owner c r ~dst ~code u i

and as_owner c r ~dst ~code u i =
  if owns c i u dst then forward c r u dst 0 code
  else if i <= 1 then failwith "Two_mode: scale-1 directory must cover all targets"
  else resolve c r ~dst ~code u (i - 1)

(* Scale for the M2 switch, from the label-only estimate d~ = acc.(0) of
   d(u,t): the deepest i >= 1 whose previous-scale radius still dominates
   (4/3) d~ (Lemma B.5's upper condition, conservatively with the
   overestimate). *)
let rec switch_scale c (acc : float array) u i best =
  if i > c.li - 1 then best
  else if fg c.r_level ((u * c.li) + i - 1) >= 4.0 /. 3.0 *. acc.(0) then
    switch_scale c acc u (i + 1) i
  else best

let hop (c : cols) sc (r : Scheme.regs) u mode =
  let dst = r.target in
  if u = dst then Scheme.deliver
  else if mode = 0 then begin
    (* The decoder's estimate and its best identified beacon by proximity
       to the target, excluding u. *)
    Dls.scan c.dls u c.dls dst sc ~exclude:u;
    let acc = Dls.results sc in
    let d_est = acc.(0) in
    if not (d_est -. d_est = 0.0) then
      failwith "Two_mode: no common beacon identified (Theorem 3.4 violated)";
    let best = Dls.best_beacon sc in
    if best >= 0 && acc.(1) <= d_est *. c.m1_threshold then forward c r u best 0 Scheme.forward
    else (* Lemma B.5 territory: switch to mode M2. *)
      resolve c r ~dst ~code:Scheme.rewrite u (switch_scale c acc u 1 1)
  end
  else if mode land 1 = 0 then at_hub c r ~dst ~code:Scheme.forward u (mode / 2)
  else as_owner c r ~dst ~code:Scheme.forward u (mode / 2)

(* ---------------------------------------------------------- Live routes *)

(* Ranked fallback forwards for the fault layer. Every alternate uses a
   link the node's M1/M2 tables already hold:
   - in M1, the other identified beacons (ranked by proximity to the
     target, the primary selection's own score);
   - at a scale-i hub, the other members of its directory sent as
     provisional owners — safe for i >= 2 because a non-owner falls
     through [as_owner] to [resolve (i-1)]; at scale 1 only the true owner
     may be sent as an owner (anyone else would violate the directory
     invariant), so there is no in-directory alternate;
   - as an owner, the coarser hub pointers below the scale the primary
     resolution would use. *)
let alternates t sc ~dst u mode =
  if u = dst then []
  else begin
    let c = t.cols in
    let link v state = (v, state, fg c.dist ((u * c.n) + v)) in
    let hub_chain below =
      let acc = ref [] in
      for i = 1 to min below (c.li - 1) do
        let hub = ig c.hub_ptr ((u * c.li) + i) in
        if hub <> u then acc := link hub (2 * i) :: !acc
      done;
      !acc (* built 1..below with prepends, so coarser scales come first *)
    in
    let dedupe l =
      List.rev
        (List.fold_left
           (fun acc ((next, _, _) as a) ->
             if next = u || List.exists (fun (v, _, _) -> v = next) acc then acc else a :: acc)
           [] l)
    in
    let i = mode / 2 in
    if mode = 0 then begin
      Dls.scan_labels (Dls.label t.dls u) (Dls.label t.dls dst) sc ~exclude:u ~collect:true;
      let ranked = List.sort compare (Dls.candidates sc) in
      let best4 = List.filteri (fun k _ -> k < 4) ranked in
      dedupe (List.map (fun (_, w) -> link w 0) best4 @ hub_chain (c.li - 1))
    end
    else if mode land 1 = 1 then dedupe (hub_chain (i - 1))
    else
      match ig c.hub_g ((i * c.n) + u) with
      | -1 -> dedupe (hub_chain (i - 1))
      | g ->
        let owner = owner c g dst in
        let s = ig c.dir_off g in
        let members =
          if i < 2 then []
          else
            List.filter_map
              (fun k ->
                let v = ig c.dir_mem (s + k) in
                if v = owner then None else Some (link v ((2 * i) + 1)))
              (List.init (ig c.dir_off (g + 1) - s) Fun.id)
        in
        dedupe (members @ hub_chain (i - 1))
  end

let route_wrapped (w : Scheme.wrapper) t ~src ~dst =
  let c = t.cols in
  let sc = Dls.scratch () and r = Scheme.live () in
  Scheme.route ~wrapper:w ~alternates:(alternates t sc ~dst) r ~header_bits:c.header_bits
    ~max_hops:c.max_hops ~src ~dst 0 (fun u mode ->
      let code = hop c sc r u mode in
      if code = Scheme.rewrite then Atomic.incr t.switches;
      code)
  |> Scheme.charge_dist

let route t ~src ~dst = route_wrapped Scheme.identity_wrapper t ~src ~dst
let estimate t u v = Dls.estimate (Dls.label t.dls u) (Dls.label t.dls v)

(* -------------------------------------------------------------- Accounting *)

let header_bits t = t.cols.header_bits

let table_bits_m1 t =
  let n = t.cols.n in
  let id_bits = Bits.index_bits n in
  let lb = Dls.label_bits t.dls in
  Array.init n (fun u -> lb.(u) + (Array.length (Dls.host_beacons t.dls u) * id_bits))

let dir_size c g = ig c.dir_off (g + 1) - ig c.dir_off g
let owned_count c i u = ig c.own_off ((i * c.n) + u + 1) - ig c.own_off ((i * c.n) + u)

let table_bits_m2 t =
  let c = t.cols in
  let id_bits = Bits.index_bits c.n in
  Array.init c.n (fun u ->
      let acc = ref ((t.levels - 1) * id_bits) (* hub pointers *) in
      for i = 1 to t.levels - 1 do
        (match ig c.hub_g ((i * c.n) + u) with
        | -1 -> ()
        | g -> acc := !acc + (2 * dir_size c g * id_bits) (* range directory + member links *));
        acc := !acc + (owned_count c i u * id_bits) (* owned routes *)
      done;
      !acc)

let out_degree t =
  let c = t.cols in
  (* stamp.(v) = u once v is counted among u's links. *)
  let stamp = Array.make c.n (-1) and best = ref 0 in
  for u = 0 to c.n - 1 do
    let links = ref 0 in
    let link v =
      if v <> u && stamp.(v) <> u then begin
        stamp.(v) <- u;
        incr links
      end
    in
    let run off ids k =
      for e = ig off k to ig off (k + 1) - 1 do
        link (ig ids e)
      done
    in
    Array.iter link (Dls.host_beacons t.dls u);
    for i = 1 to t.levels - 1 do
      link (ig c.hub_ptr ((u * c.li) + i));
      (match ig c.hub_g ((i * c.n) + u) with -1 -> () | g -> run c.dir_off c.dir_mem g);
      run c.own_off c.own_tgt ((i * c.n) + u)
    done;
    best := max !best !links
  done;
  !best

let overlay_row c u =
  let hubbed i =
    match ig c.hub_g ((i * c.n) + u) with
    | -1 -> [||]
    | g -> Array.init (dir_size c g) (fun k -> ig c.dir_mem (ig c.dir_off g + k))
  in
  Array.concat (Array.init c.li (fun i -> ig c.hub_ptr ((u * c.li) + i)) :: List.init c.li hubbed)
