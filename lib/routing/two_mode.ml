module Indexed = Ron_metric.Indexed
module Packing = Ron_metric.Packing
module Bits = Ron_util.Bits
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe

(* One M2 directory: a packing ball whose members collectively own direct
   links to every node of the enclosing ball B'. *)
type directory = {
  hub : int;
  members : int array; (* sorted ids of the packing ball B *)
  boundaries : int array; (* boundaries.(k): smallest target id owned by members.(k);
                             boundaries.(0) = 0; ids below boundaries.(k+1) belong to k *)
  owned : int array array; (* owned.(k): sorted ids of B' assigned to members.(k) *)
}

type t = {
  idx : Indexed.t;
  delta : float;
  m1_threshold : float;
  dls : Dls.t;
  li : int;
  dirs : directory array array; (* dirs.(i): all scale-i directories, i in 1..li-1 *)
  hub_dir : (int, int) Hashtbl.t array; (* hub_dir.(i): hub id -> index into dirs.(i) *)
  member_dir : int array array; (* member_dir.(i).(u) = directory index containing u, or -1 *)
  hub_ptr : int array array; (* hub_ptr.(u).(i) = hub of u's covering ball at scale i *)
  owned_lookup : (int, unit) Hashtbl.t array array; (* owned_lookup.(i).(u): u's owned targets *)
  mutable m2_switches : int;
}

let mode2_switches t = t.m2_switches
let reset_counters t = t.m2_switches <- 0

let build ?(m1_threshold = 1.0 /. 3.0) idx ~delta =
  if not (delta > 0.0 && delta <= 0.125) then
    invalid_arg "Two_mode.build: delta must be in (0, 1/8]";
  if not (m1_threshold > 0.0 && m1_threshold < 0.5) then
    invalid_arg "Two_mode.build: m1_threshold must be in (0, 1/2)";
  Ron_obs.Profile.phase "construct.two_mode" @@ fun () ->
  let n = Indexed.size idx in
  let tri = Triangulation.build idx ~delta in
  let dls = Dls.build tri in
  let li = Triangulation.levels tri in
  let dirs = Array.make (max 1 li) [||] in
  let hub_dir = Array.init (max 1 li) (fun _ -> Hashtbl.create 16) in
  let member_dir = Array.init (max 1 li) (fun _ -> Array.make n (-1)) in
  let owned_lookup = Array.init (max 1 li) (fun _ -> Array.init n (fun _ -> Hashtbl.create 1)) in
  (Ron_obs.Profile.phase "directories" @@ fun () ->
  for i = 1 to li - 1 do
    let packing = Triangulation.packing tri i in
    let make_directory b =
      let hub = b.Packing.center in
      let members = Array.copy b.Packing.members in
      Ron_util.Fsort.sort_ints members;
      let big_radius = Indexed.r_level idx hub (i - 1) in
      let big = Indexed.ball idx hub big_radius in
      Ron_util.Fsort.sort_ints big;
      let k = Array.length members in
      let total = Array.length big in
      let chunk = max 1 ((total + k - 1) / k) in
      let owned =
        Array.init k (fun m ->
            let lo = m * chunk in
            let hi = min total ((m + 1) * chunk) in
            if lo >= total then [||] else Array.sub big lo (hi - lo))
      in
      let boundaries =
        Array.init k (fun m -> if m = 0 then 0 else if m * chunk < total then big.(m * chunk) else n)
      in
      { hub; members; boundaries; owned }
    in
    (* Directories are independent (pure ball queries on the immutable
       index); build them in parallel. The registration pass below writes
       the shared lookup tables and stays serial. *)
    let ds = Pool.map make_directory (Packing.balls packing) in
    dirs.(i) <- ds;
    Array.iteri
      (fun di d ->
        Hashtbl.replace hub_dir.(i) d.hub di;
        Array.iteri
          (fun m v ->
            member_dir.(i).(v) <- di;
            Array.iter (fun tgt -> Hashtbl.replace owned_lookup.(i).(v) tgt ()) d.owned.(m))
          d.members)
      ds
  done);
  let hub_ptr =
    Ron_obs.Profile.phase "hub_ptrs" @@ fun () ->
    Pool.init n (fun u ->
        let ptr =
          Array.init (max 1 li) (fun i ->
              if i = 0 then u
              else (Packing.covering_ball (Triangulation.packing tri i) idx u).Packing.center)
        in
        if !Probe.on then Probe.table_node ();
        ptr)
  in
  { idx; delta; m1_threshold; dls; li; dirs; hub_dir; member_dir; hub_ptr; owned_lookup; m2_switches = 0 }

type mode = M1 | M2_hub of int | M2_owner of int

type header = { lt : Dls.label; target : int; mode : mode }

(* Scale for the M2 switch, from the label-only estimate d~ of d(u,t):
   the deepest i >= 1 whose previous-scale radius still dominates (4/3) d~
   (Lemma B.5's upper condition, conservatively with the overestimate). *)
let switch_scale t u d_est =
  let rec go i best =
    if i > t.li - 1 then best
    else if Indexed.r_level t.idx u (i - 1) >= 4.0 /. 3.0 *. d_est then go (i + 1) i
    else best
  in
  go 1 1

let owner_of dir target =
  (* Largest k with boundaries.(k) <= target. *)
  let k = Array.length dir.boundaries in
  let rec search lo hi =
    if lo >= hi then lo - 1
    else begin
      let mid = (lo + hi) / 2 in
      if dir.boundaries.(mid) <= target then search (mid + 1) hi else search lo mid
    end
  in
  let m = max 0 (search 0 k) in
  dir.members.(m)

let step t u (h : header) : header Scheme.action =
  if u = h.target then Deliver
  else begin
    (* Resolve the hub of u's covering ball at scale [i]. When u is its own
       hub (or its own owner) the lookup continues locally — the packet only
       leaves through an actual link, never to itself. Scale 1's directory
       spans the whole node set, so the recursion terminates. *)
    let rec resolve_scale i : header Scheme.action =
      if i < 1 then failwith "Two_mode.step: ran out of directory scales";
      let hub = t.hub_ptr.(u).(i) in
      if hub <> u then Forward (hub, { h with mode = M2_hub i })
      else at_hub i
    and at_hub i =
      match Hashtbl.find_opt t.hub_dir.(i) u with
      | None -> failwith "Two_mode.step: hub pointer does not name a hub"
      | Some di ->
        let owner = owner_of t.dirs.(i).(di) h.target in
        if owner <> u then Forward (owner, { h with mode = M2_owner i })
        else as_owner i
    and as_owner i =
      if Hashtbl.mem t.owned_lookup.(i).(u) h.target then Forward (h.target, { h with mode = M1 })
      else if i <= 1 then failwith "Two_mode.step: scale-1 directory must cover all targets"
      else resolve_scale (i - 1)
    in
    match h.mode with
    | M1 -> begin
      (* The decoder's estimate and its best identified beacon by
         proximity to the target, excluding u. *)
      let sc = Dls.scratch () in
      Dls.scan_labels (Dls.label t.dls u) h.lt sc ~exclude:u ~collect:false;
      let acc = Dls.results sc in
      let d_est = acc.(0) in
      if not (Float.is_finite d_est) then
        failwith "Two_mode.step: no common beacon identified (Theorem 3.4 violated)";
      let best = Dls.best_beacon sc in
      if best >= 0 && acc.(1) <= d_est *. t.m1_threshold then Forward (best, h)
      else begin
        (* Lemma B.5 territory: switch to mode M2. *)
        t.m2_switches <- t.m2_switches + 1;
        resolve_scale (switch_scale t u d_est)
      end
    end
    | M2_hub i -> at_hub i
    | M2_owner i -> as_owner i
  end

let header_bits t =
  let n = Indexed.size t.idx in
  Array.fold_left max 0 (Dls.label_bits t.dls)
  + Bits.index_bits n (* target id *)
  + 2 (* mode tag *)
  + Bits.index_bits (t.li + 1)

(* Ranked fallback forwards for the fault layer. Every alternate uses a
   link the node's M1/M2 tables already hold:
   - in M1, the other identified beacons (ranked by proximity to the
     target, the primary selection's own score);
   - at a hub (M2_hub i), the other members of the scale-i directory sent
     as provisional owners — safe for i >= 2 because a non-owner falls
     through [as_owner] to [resolve_scale (i-1)]; at scale 1 only the true
     owner may receive [M2_owner 1] (anyone else would violate the
     directory invariant), so there is no in-directory alternate;
   - as an owner (M2_owner i), the coarser hub pointers below the scale the
     primary resolution would use. *)
let alternates t u (h : header) =
  if u = h.target then []
  else begin
    let hub_chain below =
      let acc = ref [] in
      for i = 1 to min below (t.li - 1) do
        let hub = t.hub_ptr.(u).(i) in
        if hub <> u then acc := (hub, { h with mode = M2_hub i }) :: !acc
      done;
      !acc (* built 1..below with prepends, so coarser scales come first *)
    in
    let dedupe l =
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (next, _) ->
          if next = u || Hashtbl.mem seen next then false
          else begin
            Hashtbl.replace seen next ();
            true
          end)
        l
    in
    match h.mode with
    | M1 ->
      let sc = Dls.scratch () in
      Dls.scan_labels (Dls.label t.dls u) h.lt sc ~exclude:u ~collect:true;
      let ranked =
        List.sort
          (fun (dv1, w1) (dv2, w2) ->
            match Float.compare dv1 dv2 with 0 -> compare w1 w2 | c -> c)
          (Dls.candidates sc)
      in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | (_, w) :: rest -> (w, h) :: take (k - 1) rest
      in
      dedupe (take 4 ranked @ hub_chain (t.li - 1))
    | M2_hub i -> (
      match Hashtbl.find_opt t.hub_dir.(i) u with
      | None -> dedupe (hub_chain (i - 1))
      | Some di ->
        let dir = t.dirs.(i).(di) in
        let owner = owner_of dir h.target in
        let members =
          if i >= 2 then
            List.filter_map
              (fun v -> if v = owner then None else Some (v, { h with mode = M2_owner i }))
              (Array.to_list dir.members)
          else []
        in
        dedupe (members @ hub_chain (i - 1)))
    | M2_owner i -> dedupe (hub_chain (i - 1))
  end

let route_wrapped (w : Scheme.wrapper) t ~src ~dst =
  let hb = header_bits t in
  Scheme.simulate ~detect_cycles:w.Scheme.detect_cycles
    ~dist:(fun a b -> Indexed.dist t.idx a b)
    ~step:(w.Scheme.wrap (step t) ~alternates:(alternates t))
    ~header_bits:(fun _ -> hb)
    ~src
    ~header:{ lt = Dls.label t.dls dst; target = dst; mode = M1 }
    ~max_hops:(max 64 (8 * t.li)) ()

let route t ~src ~dst = route_wrapped Scheme.identity_wrapper t ~src ~dst
let estimate t u v = Dls.estimate (Dls.label t.dls u) (Dls.label t.dls v)

let table_bits_m1 t =
  let n = Indexed.size t.idx in
  let id_bits = Bits.index_bits n in
  let lb = Dls.label_bits t.dls in
  Array.init n (fun u -> lb.(u) + (Array.length (Dls.host_beacons t.dls u) * id_bits))

let table_bits_m2 t =
  let n = Indexed.size t.idx in
  let id_bits = Bits.index_bits n in
  Array.init n (fun u ->
      let acc = ref ((t.li - 1) * id_bits) (* hub pointers *) in
      for i = 1 to t.li - 1 do
        (match Hashtbl.find_opt t.hub_dir.(i) u with
        | Some di ->
          let d = t.dirs.(i).(di) in
          acc := !acc + (Array.length d.boundaries * id_bits) (* range directory *)
                 + (Array.length d.members * id_bits) (* links to members *)
        | None -> ());
        acc := !acc + (Hashtbl.length t.owned_lookup.(i).(u) * id_bits) (* owned routes *)
      done;
      !acc)

let out_degree t =
  let n = Indexed.size t.idx in
  let best = ref 0 in
  for u = 0 to n - 1 do
    let links = Hashtbl.create 64 in
    Array.iter (fun v -> if v <> u then Hashtbl.replace links v ()) (Dls.host_beacons t.dls u);
    for i = 1 to t.li - 1 do
      if t.hub_ptr.(u).(i) <> u then Hashtbl.replace links t.hub_ptr.(u).(i) ();
      (match Hashtbl.find_opt t.hub_dir.(i) u with
      | Some di -> Array.iter (fun v -> if v <> u then Hashtbl.replace links v ()) t.dirs.(i).(di).members
      | None -> ());
      Hashtbl.iter (fun v () -> if v <> u then Hashtbl.replace links v ()) t.owned_lookup.(i).(u)
    done;
    best := max !best (Hashtbl.length links)
  done;
  !best

(* ----------------------------------------------------------------- Export *)

type export = {
  x_n : int;
  x_li : int;
  x_max_hops : int;
  x_header_bits : int;
  x_m1_threshold : float;
  x_r_level : float array array;
  x_hub_ptr : int array array;
  x_hub_g : int array array;
  x_dir_members : int array array;
  x_dir_boundaries : int array array;
  x_owned : int array array array;
  x_dist : float array;
  x_dls : Dls.cols;
}

let export t =
  let n = Indexed.size t.idx in
  let li = max 1 t.li in
  let gcount = Array.fold_left (fun acc ds -> acc + Array.length ds) 0 t.dirs in
  let dir_members = Array.make (max 1 gcount) [||] in
  let dir_boundaries = Array.make (max 1 gcount) [||] in
  let hub_g = Array.init li (fun _ -> Array.make n (-1)) in
  let g = ref 0 in
  Array.iteri
    (fun i ds ->
      Array.iter
        (fun d ->
          dir_members.(!g) <- d.members;
          dir_boundaries.(!g) <- d.boundaries;
          hub_g.(i).(d.hub) <- !g;
          incr g)
        ds)
    t.dirs;
  let dist = Array.make (n * n) 0.0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      dist.((u * n) + v) <- Indexed.dist t.idx u v
    done
  done;
  {
    x_n = n;
    x_li = li;
    x_max_hops = max 64 (8 * t.li);
    x_header_bits = header_bits t;
    x_m1_threshold = t.m1_threshold;
    x_r_level = Array.init n (fun u -> Array.init li (fun i -> Indexed.r_level t.idx u i));
    x_hub_ptr = t.hub_ptr;
    x_hub_g = hub_g;
    x_dir_members = Array.sub dir_members 0 gcount;
    x_dir_boundaries = Array.sub dir_boundaries 0 gcount;
    x_owned =
      Array.init li (fun i ->
          Array.init n (fun u ->
              let a =
                Array.of_list
                  (Hashtbl.fold (fun k () acc -> k :: acc) t.owned_lookup.(i).(u) [])
              in
              Ron_util.Fsort.sort_ints a;
              a));
    x_dist = dist;
    x_dls = Dls.export t.dls;
  }
