(* Theorem 4.2's two-mode scheme as first written, kept as a test oracle:
   directories are records looked up through Hashtbls, and the step reads
   the target's label and a mode variant. It shares no routing code with
   Two_mode's columns or hop, so the columns and the hop can be checked
   against it; only the route loop ([Scheme.route]) is common. Everything
   here runs on one domain. *)

module Indexed = Ron_metric.Indexed
module Packing = Ron_metric.Packing
module Bits = Ron_util.Bits
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls
module Scheme = Ron_routing.Scheme

(* One M2 directory: a packing ball whose members collectively own direct
   links to every node of the enclosing ball B'. *)
type directory = {
  hub : int;
  members : int array; (* sorted ids of the packing ball B *)
  boundaries : int array; (* boundaries.(k): smallest target id owned by members.(k) *)
  owned : int array array; (* owned.(k): sorted ids of B' assigned to members.(k) *)
}

type t = {
  idx : Indexed.t;
  m1_threshold : float;
  dls : Dls.t;
  li : int;
  dirs : directory array array; (* dirs.(i): all scale-i directories *)
  hub_dir : (int, int) Hashtbl.t array; (* hub id -> index into dirs.(i) *)
  hub_ptr : int array array; (* hub_ptr.(u).(i): hub of u's covering ball *)
  owned_lookup : (int, unit) Hashtbl.t array array; (* .(i).(u): u's owned targets *)
  mutable switches : int;
}

let build ?(m1_threshold = 1.0 /. 3.0) idx ~delta =
  let n = Indexed.size idx in
  let tri = Triangulation.build idx ~delta in
  let dls = Dls.build tri in
  let li = Triangulation.levels tri in
  let dirs = Array.make (max 1 li) [||] in
  let hub_dir = Array.init (max 1 li) (fun _ -> Hashtbl.create 16) in
  let owned_lookup = Array.init (max 1 li) (fun _ -> Array.init n (fun _ -> Hashtbl.create 1)) in
  for i = 1 to li - 1 do
    let make_directory b =
      let hub = b.Packing.center in
      let members = Array.copy b.Packing.members in
      Array.sort compare members;
      let big = Indexed.ball idx hub (Indexed.r_level idx hub (i - 1)) in
      Array.sort compare big;
      let k = Array.length members and total = Array.length big in
      let chunk = max 1 ((total + k - 1) / k) in
      let owned =
        Array.init k (fun m ->
            let lo = m * chunk and hi = min total ((m + 1) * chunk) in
            if lo >= total then [||] else Array.sub big lo (hi - lo))
      in
      let boundaries =
        Array.init k (fun m ->
            if m = 0 then 0 else if m * chunk < total then big.(m * chunk) else n)
      in
      { hub; members; boundaries; owned }
    in
    let ds = Array.map make_directory (Packing.balls (Triangulation.packing tri i)) in
    dirs.(i) <- ds;
    Array.iteri
      (fun di d ->
        Hashtbl.replace hub_dir.(i) d.hub di;
        Array.iteri
          (fun m v ->
            Array.iter (fun tgt -> Hashtbl.replace owned_lookup.(i).(v) tgt ()) d.owned.(m))
          d.members)
      ds
  done;
  let hub_ptr =
    Array.init n (fun u ->
        Array.init (max 1 li) (fun i ->
            if i = 0 then u
            else (Packing.covering_ball (Triangulation.packing tri i) idx u).Packing.center))
  in
  { idx; m1_threshold; dls; li; dirs; hub_dir; hub_ptr; owned_lookup; switches = 0 }

(* ------------------------------------------------ the columns, flattened *)

(* The directories as Two_mode lays them out: numbered scale by scale,
   hub_g at [i * n + u], owned targets per (scale, node) as the sorted
   union the Hashtbls hold. *)
type flat = {
  f_hub_ptr : int array;
  f_hub_g : int array;
  f_dir_members : int array array;
  f_dir_boundaries : int array array;
  f_owned : int array array;
}

let flatten t =
  let n = Indexed.size t.idx and li = max 1 t.li in
  let hub_g = Array.make (li * n) (-1) in
  let all = Array.concat (Array.to_list t.dirs) in
  let g = ref 0 in
  Array.iteri
    (fun i ds ->
      Array.iter
        (fun d ->
          hub_g.((i * n) + d.hub) <- !g;
          incr g)
        ds)
    t.dirs;
  {
    f_hub_ptr = Array.concat (Array.to_list t.hub_ptr);
    f_hub_g = hub_g;
    f_dir_members = Array.map (fun d -> d.members) all;
    f_dir_boundaries = Array.map (fun d -> d.boundaries) all;
    f_owned =
      Array.init (li * n) (fun s ->
          let owned = t.owned_lookup.(s / n).(s mod n) in
          let a = Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) owned []) in
          Array.sort compare a;
          a);
  }

(* --------------------------------------------------------------- routing *)

type mode = M1 | M2_hub of int | M2_owner of int
type action = Deliver | Forward of int * mode

(* The mode travels as the route loop's state: 0 for M1, 2i at a scale-i
   hub, 2i + 1 at a scale-i owner. *)
let mode_of s = if s = 0 then M1 else if s land 1 = 0 then M2_hub (s / 2) else M2_owner (s / 2)
let state_of = function M1 -> 0 | M2_hub i -> 2 * i | M2_owner i -> (2 * i) + 1

let switch_scale t u d_est =
  let rec go i best =
    if i > t.li - 1 then best
    else if Indexed.r_level t.idx u (i - 1) >= 4.0 /. 3.0 *. d_est then go (i + 1) i
    else best
  in
  go 1 1

let owner_of dir target =
  let rec search lo hi =
    if lo >= hi then lo - 1
    else begin
      let mid = (lo + hi) / 2 in
      if dir.boundaries.(mid) <= target then search (mid + 1) hi else search lo mid
    end
  in
  dir.members.(max 0 (search 0 (Array.length dir.boundaries)))

let step t lt target u mode =
  if u = target then Deliver
  else begin
    let rec resolve_scale i =
      if i < 1 then failwith "oracle: ran out of directory scales";
      let hub = t.hub_ptr.(u).(i) in
      if hub <> u then Forward (hub, M2_hub i) else at_hub i
    and at_hub i =
      match Hashtbl.find_opt t.hub_dir.(i) u with
      | None -> failwith "oracle: hub pointer does not name a hub"
      | Some di ->
        let owner = owner_of t.dirs.(i).(di) target in
        if owner <> u then Forward (owner, M2_owner i) else as_owner i
    and as_owner i =
      if Hashtbl.mem t.owned_lookup.(i).(u) target then Forward (target, M1)
      else if i <= 1 then failwith "oracle: scale-1 directory must cover all targets"
      else resolve_scale (i - 1)
    in
    match mode with
    | M1 ->
      let sc = Dls.scratch () in
      Dls.scan_labels (Dls.label t.dls u) lt sc ~exclude:u ~collect:false;
      let acc = Dls.results sc in
      let d_est = acc.(0) in
      if not (Float.is_finite d_est) then failwith "oracle: no common beacon identified";
      let best = Dls.best_beacon sc in
      if best >= 0 && acc.(1) <= d_est *. t.m1_threshold then Forward (best, M1)
      else begin
        t.switches <- t.switches + 1;
        resolve_scale (switch_scale t u d_est)
      end
    | M2_hub i -> at_hub i
    | M2_owner i -> as_owner i
  end

let header_bits t =
  Array.fold_left max 0 (Dls.label_bits t.dls)
  + Bits.index_bits (Indexed.size t.idx)
  + 2
  + Bits.index_bits (t.li + 1)

(* A switch rewrites the mode field even when it ends in M1. *)
let route t ~src ~dst =
  let lt = Dls.label t.dls dst and r = Scheme.live () in
  Scheme.route r ~header_bits:(header_bits t) ~max_hops:(max 64 (8 * t.li)) ~src ~dst 0
    (fun u s ->
      let switches = t.switches in
      match step t lt dst u (mode_of s) with
      | Deliver -> Scheme.deliver
      | Forward (v, mode) ->
        ignore (Scheme.forward_to r v (state_of mode) (Indexed.dist t.idx u v) : int);
        if t.switches > switches then Scheme.rewrite else Scheme.forward)
