module A1 = Bigarray.Array1
module Indexed = Ron_metric.Indexed
module Rng = Ron_util.Rng
module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module Trace = Ron_obs.Trace
module Fault = Ron_fault.Fault
module Zeta = Ron_core.Zeta

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t
type u16s = Zeta.u16s

(* The meridian snapshot's layout, which is also the live overlay: ring
   (u, i) is row r = u * scales + i, [fill.{r}] members in slots
   [r * ring_size, r * ring_size + fill.{r}) of [node], head first; empty
   slots hold 0. [members] is replaced, never written, when the membership
   changes, so copies may share it. *)
type cols = {
  n : int;
  scales : int;
  ring_size : int;
  members : ints; (* ascending member ids *)
  fill : u16s; (* n * scales *)
  node : u16s; (* n * scales * ring_size *)
  dmat : floats; (* n * n, row-major *)
}

type t = { idx : Indexed.t; mutable c : cols; member : bool array }

let[@inline always] ug (a : u16s) i = A1.unsafe_get a i
let[@inline always] fg (a : floats) i = A1.unsafe_get a i

let u16s len : u16s = A1.init Bigarray.int16_unsigned Bigarray.c_layout len (fun _ -> 0)

(* Annulus index: d in (2^(i-1), 2^i] maps to i; d <= 1 maps to 0. The
   log is [Bits.flog2] written out, ln 2 taken once, so the walk passes no
   boxed float to a call. *)
let ln2 = log 2.0
let[@inline always] scale_of scales d =
  if d <= 1.0 then 0 else Int.min (scales - 1) (int_of_float (Float.ceil (log d /. ln2)))

let member_ids member =
  let ids = List.filter (Array.get member) (List.init (Array.length member) Fun.id) in
  A1.of_array Bigarray.int Bigarray.c_layout (Array.of_list ids)

let set_member t u m =
  t.member.(u) <- m;
  t.c <- { t.c with members = member_ids t.member }

let members t = Array.init (A1.dim t.c.members) (fun i -> t.c.members.{i})
let is_member t u = t.member.(u)
let row (c : cols) u i = (u * c.scales) + i
let slot (c : cols) r k = (r * c.ring_size) + k

let ring t u i =
  let c = t.c in
  if i < 0 || i >= c.scales then [||]
  else Array.init c.fill.{row c u i} (fun k -> c.node.{slot c (row c u i) k})

(* Slot of [v] in ring row [r], or -1. *)
let find (c : cols) r v =
  let rec go k =
    if k >= c.fill.{r} then -1 else if c.node.{slot c r k} = v then k else go (k + 1)
  in
  go 0

(* [v] to the head of row [r], over slot [k]: slots [0, k) shift right by
   one. At k = fill this is an insert; below it, slot k's member goes. *)
let push (c : cols) r v k =
  for s = k downto 1 do
    c.node.{slot c r s} <- c.node.{slot c r (s - 1)}
  done;
  c.node.{slot c r 0} <- v

(* Slot [k] of row [r] removed: the slots after it shift left by one. *)
let remove (c : cols) r k =
  let f = c.fill.{r} in
  for s = k to f - 2 do
    c.node.{slot c r s} <- c.node.{slot c r (s + 1)}
  done;
  c.node.{slot c r (f - 1)} <- 0;
  c.fill.{r} <- f - 1

let clear (c : cols) u =
  for r = row c u 0 to row c u (c.scales - 1) do
    A1.fill (A1.sub c.node (slot c r 0) c.ring_size) 0;
    c.fill.{r} <- 0
  done

(* A refill picks by annulus bounds and an insert by [scale_of], which may
   round a distance of exactly 2^i apart, so a member can sit in two of
   u's rings: degrees count distinct ids. *)
let out_degree t =
  let ids u = List.concat_map (fun i -> Array.to_list (ring t u i)) (List.init t.c.scales Fun.id) in
  let ds = Array.map (fun u -> List.length (List.sort_uniq Int.compare (ids u))) (members t) in
  let sum = Array.fold_left ( + ) 0 ds in
  (Array.fold_left max 0 ds, float_of_int sum /. float_of_int (max 1 (Array.length ds)))

(* Insert member [v] into member [u]'s ring for their distance (u's
   measurement of v, charged as one), reservoir-style: a full ring's
   member at a drawn slot gives way, or none when the draw is ring_size,
   keeping the ring a uniform-ish sample of the annulus. *)
let insert t rng u v =
  if u <> v && t.member.(u) && t.member.(v) then begin
    if !Probe.on then Probe.dist_eval ();
    let c = t.c in
    let r = row c u (scale_of c.scales c.dmat.{(u * c.n) + v}) in
    let f = c.fill.{r} in
    if find c r v < 0 then
      if f < c.ring_size then begin
        push c r v f;
        c.fill.{r} <- f + 1
      end
      else
        let k = Rng.int rng (c.ring_size + 1) in
        if k < c.ring_size then push c r v k
  end

(* The n^2 distances are computed in parallel. Rings fill serially, in a
   random order so reservoir eviction is unbiased, so the shared RNG
   stream is consumed in one order at every job count. *)
let build idx rng ~ring_size ~members =
  if Indexed.size idx >= 2 && Indexed.min_distance idx < 1.0 then
    invalid_arg "Meridian.build: metric must be normalized";
  if ring_size < 1 then invalid_arg "Meridian.build: ring_size must be positive";
  if Array.length members = 0 then invalid_arg "Meridian.build: no members";
  let n = Indexed.size idx in
  if n > Zeta.max_members || ring_size > Zeta.max_members then
    invalid_arg
      (Printf.sprintf
         "Meridian.build: %d nodes and rings of %d, more than the %d a 16-bit slot holds" n
         ring_size Zeta.max_members);
  Ron_obs.Profile.phase "construct.meridian" @@ fun () ->
  let scales = Indexed.log2_aspect_ratio idx + 1 in
  let member = Array.make n false in
  Array.iter
    (fun u ->
      if u < 0 || u >= n then invalid_arg "Meridian.build: member out of range";
      member.(u) <- true)
    members;
  let dmat : floats = A1.create Bigarray.float64 Bigarray.c_layout (n * n) in
  Ron_obs.Profile.phase "distances" (fun () ->
      Pool.parallel_for n (fun u ->
          for v = 0 to n - 1 do
            dmat.{(u * n) + v} <- Indexed.dist idx u v
          done));
  let c =
    { n; scales; ring_size; members = member_ids member; fill = u16s (n * scales);
      node = u16s (n * scales * ring_size); dmat }
  in
  let t = { idx; c; member } in
  let order = Array.copy members in
  Rng.shuffle rng order;
  Ron_obs.Profile.phase "reservoir" (fun () ->
      Array.iter
        (fun u ->
          Array.iter (fun v -> insert t rng u v) order;
          if !Probe.on then Probe.ring_node ())
        order);
  t

(* ------------------------------------------------------------ the walk *)

type regs = {
  mutable found : int;
  mutable hops : int;
  mutable measurements : int;
  mutable best : int;
  mutable attempts : int;
  mutable clean : bool;
  trail : int array;
  mutable trail_len : int;
  mutable tracing : bool;
}

let regs ?(trail = [||]) () =
  { found = 0; hops = 0; measurements = 0; best = 0; attempts = 0; clean = true; trail;
    trail_len = 0; tracing = false }

(* Under a fault model, a ring candidate is invisible to the walk when it
   crashed, its link from the polling node is dead, or its measurement
   reply is dropped (a coin keyed by a serial attempt counter, so the
   schedule is a pure function of the (model, query) pair). *)
let visible f ~query r u v =
  let k = r.attempts in
  r.attempts <- k + 1;
  let hidden charge = if !Probe.on then charge () in
  if Fault.crashed f v then (hidden Probe.fault_crashed_hit; false)
  else if Fault.link_dead f u v then (hidden Probe.fault_dead_link; false)
  else if Fault.drops f ~query ~hop:k then (hidden Probe.fault_drop; false)
  else true

(* One measurement to the target. *)
let[@inline] measured r =
  r.measurements <- r.measurements + 1;
  if !Probe.on then (Probe.meridian_probe (); Probe.dist_eval ())

(* Fold candidate [v] at distance [dv] into the lex-min (distance to
   target, id) kept in (r.best, fl.(1)). *)
let[@inline] consider r (fl : float array) v dv =
  if dv < fl.(1) || (dv = fl.(1) && v < r.best) then begin
    r.best <- v;
    fl.(1) <- dv
  end

(* Poll slots [e, e1) of a ring: the fault-free, unobserved loop makes no
   call, so nothing in it spills. *)
let rec poll (c : cols) r fl ~target e e1 =
  if e < e1 then begin
    let v = ug c.node e in
    r.measurements <- r.measurements + 1;
    consider r fl v (fg c.dmat ((v * c.n) + target));
    poll c r fl ~target (e + 1) e1
  end

(* The same poll of a ring of [u] under a fault model or the probes: each
   candidate's visibility first, then its charges. *)
let rec poll_charged (c : cols) f ~query r fl ~target u e e1 =
  if e < e1 then begin
    let v = ug c.node e in
    if r.clean || visible f ~query r u v then begin
      measured r;
      consider r fl v (fg c.dmat ((v * c.n) + target))
    end;
    poll_charged c f ~query r fl ~target u (e + 1) e1
  end

let rec rings (c : cols) f ~query r fl ~target u i top =
  if i <= top then begin
    let ring = row c u i in
    let k = ug c.fill ring and e = ring * c.ring_size in
    if r.clean && not !Probe.on then poll c r fl ~target e (e + k)
    else begin
      if !Probe.on then Probe.ring_probe ~members:k;
      poll_charged c f ~query r fl ~target u e (e + k)
    end;
    rings c f ~query r fl ~target u (i + 1) top
  end

let advance r u best =
  if !Probe.on then Probe.meridian_hop ();
  if Trace.active () then
    Trace.event "meridian.hop" ~args:Ron_obs.Json.[ ("from", Int u); ("to", Int best) ];
  if r.tracing then begin
    if r.trail_len < Array.length r.trail then r.trail.(r.trail_len) <- best;
    r.trail_len <- r.trail_len + 1
  end

(* Poll ring members at scales up to ~2d, d = fl.(0): anything farther
   from u than 2d cannot be closer than d/2 to the target (triangle
   inequality), so those rings are not worth probing — Meridian's
   beta-restriction. Forward on geometric progress (factor 1/2 as in
   Meridian), or once on a sub-geometric improvement, after which the next
   poll decides; progress is strict, so the walk terminates. *)
let rec go (c : cols) f ~query r (fl : float array) ~target u hops =
  let d = fl.(0) in
  r.best <- u;
  fl.(1) <- d;
  rings c f ~query r fl ~target u 0 (scale_of c.scales (2.0 *. d));
  let best = r.best and bd = fl.(1) in
  if best <> u && (bd <= d /. 2.0 || bd < d) then begin
    advance r u best;
    fl.(0) <- bd;
    go c f ~query r fl ~target best (hops + 1)
  end
  else begin
    r.found <- u;
    r.hops <- hops
  end

let locate c f ~query r fl ~start ~target =
  r.measurements <- 0;
  r.attempts <- 0;
  r.trail_len <- 0;
  r.clean <- Fault.is_null f;
  measured r;
  fl.(0) <- fg c.dmat ((start * c.n) + target);
  go c f ~query r fl ~target start 0

type result = { found : int; hops : int; measurements : int }

let closest ?fault t ~start ~target =
  let n = t.c.n in
  if start < 0 || start >= n || not t.member.(start) then
    invalid_arg "Meridian.closest: start is not a member";
  if target < 0 || target >= n then invalid_arg "Meridian.closest: target out of range";
  let f, query = Option.value fault ~default:(Fault.none, 0) in
  if Fault.crashed f start then invalid_arg "Meridian.closest: start node is crashed";
  let r = regs () in
  locate t.c f ~query r (Array.make 2 0.0) ~start ~target;
  if !Probe.on then Probe.locate_done ~measurements:r.measurements;
  { found = r.found; hops = r.hops; measurements = r.measurements }

(* Members in ascending order, so the first of equally close ones wins. *)
let exact_closest t target =
  let nearer (b, bd) u =
    let d = Indexed.dist t.idx u target in
    if d < bd then (u, d) else (b, bd)
  in
  fst (Array.fold_left nearer (-1, infinity) (members t))

(* ------------------------------------------------------------- churn *)

let join t rng u =
  if t.member.(u) then invalid_arg "Meridian.join: already a member";
  (* A non-member's rings are empty: it fills them, then gossips itself
     into the others'. *)
  set_member t u true;
  Array.iteri (fun v _ -> insert t rng u v) t.member;
  Array.iteri (fun v _ -> insert t rng v u) t.member

(* [u] out of the membership and of every member's rings; [on_ring v i k]
   repairs ring (v, i), whose slot [k] holds [u]. *)
let depart t u ~what ~on_ring =
  if not t.member.(u) then invalid_arg (Printf.sprintf "Meridian.%s: not a member" what);
  if A1.dim t.c.members <= 1 then
    invalid_arg (Printf.sprintf "Meridian.%s: cannot empty the overlay" what);
  set_member t u false;
  clear t.c u;
  Array.iteri
    (fun v m ->
      if m then
        for i = 0 to t.c.scales - 1 do
          let k = find t.c (row t.c v i) u in
          if k >= 0 then on_ring v i k
        done)
    t.member

let leave t u = depart t u ~what:"leave" ~on_ring:(fun v i k -> remove t.c (row t.c v i) k)

(* Copy of the rows and the membership, so a churn run repairs its own
   overlay while the pristine instance keeps serving other sweeps. The
   distances and the Indexed substrate are shared — they are immutable. *)
let copy t =
  let dup (a : u16s) =
    let b = u16s (A1.dim a) in
    A1.blit a b;
    b
  in
  { t with c = { t.c with fill = dup t.c.fill; node = dup t.c.node }; member = Array.copy t.member }

(* Counted join: the joining node fills its own rings from the live
   membership and gossips itself into theirs — bounded per-event work, no
   global reconstruction. Returns table entries written. *)
let join_counted t rng u =
  join t rng u;
  let c = t.c and inserted = ref 0 in
  for i = 0 to c.scales - 1 do
    inserted := !inserted + c.fill.{row c u i};
    Array.iteri (fun v m -> if m && v <> u && find c (row c v i) u >= 0 then incr inserted) t.member
  done;
  !inserted

(* Counted leave with ranked refill: every ring that lost [u] is topped
   back up with the nearest live member of the same annulus not already
   present — Meridian's ranked-replacement repair. The annulus of scale i
   is (2^(i-1), 2^i], as [scale_of] rounds it, with scale 0 = (0, 1] and
   the top scale open-ended. Returns (entries touched, slots refilled). *)
let leave_counted t u =
  let c = t.c and updates = ref 0 and refills = ref 0 in
  if t.member.(u) then
    for i = 0 to c.scales - 1 do
      updates := !updates + c.fill.{row c u i}
    done;
  depart t u ~what:"leave_counted" ~on_ring:(fun v i k ->
      let r = row c v i in
      incr updates;
      let lo = if i = 0 then 0.0 else Float.of_int (1 lsl (i - 1)) in
      let hi = if i >= c.scales - 1 then infinity else Float.of_int (1 lsl i) in
      match
        Array.find_opt
          (fun w -> w <> v && t.member.(w) && find c r w < 0)
          (Indexed.annulus t.idx v lo hi)
      with
      | Some w ->
        push c r w k;
        updates := !updates + 1;
        incr refills
      | None -> remove c r k);
  (!updates, !refills)

(* --------------------------------------------------------- multi-range *)

type range_result = { matches : int array; range_hops : int; range_measurements : int }

let within t ~start ~target ~radius =
  if radius < 0.0 then invalid_arg "Meridian.within: negative radius";
  (* Phase 1: locate the closest member (re-using the nearest-node walk).
     Then consult members outward from it: [mark] is 1 for a consulted
     member and 2 for a match, and matches queue in [queue] as found. *)
  let seed = closest t ~start ~target in
  let measurements = ref seed.measurements in
  let mark = Bytes.make t.c.n '\000' and queue = Array.make t.c.n 0 and tail = ref 0 in
  let consider v =
    if Bytes.get mark v = '\000' then begin
      incr measurements;
      if !Probe.on then Probe.meridian_probe ();
      let hit = Indexed.dist t.idx v target <= radius in
      Bytes.set mark v (if hit then '\002' else '\001');
      if hit then begin
        queue.(!tail) <- v;
        incr tail
      end
    end
  in
  consider seed.found;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    (* A member v with d(u,v) > d(u,target) + radius cannot match, so only
       ring scales up to that limit are polled. *)
    for i = 0 to scale_of t.c.scales (Indexed.dist t.idx u target +. radius) do
      let polled = ring t u i in
      if !Probe.on then Probe.ring_probe ~members:(Array.length polled);
      Array.iter consider polled
    done
  done;
  let matched = List.filter (fun v -> Bytes.get mark v = '\002') (List.init t.c.n Fun.id) in
  { matches = Array.of_list matched; range_hops = !tail; range_measurements = !measurements }

let exact_within t target radius =
  let near u = Indexed.dist t.idx u target <= radius in
  Array.of_list (List.filter near (Array.to_list (members t)))

let export t = t.c
