(* Meridian as the library first wrote it, kept as a test oracle: one ring
   list per (member, scale), filled by the same reservoir over the same
   shuffled order and repaired by list edits; [closest] and [within] walk
   the lists and measure through [Indexed.dist]. It shares no ring or walk
   code with [Meridian]'s rows and [Meridian.locate], so both can be held
   to it. The file ends with a checked copy of the walk over a snapshot's
   columns, for the mutants a load accepts. Everything here runs on one
   domain. *)

module A1 = Bigarray.Array1
module Indexed = Ron_metric.Indexed
module Bits = Ron_util.Bits
module Rng = Ron_util.Rng
module Probe = Ron_obs.Probe
module Fault = Ron_fault.Fault
module Meridian = Ron_smallworld.Meridian

type t = {
  idx : Indexed.t;
  ring_size : int;
  scales : int;
  member : bool array;
  mutable member_count : int;
  rings : int list array array; (* rings.(u).(i): scale-i ring of member u *)
}

(* Annulus index: d in (2^(i-1), 2^i] maps to i; d <= 1 maps to 0. *)
let scale_of t d =
  if d <= 1.0 then 0 else min (t.scales - 1) (int_of_float (Float.ceil (Bits.flog2 d)))

(* Insert [v] into [u]'s scale-i ring, reservoir-style: beyond [ring_size]
   entries, one draw picks the slot [v] evicts, or none. *)
let insert_scaled t rng u v i =
  let current = t.rings.(u).(i) in
  if List.mem v current then false
  else if List.length current < t.ring_size then begin
    t.rings.(u).(i) <- v :: current;
    true
  end
  else begin
    let slot = Rng.int rng (t.ring_size + 1) in
    if slot < t.ring_size then begin
      t.rings.(u).(i) <- v :: List.filteri (fun k _ -> k <> slot) current;
      true
    end
    else false
  end

let insert_into_ring t rng u v =
  if u <> v && t.member.(u) && t.member.(v) then
    ignore (insert_scaled t rng u v (scale_of t (Indexed.dist t.idx u v)))

let build idx rng ~ring_size ~members =
  let n = Indexed.size idx in
  let member = Array.make n false in
  Array.iter (fun u -> member.(u) <- true) members;
  let member_count = Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 member in
  let scales = Indexed.log2_aspect_ratio idx + 1 in
  let rings = Array.init n (fun _ -> Array.make scales []) in
  let t = { idx; ring_size; scales; member; member_count; rings } in
  let order = Array.copy members in
  Rng.shuffle rng order;
  Array.iter (fun u -> Array.iter (fun v -> insert_into_ring t rng u v) order) order;
  t

let ring t u i = Array.of_list t.rings.(u).(i)

type result = { found : int; hops : int; measurements : int }

let closest ?fault t ~start ~target =
  if not t.member.(start) then invalid_arg "Meridian.closest: start is not a member";
  (match fault with
  | Some (f, _) when Fault.crashed f start -> invalid_arg "Meridian.closest: start node is crashed"
  | _ -> ());
  let measurements = ref 0 in
  let measure v =
    incr measurements;
    if !Probe.on then Probe.meridian_probe ();
    Indexed.dist t.idx v target
  in
  let attempts = ref 0 in
  let visible u v =
    match fault with
    | None -> true
    | Some (f, query) ->
      let k = !attempts in
      incr attempts;
      if Fault.crashed f v then begin
        if !Probe.on then Probe.fault_crashed_hit ();
        false
      end
      else if Fault.link_dead f u v then begin
        if !Probe.on then Probe.fault_dead_link ();
        false
      end
      else if Fault.drops f ~query ~hop:k then begin
        if !Probe.on then Probe.fault_drop ();
        false
      end
      else true
  in
  let rec go u d hops =
    let limit = scale_of t (2.0 *. d) in
    let best = ref u and best_d = ref d in
    for i = 0 to min limit (t.scales - 1) do
      let members = t.rings.(u).(i) in
      if !Probe.on then Probe.ring_probe ~members:(List.length members);
      List.iter
        (fun v ->
          if visible u v then begin
            let dv = measure v in
            if dv < !best_d || (dv = !best_d && v < !best) then begin
              best := v;
              best_d := dv
            end
          end)
        members
    done;
    if !best <> u && (!best_d <= d /. 2.0 || !best_d < d) then begin
      if !Probe.on then Probe.meridian_hop ();
      go !best !best_d (hops + 1)
    end
    else { found = u; hops; measurements = !measurements }
  in
  go start (measure start) 0

type range_result = { matches : int array; range_hops : int; range_measurements : int }

let within t ~start ~target ~radius =
  let seed = closest t ~start ~target in
  let measurements = ref seed.measurements in
  let matches = Hashtbl.create 16 and consulted = Hashtbl.create 16 in
  let queue = Queue.create () in
  let consider v =
    if not (Hashtbl.mem consulted v) then begin
      Hashtbl.replace consulted v ();
      incr measurements;
      if !Probe.on then Probe.meridian_probe ();
      if Indexed.dist t.idx v target <= radius then begin
        Hashtbl.replace matches v ();
        Queue.add v queue
      end
    end
  in
  consider seed.found;
  let hops = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr hops;
    let limit = scale_of t (Indexed.dist t.idx u target +. radius) in
    for i = 0 to min limit (t.scales - 1) do
      let members = t.rings.(u).(i) in
      if !Probe.on then Probe.ring_probe ~members:(List.length members);
      List.iter consider members
    done
  done;
  let out = Array.of_list (Hashtbl.fold (fun v () acc -> v :: acc) matches []) in
  Array.sort compare out;
  { matches = out; range_hops = !hops; range_measurements = !measurements }

let join t rng u =
  t.member.(u) <- true;
  t.member_count <- t.member_count + 1;
  Array.iteri (fun i _ -> t.rings.(u).(i) <- []) t.rings.(u);
  Array.iteri (fun v m -> if m && v <> u then insert_into_ring t rng u v) t.member;
  Array.iteri (fun v m -> if m && v <> u then insert_into_ring t rng v u) t.member

let join_counted t rng u =
  join t rng u;
  let inserted = ref 0 in
  Array.iter (fun l -> inserted := !inserted + List.length l) t.rings.(u);
  Array.iteri
    (fun v m ->
      if m && v <> u then Array.iter (fun l -> if List.mem u l then incr inserted) t.rings.(v))
    t.member;
  !inserted

let leave t u =
  t.member.(u) <- false;
  t.member_count <- t.member_count - 1;
  Array.iteri (fun i _ -> t.rings.(u).(i) <- []) t.rings.(u);
  Array.iteri
    (fun v m ->
      if m then Array.iteri (fun i l -> t.rings.(v).(i) <- List.filter (( <> ) u) l) t.rings.(v))
    t.member

(* [leave], then every ring that lost [u] takes the nearest live member of
   its annulus not already in it. Returns (entries touched, slots
   refilled). *)
let leave_counted t u =
  t.member.(u) <- false;
  t.member_count <- t.member_count - 1;
  let updates = ref 0 and refills = ref 0 in
  Array.iteri
    (fun i l ->
      updates := !updates + List.length l;
      t.rings.(u).(i) <- [])
    t.rings.(u);
  Array.iteri
    (fun v m ->
      if m then
        Array.iteri
          (fun i l ->
            if List.mem u l then begin
              let purged = List.filter (( <> ) u) l in
              incr updates;
              let lo = if i = 0 then 0.0 else Float.of_int (1 lsl (i - 1)) in
              let hi = if i >= t.scales - 1 then infinity else Float.of_int (1 lsl i) in
              let cands = Indexed.annulus t.idx v lo hi in
              match
                List.find_opt
                  (fun w -> w <> v && t.member.(w) && not (List.mem w purged))
                  (Array.to_list cands)
              with
              | Some w ->
                t.rings.(v).(i) <- w :: purged;
                incr updates;
                incr refills
              | None -> t.rings.(v).(i) <- purged
            end)
          t.rings.(v))
    t.member;
  (!updates, !refills)

(* [Meridian.locate] over a snapshot's columns, fault-free, with checked
   reads. Raises [Invalid_argument] naming the read where the served
   walk's unchecked reads lose their footing: a start or ring slot that
   is not a node, a fill above ring_size, or a ring, slot or distance past
   its column. Returns (found, hops, measurements). *)
let locate_checked (c : Meridian.cols) ~start ~target =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let at : type a b. string -> (a, b, Bigarray.c_layout) A1.t -> int -> a =
   fun what a i ->
    if i < 0 || i >= A1.dim a then bad "%s entry %d, past its %d" what i (A1.dim a);
    A1.get a i
  in
  let dist v =
    if v < 0 || v >= c.n then bad "node %d, outside the %d nodes" v c.n;
    at "mdmat" c.dmat ((v * c.n) + target)
  in
  let measurements = ref 1 in
  let rec go u d hops =
    let limit =
      if 2.0 *. d <= 1.0 then 0
      else min (c.scales - 1) (int_of_float (Float.ceil (Bits.flog2 (2.0 *. d))))
    in
    let best = ref u and best_d = ref d in
    for i = 0 to limit do
      let r = (u * c.scales) + i in
      let k = at "mr_fill" c.fill r in
      if k > c.ring_size then bad "fill %d of ring (%d, %d), above ring_size %d" k u i c.ring_size;
      for s = 0 to k - 1 do
        let v = at "mr_node" c.node ((r * c.ring_size) + s) in
        incr measurements;
        let dv = dist v in
        if dv < !best_d || (dv = !best_d && v < !best) then begin
          best := v;
          best_d := dv
        end
      done
    done;
    if !best <> u && (!best_d <= d /. 2.0 || !best_d < d) then go !best !best_d (hops + 1)
    else (u, hops, !measurements)
  in
  go start (dist start) 0
