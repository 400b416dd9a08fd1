module Rng = Ron_util.Rng
module Probe = Ron_obs.Probe
module Scheme = Ron_routing.Scheme
module Indexed = Ron_metric.Indexed
module Rings = Ron_core.Rings
module Marks = Ron_util.Marks

(* Dynamic membership over a frozen scheme: a seeded, jobs-invariant
   schedule of joins and leaves, a routing wrapper that detours around
   departed nodes via the scheme's own ranked alternates, and incremental
   repair of neighbor tables — substitute-or-tombstone on a leave, local
   re-label plus re-adoption on a rejoin. Nothing here rebuilds a structure
   from scratch; the [churn.rebuilds] probe counter exists precisely so
   tests can pin that it stays at zero. *)

(* Domain-separation tags, disjoint from the fault layer's
   (0x1c0de / 0x2d509 / 0x3dead). *)
let tag_down = 0x4d07a
let tag_event = 0x5ca1e
let tag_node = 0x6c01b

(* Map a mixed hash (non-negative, < 2^62) to [0, 1). *)
let unit_float h = float_of_int h /. 4.611686018427387904e18 (* 2^62 *)

type cost = { updates : int; refills : int; relabels : int }

let zero_cost = { updates = 0; refills = 0; relabels = 0 }

let add_cost a b =
  {
    updates = a.updates + b.updates;
    refills = a.refills + b.refills;
    relabels = a.relabels + b.relabels;
  }

(* ---------------------------------------------------------------- Schedule *)

module Schedule = struct
  type kind = Join | Leave

  type event = { slot : int; kind : kind; node : int }

  type t = {
    seed : int;
    n : int;
    slots : int;
    join_rate : float;
    leave_rate : float;
    eligible_count : int;
    initial_down : int array;
    events : event array;
  }

  (* The schedule is a pure function of (seed, parameters): one coin per
     slot decides join / leave / nothing, one hash picks the node from the
     relevant pool. Pools use swap-remove so each draw is O(1) and the
     whole generation is sequential — RON_JOBS never touches it. A live
     floor of half the eligible population keeps leaves from draining the
     system; joins only re-admit previously departed nodes (the rejoin
     model: tables for a genuinely new node are a construction problem,
     not a repair problem). *)
  let make ?(seed = 0) ?(initial_down_fraction = 0.0) ?(eligible = fun _ -> true)
      ~n ~slots ~join_rate ~leave_rate () =
    if n < 0 then invalid_arg "Churn.Schedule.make: negative n";
    if slots < 0 then invalid_arg "Churn.Schedule.make: negative slots";
    if
      (not (join_rate >= 0.0))
      || (not (leave_rate >= 0.0))
      || join_rate +. leave_rate > 1.0
    then invalid_arg "Churn.Schedule.make: rates must be >= 0 and sum to <= 1";
    if not (initial_down_fraction >= 0.0 && initial_down_fraction < 1.0) then
      invalid_arg "Churn.Schedule.make: initial_down_fraction out of [0, 1)";
    let pool = ref [] in
    for v = n - 1 downto 0 do
      if eligible v then pool := v :: !pool
    done;
    let order = Array.of_list !pool in
    let m = Array.length order in
    Rng.shuffle (Rng.create (Rng.mix seed tag_down)) order;
    (* Clamp the seed-down count so the live floor holds from slot 0. *)
    let k =
      min (m / 2) (int_of_float (initial_down_fraction *. float_of_int m))
    in
    let initial_down = Array.sub order 0 k in
    Array.sort compare initial_down;
    let floor_live = m - (m / 2) in
    let down = Array.make (max m 1) 0 and live = Array.make (max m 1) 0 in
    Array.blit order 0 down 0 k;
    Array.blit order k live 0 (m - k);
    let down_len = ref k and live_len = ref (m - k) in
    let events = ref [] in
    for s = 0 to slots - 1 do
      let u = unit_float (Rng.mix (Rng.mix seed tag_event) s) in
      let h = Rng.mix (Rng.mix seed tag_node) s in
      if u < join_rate then begin
        if !down_len > 0 then begin
          let p = h mod !down_len in
          let v = down.(p) in
          down.(p) <- down.(!down_len - 1);
          decr down_len;
          live.(!live_len) <- v;
          incr live_len;
          events := { slot = s; kind = Join; node = v } :: !events
        end
      end
      else if u < join_rate +. leave_rate then
        if !live_len > floor_live then begin
          let p = h mod !live_len in
          let v = live.(p) in
          live.(p) <- live.(!live_len - 1);
          decr live_len;
          down.(!down_len) <- v;
          incr down_len;
          events := { slot = s; kind = Leave; node = v } :: !events
        end
    done;
    {
      seed;
      n;
      slots;
      join_rate;
      leave_rate;
      eligible_count = m;
      initial_down;
      events = Array.of_list (List.rev !events);
    }

  let events t = t.events
  let initial_down t = t.initial_down
  let eligible_count t = t.eligible_count
  let is_null t = Array.length t.events = 0 && Array.length t.initial_down = 0

  let describe t =
    let joins =
      Array.fold_left
        (fun a e -> if e.kind = Join then a + 1 else a)
        0 t.events
    in
    Fmt.str "churn seed=%d slots=%d join=%.3f leave=%.3f events=%d (%d joins, %d leaves) initial_down=%d"
      t.seed t.slots t.join_rate t.leave_rate (Array.length t.events) joins
      (Array.length t.events - joins)
      (Array.length t.initial_down)
end

(* ------------------------------------------------------------- Live state *)

type state = { n : int; live : bool array; mutable live_count : int }

let state_of_schedule (s : Schedule.t) =
  let live = Array.make (max s.Schedule.n 1) true in
  Array.iter (fun v -> live.(v) <- false) s.Schedule.initial_down;
  {
    n = s.Schedule.n;
    live;
    live_count = s.Schedule.n - Array.length s.Schedule.initial_down;
  }

let fresh_state n = { n; live = Array.make (max n 1) true; live_count = n }
let is_live st v = st.live.(v)
let live_count st = st.live_count
let down_count st = st.n - st.live_count

let mark_leave st v =
  if not st.live.(v) then invalid_arg "Churn.mark_leave: node already down";
  st.live.(v) <- false;
  st.live_count <- st.live_count - 1

let mark_join st v =
  if st.live.(v) then invalid_arg "Churn.mark_join: node already live";
  st.live.(v) <- true;
  st.live_count <- st.live_count + 1

(* --------------------------------------------------------- Routing wrapper *)

(* The frozen scheme tables keep referencing departed nodes; the wrapper is
   the query-time staleness story. A forward into a dead node is a stale
   hit; the walk then detours to the first live ranked alternate, or drops
   when the table offers none. The live set is frozen for the duration of a
   routing batch (events apply between batches), so the wrapped hop is
   still a pure function of (node, state) and cycle detection stays on. *)
let wrapper st : Scheme.wrapper =
  if st.live_count = st.n then Scheme.identity_wrapper
  else
    {
      Scheme.wrap =
        (fun r hop ~alternates ->
          let live = st.live in
          (* After the [let], a closure of two arguments: no partial
             application is built per hop. *)
          fun u s ->
            let code = hop u s in
            let v = r.Scheme.next in
            if code = Scheme.deliver || code = Scheme.drop || live.(v) then code
            else begin
              if !Probe.on then Probe.churn_stale_hit ();
              let rec try_alts = function
                | [] -> Scheme.drop
                | (w, sw, cost) :: rest ->
                  if w <> v && live.(w) then begin
                    if !Probe.on then Probe.churn_detour ();
                    Scheme.forward_to r w sw cost
                  end
                  else try_alts rest
              in
              try_alts (alternates u s)
            end);
      detect_cycles = true;
    }

(* ------------------------------------------------------------ Overlay *)

module Overlay = struct
  (* Generic incremental repair over per-node id rows (a directory, a
     neighbor list, a local ball): pristine rows kept immutable beside a
     mutated working copy, with reverse indexes over both so per-event
     work is proportional to the departed node's footprint, never to n.
     [-1] is the empty slot (tombstone). *)
  type t = {
    st : state;
    pristine : int array array;
    cur : int array array;
    prist_refs : (int * int) list array;  (* v -> (u, slot) with u <> v *)
    mutable cur_refs : (int * int) list array;
    valid : bool array;  (* label validity; a rejoin re-derives its label *)
    relabel_cost : int -> int;
    substitute : (u:int -> slot:int -> exclude:(int -> bool) -> int) option;
    mutable backlog : int;  (* invalidated labels not yet re-derived *)
  }

  let row_contains row (w : int) = Array.exists (fun x -> x = w) row

  (* [refs] without the reference (u, pos), compared as ints. *)
  let drop_ref (u : int) (pos : int) refs =
    List.filter (fun (a, b) -> a <> u || b <> pos) refs

  (* Ranked fallback when the host scheme supplies none: the first live
     member of the referrer's own pristine row — a link its table already
     holds. *)
  let default_substitute t ~u ~slot:_ ~exclude =
    let row = t.pristine.(u) in
    let best = ref (-1) in
    (try
       Array.iter
         (fun w ->
           if w >= 0 && w <> u && t.st.live.(w) && not (exclude w) then begin
             best := w;
             raise Exit
           end)
         row
     with Exit -> ());
    !best

  let subst t ~u ~slot ~exclude =
    match t.substitute with
    | Some f -> f ~u ~slot ~exclude
    | None -> default_substitute t ~u ~slot ~exclude

  (* [probe=false] covers construction-time reconciliation of the
     initially-down set: real repair work, but not a scheduled event, so
     it must not show up in the per-event counters. *)
  let leave_repair ~probe t v =
    let updates = ref 0 and refills = ref 0 in
    if t.valid.(v) then begin
      t.valid.(v) <- false;
      t.backlog <- t.backlog + 1
    end;
    let entries = t.cur_refs.(v) in
    List.iter
      (fun (u, pos) ->
        if t.st.live.(u) then begin
          let exclude w = w = v || row_contains t.cur.(u) w in
          let w = subst t ~u ~slot:pos ~exclude in
          t.cur.(u).(pos) <- w;
          incr updates;
          if w >= 0 then begin
            t.cur_refs.(w) <- (u, pos) :: t.cur_refs.(w);
            incr refills;
            if probe && !Probe.on then Probe.churn_refill ()
          end
        end
        (* A dormant referrer keeps its stale slot: the row is not
           consulted while its owner is down, and the owner's own rejoin
           restores it wholesale. *))
      entries;
    t.cur_refs.(v) <- List.filter (fun (u, _) -> not t.st.live.(u)) entries;
    { updates = !updates; refills = !refills; relabels = 0 }

  let join_repair ~probe t v =
    let updates = ref 0 and refills = ref 0 and relabels = ref 0 in
    if not t.valid.(v) then begin
      t.valid.(v) <- true;
      t.backlog <- t.backlog - 1;
      relabels := t.relabel_cost v;
      if probe && !Probe.on then Probe.churn_relabel ()
    end;
    (* Restore the rejoiner's own row toward pristine, substituting for
       members that are themselves down. *)
    let prow = t.pristine.(v) and crow = t.cur.(v) in
    for pos = 0 to Array.length prow - 1 do
      let pw = prow.(pos) in
      let desired =
        if pw < 0 then -1
        else if pw = v || t.st.live.(pw) then pw
        else subst t ~u:v ~slot:pos ~exclude:(fun w -> row_contains crow w)
      in
      if crow.(pos) <> desired then begin
        let old = crow.(pos) in
        if old >= 0 && old <> v then
          t.cur_refs.(old) <- drop_ref v pos t.cur_refs.(old);
        crow.(pos) <- desired;
        if desired >= 0 && desired <> v then begin
          t.cur_refs.(desired) <- (v, pos) :: t.cur_refs.(desired);
          incr refills;
          if probe && !Probe.on then Probe.churn_refill ()
        end;
        incr updates
      end
    done;
    (* Re-adopt the rejoiner at its pristine positions in live referrers,
       evicting whatever substitute sat there. *)
    List.iter
      (fun (u, pos) ->
        if t.st.live.(u) && t.cur.(u).(pos) <> v && not (row_contains t.cur.(u) v)
        then begin
          let old = t.cur.(u).(pos) in
          if old >= 0 then
            t.cur_refs.(old) <- drop_ref u pos t.cur_refs.(old);
          t.cur.(u).(pos) <- v;
          t.cur_refs.(v) <- (u, pos) :: t.cur_refs.(v);
          incr updates
        end)
      t.prist_refs.(v);
    { updates = !updates; refills = !refills; relabels = !relabels }

  let create ?substitute st rows ~relabel_cost =
    let n = st.n in
    if Array.length rows <> n then
      invalid_arg "Churn.Overlay.create: row count mismatch";
    let pristine = Array.map Array.copy rows in
    let cur = Array.map Array.copy pristine in
    let prist_refs = Array.make (max n 1) [] in
    for u = n - 1 downto 0 do
      let row = pristine.(u) in
      for pos = Array.length row - 1 downto 0 do
        let v = row.(pos) in
        if v >= 0 && v <> u then prist_refs.(v) <- (u, pos) :: prist_refs.(v)
      done
    done;
    let t =
      {
        st;
        pristine;
        cur;
        prist_refs;
        cur_refs = Array.map (fun l -> l) prist_refs;
        valid = Array.make (max n 1) true;
        relabel_cost;
        substitute;
        backlog = 0;
      }
    in
    (* Reconcile rows with nodes that are already down at creation time. *)
    for v = 0 to n - 1 do
      if not st.live.(v) then ignore (leave_repair ~probe:false t v)
    done;
    t

  let leave t v = leave_repair ~probe:true t v
  let join t v = join_repair ~probe:true t v

  let stale_entries t =
    let c = ref 0 in
    for u = 0 to t.st.n - 1 do
      if t.st.live.(u) then
        Array.iter (fun w -> if w >= 0 && not t.st.live.(w) then incr c) t.cur.(u)
    done;
    !c

  let backlog t = t.backlog
  let valid_label t u = t.valid.(u)
  let row t u = Array.copy t.cur.(u)
end

(* --------------------------------------------------------- Ring repair *)

module Ring_repair = struct
  (* Incremental repair of a rings-of-neighbors collection: a leave
     replaces every live occurrence of the departed node with the nearest
     live node inside the ring's own ball (bounded-radius exploration —
     the candidate order is the substrate's distance order, so the refill
     is ranked); a rejoin restores its own rings and re-adopts it at its
     pristine positions. The pristine collection is borrowed read-only;
     all mutation lands on a deep working copy. *)
  type t = {
    st : state;
    idx : Indexed.t;
    pristine : Rings.t;
    work : Rings.t;
    prist_refs : (int * int * int) list array;  (* v -> (u, ring i, slot) *)
    mutable cur_refs : (int * int * int) list array;
  }

  (* The annotations make each compare an int compare, not a call to the
     polymorphic one. *)
  let ring_contains (members : int array) (w : int) = Array.exists (fun x -> x = w) members

  (* [refs] without the entry [(u, i, slot)]. *)
  let without (u : int) (i : int) (slot : int) refs =
    List.filter (fun (u', i', slot') -> u' <> u || i' <> i || slot' <> slot) refs

  (* Nearest live candidate inside ring [i] of [u]'s ball, excluding the
     node being replaced and current members; [-1] when the ball holds no
     live substitute (the slot becomes a tombstone). The ring's members
     are flagged in a per-domain mark first, so each candidate costs one
     read, not a scan of the ring. *)
  let substitute t u i ~avoid =
    let r = (Rings.rings_of t.work u).(i) in
    let mark = Marks.get t.st.n in
    Array.iter (fun w -> if w >= 0 then mark.(w) <- 0) r.Rings.members;
    let best = ref (-1) in
    (try
       Indexed.ball_iter t.idx u r.Rings.radius (fun w _d ->
           if w <> u && w <> avoid && t.st.live.(w) && mark.(w) < 0 then begin
             best := w;
             raise Exit
           end)
     with Exit -> ());
    Array.iter (fun w -> if w >= 0 then mark.(w) <- -1) r.Rings.members;
    !best

  let leave_repair ~probe t v =
    let updates = ref 0 and refills = ref 0 in
    let entries = t.cur_refs.(v) in
    List.iter
      (fun (u, i, slot) ->
        if t.st.live.(u) then begin
          let w = substitute t u i ~avoid:v in
          Rings.replace_member t.work u i ~at:slot ~with_:w;
          incr updates;
          if w >= 0 then begin
            t.cur_refs.(w) <- (u, i, slot) :: t.cur_refs.(w);
            incr refills;
            if probe && !Probe.on then Probe.churn_refill ()
          end
        end)
      entries;
    t.cur_refs.(v) <- List.filter (fun (u, _, _) -> not t.st.live.(u)) entries;
    { updates = !updates; refills = !refills; relabels = 0 }

  let join_repair ~probe t v =
    let updates = ref 0 and refills = ref 0 in
    (* Restore the rejoiner's own rings toward pristine. *)
    let prings = Rings.rings_of t.pristine v in
    Array.iteri
      (fun i (pr : Rings.ring) ->
        let cur = (Rings.rings_of t.work v).(i) in
        Array.iteri
          (fun slot pw ->
            let desired =
              if pw = v || (pw >= 0 && t.st.live.(pw)) then pw
              else substitute t v i ~avoid:pw
            in
            if cur.Rings.members.(slot) <> desired then begin
              let old = cur.Rings.members.(slot) in
              if old >= 0 && old <> v then t.cur_refs.(old) <- without v i slot t.cur_refs.(old);
              Rings.replace_member t.work v i ~at:slot ~with_:desired;
              if desired >= 0 && desired <> v then begin
                t.cur_refs.(desired) <- (v, i, slot) :: t.cur_refs.(desired);
                incr refills;
                if probe && !Probe.on then Probe.churn_refill ()
              end;
              incr updates
            end)
          pr.Rings.members)
      prings;
    (* Re-adopt at pristine positions in live referrers. *)
    List.iter
      (fun (u, i, slot) ->
        if t.st.live.(u) then begin
          let r = (Rings.rings_of t.work u).(i) in
          if r.Rings.members.(slot) <> v && not (ring_contains r.Rings.members v)
          then begin
            let old = r.Rings.members.(slot) in
            if old >= 0 then t.cur_refs.(old) <- without u i slot t.cur_refs.(old);
            Rings.replace_member t.work u i ~at:slot ~with_:v;
            t.cur_refs.(v) <- (u, i, slot) :: t.cur_refs.(v);
            incr updates
          end
        end)
      t.prist_refs.(v);
    { updates = !updates; refills = !refills; relabels = 0 }

  let create st idx rings =
    let n = Rings.size rings in
    if n <> st.n then invalid_arg "Churn.Ring_repair.create: size mismatch";
    let prist_refs = Array.make (max n 1) [] in
    for u = n - 1 downto 0 do
      let rs = Rings.rings_of rings u in
      for i = Array.length rs - 1 downto 0 do
        let members = rs.(i).Rings.members in
        for slot = Array.length members - 1 downto 0 do
          let v = members.(slot) in
          if v >= 0 && v <> u then
            prist_refs.(v) <- (u, i, slot) :: prist_refs.(v)
        done
      done
    done;
    let t =
      {
        st;
        idx;
        pristine = rings;
        work = Rings.copy rings;
        prist_refs;
        cur_refs = Array.map (fun l -> l) prist_refs;
      }
    in
    for v = 0 to n - 1 do
      if not st.live.(v) then ignore (leave_repair ~probe:false t v)
    done;
    t

  let leave t v = leave_repair ~probe:true t v
  let join t v = join_repair ~probe:true t v

  let stale_members t =
    let c = ref 0 in
    for u = 0 to t.st.n - 1 do
      if t.st.live.(u) then
        Array.iter
          (fun (r : Rings.ring) ->
            Array.iter
              (fun w -> if w >= 0 && w <> u && not t.st.live.(w) then incr c)
              r.Rings.members)
          (Rings.rings_of t.work u)
    done;
    !c

  let rings t = t.work
end

(* ------------------------------------------------------------- Driver *)

module Driver = struct
  type summary = { joins : int; leaves : int; cost : cost }

  (* Apply every scheduled event in slot order: flip the live flag, run the
     per-scheme repair, account the work. Strictly sequential — the shared
     counters and the swap-style repairs both require it — which is fine:
     repair cost is bounded by the event's footprint, not by n. *)
  let apply sched st ~on_leave ~on_join ?(backlog = fun () -> 0) () =
    let total = ref zero_cost and joins = ref 0 and leaves = ref 0 in
    Array.iter
      (fun (e : Schedule.event) ->
        let c =
          match e.Schedule.kind with
          | Schedule.Join ->
              mark_join st e.Schedule.node;
              incr joins;
              if !Probe.on then Probe.churn_join ();
              on_join e.Schedule.node
          | Schedule.Leave ->
              mark_leave st e.Schedule.node;
              incr leaves;
              if !Probe.on then Probe.churn_leave ();
              on_leave e.Schedule.node
        in
        total := add_cost !total c;
        if !Probe.on then begin
          Probe.churn_repair ~updates:c.updates;
          Probe.churn_levels ~live:st.live_count ~backlog:(backlog ())
        end)
      (Schedule.events sched);
    { joins = !joins; leaves = !leaves; cost = !total }
end
