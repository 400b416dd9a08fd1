module Rng = Ron_util.Rng
module Scheme = Ron_routing.Scheme
module Probe = Ron_obs.Probe
module Trace = Ron_obs.Trace

(* The failure model is entirely value-determined: the crashed set is fixed
   at [make] time from the seed, and the per-hop / per-link coin flips are
   pure functions of (seed, query, hop) and (seed, link) through [Rng.mix].
   Nothing here owns mutable state shared between queries, which is what
   makes a fault sweep bit-identical at every RON_JOBS. *)
type t = {
  seed : int;
  n : int;
  drop_rate : float;
  dead_link_fraction : float;
  crashed_set : bool array; (* length n; all-false when crash_fraction = 0 *)
  crash_count : int;
}

let none =
  {
    seed = 0;
    n = 0;
    drop_rate = 0.0;
    dead_link_fraction = 0.0;
    crashed_set = [||];
    crash_count = 0;
  }

(* Domain-separation tags for the independent streams drawn from one seed. *)
let tag_crash = 0x1c0de
let tag_drop = 0x2d509
let tag_link = 0x3dead

let make ?(seed = 0) ?(crash_fraction = 0.0) ?(drop_rate = 0.0) ?(dead_link_fraction = 0.0) ~n ()
    =
  if n < 0 then invalid_arg "Fault.make: n must be non-negative";
  let check name x =
    if not (x >= 0.0 && x < 1.0) then
      invalid_arg (Printf.sprintf "Fault.make: %s must be in [0, 1)" name)
  in
  check "crash_fraction" crash_fraction;
  check "drop_rate" drop_rate;
  check "dead_link_fraction" dead_link_fraction;
  Ron_obs.Profile.phase "fault.make" @@ fun () ->
  let k = int_of_float (crash_fraction *. float_of_int n) in
  let crashed_set = Array.make (max 1 n) false in
  if k > 0 then begin
    (* A seeded shuffle of the node ids; the first k are the casualties. *)
    let order = Array.init n Fun.id in
    Rng.shuffle (Rng.create (Rng.mix seed tag_crash)) order;
    for i = 0 to k - 1 do
      crashed_set.(order.(i)) <- true
    done
  end;
  { seed; n; drop_rate; dead_link_fraction; crashed_set; crash_count = k }

let is_null t = t.drop_rate = 0.0 && t.dead_link_fraction = 0.0 && t.crash_count = 0

let seed t = t.seed
let crash_count t = t.crash_count
let drop_rate t = t.drop_rate
let dead_link_fraction t = t.dead_link_fraction

let crashed t v = t.crash_count > 0 && v >= 0 && v < t.n && t.crashed_set.(v)

let crashed_nodes t =
  if t.crash_count = 0 then [||]
  else begin
    let out = Array.make t.crash_count 0 in
    let j = ref 0 in
    for v = 0 to t.n - 1 do
      if t.crashed_set.(v) then begin
        out.(!j) <- v;
        incr j
      end
    done;
    out
  end

(* Uniform float in [0, 1) from a keyed hash. [Rng.mix] masks to the native
   int range, i.e. 62 value bits — divide by 2^62, not 2^63, or every draw
   lands in [0, 0.5) and the effective rates double. *)
let unit_float h = float_of_int h /. 4.611686018427387904e18 (* 2^62 *)

let link_dead t u v =
  t.dead_link_fraction > 0.0
  &&
  (* Normalize so both directions of a link agree on its fate. *)
  let a = min u v and b = max u v in
  unit_float (Rng.mix (Rng.mix (Rng.mix t.seed tag_link) a) b) < t.dead_link_fraction

let drops t ~query ~hop =
  t.drop_rate > 0.0
  && unit_float (Rng.mix (Rng.mix (Rng.mix t.seed tag_drop) query) hop) < t.drop_rate

let describe t =
  if is_null t then "fault-free"
  else
    Printf.sprintf "seed %d | crashed %d/%d | drop %.3f | dead links %.3f" t.seed t.crash_count
      t.n t.drop_rate t.dead_link_fraction

(* A forward from [u] to [v] is blocked by a crash or a dead link. *)
let blocked t u v =
  if crashed t v then begin
    if !Probe.on then Probe.fault_crashed_hit ();
    true
  end
  else if link_dead t u v then begin
    if !Probe.on then Probe.fault_dead_link ();
    true
  end
  else false

let wrapper t ~query : Scheme.wrapper =
  if is_null t then Scheme.identity_wrapper
  else
    {
      (* Drop draws are keyed by the hop count, so the wrapped hop is no
         longer a pure function of (node, state): a revisited pair may
         legitimately take a different branch later. Brent detection off. *)
      Scheme.detect_cycles = false;
      wrap =
        (fun r hop ~alternates ->
          (* One counter per wrapped route; the loop invokes the hop
             sequentially, so the hop index is deterministic. *)
          let k_next = ref 0 in
          fun u s ->
            let k = !k_next in
            incr k_next;
            if drops t ~query ~hop:k then begin
              if !Probe.on then Probe.fault_drop ();
              if Trace.active () then
                Trace.event "fault.drop" ~args:Ron_obs.Json.[ ("node", Int u); ("hop", Int k) ];
              Scheme.drop
            end
            else
              let code = hop u s in
              let next = r.Scheme.next in
              if code = Scheme.deliver || code = Scheme.drop || not (blocked t u next) then code
              else begin
                (* The primary hop is dead: walk the scheme's ranked
                   alternates and detour through the first live one. The
                   search is the fault layer's own query-time cost, so it
                   is a profiler phase of its own (count = blocked hops). *)
                Ron_obs.Profile.phase "fault.detour_search" @@ fun () ->
                let rec try_alts = function
                  | [] ->
                    if Trace.active () then
                      Trace.event "fault.exhausted"
                        ~args:Ron_obs.Json.[ ("node", Int u); ("hop", Int k) ];
                    Scheme.drop
                  | (v, s', cost) :: rest ->
                    if v = next then try_alts rest
                    else begin
                      if !Probe.on then Probe.fault_retry ();
                      if blocked t u v then try_alts rest
                      else begin
                        if !Probe.on then Probe.fault_detour ();
                        if Trace.active () then
                          Trace.event "fault.detour"
                            ~args:
                              Ron_obs.Json.
                                [ ("node", Int u); ("dead", Int next);
                                  ("via", Int v); ("hop", Int k) ];
                        Scheme.forward_to r v s' cost
                      end
                    end
                in
                try_alts (alternates u s)
              end);
    }
