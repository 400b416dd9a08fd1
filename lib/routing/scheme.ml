module Probe = Ron_obs.Probe
module Trace = Ron_obs.Trace

type outcome = Delivered | Truncated | Self_forward | Cycled | Dropped

let outcome_string = function
  | Delivered -> "delivered"
  | Truncated -> "truncated"
  | Self_forward -> "self_forward"
  | Cycled -> "cycled"
  | Dropped -> "dropped"

(* ---------------------------------------------------------------- The loop *)

type regs = {
  mutable target : int;
  mutable next : int;
  mutable state : int;
  link : float array;
  mutable trail : int array;
  mutable trail_len : int;
  mutable tracing : bool;
  mutable detect_cycles : bool;
  mutable max_hops : int;
  mutable header_bits : int;
  mutable observed : bool;
  mutable outcome : outcome;
  mutable hops : int;
}

type result = {
  delivered : bool;
  outcome : outcome;
  hops : int;
  length : float;
  path : int list;
  max_header_bits : int;
}

let regs ?(trail = [||]) () =
  { target = 0; next = 0; state = 0; link = Array.make 2 0.0; trail; trail_len = 0;
    tracing = false; detect_cycles = true; max_hops = 0; header_bits = 0; observed = false;
    outcome = Delivered; hops = 0 }

let deliver = 0
let forward = 1
let rewrite = 2
let drop = 3

let[@inline] forward_to r next state cost =
  r.next <- next;
  r.state <- state;
  r.link.(0) <- cost;
  forward

let finish (r : regs) outcome hops =
  r.outcome <- outcome;
  r.hops <- hops;
  if !Probe.on then
    Probe.route_done ~hops ~header_bits_max:r.header_bits
      ~outcome:(match outcome with Delivered -> `Delivered | Truncated -> `Truncated
                | Self_forward -> `Self_forward | Cycled -> `Cycled | Dropped -> `Dropped);
  if Trace.active () then
    Trace.event "route.done"
      ~args:
        Ron_obs.Json.
          [ ("outcome", String (outcome_string outcome)); ("hops", Int hops);
            ("header_bits_max", Int r.header_bits) ]

(* Brent's algorithm over (node, state): one saved pair, one comparison per
   hop, the checkpoint refreshed at every power-of-two hop count. A hop is
   a function of (node, state), so a revisited pair proves the packet loops
   forever; a 2-cycle is caught within 4 hops instead of spinning to the
   budget. Top-level and tail-recursive over ints, with the float flow in
   [r.link], so a walk allocates nothing; [r.observed] spares an
   unobserved hop the trace sink's check. *)
let rec go hop env (r : regs) node state saved_node saved_state power hops =
  if r.detect_cycles && hops > 0 && node = saved_node && state = saved_state then
    finish r Cycled hops
  else begin
    let refresh = r.detect_cycles && hops = power in
    let saved_node = if refresh then node else saved_node in
    let saved_state = if refresh then state else saved_state in
    let power = if refresh then 2 * power else power in
    let code = hop env node state in
    if code = deliver then finish r Delivered hops
    else if code = drop then finish r Dropped hops
    else begin
      let next = r.next in
      (* A scheme forwarding to itself would spin forever; record it as a
         distinct failure outcome rather than crashing the whole run. *)
      if next = node then finish r Self_forward hops
      else if hops >= r.max_hops then finish r Truncated hops
      else begin
        let state' = r.state in
        if r.observed then begin
          if !Probe.on then begin
            Probe.hop ();
            if code = rewrite || state' <> state then Probe.header_rewrite ()
          end;
          if Trace.active () then
            Trace.event "route.hop"
              ~args:Ron_obs.Json.[ ("from", Int node); ("to", Int next); ("hop", Int (hops + 1)) ]
        end;
        r.link.(1) <- r.link.(1) +. r.link.(0);
        if r.tracing then begin
          if r.trail_len < Array.length r.trail then r.trail.(r.trail_len) <- next;
          r.trail_len <- r.trail_len + 1
        end;
        go hop env r next state' saved_node saved_state power (hops + 1)
      end
    end
  end

let walk hop env (r : regs) ~detect_cycles ~header_bits ~max_hops ~src ~dst state =
  r.target <- dst;
  r.detect_cycles <- detect_cycles;
  r.max_hops <- max_hops;
  r.header_bits <- header_bits;
  r.observed <- !Probe.on || Trace.active ();
  r.link.(1) <- 0.0;
  r.trail_len <- 0;
  go hop env r src state src state 1 0

(* ------------------------------------------------- Live routes and wrappers *)

type hop = int -> int -> int
type alternates = int -> int -> (int * int * float) list
type wrapper = { wrap : regs -> hop -> alternates:alternates -> hop; detect_cycles : bool }

let identity_wrapper = { wrap = (fun _ hop ~alternates:_ -> hop); detect_cycles = true }

(* [compose outer inner]: the packet passes through [inner] first, then the
   combined hop through [outer] — e.g. churn blocking inside, fault drops
   outside. Both layers see the same ranked alternates (they are links the
   node's table holds regardless of which wrapper consults them). Cycle
   detection survives only if both layers keep their hops state-determined. *)
let compose outer inner =
  if outer == identity_wrapper then inner
  else if inner == identity_wrapper then outer
  else
    {
      wrap = (fun r hop ~alternates -> outer.wrap r (inner.wrap r hop ~alternates) ~alternates);
      detect_cycles = outer.detect_cycles && inner.detect_cycles;
    }

let live_key = Domain.DLS.new_key (fun () -> regs ())
let live () = Domain.DLS.get live_key
let no_alternates _ _ = []
let apply (hop : hop) node state = hop node state

let route ?(wrapper = identity_wrapper) ?(alternates = no_alternates) (r : regs) ~header_bits
    ~max_hops ~src ~dst state hop =
  if Array.length r.trail < max_hops then r.trail <- Array.make max_hops 0;
  r.tracing <- true;
  walk apply (wrapper.wrap r hop ~alternates) r ~detect_cycles:wrapper.detect_cycles ~header_bits
    ~max_hops ~src ~dst state;
  let rec path i acc = if i < 0 then acc else path (i - 1) (r.trail.(i) :: acc) in
  {
    delivered = r.outcome = Delivered;
    outcome = r.outcome;
    hops = r.hops;
    length = r.link.(1);
    path = src :: path (r.hops - 1) [];
    max_header_bits = header_bits;
  }

let charge_dist (res : result) =
  if !Probe.on then
    for _ = 1 to res.hops do
      Probe.dist_eval ()
    done;
  res

let stretch r d =
  if not r.delivered then invalid_arg "Scheme.stretch: packet not delivered";
  if d = 0.0 then (if r.length > 0.0 then infinity else 1.0) else r.length /. d
