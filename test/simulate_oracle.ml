(* Reference implementation of the route loop as it ran while each scheme
   moved its packet as a header record: [simulate] walks a
   header-polymorphic step function, allocating a header, an action and a
   path cell per hop, with Brent's cycle detection over (node, header)
   states and a header rewrite counted whenever the step returns a header
   that is not physically the one it was given. [fault_wrap] is the fault
   injector as it wrapped such a step. Tests hold [Scheme.walk] (through
   [Scheme.route]) and [Fault.wrapper] to them. *)

module Scheme = Ron_routing.Scheme
module Fault = Ron_fault.Fault
module Probe = Ron_obs.Probe
module Trace = Ron_obs.Trace
module Json = Ron_obs.Json

type 'h action = Deliver | Forward of int * 'h | Drop
type 'h step = int -> 'h -> 'h action

let simulate ?(detect_cycles = true) ~dist ~step ~header_bits ~src ~header ~max_hops () =
  let finish outcome path acc_len hops max_hb =
    if !Probe.on then
      Probe.route_done ~hops ~header_bits_max:max_hb
        ~outcome:
          (match outcome with
          | Scheme.Delivered -> `Delivered
          | Truncated -> `Truncated
          | Self_forward -> `Self_forward
          | Cycled -> `Cycled
          | Dropped -> `Dropped);
    if Trace.active () then
      Trace.event "route.done"
        ~args:
          [
            ("outcome", Json.String (Scheme.outcome_string outcome));
            ("hops", Json.Int hops);
            ("header_bits_max", Json.Int max_hb);
          ];
    {
      Scheme.delivered = outcome = Scheme.Delivered;
      outcome;
      hops;
      length = acc_len;
      path = List.rev path;
      max_header_bits = max_hb;
    }
  in
  let rec go node header acc_path acc_len hops max_hb ~saved_node ~saved_header ~power =
    let max_hb = max max_hb (header_bits header) in
    if detect_cycles && hops > 0 && node = saved_node && header = saved_header then
      finish Scheme.Cycled acc_path acc_len hops max_hb
    else begin
      let saved_node, saved_header, power =
        if detect_cycles && hops = power then (node, header, 2 * power)
        else (saved_node, saved_header, power)
      in
      match step node header with
      | Deliver -> finish Scheme.Delivered acc_path acc_len hops max_hb
      | Drop -> finish Scheme.Dropped acc_path acc_len hops max_hb
      | Forward (next, header') ->
        if next = node then finish Scheme.Self_forward acc_path acc_len hops max_hb
        else if hops >= max_hops then finish Scheme.Truncated acc_path acc_len hops max_hb
        else begin
          if !Probe.on then begin
            Probe.hop ();
            if header' != header then Probe.header_rewrite ()
          end;
          if Trace.active () then
            Trace.event "route.hop"
              ~args:Json.[ ("from", Int node); ("to", Int next); ("hop", Int (hops + 1)) ];
          go next header' (next :: acc_path) (acc_len +. dist node next) (hops + 1) max_hb
            ~saved_node ~saved_header ~power
        end
    end
  in
  go src header [ src ] 0.0 0 0 ~saved_node:src ~saved_header:header ~power:1

(* The drop coin first, keyed by (query, hop index); then the step; then a
   dead primary — crashed, or over a dead link — detours through the first
   live ranked alternate other than it, or drops. *)
let fault_wrap f ~query (step : 'h step) ~(alternates : int -> 'h -> (int * 'h) list) : 'h step =
  let hop = ref 0 in
  fun u h ->
    let k = !hop in
    incr hop;
    if Fault.drops f ~query ~hop:k then begin
      if !Probe.on then Probe.fault_drop ();
      Drop
    end
    else
      match step u h with
      | (Deliver | Drop) as a -> a
      | Forward (next, h') ->
        let blocked v =
          if Fault.crashed f v then begin
            if !Probe.on then Probe.fault_crashed_hit ();
            true
          end
          else if Fault.link_dead f u v then begin
            if !Probe.on then Probe.fault_dead_link ();
            true
          end
          else false
        in
        if not (blocked next) then Forward (next, h')
        else
          let rec try_alts = function
            | [] -> Drop
            | (v, h'') :: rest ->
              if v = next then try_alts rest
              else begin
                if !Probe.on then Probe.fault_retry ();
                if blocked v then try_alts rest
                else begin
                  if !Probe.on then Probe.fault_detour ();
                  Forward (v, h'')
                end
              end
          in
          try_alts (alternates u h)
