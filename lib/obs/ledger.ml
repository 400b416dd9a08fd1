(* Per-query cost ledger. A query (one route, one Meridian lookup, one
   label estimate) is wrapped in [with_query], which installs a mutable
   cost entry in domain-local storage; the instrumented data structures
   bump whichever entry is current on their domain. Entries are collected
   in per-domain buffers and merged sorted by (kind, id), so as long as
   callers assign deterministic ids (e.g. the pair index), the merged
   ledger is identical at every RON_JOBS. *)

type entry = {
  kind : string;
  id : int;
  mutable dist_evals : int;
  mutable ball_queries : int;
  mutable ring_lookups : int;
  mutable ring_members : int;
  mutable zoom_steps : int;
  mutable hops : int;
  mutable header_rewrites : int;
  mutable header_bits_max : int;
  mutable table_touches : int;
}

let fresh ~kind ~id =
  {
    kind;
    id;
    dist_evals = 0;
    ball_queries = 0;
    ring_lookups = 0;
    ring_members = 0;
    zoom_steps = 0;
    hops = 0;
    header_rewrites = 0;
    header_bits_max = 0;
    table_touches = 0;
  }

(* The entry currently charged on this domain (innermost [with_query]). *)
let current_key : entry option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get current_key)

(* Completed entries, in per-domain buffers. *)
type buf = { mutable entries : entry list }

let bufs = Shard.make (fun () -> { entries = [] })

let with_query ~kind ~id f =
  let cur = Domain.DLS.get current_key in
  let prev = !cur in
  let e = fresh ~kind ~id in
  cur := Some e;
  let record () =
    cur := prev;
    let b = Shard.get bufs in
    b.entries <- e :: b.entries
  in
  match f () with
  | r ->
    record ();
    (r, e)
  | exception ex ->
    record ();
    raise ex

(* Bumps: no-ops unless a query is being charged on this domain. Callers
   gate on [Probe.on] first, so the disabled cost is one load + branch at
   the instrumentation site. *)

let bump_dist () = match current () with Some e -> e.dist_evals <- e.dist_evals + 1 | None -> ()

let bump_ball () =
  match current () with Some e -> e.ball_queries <- e.ball_queries + 1 | None -> ()

let bump_ring ~members =
  match current () with
  | Some e ->
    e.ring_lookups <- e.ring_lookups + 1;
    e.ring_members <- e.ring_members + members
  | None -> ()

let bump_zoom () = match current () with Some e -> e.zoom_steps <- e.zoom_steps + 1 | None -> ()
let bump_hop () = match current () with Some e -> e.hops <- e.hops + 1 | None -> ()

let bump_header_rewrite () =
  match current () with Some e -> e.header_rewrites <- e.header_rewrites + 1 | None -> ()

let note_header_bits bits =
  match current () with
  | Some e -> if bits > e.header_bits_max then e.header_bits_max <- bits
  | None -> ()

let bump_table () =
  match current () with Some e -> e.table_touches <- e.table_touches + 1 | None -> ()

let entries () =
  let l = List.concat_map (fun b -> b.entries) (Shard.all bufs) in
  List.sort
    (fun a b ->
      let c = String.compare a.kind b.kind in
      if c <> 0 then c else Int.compare a.id b.id)
    l

let reset () = List.iter (fun b -> b.entries <- []) (Shard.all bufs)
