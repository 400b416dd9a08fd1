(* Tail-latency flight recorder: a fixed-capacity per-domain top-k ring
   that retains the slowest queries per window with their full context
   (scheme, src/dst, outcome, hops, latency, and — for a deterministic
   Rng.mix-sampled subset of queries — the per-hop ledger trace).

   Sharded per domain (Shard), like the metrics: each recording domain
   owns a private shard, so [record] is plain unsynchronized stores into
   preallocated entry records — no locks, no allocation on the hot path.
   A shard is a ring of [retain] window slots; a query with id [qid]
   belongs to window [qid / window] and lands in slot [w mod retain],
   which lazily resets when it still holds an older window. Each slot
   keeps its top [per_window] entries under the strict total order
   "higher latency first, ties broken by lower qid" — a total order, so
   the per-shard top-k sets merge to the exact global per-window top-k no
   matter how Pool sharded the queries, and [dump] is bit-identical at
   every RON_JOBS whenever the recorded latencies are (i.e. under the
   deterministic logical clock; wall-clock latencies are honest but not
   replayable).

   Ring-safety contract: within any span of concurrently-recorded
   queries, at most [retain] distinct windows may be live, or a slot
   could be recycled out of order and drop entries from a window the
   dump still reports. Loop.run_observed enforces this by capping its
   batch size at [window * (retain - 1)]; batches are barriers and qids
   only grow across them, so recycling always evicts windows that fall
   outside the retained range anyway. *)

type entry = {
  mutable e_qid : int;
  mutable e_scheme : int;
  mutable e_kind : int;
  mutable e_src : int;
  mutable e_dst : int;
  mutable e_outcome : int;
  mutable e_hops : int;
  mutable e_lat : int;
  e_trace : int array;
  mutable e_trace_len : int; (* -1: trace not sampled for this query *)
}

type slot = {
  mutable window : int; (* -1: never used *)
  entries : entry array; (* dense prefix of [len] live entries, ranked *)
  mutable len : int;
}

type shard = { slots : slot array; mutable recorded : int }

type t = {
  window : int;
  per_window : int;
  retain : int;
  trace_every : int;
  trace_seed : int;
  trace_cap : int;
  shards : shard Shard.t;
}

let create ?(window = 2048) ?(per_window = 8) ?(retain = 8) ?(trace_every = 32)
    ?(trace_seed = 0x5eed) ?(trace_cap = 32) () =
  if window < 1 then invalid_arg "Flight.create: window < 1";
  if per_window < 1 then invalid_arg "Flight.create: per_window < 1";
  if retain < 2 then invalid_arg "Flight.create: retain < 2";
  if trace_cap < 1 then invalid_arg "Flight.create: trace_cap < 1";
  let fresh_entry () =
    {
      e_qid = 0; e_scheme = 0; e_kind = 0; e_src = 0; e_dst = 0;
      e_outcome = 0; e_hops = 0; e_lat = 0;
      e_trace = Array.make trace_cap 0; e_trace_len = -1;
    }
  in
  let shards =
    Shard.make (fun () ->
        {
          slots =
            Array.init retain (fun _ ->
                { window = -1; entries = Array.init per_window (fun _ -> fresh_entry ()); len = 0 });
          recorded = 0;
        })
  in
  { window; per_window; retain; trace_every; trace_seed; trace_cap; shards }

let window t = t.window
let per_window t = t.per_window
let retain t = t.retain
let trace_every t = t.trace_every

(* Deterministic trace sampling: a pure hash of the query id, so the
   sampled subset is the same at every RON_JOBS and across reruns. *)
let want_trace t qid =
  t.trace_every > 0 && Ron_util.Rng.mix t.trace_seed qid mod t.trace_every = 0

(* Strict total order over entries: slower first, ties to the lower qid.
   Total because qids are unique, which is what makes per-shard top-k
   sets merge to the exact global top-k. *)
let outranks lat qid (e : entry) = lat > e.e_lat || (lat = e.e_lat && qid < e.e_qid)

let record t ~qid ~scheme ~kind ~src ~dst ~outcome ~hops ~lat ~trace ~trace_len =
  let sh = Domain.DLS.get t.shards.Shard.key in
  sh.recorded <- sh.recorded + 1;
  let w = qid / t.window in
  let slot = sh.slots.(w mod t.retain) in
  if slot.window <> w then begin
    slot.window <- w;
    slot.len <- 0
  end;
  let k = t.per_window in
  (* Common case first: the window is full and the newcomer does not
     outrank even the weakest retained entry — one compare, no scan. *)
  if slot.len = k && not (outranks lat qid slot.entries.(k - 1)) then ()
  else begin
  (* Insertion position: past every entry that outranks the newcomer. *)
  let p = ref 0 in
  while !p < slot.len && not (outranks lat qid slot.entries.(!p)) do
    incr p
  done;
  if !p < k then begin
    (* Reuse the record that falls off the end (or the next preallocated
       one): shifting moves pointers only, so recording never allocates. *)
    let e =
      if slot.len < k then begin
        let e = slot.entries.(slot.len) in
        for i = slot.len downto !p + 1 do
          slot.entries.(i) <- slot.entries.(i - 1)
        done;
        slot.len <- slot.len + 1;
        e
      end
      else begin
        let e = slot.entries.(k - 1) in
        for i = k - 1 downto !p + 1 do
          slot.entries.(i) <- slot.entries.(i - 1)
        done;
        e
      end
    in
    slot.entries.(!p) <- e;
    e.e_qid <- qid;
    e.e_scheme <- scheme;
    e.e_kind <- kind;
    e.e_src <- src;
    e.e_dst <- dst;
    e.e_outcome <- outcome;
    e.e_hops <- hops;
    e.e_lat <- lat;
    if trace_len < 0 then e.e_trace_len <- -1
    else begin
      let tl = min trace_len t.trace_cap in
      Array.blit trace 0 e.e_trace 0 tl;
      e.e_trace_len <- tl
    end
  end
  end

let recorded t = List.fold_left (fun a s -> a + s.recorded) 0 (Shard.all t.shards)

let reset t =
  List.iter
    (fun sh ->
      sh.recorded <- 0;
      Array.iter
        (fun (slot : slot) ->
          slot.window <- -1;
          slot.len <- 0)
        sh.slots)
    (Shard.all t.shards)

(* Immutable dump form. *)
type exemplar = {
  x_window : int;
  x_qid : int;
  x_scheme : int;
  x_kind : int;
  x_src : int;
  x_dst : int;
  x_outcome : int;
  x_hops : int;
  x_lat : int;
  x_trace : int array option;
}

(* Merge every shard into the exact global per-window top-k. Windows
   older than [max_window - retain + 1] may have been partially recycled
   in some shard, so only the last [retain] windows are reported — which
   is also the recorder's stated retention. *)
let dump t =
  let by_window : (int, entry list ref) Hashtbl.t = Hashtbl.create 16 in
  let max_w = ref (-1) in
  List.iter
    (fun sh ->
      Array.iter
        (fun (slot : slot) ->
          if slot.window >= 0 then begin
            if slot.window > !max_w then max_w := slot.window;
            let l =
              match Hashtbl.find_opt by_window slot.window with
              | Some l -> l
              | None ->
                let l = ref [] in
                Hashtbl.add by_window slot.window l;
                l
            in
            for i = 0 to slot.len - 1 do
              l := slot.entries.(i) :: !l
            done
          end)
        sh.slots)
    (Shard.all t.shards);
  let cutoff = !max_w - t.retain + 1 in
  let windows =
    Hashtbl.fold (fun w _ l -> if w >= cutoff then w :: l else l) by_window []
    |> List.sort Int.compare
  in
  List.map
    (fun w ->
      let entries =
        !(Hashtbl.find by_window w)
        |> List.sort (fun a b ->
               if a.e_lat <> b.e_lat then Int.compare b.e_lat a.e_lat
               else Int.compare a.e_qid b.e_qid)
      in
      let top = List.filteri (fun i _ -> i < t.per_window) entries in
      ( w,
        List.map
          (fun e ->
            {
              x_window = w;
              x_qid = e.e_qid;
              x_scheme = e.e_scheme;
              x_kind = e.e_kind;
              x_src = e.e_src;
              x_dst = e.e_dst;
              x_outcome = e.e_outcome;
              x_hops = e.e_hops;
              x_lat = e.e_lat;
              x_trace =
                (if e.e_trace_len < 0 then None
                 else Some (Array.sub e.e_trace 0 e.e_trace_len));
            })
          top ))
    windows

let exemplar_count t = List.fold_left (fun a (_, es) -> a + List.length es) 0 (dump t)

let exemplar_json (x : exemplar) =
  let base =
    [
      ("qid", Json.Int x.x_qid);
      ("scheme", Json.Int x.x_scheme);
      ("kind", Json.Int x.x_kind);
      ("src", Json.Int x.x_src);
      ("dst", Json.Int x.x_dst);
      ("outcome", Json.Int x.x_outcome);
      ("hops", Json.Int x.x_hops);
      ("lat", Json.Int x.x_lat);
    ]
  in
  match x.x_trace with
  | None -> Json.Obj base
  | Some tr ->
    Json.Obj
      (base @ [ ("trace", Json.List (Array.to_list (Array.map (fun v -> Json.Int v) tr))) ])

let to_json t =
  let windows = dump t in
  Json.Obj
    [
      ("schema", Json.String "ron-flight/1");
      ("window", Json.Int t.window);
      ("per_window", Json.Int t.per_window);
      ("retain", Json.Int t.retain);
      ("trace_every", Json.Int t.trace_every);
      ("recorded", Json.Int (recorded t));
      ( "windows",
        Json.List
          (List.map
             (fun (w, es) ->
               Json.Obj
                 [
                   ("window", Json.Int w);
                   ("exemplars", Json.List (List.map exemplar_json es));
                 ])
             windows) );
    ]
