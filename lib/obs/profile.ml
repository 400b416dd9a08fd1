(* Hierarchical phase profiler: where wall-clock time and allocation go.

   [phase name f] nests: a phase started inside another phase records under
   the path "outer/inner". Each completed phase charges its per-domain shard
   with one sample — time from the injected source, plus the deltas of
   [Gc.quick_stat] (minor/promoted/major words, minor/major collections,
   compactions) across the call. Self time is total time minus the time
   spent in directly nested phases *on the same domain*; phases running on
   pool workers appear as their own roots (worker time is concurrent with
   the orchestrating phase, so subtracting it would be a lie).

   Like Counter, shards merge deterministically: [stats] sums per-path
   across shards and sorts by path, so the report's shape (paths, counts)
   is independent of how Pool distributed the work. The recorded times are
   as deterministic as the source — by default Clock's logical tick, so
   tests need no wall clock; the CLI and the bench inject a real one.

   A phase is also the one span source: with a Trace sink active it writes
   the span's B record at entry and its E record at exit, stamped with the
   same two readings the profile charges, and an E record that unwinds on
   an exception carries it as a string "error" arg.

   Off by default: with [on = false] every [phase] call is one global load
   and a branch around a tail call, the same contract as [Probe.on] —
   deterministic snapshots and bit-identity tests are untouched. *)

type agg = {
  mutable count : int;
  mutable total_ns : int64;
  mutable self_ns : int64;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable compactions : int;
}

type stat = {
  path : string;
  count : int;
  total_ns : int64;
  self_ns : int64;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

type frame = {
  frame_path : string;
  t0 : int64;
  g0 : Gc.stat;
  mutable child_ns : int64;
}

type shard = {
  table : (string, agg) Hashtbl.t;
  mutable stack : frame list;
}

let on = ref false
let shards = Shard.make (fun () -> { table = Hashtbl.create 32; stack = [] })
let holder = Clock.holder ()

let enable ?clock () =
  Clock.hold holder ?source:clock ();
  on := true

let disable () =
  on := false;
  Clock.release holder

let enabled () = !on

let reset () =
  List.iter
    (fun s ->
      Hashtbl.reset s.table;
      s.stack <- [])
    (Shard.all shards)

let find_agg table path =
  match Hashtbl.find_opt table path with
  | Some a -> a
  | None ->
    let a =
      {
        count = 0;
        total_ns = 0L;
        self_ns = 0L;
        minor_words = 0.0;
        promoted_words = 0.0;
        major_words = 0.0;
        minor_collections = 0;
        major_collections = 0;
        compactions = 0;
      }
    in
    Hashtbl.replace table path a;
    a

let phase name f =
  if not !on then f ()
  else begin
    let sh = Shard.get shards in
    let path =
      match sh.stack with
      | [] -> name
      | parent :: _ -> parent.frame_path ^ "/" ^ name
    in
    let traced = Trace.active () in
    let t0 = Clock.read () in
    let fr = { frame_path = path; t0; g0 = Gc.quick_stat (); child_ns = 0L } in
    sh.stack <- fr :: sh.stack;
    if traced then Trace.emit ~ts:t0 ~ph:"B" name;
    let finish args =
      let t1 = Clock.read () in
      let g1 = Gc.quick_stat () in
      if traced then Trace.emit ~ts:t1 ~ph:"E" ~args name;
      (match sh.stack with _ :: tl -> sh.stack <- tl | [] -> ());
      let total = Int64.sub t1 fr.t0 in
      (match sh.stack with
      | parent :: _ -> parent.child_ns <- Int64.add parent.child_ns total
      | [] -> ());
      let a = find_agg sh.table path in
      a.count <- a.count + 1;
      a.total_ns <- Int64.add a.total_ns total;
      a.self_ns <- Int64.add a.self_ns (Int64.sub total fr.child_ns);
      a.minor_words <- a.minor_words +. (g1.Gc.minor_words -. fr.g0.Gc.minor_words);
      a.promoted_words <- a.promoted_words +. (g1.Gc.promoted_words -. fr.g0.Gc.promoted_words);
      a.major_words <- a.major_words +. (g1.Gc.major_words -. fr.g0.Gc.major_words);
      a.minor_collections <-
        a.minor_collections + (g1.Gc.minor_collections - fr.g0.Gc.minor_collections);
      a.major_collections <-
        a.major_collections + (g1.Gc.major_collections - fr.g0.Gc.major_collections);
      a.compactions <- a.compactions + (g1.Gc.compactions - fr.g0.Gc.compactions)
    in
    match f () with
    | r ->
      finish [];
      r
    | exception ex ->
      finish [ ("error", Json.String (Printexc.to_string ex)) ];
      raise ex
  end

let stats () =
  let merged : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun path (a : agg) ->
          let m = find_agg merged path in
          m.count <- m.count + a.count;
          m.total_ns <- Int64.add m.total_ns a.total_ns;
          m.self_ns <- Int64.add m.self_ns a.self_ns;
          m.minor_words <- m.minor_words +. a.minor_words;
          m.promoted_words <- m.promoted_words +. a.promoted_words;
          m.major_words <- m.major_words +. a.major_words;
          m.minor_collections <- m.minor_collections + a.minor_collections;
          m.major_collections <- m.major_collections + a.major_collections;
          m.compactions <- m.compactions + a.compactions)
        s.table)
    (Shard.all shards);
  let rows =
    Hashtbl.fold
      (fun path (a : agg) acc ->
        {
          path;
          count = a.count;
          total_ns = a.total_ns;
          self_ns = a.self_ns;
          minor_words = a.minor_words;
          promoted_words = a.promoted_words;
          major_words = a.major_words;
          minor_collections = a.minor_collections;
          major_collections = a.major_collections;
          compactions = a.compactions;
        }
        :: acc)
      merged []
  in
  List.sort (fun a b -> String.compare a.path b.path) rows

let stat_json (s : stat) =
  Json.Obj
    [
      ("path", Json.String s.path);
      ("count", Json.Int s.count);
      ("total_ns", Json.Int (Int64.to_int s.total_ns));
      ("self_ns", Json.Int (Int64.to_int s.self_ns));
      ("minor_words", Json.Float s.minor_words);
      ("promoted_words", Json.Float s.promoted_words);
      ("major_words", Json.Float s.major_words);
      ("minor_collections", Json.Int s.minor_collections);
      ("major_collections", Json.Int s.major_collections);
      ("compactions", Json.Int s.compactions);
    ]

let to_json () =
  Json.Obj
    [
      ("schema", Json.String "ron-profile/1");
      ("phases", Json.List (List.map stat_json (stats ())));
    ]

let write file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json ())))

let pp oc =
  let rows = stats () in
  let ms ns = Int64.to_float ns /. 1e6 in
  let mw w = w /. 1e6 in
  Printf.fprintf oc "%-44s %8s %12s %12s %10s %10s %6s %6s\n" "phase" "count" "total_ms"
    "self_ms" "minor_Mw" "major_Mw" "min_gc" "maj_gc";
  Printf.fprintf oc "%s\n" (String.make 114 '-');
  List.iter
    (fun s ->
      Printf.fprintf oc "%-44s %8d %12.3f %12.3f %10.3f %10.3f %6d %6d\n" s.path s.count
        (ms s.total_ns) (ms s.self_ns) (mw s.minor_words) (mw s.major_words)
        s.minor_collections s.major_collections)
    rows
