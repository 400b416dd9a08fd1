(* ron_obs: check and report the observability files that ron_cli and the
   bench write. The format is read from the content:

     a leading '#'                          Prometheus exposition (--expo)
     a first record with "ph"               trace (--trace)
     a first record with "kind"             telemetry series (--telemetry)
     a document whose "schema" is ron-slo/1      SLO verdict (--slo-out)
     a document whose "schema" is ron-profile/1  profile (--profile)

   usage: ron_obs check FILE
          ron_obs report FILE [--json] [--folded OUT]

   [check] validates the file against its format's rules: a trace's B/E
   brackets per domain (Trace_read.validate), a series' seq/ts order and
   typed sections (Trace_read.validate_snapshots), an exposition's TYPE
   discipline and histogram invariants (Expo.validate_string), a verdict's
   windows and totals, a profile's phase rows. [report] renders a trace (a
   per-span table, and folded stacks for flamegraph tools with --folded), a
   telemetry series (per-series min/max/last and a sparkline) or an SLO
   verdict (windows, burn rates, and the flight exemplars of violated
   windows); --json prints the same aggregates as one JSON document. Exit 0
   on success, 1 on an unknown or malformed file (the message names the
   format), 2 on a usage error. *)

module Json = Ron_obs.Json
module Trace_read = Ron_obs.Trace_read

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ron_obs: " ^ s); exit 1) fmt

let usage () =
  prerr_endline "usage: ron_obs check FILE\n       ron_obs report FILE [--json] [--folded OUT]";
  exit 2

type doc =
  | Trace of Trace_read.event list
  | Telemetry of Trace_read.snapshot list
  | Expo of string
  | Slo of Json.t
  | Profile of Json.t

let kind_name = function
  | Trace _ -> "trace"
  | Telemetry _ -> "telemetry series"
  | Expo _ -> "exposition"
  | Slo _ -> "SLO verdict"
  | Profile _ -> "profile"

(* The first non-blank line tells the line formats apart; any other file
   must be one JSON document that names its schema. *)
let read file =
  let text =
    try In_channel.with_open_bin file In_channel.input_all with Sys_error e -> fail "%s" e
  in
  let lines = String.split_on_char '\n' text in
  let parsed what = function Ok x -> x | Error e -> fail "%s: %s: %s" file what e in
  match List.find_opt (fun l -> String.trim l <> "") lines with
  | None -> fail "%s: empty file" file
  | Some l when (String.trim l).[0] = '#' -> Expo text
  | Some l -> (
    let field k = match Json.of_string l with Ok j -> Json.member k j | Error _ -> None in
    if field "ph" <> None then Trace (parsed "trace" (Trace_read.parse_lines lines))
    else if field "kind" <> None then
      Telemetry (parsed "telemetry series" (Trace_read.parse_snapshot_lines lines))
    else
      match Json.of_string text with
      | Error e -> fail "%s: unknown format (%s)" file e
      | Ok doc -> (
        match Json.member "schema" doc with
        | Some (Json.String "ron-slo/1") -> Slo doc
        | Some (Json.String "ron-profile/1") -> Profile doc
        | Some (Json.String s) -> fail "%s: unknown schema %S" file s
        | _ -> fail "%s: unknown format (no \"ph\", \"kind\" or \"schema\")" file))

(* ------------------------------------------------ the two JSON documents *)

let ( let* ) = Result.bind
let str = function Some (Json.String s) -> s | _ -> "?"
let num = function Some (Json.Int i) -> float_of_int i | Some (Json.Float f) -> f | _ -> nan
let int_of = function Some (Json.Int i) -> i | _ -> 0
let list_of = function Some (Json.List l) -> l | _ -> []

(* [get j k as_t]: field [k] of [j], read by [as_t]. *)
let get j k as_t =
  match Json.member k j with
  | None -> Error (Printf.sprintf "missing %S" k)
  | Some v -> Option.to_result ~none:(Printf.sprintf "field %S is ill-typed" k) (as_t v)

let as_int = function Json.Int i -> Some i | _ -> None
let as_list = function Json.List l -> Some l | _ -> None
let as_obj = function Json.Obj _ as o -> Some o | _ -> None
let as_str = function Json.String _ -> Some () | _ -> None
let as_bool = function Json.Bool _ -> Some () | _ -> None
let as_num = function Json.Int _ | Json.Float _ | Json.Null -> Some () | _ -> None

(* [every j keys as_t]: each of [keys] is a field of [j] that [as_t] reads. *)
let every j keys as_t =
  List.fold_left (fun acc k -> let* () = acc in Result.map ignore (get j k as_t)) (Ok ()) keys

(* [f i x] for each element, numbered from 0; the first error names it. *)
let each what f xs =
  List.fold_left
    (fun acc x ->
      let* i = acc in
      match f i x with
      | Ok () -> Ok (i + 1)
      | Error e -> Error (Printf.sprintf "%s[%d]: %s" what i e))
    (Ok 0) xs

(* Slo.to_json's shape: windows numbered up from 0, each delivering at most
   its count and judging every objective, with totals that agree. *)
let check_slo v =
  let* () = every v [ "spec" ] as_str in
  let* () = every v [ "ok" ] as_bool in
  let* window = get v "window" as_int in
  let* objectives = get v "objectives" as_list in
  let* windows = get v "windows" as_list in
  let* totals = get v "totals" as_obj in
  let* () = if window >= 1 then Ok () else Error "window < 1" in
  let* n =
    each "windows"
      (fun i w ->
        let* index = get w "window" as_int in
        let* count = get w "count" as_int in
        let* delivered = get w "delivered" as_int in
        let* results = get w "results" as_list in
        if index <> i then Error (Printf.sprintf "numbered %d" index)
        else if count < 1 || count > window then Error "count outside 1..window"
        else if delivered < 0 || delivered > count then Error "delivered outside 0..count"
        else if List.length results <> List.length objectives then
          Error "not one result per objective"
        else
          Result.map ignore
            (each "results"
               (fun _ r ->
                 let* () = every r [ "objective" ] as_str in
                 let* () = every r [ "value"; "burn" ] as_num in
                 every r [ "violated" ] as_bool)
               results))
      windows
  in
  let* () = every totals [ "violated_windows"; "observations"; "delivered" ] as_int in
  let* () = every totals [ "max_burn" ] as_num in
  let* total = get totals "windows" as_int in
  if total <> n then Error "totals.windows disagrees with the windows listed" else Ok n

(* Profile.to_json's shape: one row per phase path, sorted by path. *)
let check_profile v =
  let* phases = get v "phases" as_list in
  let* n =
    each "phases"
      (fun _ p ->
        let* () = every p [ "path" ] as_str in
        let* () = every p [ "total_ns"; "self_ns" ] as_int in
        let* () =
          every p
            [ "minor_words"; "promoted_words"; "major_words"; "minor_collections";
              "major_collections"; "compactions" ]
            as_num
        in
        let* count = get p "count" as_int in
        if count < 1 then Error "count < 1" else Ok ())
      phases
  in
  let paths = List.map (fun p -> str (Json.member "path" p)) phases in
  if List.sort_uniq String.compare paths <> paths then Error "phase paths not sorted and distinct"
  else Ok n

let check file doc =
  let counted what = function
    | Ok 0 -> Error ("no " ^ what)
    | Ok n -> Ok (Printf.sprintf "%d well-formed %s" n what)
    | Error e -> Error e
  in
  let result =
    match doc with
    | Trace evs -> counted "events" (Trace_read.validate evs)
    | Telemetry snaps -> counted "samples" (Trace_read.validate_snapshots snaps)
    | Expo text -> counted "samples" (Ron_obs.Expo.validate_string text)
    | Slo v -> Result.map (Printf.sprintf "%d windows") (check_slo v)
    | Profile v -> Result.map (Printf.sprintf "%d phases") (check_profile v)
  in
  match result with
  | Ok what -> what
  | Error e -> fail "%s: %s: %s" file (kind_name doc) e

(* ---------------------------------------------------------- trace report *)

type span_agg = {
  mutable count : int;
  mutable total : int;
  mutable self : int;
  mutable durations : int list;
  by_dom : (int, int * int) Hashtbl.t; (* dom -> count, total *)
}

type frame = { t0 : int; mutable child : int; path : string }

(* Nearest-rank percentiles via the shared helper (the rank rule the
   histograms use); [p] in [0,100]. *)
let percentile sorted p =
  let v = Ron_util.Stats.percentile_sorted sorted p in
  if Float.is_nan v then 0 else int_of_float v

let sorted_durations agg =
  let xs = Array.of_list (List.rev_map float_of_int agg.durations) in
  Ron_util.Fsort.sort_floats xs;
  xs

let by_dom agg =
  List.sort (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun d ct acc -> (d, ct) :: acc) agg.by_dom [])

(* Durations come from matching B/E pairs, replayed per domain with the
   stack discipline Trace_read.validate enforces; self time is a span's
   duration minus its same-domain children's. Timestamps are whatever
   clock the trace was recorded with (logical ticks by default, ns under
   ron_cli --trace), so the columns read "ticks". *)
let report_trace file events ~json ~folded =
  let spans : (string, span_agg) Hashtbl.t = Hashtbl.create 16 in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let folded_acc : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 8 in
  let stack dom = Option.value (Hashtbl.find_opt stacks dom) ~default:[] in
  let bump tbl k by =
    Hashtbl.replace tbl k (by + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  List.iter
    (fun (e : Trace_read.event) ->
      match e.ph with
      | Trace_read.I -> bump instants e.name 1
      | Trace_read.B ->
        let parent = stack e.dom in
        let path = match parent with [] -> e.name | top :: _ -> top.path ^ ";" ^ e.name in
        Hashtbl.replace stacks e.dom ({ t0 = e.ts; child = 0; path } :: parent)
      | Trace_read.E -> (
        match stack e.dom with
        | [] -> assert false (* validate already accepted the stream *)
        | top :: rest ->
          Hashtbl.replace stacks e.dom rest;
          let dur = e.ts - top.t0 in
          let self = dur - top.child in
          (match rest with [] -> () | parent :: _ -> parent.child <- parent.child + dur);
          let agg =
            match Hashtbl.find_opt spans e.name with
            | Some a -> a
            | None ->
              let a =
                { count = 0; total = 0; self = 0; durations = []; by_dom = Hashtbl.create 4 }
              in
              Hashtbl.replace spans e.name a;
              a
          in
          agg.count <- agg.count + 1;
          agg.total <- agg.total + dur;
          agg.self <- agg.self + self;
          agg.durations <- dur :: agg.durations;
          let c, t = Option.value (Hashtbl.find_opt agg.by_dom e.dom) ~default:(0, 0) in
          Hashtbl.replace agg.by_dom e.dom (c + 1, t + dur);
          bump folded_acc top.path self))
    events;
  let rows =
    Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) spans []
    |> List.sort (fun (na, a) (nb, b) ->
           match compare b.total a.total with 0 -> String.compare na nb | c -> c)
  in
  let inst =
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun name c acc -> (name, c) :: acc) instants [])
  in
  if json then begin
    let span_json (name, agg) =
      let sorted = sorted_durations agg in
      Json.Obj
        [
          ("name", Json.String name);
          ("count", Json.Int agg.count);
          ("total_ticks", Json.Int agg.total);
          ("self_ticks", Json.Int agg.self);
          ("p50", Json.Int (percentile sorted 50.0));
          ("p95", Json.Int (percentile sorted 95.0));
          ("p99", Json.Int (percentile sorted 99.0));
          ("p999", Json.Int (percentile sorted 99.9));
          ( "domains",
            Json.List
              (List.map
                 (fun (d, (c, t)) ->
                   Json.Obj
                     [ ("dom", Json.Int d); ("count", Json.Int c); ("total_ticks", Json.Int t) ])
                 (by_dom agg)) );
        ]
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.String "ron-trace-report/1");
              ("file", Json.String file);
              ("events", Json.Int (List.length events));
              ("spans", Json.List (List.map span_json rows));
              ( "instants",
                Json.List
                  (List.map
                     (fun (name, c) ->
                       Json.Obj [ ("name", Json.String name); ("count", Json.Int c) ])
                     inst) );
            ]))
  end
  else begin
    Printf.printf "%s: %d events, %d span names, %d instant names\n\n" file
      (List.length events) (List.length rows) (List.length inst);
    Printf.printf "%-28s %8s %14s %14s %12s %12s %12s %12s  %s\n" "span" "count"
      "total_ticks" "self_ticks" "p50" "p95" "p99" "p999" "domains (count@total)";
    Printf.printf "%s\n" (String.make 136 '-');
    List.iter
      (fun (name, agg) ->
        let sorted = sorted_durations agg in
        let doms =
          String.concat " "
            (List.map (fun (d, (c, t)) -> Printf.sprintf "%d:%d@%d" d c t) (by_dom agg))
        in
        Printf.printf "%-28s %8d %14d %14d %12d %12d %12d %12d  %s\n" name agg.count agg.total
          agg.self (percentile sorted 50.0) (percentile sorted 95.0) (percentile sorted 99.0)
          (percentile sorted 99.9) doms)
      rows;
    if inst <> [] then begin
      Printf.printf "\n%-28s %8s\n%s\n" "instant" "count" (String.make 37 '-');
      List.iter (fun (name, c) -> Printf.printf "%-28s %8d\n" name c) inst
    end
  end;
  Option.iter
    (fun out ->
      let paths =
        List.sort (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun p v acc -> (p, v) :: acc) folded_acc [])
      in
      Out_channel.with_open_text out (fun oc ->
          List.iter (fun (p, v) -> Printf.fprintf oc "%s %d\n" p v) paths);
      if not json then Printf.printf "\nfolded stacks: %d paths -> %s\n" (List.length paths) out)
    folded

(* ------------------------------------------------------ telemetry report *)

let number = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

(* Series per name, as (sample index, value) points — a section carries a
   name only once it has something to report, so indices may be sparse:
   counter deltas, gauge levels, histogram count/p99, gc fields, rss_kb,
   and two derived series when their counters appear at all, an oracle
   hit rate (hits / (hits + builds) per sample) and a serving throughput
   (serve.queries delta over the sample's span, in qps). *)
let report_telemetry file snaps ~json =
  let n_samples = List.length snaps in
  let acc : (string, (int * float) list) Hashtbl.t = Hashtbl.create 64 in
  let push name i v =
    Hashtbl.replace acc name ((i, v) :: Option.value (Hashtbl.find_opt acc name) ~default:[])
  in
  let numbers prefix i fields =
    List.iter (fun (k, v) -> Option.iter (push (prefix ^ k) i) (number v)) fields
  in
  let hits_builds = ref [] and serve_qps = ref [] in
  let ts_arr = Array.of_list (List.map (fun (s : Trace_read.snapshot) -> s.sts) snaps) in
  List.iteri
    (fun i (s : Trace_read.snapshot) ->
      numbers "counter:" i s.counters;
      numbers "gauge:" i s.gauges;
      List.iter
        (fun (k, v) ->
          List.iter
            (fun f ->
              Option.iter
                (fun c -> Option.iter (push ("hist:" ^ k ^ "." ^ f) i) (number c))
                (Json.member f v))
            [ "count"; "p99" ])
        s.hists;
      Option.iter (numbers "gc." i) s.gc;
      Option.iter (fun kb -> push "rss_kb" i (float_of_int kb)) s.rss_kb;
      let delta k =
        match List.assoc_opt k s.counters with Some (Json.Int d) -> float_of_int d | _ -> 0.0
      in
      let h = delta "oracle.row_hits" and b = delta "oracle.row_builds" in
      if h +. b > 0.0 then hits_builds := (i, h /. (h +. b)) :: !hits_builds;
      (* The first sample has no span, and a clock stall must not divide
         by zero. *)
      let q = delta "serve.queries" in
      if q > 0.0 && i > 0 then begin
        let dt = float_of_int (ts_arr.(i) - ts_arr.(i - 1)) /. 1e9 in
        if dt > 0.0 then serve_qps := (i, q /. dt) :: !serve_qps
      end)
    snaps;
  if !hits_builds <> [] then Hashtbl.replace acc "derived:oracle.hit_rate" !hits_builds;
  if !serve_qps <> [] then Hashtbl.replace acc "derived:serve.qps" !serve_qps;
  let series =
    Hashtbl.fold (fun name points l -> (name, List.rev points) :: l) acc []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let stats points =
    let vs = List.map snd points in
    let mn = List.fold_left Float.min infinity vs in
    let mx = List.fold_left Float.max neg_infinity vs in
    let sum = List.fold_left ( +. ) 0.0 vs in
    (mn, mx, sum /. float_of_int (List.length vs), List.nth vs (List.length vs - 1))
  in
  let ts_first = ts_arr.(0) and ts_last = ts_arr.(n_samples - 1) in
  if json then begin
    let series_json (name, points) =
      let mn, mx, mean, last = stats points in
      Json.Obj
        [
          ("name", Json.String name);
          ("points", Json.Int (List.length points));
          ("min", Json.Float mn);
          ("max", Json.Float mx);
          ("mean", Json.Float mean);
          ("last", Json.Float last);
        ]
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.String "ron-telemetry-report/1");
              ("file", Json.String file);
              ("samples", Json.Int n_samples);
              ("ts_first", Json.Int ts_first);
              ("ts_last", Json.Int ts_last);
              ("series", Json.List (List.map series_json series));
            ]))
  end
  else begin
    Printf.printf "%s: %d samples, ts %d..%d, %d series\n\n" file n_samples ts_first ts_last
      (List.length series);
    Printf.printf "%-36s %7s %12s %12s %12s  %s\n%s\n" "series" "points" "min" "max" "last"
      "trend" (String.make 124 '-');
    List.iter
      (fun (name, points) ->
        let mn, mx, _, last = stats points in
        Printf.printf "%-36s %7d %12.6g %12.6g %12.6g  %s\n" name (List.length points) mn mx
          last (Ron_obs.Sparkline.render ~samples:n_samples points))
      series
  end

(* ------------------------------------------------------------ SLO report *)

(* Windows with per-objective value / burn rate / verdict, then the flight
   exemplars (when the verdict embeds a dump) with the p50..p999 of their
   latencies, attributed to each violated window by qid range. *)
let report_slo file v ~json =
  let window = int_of (Json.member "window" v) in
  let totals = Json.member "totals" v in
  let t_field name = Option.bind totals (Json.member name) in
  let windows =
    List.map
      (fun w ->
        ( int_of (Json.member "window" w),
          int_of (Json.member "count" w),
          int_of (Json.member "delivered" w),
          List.map
            (fun r ->
              ( str (Json.member "objective" r),
                num (Json.member "value" r),
                num (Json.member "burn" r),
                Json.member "violated" r = Some (Json.Bool true) ))
            (list_of (Json.member "results" w)) ))
      (list_of (Json.member "windows" v))
  in
  let violated =
    List.filter (fun (_, _, _, rs) -> List.exists (fun (_, _, _, x) -> x) rs) windows
  in
  let exemplars =
    List.concat_map
      (fun wj ->
        List.map (fun xj -> (int_of (Json.member "qid" xj), num (Json.member "lat" xj), xj))
          (list_of (Json.member "exemplars" wj)))
      (list_of (Option.bind (Json.member "flight" v) (Json.member "windows")))
  in
  let lats = Array.of_list (List.map (fun (_, lat, _) -> lat) exemplars) in
  Ron_util.Fsort.sort_floats lats;
  let pct p = Ron_util.Stats.percentile_sorted lats p in
  let spec = str (Json.member "spec" v) and max_burn = num (t_field "max_burn") in
  let ok = Json.member "ok" v = Some (Json.Bool true) in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.String "ron-slo-report/1");
              ("file", Json.String file);
              ("spec", Json.String spec);
              ("window", Json.Int window);
              ("windows", Json.Int (List.length windows));
              ("violated_windows", Json.Int (List.length violated));
              ("max_burn_rate", Json.Float max_burn);
              ("observations", Json.Int (int_of (t_field "observations")));
              ("delivered", Json.Int (int_of (t_field "delivered")));
              ("exemplars", Json.Int (List.length exemplars));
              ( "exemplar_lat",
                Json.Obj
                  [
                    ("p50", Json.Float (pct 50.0));
                    ("p95", Json.Float (pct 95.0));
                    ("p99", Json.Float (pct 99.0));
                    ("p999", Json.Float (pct 99.9));
                  ] );
              ("ok", Json.Bool ok);
            ]))
  else begin
    Printf.printf "%s\n  spec: %s   window: %d queries\n" file spec window;
    Printf.printf "  windows: %d   violated: %d   max burn rate: %.9g   ok: %b\n\n"
      (List.length windows) (List.length violated) max_burn ok;
    Printf.printf "%-8s %8s %10s  %s\n%s\n" "window" "count" "delivered"
      "objective value/burn (flag = violated)" (String.make 96 '-');
    List.iter
      (fun (index, count, delivered, rs) ->
        let cells =
          List.map
            (fun (o, value, burn, x) ->
              Printf.sprintf "%s: %.9g burn %.3g%s" o value burn (if x then " !" else ""))
            rs
        in
        Printf.printf "%-8d %8d %10d  %s\n" index count delivered (String.concat "  " cells))
      windows;
    if exemplars <> [] then begin
      Printf.printf
        "\nflight exemplars: %d retained (lat p50 %.9g  p95 %.9g  p99 %.9g  p999 %.9g)\n"
        (List.length exemplars) (pct 50.0) (pct 95.0) (pct 99.0) (pct 99.9);
      List.iter
        (fun (index, _, _, _) ->
          let hits =
            List.filter
              (fun (qid, _, _) -> (if window > 0 then qid / window else 0) = index)
              exemplars
          in
          if hits <> [] then begin
            Printf.printf "  violated window %d — %d exemplar(s):\n" index (List.length hits);
            List.iter (fun (_, _, xj) -> Printf.printf "    %s\n" (Json.to_line xj)) hits
          end)
        violated
    end
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "check"; file ] ->
    let doc = read file in
    Printf.printf "%s: %s: %s\n" file (kind_name doc) (check file doc)
  | "report" :: file :: opts -> (
    let rec parse (json, folded) = function
      | [] -> (json, folded)
      | "--json" :: rest -> parse (true, folded) rest
      | "--folded" :: out :: rest -> parse (json, Some out) rest
      | _ -> usage ()
    in
    let json, folded = parse (false, None) opts in
    let doc = read file in
    ignore (check file doc);
    match doc with
    | Trace evs -> report_trace file evs ~json ~folded
    | _ when folded <> None -> fail "%s: %s: --folded applies to traces only" file (kind_name doc)
    | Telemetry snaps -> report_telemetry file snaps ~json
    | Slo v -> report_slo file v ~json
    | Expo _ | Profile _ ->
      fail "%s: %s: no report; ron_obs check validates it" file (kind_name doc))
  | _ -> usage ()
