(* Prometheus text-format exposition of the full observability snapshot:
   one walk of the one registry, in name order — counters (as *_total),
   written gauges, non-empty histograms (cumulative le-buckets, +Inf,
   _sum, _count) — and a build-info gauge — rendered to
   a string and published by atomic rename, so a scraper never reads a
   torn file. The same numbers bench --json reports, in the format
   external collectors already speak.

   Unlike Ron_obs.snapshot, which is a deterministic surface, the
   exposition is an operational one: env gauges (pool.jobs,
   oracle.rows_cached) are included, and the histogram _sum is the
   deterministic bucket-midpoint approximation (Histogram.approx_sum).

   The validator is deliberately line-oriented, like ron_obs check's
   other formats: it checks name/label/value syntax,
   that every sample's metric was TYPE-declared first, and the histogram
   invariants (cumulative buckets non-decreasing, +Inf present, _count
   equal to the +Inf bucket, _sum present). *)

(* '.' and any other character outside a Prometheus name becomes '_';
   every metric is prefixed "ron_". *)
let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        || c = '_' || c = ':'
      in
      if not ok then Bytes.set b i '_')
    b;
  "ron_" ^ Bytes.to_string b

let add_float_sample buf name labels v =
  Buffer.add_string buf name;
  Buffer.add_string buf labels;
  Buffer.add_char buf ' ';
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else Buffer.add_string buf (Printf.sprintf "%.9g" v);
  Buffer.add_char buf '\n'

let render () =
  let buf = Buffer.create 4096 in
  let header name kind help =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  header "ron_build_info" "gauge" "Build and schema information for the ron exposition.";
  Buffer.add_string buf
    (Printf.sprintf "ron_build_info{ocaml_version=%S,schema=\"ron-obs/2\",word_size=\"%d\"} 1\n"
       Sys.ocaml_version Sys.word_size);
  List.iter
    (function
      | Counter.Counter c ->
        let name = sanitize (Counter.name c) ^ "_total" in
        header name "counter" (Printf.sprintf "ron counter %s." (Counter.name c));
        add_float_sample buf name "" (float_of_int (Counter.value c))
      | Gauge.Gauge g when Gauge.written g ->
        let name = sanitize (Gauge.name g) in
        header name "gauge" (Printf.sprintf "ron gauge %s." (Gauge.name g));
        add_float_sample buf name "" (Gauge.value g)
      | Histogram.Histogram h when Histogram.count h > 0 ->
        let name = sanitize (Histogram.name h) in
        header name "histogram"
          (Printf.sprintf "ron histogram %s (log buckets, relative error %g)."
             (Histogram.name h) Histogram.relative_error);
        let total = Histogram.count h in
        let cum = ref 0 in
        Array.iter
          (fun (upper, c) ->
            cum := !cum + c;
            add_float_sample buf (name ^ "_bucket")
              (Printf.sprintf "{le=\"%.9g\"}" upper)
              (float_of_int !cum))
          (Histogram.buckets h);
        add_float_sample buf (name ^ "_bucket") "{le=\"+Inf\"}" (float_of_int total);
        add_float_sample buf (name ^ "_sum") "" (Histogram.approx_sum h);
        add_float_sample buf (name ^ "_count") "" (float_of_int total)
      | _ -> ())
    (Registry.all ());
  Buffer.contents buf

(* Publish atomically: write a sibling temp file, then rename over the
   target — rename within a directory is atomic, so a concurrent scraper
   sees either the old exposition or the new one, never a prefix. *)
let write file =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  (try output_string oc (render ())
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp file

(* ---------------------------------------------------------- validator *)

let valid_name s =
  s <> ""
  && (let c = s.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':')
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       s

let parse_value tok =
  match tok with
  | "+Inf" -> Some infinity
  | "-Inf" -> Some neg_infinity
  | "NaN" -> Some nan
  | _ -> ( match float_of_string_opt tok with Some v -> Some v | None -> None)

(* Parse [name{labels}] from a sample line; returns (name, le-label if
   present, rest-offset). Labels are k="v" pairs; escapes inside values
   are skipped over but not interpreted. *)
let parse_sample_head line =
  let n = String.length line in
  let i = ref 0 in
  while
    !i < n
    &&
    let c = line.[!i] in
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  do
    incr i
  done;
  let name = String.sub line 0 !i in
  if name = "" then Error "missing metric name"
  else if !i < n && line.[!i] = '{' then begin
    incr i;
    let le = ref None in
    let rec labels () =
      if !i >= n then Error "unterminated label set"
      else if line.[!i] = '}' then begin
        incr i;
        Ok ()
      end
      else begin
        let ks = !i in
        while
          !i < n
          &&
          let c = line.[!i] in
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
        do
          incr i
        done;
        let k = String.sub line ks (!i - ks) in
        if k = "" then Error "empty label name"
        else if !i + 1 >= n || line.[!i] <> '=' || line.[!i + 1] <> '"' then
          Error (Printf.sprintf "label %s: expected =\"" k)
        else begin
          i := !i + 2;
          let vs = !i in
          let rec scan () =
            if !i >= n then Error "unterminated label value"
            else if line.[!i] = '\\' then begin
              i := !i + 2;
              scan ()
            end
            else if line.[!i] = '"' then begin
              let v = String.sub line vs (!i - vs) in
              incr i;
              if k = "le" then le := Some v;
              if !i < n && line.[!i] = ',' then begin
                incr i;
                labels ()
              end
              else labels ()
            end
            else begin
              incr i;
              scan ()
            end
          in
          scan ()
        end
      end
    in
    match labels () with Ok () -> Ok (name, !le, !i) | Error e -> Error e
  end
  else Ok (name, None, !i)

type hist_state = {
  mutable buckets : (float * float) list; (* (le, cumulative) newest first *)
  mutable has_inf : bool;
  mutable inf_value : float;
  mutable sum_seen : bool;
  mutable count_seen : bool;
  mutable count_value : float;
}

(* Strip a histogram-series suffix to find the declared family name. *)
let family name =
  let strip suf =
    let ls = String.length suf in
    let ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suf then Some (String.sub name 0 (ln - ls))
    else None
  in
  match strip "_bucket" with
  | Some base -> (base, `Bucket)
  | None -> (
    match strip "_sum" with
    | Some base -> (base, `Sum)
    | None -> ( match strip "_count" with Some base -> (base, `Count) | None -> (name, `Plain)))

let validate_string s =
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let hists : (string, hist_state) Hashtbl.t = Hashtbl.create 8 in
  let samples = ref 0 in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let lines = String.split_on_char '\n' s in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest ->
      let next () = go (lineno + 1) rest in
      if line = "" then next ()
      else if String.length line >= 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: name :: _ :: _ ->
          if valid_name name then next () else err lineno (Printf.sprintf "bad HELP name %S" name)
        | "#" :: "TYPE" :: [ name; kind ] ->
          if not (valid_name name) then err lineno (Printf.sprintf "bad TYPE name %S" name)
          else if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
          then err lineno (Printf.sprintf "bad TYPE kind %S" kind)
          else if Hashtbl.mem types name then
            err lineno (Printf.sprintf "duplicate TYPE for %s" name)
          else begin
            Hashtbl.add types name kind;
            if kind = "histogram" then
              Hashtbl.add hists name
                {
                  buckets = [];
                  has_inf = false;
                  inf_value = nan;
                  sum_seen = false;
                  count_seen = false;
                  count_value = nan;
                };
            next ()
          end
        | "#" :: "HELP" :: _ -> err lineno "malformed HELP line"
        | _ -> err lineno "malformed comment line (want # HELP or # TYPE)"
      end
      else begin
        match parse_sample_head line with
        | Error e -> err lineno e
        | Ok (name, le, off) -> (
          if not (valid_name name) then err lineno (Printf.sprintf "bad metric name %S" name)
          else begin
            let value_tok = String.trim (String.sub line off (String.length line - off)) in
            match parse_value value_tok with
            | None -> err lineno (Printf.sprintf "bad sample value %S" value_tok)
            | Some v -> (
              let base, series = family name in
              let declared n =
                match Hashtbl.find_opt types n with
                | Some k -> Some (n, k)
                | None -> None
              in
              (* A histogram sample belongs to its family; anything else
                 must be declared under its own name. *)
              let decl =
                match series with
                | `Plain -> declared name
                | _ -> ( match declared base with Some d -> Some d | None -> declared name)
              in
              match decl with
              | None -> err lineno (Printf.sprintf "sample for undeclared metric %s" name)
              | Some (fam, kind) ->
                incr samples;
                (if kind = "histogram" then
                   match Hashtbl.find_opt hists fam with
                   | None -> ()
                   | Some h -> (
                     match series with
                     | `Bucket -> (
                       match le with
                       | None -> ()
                       | Some le_s ->
                         let le_v =
                           match parse_value le_s with Some f -> f | None -> nan
                         in
                         if le_v = infinity then begin
                           h.has_inf <- true;
                           h.inf_value <- v
                         end
                         else h.buckets <- (le_v, v) :: h.buckets)
                     | `Sum -> h.sum_seen <- true
                     | `Count ->
                       h.count_seen <- true;
                       h.count_value <- v
                     | `Plain -> ()));
                (* le is only meaningful on buckets; a bucket sample with
                   no le label is malformed. *)
                if kind = "histogram" && series = `Bucket && le = None then
                  err lineno (Printf.sprintf "%s_bucket without le label" fam)
                else next ())
          end)
      end
  in
  match go 1 lines with
  | Error e -> Error e
  | Ok () ->
    let check name h acc =
      match acc with
      | Error _ -> acc
      | Ok () ->
        let bs = List.rev h.buckets in
        let rec monotone prev = function
          | [] -> true
          | (_, c) :: rest -> c >= prev && monotone c rest
        in
        let rec le_increasing = function
          | (a, _) :: ((b, _) :: _ as rest) -> a < b && le_increasing rest
          | _ -> true
        in
        if not (monotone 0.0 bs) then
          Error (Printf.sprintf "histogram %s: cumulative buckets decrease" name)
        else if not (le_increasing bs) then
          Error (Printf.sprintf "histogram %s: le bounds not increasing" name)
        else if not h.has_inf then Error (Printf.sprintf "histogram %s: missing +Inf bucket" name)
        else if not h.count_seen then Error (Printf.sprintf "histogram %s: missing _count" name)
        else if h.count_value <> h.inf_value then
          Error (Printf.sprintf "histogram %s: _count %g <> +Inf bucket %g" name h.count_value h.inf_value)
        else if not h.sum_seen then Error (Printf.sprintf "histogram %s: missing _sum" name)
        else if (match bs with [] -> false | _ -> snd (List.nth bs (List.length bs - 1)) > h.inf_value)
        then Error (Printf.sprintf "histogram %s: finite bucket exceeds +Inf" name)
        else Ok ()
    in
    (match Hashtbl.fold check hists (Ok ()) with
    | Error e -> Error e
    | Ok () -> if !samples = 0 then Error "no samples" else Ok !samples)
