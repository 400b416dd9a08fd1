(* SLO burn-rate monitor for the serving path: rolling windows of a
   fixed observation count, each evaluated against latency-quantile
   objectives ("p99<=2us") and delivery-rate objectives
   ("delivery>=0.999") over a Histogram window, with the error
   budget burn rate computed per window:

     latency  p_q <= L : burn = fraction of observations above L
                                divided by the budget (1 - q)
     delivery      >= R : burn = (1 - delivered/count) / (1 - R)

   burn = 1.0 means the window spent its budget exactly; > 1 means the
   objective is burning faster than it can afford (the window violates
   once the measured quantile/rate itself crosses the limit).

   Feed observations from one domain only (the serving orchestrator,
   between batches, in qid order): windows are sequential state, and a
   single feeder is what makes verdicts bit-identical at every RON_JOBS
   when latencies come from the deterministic logical clock. All
   arithmetic is int ratios and parsed constants — no accumulation-order
   float sums — so the verdict JSON is byte-stable.

   The per-window latency histogram lives in the one registry (so
   telemetry snapshots see "slo.window_latency" live) and resets at
   every window close. Latencies are ints (clock units), so feeding a
   query allocates nothing outside a window close. *)

type objective =
  | Latency of { q : float; label : string; limit : float }
  | Delivery of { min_rate : float }

(* A zero error budget (q = 1 or min_rate = 1 cannot be written, but a
   spec like delivery>=1.0 is rejected at parse time anyway) would make
   burn infinite; any overrun is clamped here so JSON stays finite. *)
let burn_cap = 1e9

(* ------------------------------------------------------------ parsing *)

let parse_limit s =
  let scaled mult s =
    match float_of_string_opt s with
    | Some v when v > 0.0 && Float.is_finite v -> Ok (v *. mult)
    | _ -> Error (Printf.sprintf "bad latency limit %S" s)
  in
  let n = String.length s in
  let has_suffix suf = n > String.length suf && Filename.check_suffix s suf in
  let chop suf = String.sub s 0 (n - String.length suf) in
  if has_suffix "ns" then scaled 1.0 (chop "ns")
  else if has_suffix "us" then scaled 1e3 (chop "us")
  else if has_suffix "ms" then scaled 1e6 (chop "ms")
  else if has_suffix "s" then scaled 1e9 (chop "s")
  else scaled 1.0 s (* unitless: raw clock units (the logical clock) *)

let parse_term term =
  let split op =
    match String.index_opt term '=' with
    | Some i
      when i > 0
           && i + 1 < String.length term
           && term.[i - 1] = op ->
      Some (String.sub term 0 (i - 1), String.sub term (i + 1) (String.length term - i - 1))
    | _ -> None
  in
  match split '<' with
  | Some (lhs, rhs) ->
    if String.length lhs >= 2 && lhs.[0] = 'p' then begin
      let digits = String.sub lhs 1 (String.length lhs - 1) in
      if String.for_all (fun c -> c >= '0' && c <= '9') digits && digits <> "" then
        match float_of_string_opt ("0." ^ digits) with
        | Some q when q > 0.0 && q < 1.0 -> (
          match parse_limit rhs with
          | Ok limit -> Ok (Latency { q; label = lhs; limit })
          | Error e -> Error e)
        | _ -> Error (Printf.sprintf "bad quantile %S" lhs)
      else Error (Printf.sprintf "bad quantile %S" lhs)
    end
    else Error (Printf.sprintf "bad objective %S (want pNN<=LIMIT)" term)
  | None -> (
    match split '>' with
    | Some (lhs, rhs) ->
      if String.equal lhs "delivery" then
        match float_of_string_opt rhs with
        | Some r when r > 0.0 && r < 1.0 -> Ok (Delivery { min_rate = r })
        | _ -> Error (Printf.sprintf "bad delivery rate %S (want a rate in (0, 1))" rhs)
      else Error (Printf.sprintf "bad objective %S (want delivery>=RATE)" term)
    | None -> Error (Printf.sprintf "bad objective %S (want pNN<=LIMIT or delivery>=RATE)" term))

let parse spec =
  let terms =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if terms = [] then Error "empty SLO spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | t :: rest -> ( match parse_term t with Ok o -> go (o :: acc) rest | Error e -> Error e)
    in
    go [] terms

let describe_objective = function
  | Latency { label; limit; _ } -> Printf.sprintf "%s<=%g" label limit
  | Delivery { min_rate } -> Printf.sprintf "delivery>=%g" min_rate

let describe objectives = String.concat "," (List.map describe_objective objectives)

(* ------------------------------------------------------- evaluation *)

type window_result = { value : float; burn : float; violated : bool }

type window_summary = {
  w_index : int;
  w_count : int;
  w_ok : int;
  w_results : window_result array; (* objective order *)
}

type t = {
  objectives : objective array;
  spec : string;
  win : int;
  hist : Histogram.t;
  mutable w_index : int;
  mutable w_count : int;
  mutable w_ok : int;
  mutable summaries : window_summary list; (* newest first *)
  mutable max_burn : float;
  mutable violated_windows : int;
  mutable total_obs : int;
  mutable total_ok : int;
}

let create ?(window = 2000) ?(name = "slo") objectives =
  if window < 1 then invalid_arg "Slo.create: window < 1";
  if objectives = [] then invalid_arg "Slo.create: no objectives";
  let hist = Histogram.make (name ^ ".window_latency") in
  (* The registry is idempotent per name: a previous monitor with the
     same name may have left observations behind. *)
  Histogram.reset hist;
  {
    objectives = Array.of_list objectives;
    spec = describe objectives;
    win = window;
    hist;
    w_index = 0;
    w_count = 0;
    w_ok = 0;
    summaries = [];
    max_burn = 0.0;
    violated_windows = 0;
    total_obs = 0;
    total_ok = 0;
  }

let window t = t.win
let spec t = t.spec
let objectives t = Array.to_list t.objectives

(* Observations strictly above the limit, counted by bucket midpoint (the
   same representative the quantile estimator answers with), so value-
   and burn-violations agree to within one bucket. *)
let above_limit hist limit =
  let half = sqrt Histogram.gamma in
  Array.fold_left
    (fun a (upper, c) ->
      let mid = if upper = 0.0 then 0.0 else upper /. half in
      if mid > limit then a + c else a)
    0
    (Histogram.buckets hist)

let eval t ~count ~okc = function
  | Latency { q; limit; _ } ->
    let value = Histogram.quantile t.hist q in
    let above = above_limit t.hist limit in
    let budget = (1.0 -. q) *. float_of_int count in
    let burn =
      if above = 0 then 0.0
      else if budget <= 0.0 then burn_cap
      else Float.min burn_cap (float_of_int above /. budget)
    in
    { value; burn; violated = value > limit }
  | Delivery { min_rate } ->
    let rate = float_of_int okc /. float_of_int count in
    let err = count - okc in
    let budget = (1.0 -. min_rate) *. float_of_int count in
    let burn =
      if err = 0 then 0.0
      else if budget <= 0.0 then burn_cap
      else Float.min burn_cap (float_of_int err /. budget)
    in
    { value = rate; burn; violated = rate < min_rate }

let close t =
  let count = t.w_count and okc = t.w_ok in
  let results = Array.map (eval t ~count ~okc) t.objectives in
  let violations = Array.fold_left (fun a r -> if r.violated then a + 1 else a) 0 results in
  let wburn = Array.fold_left (fun a r -> Float.max a r.burn) 0.0 results in
  if wburn > t.max_burn then t.max_burn <- wburn;
  if violations > 0 then t.violated_windows <- t.violated_windows + 1;
  t.summaries <-
    { w_index = t.w_index; w_count = count; w_ok = okc; w_results = results } :: t.summaries;
  t.total_obs <- t.total_obs + count;
  t.total_ok <- t.total_ok + okc;
  if !Probe.on then Probe.slo_window ~violations ~burn:wburn ~worst_burn:t.max_burn;
  Histogram.reset t.hist;
  t.w_index <- t.w_index + 1;
  t.w_count <- 0;
  t.w_ok <- 0

let observe t ~lat ~ok =
  Histogram.observe_int t.hist lat;
  t.w_count <- t.w_count + 1;
  if ok then t.w_ok <- t.w_ok + 1;
  if t.w_count >= t.win then close t

let finish t = if t.w_count > 0 then close t

let windows t = List.rev t.summaries
let windows_closed t = List.length t.summaries
let violated_windows t = t.violated_windows
let max_burn t = t.max_burn
let ok t = t.violated_windows = 0

(* ------------------------------------------------------------- verdict *)

let objective_json = function
  | Latency { q; label; limit } ->
    Json.Obj
      [
        ("kind", Json.String "latency");
        ("p", Json.String label);
        ("q", Json.Float q);
        ("limit", Json.Float limit);
      ]
  | Delivery { min_rate } ->
    Json.Obj [ ("kind", Json.String "delivery"); ("min_rate", Json.Float min_rate) ]

let result_json o (r : window_result) =
  Json.Obj
    [
      ("objective", Json.String (describe_objective o));
      ("value", Json.Float r.value);
      ("burn", Json.Float r.burn);
      ("violated", Json.Bool r.violated);
    ]

let window_json t (w : window_summary) =
  Json.Obj
    [
      ("window", Json.Int w.w_index);
      ("count", Json.Int w.w_count);
      ("delivered", Json.Int w.w_ok);
      ( "results",
        Json.List (List.map2 result_json (Array.to_list t.objectives) (Array.to_list w.w_results))
      );
    ]

let to_json ?flight t =
  let base =
    [
      ("schema", Json.String "ron-slo/1");
      ("spec", Json.String t.spec);
      ("window", Json.Int t.win);
      ("objectives", Json.List (List.map objective_json (Array.to_list t.objectives)));
      ("windows", Json.List (List.map (window_json t) (windows t)));
      ( "totals",
        Json.Obj
          [
            ("windows", Json.Int (List.length t.summaries));
            ("violated_windows", Json.Int t.violated_windows);
            ("max_burn", Json.Float t.max_burn);
            ("observations", Json.Int t.total_obs);
            ("delivered", Json.Int t.total_ok);
          ] );
      ("ok", Json.Bool (ok t));
    ]
  in
  match flight with None -> Json.Obj base | Some f -> Json.Obj (base @ [ ("flight", f) ])
