(* Benchmark & reproduction harness.

   Usage:
     dune exec bench/main.exe            -- run every experiment + micro-benchmarks
     dune exec bench/main.exe t1 e32     -- run selected experiment ids
     dune exec bench/main.exe list       -- list experiment ids
     dune exec bench/main.exe -- --json BENCH.json [--sizes 500,1000,2000]
                                         -- machine-readable perf report
                                            (combinable with experiment ids;
                                            exits 1 if any of its boolean
                                            invariants is false)
     dune exec bench/main.exe -- --json B.json --scale-only --scale 100000
                                         -- only the near-linear "scale"
                                            section (the CI scale smoke)
     ... --json B.json --telemetry T.jsonl [--telemetry-interval MS]
                                         -- sample runtime telemetry (counter
                                            deltas, gauges, GC, RSS) as JSONL
                                            while the report is measured

   One section is printed per paper artifact (table / figure / theorem); see
   DESIGN.md section 3 for the index and EXPERIMENTS.md for the recorded
   paper-vs-measured discussion. *)

module E = Ron_experiments

let experiments : (string * string * (unit -> unit)) list =
  [
    ("t1", "Table 1: routing schemes on doubling graphs", E.Exp_t1.run);
    ("t2", "Table 2: routing schemes on doubling metrics", E.Exp_t2.run);
    ("t3", "Table 3: the two routing modes of Theorem 4.2/B.1", E.Exp_t3.run);
    ("e21", "Theorem 2.1: stretch sweep", E.Exp_e21.run);
    ("e32", "Theorem 3.2: (0,delta)-triangulation", E.Exp_e32.run);
    ("e34", "Theorem 3.4: distance labels vs aspect ratio", E.Exp_e34.run);
    ("e41", "Theorem 4.1: headers vs aspect ratio", E.Exp_e41.run);
    ("e52a", "Theorem 5.2a: greedy small worlds", E.Exp_e52.run_a);
    ("e52b", "Theorem 5.2b: sqrt(log Delta) out-degree", E.Exp_e52.run_b);
    ("e54", "Theorem 5.4: comparison with STRUCTURES", E.Exp_e54.run);
    ("e55", "Theorem 5.5: single long-range contact", E.Exp_e55.run);
    ("esub", "Substrate lemmas (1.1-1.4, 1.3, 3.1/A.1)", E.Exp_esub.run);
    ("fig1", "Figure 1: flow of ideas as live dependencies", E.Exp_fig1.run);
    ("mer", "Meridian-style object location over rings (Sec 6)", E.Exp_mer.run);
    ("fault", "Fault injection & graceful degradation sweep", E.Exp_fault.run);
    ("scale", "Scaling regime: landmark labels over the on-demand oracle", E.Exp_scale.run);
    ("churn", "Dynamic membership: joins/leaves with incremental repair", E.Exp_churn.run);
  ]

(* ------------------------------------------------- Bechamel micro-benches *)

let micro () =
  let open Bechamel in
  let module Rng = Ron_util.Rng in
  let module Indexed = Ron_metric.Indexed in
  let module Generators = Ron_metric.Generators in
  let module Net = Ron_metric.Net in
  let module Measure = Ron_metric.Measure in
  let module Packing = Ron_metric.Packing in
  Printf.printf "\n================================================================================\n";
  Printf.printf "[MICRO] Bechamel micro-benchmarks (construction and query costs)\n";
  Printf.printf "================================================================================\n";
  let rng = Rng.create 7 in
  let idx = Indexed.create (Generators.random_cloud rng ~n:100 ~dim:2) in
  let hier = Net.Hierarchy.create idx in
  let mu = Measure.create idx hier in
  let tri = Ron_labeling.Triangulation.build idx ~delta:0.25 in
  let dls = Ron_labeling.Dls.build tri in
  let om = Ron_routing.On_metric.build idx ~delta:0.25 in
  let sp = Ron_graph.Sp_metric.create (Ron_graph.Graph_gen.grid 8 8) in
  let basic = Ron_routing.Basic.build sp ~delta:0.25 in
  let sw = Ron_smallworld.Doubling_a.build idx mu (Rng.split rng) in
  let qrng = Rng.create 77 in
  let tests =
    Test.make_grouped ~name:"rings-of-neighbors"
      [
        Test.make ~name:"indexed.create(n=100)" (Staged.stage (fun () -> Indexed.create (Indexed.metric idx)));
        Test.make ~name:"net-hierarchy.create" (Staged.stage (fun () -> Net.Hierarchy.create idx));
        Test.make ~name:"doubling-measure.create" (Staged.stage (fun () -> Measure.create idx hier));
        Test.make ~name:"packing.create(eps=1/8)" (Staged.stage (fun () -> Packing.create idx ~eps:0.125));
        Test.make ~name:"triangulation.estimate"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 100 and v = Rng.int qrng 100 in
               ignore (Ron_labeling.Triangulation.estimate tri u v)));
        Test.make ~name:"dls.estimate(label-only)"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 100 and v = Rng.int qrng 100 in
               ignore
                 (Ron_labeling.Dls.estimate (Ron_labeling.Dls.label dls u)
                    (Ron_labeling.Dls.label dls v))));
        Test.make ~name:"route.on-metric"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 100 and v = Rng.int qrng 100 in
               if u <> v then ignore (Ron_routing.On_metric.route om ~src:u ~dst:v)));
        Test.make ~name:"route.thm2.1-graph"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 64 and v = Rng.int qrng 64 in
               if u <> v then ignore (Ron_routing.Basic.route basic ~src:u ~dst:v)));
        Test.make ~name:"route.smallworld-greedy"
          (Staged.stage (fun () ->
               let u = Rng.int qrng 100 and v = Rng.int qrng 100 in
               if u <> v then
                 ignore (Ron_smallworld.Doubling_a.route sw ~src:u ~dst:v ~max_hops:100)));
      ]
  in
  let benchmark () =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Bechamel.Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = analyze (benchmark ()) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Printf.printf "%-48s %s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun (name, ols) ->
      let est =
        match Bechamel.Analyze.OLS.estimates ols with
        | Some [ e ] -> Printf.sprintf "%12.1f" e
        | _ -> "?"
      in
      Printf.printf "%-48s %s\n" name est)
    rows

let parse_sizes s =
  try
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
    |> List.map int_of_string
  with Failure _ ->
    Printf.eprintf "bad --sizes %S (expected e.g. 500,1000,2000)\n" s;
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_file = ref None and sizes = ref [ 500; 1000; 2000 ] in
  let scale_sizes = ref [ 10_000 ] and scale_only = ref false in
  let telemetry = ref None and telemetry_interval = ref 500 in
  let rec strip_flags = function
    | [] -> []
    | "--json" :: file :: rest ->
      json_file := Some file;
      strip_flags rest
    | [ "--json" ] ->
      Printf.eprintf "--json requires a file argument\n";
      exit 1
    | "--telemetry" :: file :: rest ->
      telemetry := Some file;
      strip_flags rest
    | [ "--telemetry" ] ->
      Printf.eprintf "--telemetry requires a file argument\n";
      exit 1
    | "--telemetry-interval" :: ms :: rest ->
      (match int_of_string_opt ms with
      | Some v when v >= 1 -> telemetry_interval := v
      | _ ->
        Printf.eprintf "bad --telemetry-interval %S (expected milliseconds >= 1)\n" ms;
        exit 1);
      strip_flags rest
    | [ "--telemetry-interval" ] ->
      Printf.eprintf "--telemetry-interval requires a milliseconds argument\n";
      exit 1
    | "--sizes" :: spec :: rest ->
      sizes := parse_sizes spec;
      strip_flags rest
    | [ "--sizes" ] ->
      Printf.eprintf "--sizes requires a comma-separated list (e.g. 500,1000,2000)\n";
      exit 1
    | "--scale" :: spec :: rest ->
      scale_sizes := parse_sizes spec;
      strip_flags rest
    | [ "--scale" ] ->
      Printf.eprintf "--scale requires a comma-separated list (e.g. 10000,100000)\n";
      exit 1
    | "--scale-only" :: rest ->
      scale_only := true;
      strip_flags rest
    | arg :: rest -> arg :: strip_flags rest
  in
  let ids = strip_flags args in
  (match (ids, !json_file) with
   | ([ "list" ], None) ->
     List.iter (fun (id, title, _) -> Printf.printf "%-6s %s\n" id title) experiments;
     Printf.printf "%-6s %s\n" "micro" "Bechamel micro-benchmarks"
   | ([], None) ->
     List.iter (fun (_, _, run) -> run ()) experiments;
     micro ()
   | ([], Some _) -> () (* JSON report only *)
   | (ids, _) ->
     List.iter
       (fun id ->
         if id = "micro" then micro ()
         else begin
           match List.find_opt (fun (i, _, _) -> i = id) experiments with
           | Some (_, _, run) -> run ()
           | None ->
             Printf.eprintf "unknown experiment id %S (try: dune exec bench/main.exe list)\n" id;
             exit 1
         end)
       ids);
  match !json_file with
  | Some file ->
    Bench_json.run ~scale_sizes:!scale_sizes ~scale_only:!scale_only
      ?telemetry:!telemetry ~telemetry_interval_ms:!telemetry_interval ~file ~sizes:!sizes ()
  | None ->
    if !telemetry <> None then begin
      Printf.eprintf "--telemetry requires --json (the sampler rides along the bench report)\n";
      exit 1
    end
