(* Tests for the ron_serve library: frozen snapshots must answer
   byte-identically to the live schemes they were frozen from, survive a
   save/load round-trip unchanged at every job count, and reject corrupted
   images. *)

module Server = Ron_serve.Server
module Loop = Ron_serve.Loop
module Fixture = Ron_serve.Fixture
module Image = Ron_serve.Image
module Scheme = Ron_routing.Scheme

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let outcome_code = function
  | Scheme.Delivered -> 0
  | Scheme.Truncated -> 1
  | Scheme.Self_forward -> 2
  | Scheme.Cycled -> 3
  | Scheme.Dropped -> 4

(* One small workload per scheme; labelled is per-query expensive, so its
   instance and workload stay tiny. *)
let case scheme = if scheme = "labelled" then (scheme, 49, 60) else (scheme, 100, 300)

let workload_for t ~queries =
  Loop.prepare t ~seed:11 ~queries ~zipf_s:1.1 ~route_frac:0.6 ~dist_frac:0.3

(* ---------------------------------------- basic image vs join oracle *)

module A1 = Bigarray.Array1
module Basic = Ron_routing.Basic
module Structure = Ron_routing.Structure
module Rings = Ron_core.Rings

(* The Basic image's structure sections, read back as columns. *)
let basic_cols (img : Image.t) =
  let sec k = img.Image.isecs.(k) in
  {
    Structure.n = A1.get (sec 0) 0;
    scales = A1.get (sec 0) 1;
    label_first = sec 1;
    label_rest = sec 2;
    ring_off = sec 3;
    ring_node = sec 4;
    z_run = sec 5;
    z_y = img.Image.usecs.(0);
    z_z = img.Image.usecs.(1);
  }

(* The Basic image freezes the rows of every zeta as Structure built them
   (int section 5 and the uint16 sections over the ring offsets, int
   section 3); read back per segment, they must equal the hash-join
   oracle's sorted triples. The ring sections must list the rings'
   members, and every label must decode at every node as the oracle's
   walk decodes it. *)
let test_basic_image_matches_oracle () =
  let s =
    match Fixture.build_live ~scheme:"basic" ~n:100 ~seed:5 with
    | Fixture.L_basic s -> s
    | _ -> assert false
  in
  let img = Server.freeze_basic (Basic.export s) in
  let rings = Basic.rings_collection s in
  let oracle = Zeta_oracle.build rings ~scales:(Basic.scales s) in
  let c = basic_cols img in
  check_bool "int sections 3, 5 and the uint16 sections"
    (Zeta_oracle.of_rows c = Zeta_oracle.segments oracle);
  let scales = c.Structure.scales in
  let m = Array.make scales 0 in
  for u = 0 to c.Structure.n - 1 do
    for j = 0 to scales - 1 do
      let r = (u * scales) + j in
      let lo = A1.get c.Structure.ring_off r in
      check_bool "int sections 3-4"
        (Array.init (A1.get c.Structure.ring_off (r + 1) - lo) (fun x ->
             A1.get c.Structure.ring_node (lo + x))
        = (Rings.rings_of rings u).(j).Rings.members)
    done;
    for t = 0 to c.Structure.n - 1 do
      let jut = Structure.decode c u c t m in
      check_bool "int sections 1-2 decode"
        (Array.sub m 0 (jut + 1) = Zeta_oracle.decode oracle u (Zeta_oracle.label_of c t))
    done
  done

(* ------------------------------------------------ basic image validation *)

(* A crafted Basic image passes the checksums once saved, so [of_image]
   checks its structure: each mutation below must load as an [Error] that
   names the scheme and the section. Sections are shared with the live
   scheme, so each mutation works on a copy. *)
let basic_image = lazy (Server.image (Fixture.build ~scheme:"basic" ~n:64 ~seed:5))

let copy_ints (a : Image.ints) =
  let b = Image.ints_create (A1.dim a) in
  A1.blit a b;
  b

let mutate_isec img k f =
  let a = copy_ints img.Image.isecs.(k) in
  f a;
  { img with Image.isecs = Array.mapi (fun j s -> if j = k then a else s) img.Image.isecs }

let mutate_fsec img k f =
  let a = Image.floats_create (A1.dim img.Image.fsecs.(k)) in
  A1.blit img.Image.fsecs.(k) a;
  f a;
  { img with Image.fsecs = Array.mapi (fun j s -> if j = k then a else s) img.Image.fsecs }

let mutate_usec img k f =
  let a = Image.u16s_create (A1.dim img.Image.usecs.(k)) in
  A1.blit img.Image.usecs.(k) a;
  f a;
  { img with Image.usecs = Array.mapi (fun j s -> if j = k then a else s) img.Image.usecs }

let with_isec k f = mutate_isec (Lazy.force basic_image) k f

let expect_rejected ?(scheme = "basic") section img =
  match Server.of_image img with
  | Ok _ -> Alcotest.failf "%s image with a bad %s accepted" scheme section
  | Error e ->
    check_bool
      (Printf.sprintf "error names %s and %s: %s" scheme section e)
      (contains e scheme && contains e section)

(* An intact image loads, also after a save. *)
let intact scheme img () =
  let img = Lazy.force img in
  check_bool (scheme ^ " of_image") (Result.is_ok (Server.of_image img));
  let file = Filename.temp_file "ron_serve_test" ".snap" in
  Image.save img file;
  let loaded = Server.load file in
  Sys.remove file;
  check_bool (scheme ^ " saved and loaded") (Result.is_ok loaded)

(* The image survives a save: its checksums are valid, so [Server.load]
   must still refuse it, naming the scheme and the section. *)
let expect_load_rejected scheme section img =
  let file = Filename.temp_file "ron_serve_test" ".snap" in
  Image.save img file;
  let loaded = Server.load file in
  Sys.remove file;
  match loaded with
  | Ok _ -> Alcotest.failf "%s image with bad %s loaded" scheme section
  | Error e ->
    check_bool
      (Printf.sprintf "error names %s and %s: %s" scheme section e)
      (contains e scheme && contains e section)

(* Sections: 0 meta (n, scales, max_hops, header bits), 1 label_first,
   2 label_rest, 3 ring_off, 4 ring_node, 5 z_run, 6 t_off, 7 t_w,
   8 t_next; float 0 t_cost; uint16 0 z_y, 1 z_z. *)
let basic_mutations =
  let ring_size (off : Image.ints) r = A1.get off (r + 1) - A1.get off r in
  [
    ("intact image loads", intact "basic" basic_image);
    ( "meta n disagrees with section lengths",
      fun () ->
        expect_rejected "label_first" (with_isec 0 (fun a -> A1.set a 0 (A1.get a 0 + 1))) );
    ( "meta scales disagrees with section lengths",
      fun () ->
        expect_rejected "label_rest" (with_isec 0 (fun a -> A1.set a 1 (A1.get a 1 + 1))) );
    ( "max_hops unbounded",
      fun () -> expect_rejected "max_hops" (with_isec 0 (fun a -> A1.set a 2 max_int)) );
    ( "ring_off not monotone",
      fun () ->
        expect_rejected "ring_off" (with_isec 3 (fun a -> A1.set a 5 (A1.get a 6 + 1))) );
    ( "z_run entries after the first out of range",
      fun () ->
        expect_rejected "z_run"
          (with_isec 5 (fun a -> A1.fill (A1.sub a 1 (A1.dim a - 1)) (1 lsl 40))) );
    ( "t_off not ending at the table",
      fun () ->
        expect_rejected "t_off" (with_isec 6 (fun a -> A1.set a (A1.dim a - 1) (1 lsl 40))) );
    ( "ring member not a node",
      fun () ->
        let n = A1.get (Lazy.force basic_image).Image.isecs.(0) 0 in
        expect_rejected "ring_node" (with_isec 4 (fun a -> A1.set a 0 n)) );
    ( "table target not a node",
      fun () -> expect_rejected "t_w" (with_isec 7 (fun a -> A1.set a 0 (-1))) );
    ( "every next hop 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "basic" "t_next" (with_isec 8 (fun a -> A1.fill a (1 lsl 40))) );
    ( "z outside the next ring",
      fun () ->
        (* Entry 0 belongs to the first ring r with rows; its z indexes
           ring r + 1, so that ring's size is the first bad value. *)
        let img = Lazy.force basic_image in
        let off = img.Image.isecs.(3) and run = img.Image.isecs.(5) in
        let rec first_ring r =
          if A1.get run (A1.get off (r + 1)) > 0 then r else first_ring (r + 1)
        in
        let size = ring_size off (first_ring 0 + 1) in
        expect_rejected "z_z" (mutate_usec img 1 (fun a -> A1.set a 0 size)) );
    ( "label first index outside ring 0",
      fun () ->
        let img = Lazy.force basic_image in
        let size = ring_size img.Image.isecs.(3) 0 in
        expect_rejected "label_first" (with_isec 1 (fun a -> A1.set a 0 size)) );
    ( "non-finite and negative costs",
      fun () ->
        List.iter
          (fun bad ->
            let img = Lazy.force basic_image in
            let c = Image.floats_create (A1.dim img.Image.fsecs.(0)) in
            A1.blit img.Image.fsecs.(0) c;
            A1.set c 0 bad;
            expect_rejected "t_cost" { img with Image.fsecs = [| c |] })
          [ nan; infinity; -1.0 ] );
    ( "parent layout rejected",
      fun () ->
        (* Two earlier layouts, both with int z_y/z_z sections: 11 int
           sections, and before them a 3-entry meta, a per-destination
           header bits section, and z_off/z_x columns before z_y/z_z. *)
        let img = Lazy.force basic_image in
        let i = img.Image.isecs and u = img.Image.usecs in
        let n = A1.get i.(0) 0 in
        let widened (a : Image.u16s) = Image.ints_of_array (Array.init (A1.dim a) (A1.get a)) in
        let int_zetas =
          [| i.(0); i.(1); i.(2); i.(3); i.(4); i.(5);
             widened u.(0); widened u.(1); i.(6); i.(7); i.(8) |]
        in
        let older =
          [|
            Image.ints_of_array [| n; A1.get i.(0) 1; A1.get i.(0) 2 |];
            Image.ints_of_array (Array.make n (A1.get i.(0) 3));
            i.(1); i.(2); i.(3); i.(4);
            Image.ints_create 0; Image.ints_create 0;
            widened u.(0); widened u.(1); i.(6); i.(7); i.(8);
          |]
        in
        List.iter
          (fun isecs -> expect_rejected "basic" { img with Image.isecs; usecs = [||] })
          [ int_zetas; older ] );
  ]

(* ------------------------------------ labelled and two_mode validation *)

(* The same for the two DLS-backed views: one mutation per section the
   validator bounds, each loading as an [Error] naming the scheme and the
   section. The 2^40 cases crashed the server before the views were
   validated. *)
let labelled_image = lazy (Server.image (Fixture.build ~scheme:"labelled" ~n:49 ~seed:5))
let two_mode_image = lazy (Server.image (Fixture.build ~scheme:"two_mode" ~n:64 ~seed:5))
let big = 1 lsl 40
let meta img k = A1.get img.Image.isecs.(0) k

(* Int section [k] without its first entry. *)
let shortened k img =
  let cut j s = if j = k then A1.sub s 1 (A1.dim s - 1) else s in
  { img with Image.isecs = Array.mapi cut img.Image.isecs }

(* Set entry [i] of int (or float) section [k]. *)
let set_i k i v img = mutate_isec img k (fun a -> A1.set a i v)
let set_f k i v img = mutate_fsec img k (fun a -> A1.set a i v)

let rejects scheme img cases =
  List.map
    (fun (name, section, m) ->
      (name, fun () -> expect_rejected ~scheme section (m (Lazy.force img))))
    cases

(* Mutations of the DLS sections, shared by both views: the DLS meta
   section is int section [d], d_val float section [dv]. *)
let dls_cases ~d ~dv =
  let dls_meta img k = A1.get img.Image.isecs.(d) k in
  [
    ("DLS max_virt above n", "dls_meta", fun img -> set_i d 3 (meta img 0 + 1) img);
    ("DLS prefix longer than a label", "dls_meta", set_i d 2 big);
    ("d_off past d_val", "d_off", set_i (d + 1) 1 big);
    ( "zoom_first outside the prefix", "zoom_first",
      fun img -> set_i (d + 2) 0 (dls_meta img 2) img );
    ("zoom_rest not a virtual index", "zoom_rest", fun img -> set_i (d + 3) 0 (dls_meta img 3) img);
    ("z_off not monotone", "z_off", set_i (d + 4) 1 big);
    ("z_y negative", "z_y", set_i (d + 6) 0 (-1));
    ("z_z 2^40", "z_z", set_i (d + 7) 0 big);
    ("d_val not finite", "d_val", set_f dv 0 nan);
  ]

(* Labelled sections: 0 meta (n, max_hops), 1 header bits, 2 t_off,
   3 t_w, 4 t_next, 5-12 the DLS pack; float 0 t_cost, 1 d_val. *)
let labelled_mutations =
  let img = labelled_image in
  [
    ("intact image loads", intact "labelled" img);
    ( "every next hop 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "labelled" "t_next"
          (mutate_isec (Lazy.force img) 4 (fun a -> A1.fill a big)) );
  ]
  @ rejects "labelled" img
      ([
         ("max_hops unbounded", "meta", set_i 0 1 max_int);
         ("header bits not per node", "header_bits", shortened 1);
         ("t_off not ending at the table", "t_off", fun img ->
             set_i 2 (A1.dim img.Image.isecs.(2) - 1) big img);
         ("table target not a node", "t_w", fun img -> set_i 3 0 (meta img 0) img);
         ("negative cost", "t_cost", set_f 0 0 (-1.0));
       ]
      @ dls_cases ~d:5 ~dv:1)

(* Two_mode sections: 0 meta (n, li, max_hops, header bits), 1 hub_ptr,
   2 hub_g, 3 dir_off, 4 dir_mem, 5 dir_bnd, 6 own_off, 7 own_tgt,
   8 hosts, 9-16 the DLS pack; float 0 threshold, 1 r_level, 2 dist,
   3 d_val. *)
let two_mode_mutations =
  let img = two_mode_image in
  [
    ("intact image loads", intact "two_mode" img);
    ( "every host 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "two_mode" "hosts"
          (mutate_isec (Lazy.force img) 8 (fun a -> A1.fill a big)) );
  ]
  @ rejects "two_mode" img
      ([
         ("max_hops unbounded", "meta", set_i 0 2 max_int);
         ("hub pointer not a node", "hub_ptr", fun img -> set_i 1 0 (meta img 0) img);
         ("hub_g names no directory", "hub_g", fun img ->
             set_i 2 0 (A1.dim img.Image.isecs.(3) - 1) img);
         ("empty directory", "dir_off", set_i 3 1 0);
         ("directory member not a node", "dir_mem", set_i 4 0 (-1));
         ("boundaries not per member", "dir_bnd", shortened 5);
         ("owned offsets past the targets", "own_off", fun img ->
             set_i 6 (A1.dim img.Image.isecs.(6) - 1) big img);
         ("owned target not a node", "own_tgt", fun img -> set_i 7 0 (meta img 0) img);
         ("threshold 1/2", "threshold", set_f 0 0 0.5);
         ("r_level not finite", "r_level", set_f 1 0 infinity);
         ("negative distance", "dist", set_f 2 1 (-1.0));
       ]
      @ dls_cases ~d:9 ~dv:3)

(* ------------------------------------ meridian and landmark validation *)

(* The two views without a route: one mutation per section, each loading
   as an [Error] naming the scheme and the section. The 2^40 cases made
   the server crash before these views were validated. *)
let meridian_image = lazy (Server.image (Fixture.build ~scheme:"meridian" ~n:100 ~seed:5))
let landmark_image = lazy (Server.image (Fixture.build ~scheme:"landmark" ~n:100 ~seed:5))

(* Float section [k] without its first entry. *)
let shortened_f k img =
  let cut j s = if j = k then A1.sub s 1 (A1.dim s - 1) else s in
  { img with Image.fsecs = Array.mapi cut img.Image.fsecs }

let last img k = A1.dim img.Image.isecs.(k) - 1

(* Meridian sections: 0 meta (n, scales), 1 mmembers, 2 mr_off,
   3 mr_node; float 0 mdmat. *)
let meridian_mutations =
  let img = meridian_image in
  [
    ("intact image loads", intact "meridian" img);
    ( "every ring entry 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "meridian" "mr_node"
          (mutate_isec (Lazy.force img) 3 (fun a -> A1.fill a big)) );
  ]
  @ rejects "meridian" img
      [
        ("no scales", "meta", set_i 0 1 0);
        ("member not a node", "mmembers", fun img -> set_i 1 0 (meta img 0) img);
        ("no members", "mmembers", fun img ->
            let cut j s = if j = 1 then A1.sub s 0 0 else s in
            { img with Image.isecs = Array.mapi cut img.Image.isecs });
        ("ring offsets not per (node, scale)", "mr_off", shortened 2);
        ("ring offsets past the ring column", "mr_off", fun img -> set_i 2 (last img 2) big img);
        ("ring entry not a node", "mr_node", set_i 3 0 (-1));
        ("distances not n x n", "mdmat", shortened_f 0);
        ("negative distance", "mdmat", set_f 0 1 (-1.0));
      ]

(* Landmark sections: 0 meta (n, k), 1 beacons, 2 col, 3 ball_off,
   4 ball_node; float 0 rows, 1 ball_dist. *)
let landmark_mutations =
  let img = landmark_image in
  [
    ("intact image loads", intact "landmark" img);
    ( "every col entry 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "landmark" "col"
          (mutate_isec (Lazy.force img) 2 (fun a -> A1.fill a big)) );
  ]
  @ rejects "landmark" img
      [
        ("more beacons than nodes", "meta", fun img -> set_i 0 1 (meta img 0 + 1) img);
        ("beacons not k long", "beacons", shortened 1);
        ("beacon not a node", "beacons", fun img -> set_i 1 0 (meta img 0) img);
        ("col not per node", "col", shortened 2);
        ("col below -1", "col", set_i 2 0 (-2));
        ("col names no beacon", "col", fun img -> set_i 2 0 (meta img 1) img);
        ("ball offsets past the ball column", "ball_off", fun img -> set_i 3 (last img 3) big img);
        ("ball member not a node", "ball_node", fun img -> set_i 4 0 (meta img 0) img);
        ("rows not k x n", "rows", shortened_f 0);
        ("row entry not finite", "rows", set_f 0 0 nan);
        ("ball distances not per member", "ball_dist", shortened_f 1);
        ("negative ball distance", "ball_dist", set_f 1 0 (-1.0));
      ]

(* ------------------------------------------- frozen vs live, per query *)

(* The reference result for query [i], computed through the live scheme's
   own public API: [Some error] on the first field that differs. *)
let live_mismatch live t work res i =
  let kind = Loop.kind_of work i and src = Loop.src_of work i and dst = Loop.dst_of work i in
  let module A1 = Bigarray.Array1 in
  let fail what =
    Some (Printf.sprintf "%s q%d (%d->%d) %s" (Server.scheme_name t) i src dst what)
  in
  let first checks = List.find_map (fun (what, ok) -> if ok then None else fail what) checks in
  let route (r : Scheme.result) =
    first
      [
        ("outcome", outcome_code r.Scheme.outcome = A1.get res.Loop.ra i);
        ("hops", r.Scheme.hops = A1.get res.Loop.rb i);
        ("length", Float.equal r.Scheme.length (A1.get res.Loop.rx i));
        ("header bits", r.Scheme.max_header_bits = int_of_float (A1.get res.Loop.ry i));
      ]
  in
  let dist (lo, hi) =
    first
      [
        ("lo", Float.equal lo (A1.get res.Loop.rx i));
        ("hi", Float.equal hi (A1.get res.Loop.ry i));
      ]
  in
  let point d = dist (d, d) in
  match (live, kind) with
  | (Fixture.L_basic s, 0) -> route (Ron_routing.Basic.route s ~src ~dst)
  | (Fixture.L_labelled s, 0) -> route (Ron_routing.Labelled.route s ~src ~dst)
  | (Fixture.L_labelled s, 1) -> point (Ron_routing.Labelled.estimate s src dst)
  | (Fixture.L_two_mode s, 0) -> route (Ron_routing.Two_mode.route s ~src ~dst)
  | (Fixture.L_two_mode s, 1) -> point (Ron_routing.Two_mode.estimate s src dst)
  | (Fixture.L_meridian s, 2) ->
    let r = Ron_smallworld.Meridian.closest s ~start:src ~target:dst in
    first
      [
        ("found", r.Ron_smallworld.Meridian.found = A1.get res.Loop.ra i);
        ("hops", r.Ron_smallworld.Meridian.hops = A1.get res.Loop.rb i);
        ( "measurements",
          r.Ron_smallworld.Meridian.measurements = int_of_float (A1.get res.Loop.rx i) );
      ]
  | (Fixture.L_landmark s, 1) -> dist (Ron_labeling.Landmark.estimate s src dst)
  | _ -> fail (Printf.sprintf "unexpected effective kind %d" kind)

(* Differential harness: for a random instance size and seed, every frozen
   answer equals the live scheme's. Sizes stay small enough for the
   per-query cost of the label-based schemes. *)
let size_range = function
  | "labelled" -> (16, 49)
  | "two_mode" -> (20, 64)
  | _ -> (16, 100)

let prop_matches_live ?(name = "") ?size ?(build = Fixture.build_live) scheme =
  let lo, hi = Option.value size ~default:(size_range scheme) in
  QCheck.Test.make ~name:(scheme ^ name) ~count:4
    QCheck.(pair (int_range lo hi) (int_range 1 1000))
    (fun (n, seed) ->
      let live = build ~scheme ~n ~seed in
      let t = Fixture.freeze live in
      let queries = if scheme = "labelled" then 60 else 200 in
      let work = Loop.prepare t ~seed ~queries ~zipf_s:1.1 ~route_frac:0.6 ~dist_frac:0.3 in
      let res = Loop.results_create queries in
      Loop.run ~jobs:1 t work res;
      let rec go i =
        i >= queries
        ||
        match live_mismatch live t work res i with
        | None -> go (i + 1)
        | Some e -> QCheck.Test.fail_report e
      in
      go 0)

(* Basic beyond the fixture's grids, where every node's rings look alike:
   random geometric graphs, and the exponential-line graph, which has the
   most scales. *)
let basic_on graph ~scheme:_ ~n ~seed =
  Fixture.L_basic (Basic.build (Ron_graph.Sp_metric.create (graph ~n ~seed)) ~delta:0.25)

let basic_families =
  [
    prop_matches_live "basic" ~name:" on random geometric graphs"
      ~build:
        (basic_on (fun ~n ~seed ->
             Ron_graph.Graph_gen.random_geometric (Ron_util.Rng.create seed) ~n ~radius:0.3));
    prop_matches_live "basic" ~name:" on the exponential line" ~size:(8, 40)
      ~build:(basic_on (fun ~n ~seed:_ -> Ron_graph.Graph_gen.exponential_line_graph n));
  ]

(* Two_mode where M2 carries most routes: exponential clusters with a
   strict M1 threshold, so the frozen M2 resolution is compared hop for
   hop with the live one (the fixture's clouds route in single M1 hops). *)
let two_mode_forced_m2 ~scheme:_ ~n:_ ~seed =
  Fixture.L_two_mode
    (Ron_routing.Two_mode.build ~m1_threshold:0.01
       (Ron_metric.Indexed.create
          (Ron_metric.Generators.exponential_clusters (Ron_util.Rng.create seed) ~clusters:10
             ~per_cluster:6 ~base:64.0))
       ~delta:0.125)

let two_mode_families =
  [ prop_matches_live "two_mode" ~name:" forced into M2" ~build:two_mode_forced_m2 ]

(* The forced-M2 instance really switches on the queries it serves. *)
let test_forced_m2_switches () =
  match two_mode_forced_m2 ~scheme:"two_mode" ~n:0 ~seed:9 with
  | Fixture.L_two_mode s as live ->
    let t = Fixture.freeze live in
    let work = workload_for t ~queries:200 in
    for i = 0 to Loop.queries work - 1 do
      if Loop.kind_of work i = 0 then
        ignore (Ron_routing.Two_mode.route s ~src:(Loop.src_of work i) ~dst:(Loop.dst_of work i))
    done;
    check_bool "M1 -> M2 switches" (Ron_routing.Two_mode.mode2_switches s > 0)
  | _ -> assert false

(* --------------------------------------- round-trip and jobs invariance *)

let test_roundtrip scheme () =
  let (scheme, n, queries) = case scheme in
  let t = Fixture.build ~scheme ~n ~seed:5 in
  let work = workload_for t ~queries in
  let res = Loop.results_create queries in
  Loop.run ~jobs:1 t work res;
  let reference = Loop.digest res in
  Loop.run ~jobs:4 t work res;
  check_int (scheme ^ " jobs=4 digest") reference (Loop.digest res);
  let file = Filename.temp_file "ron_serve_test" ".snap" in
  Server.save t file;
  let loaded =
    match Server.load file with
    | Ok t -> t
    | Error e -> Alcotest.failf "%s: load failed: %s" scheme e
  in
  Sys.remove file;
  check_int (scheme ^ " loaded tag") (Server.scheme_tag t) (Server.scheme_tag loaded);
  check_int (scheme ^ " loaded size") (Server.size t) (Server.size loaded);
  Loop.run ~jobs:1 loaded work res;
  check_int (scheme ^ " loaded jobs=1 digest") reference (Loop.digest res);
  Loop.run ~jobs:4 loaded work res;
  check_int (scheme ^ " loaded jobs=4 digest") reference (Loop.digest res)

(* ------------------------------------------------- corruption rejection *)

let test_corrupt_rejected () =
  let t = Fixture.build ~scheme:"meridian" ~n:60 ~seed:5 in
  let file = Filename.temp_file "ron_serve_test" ".snap" in
  Server.save t file;
  (* Flip one byte in the last section's payload: the per-section FNV
     checksum must catch it. *)
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (size - 5) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd (size - 5) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  (match Server.load file with
  | Ok _ -> Alcotest.fail "corrupted snapshot accepted"
  | Error e -> check_bool "mentions checksum" (contains e "checksum"));
  Sys.remove file

let test_truncated_rejected () =
  let t = Fixture.build ~scheme:"landmark" ~n:49 ~seed:5 in
  let file = Filename.temp_file "ron_serve_test" ".snap" in
  Server.save t file;
  let size = (Unix.stat file).Unix.st_size in
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0 in
  Unix.ftruncate fd (size / 2);
  Unix.close fd;
  (match Server.load file with
  | Ok _ -> Alcotest.fail "truncated snapshot accepted"
  | Error _ -> ());
  Sys.remove file

(* ------------------------------------------------------ uint16 sections *)

(* Unsigned little-endian value of the [width] bytes at [off]. *)
let le (s : string) off width =
  let v = ref 0L in
  for k = width - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + k]))
  done;
  !v

(* The file's layout re-derived from its bytes: a 56-byte header and 16
   bytes per section, then each section's elements little-endian at an
   8-byte-aligned offset, any padding zero, and nothing after the last
   section. Each table entry holds the section's length and the FNV-1a
   hash of its payload's 64-bit words, padding included. *)
let layout_ok file (img : Image.t) =
  let s = In_channel.with_open_bin file In_channel.input_all in
  let count = Array.length img.Image.isecs + Array.length img.fsecs + Array.length img.usecs in
  let pos = ref (56 + (16 * count)) in
  let ok = ref true in
  let entry = ref 0 in
  let section ~width ~bytes n elt =
    let table = 56 + (16 * !entry) in
    ok := !ok && !pos mod 8 = 0 && !pos + bytes <= String.length s;
    ok := !ok && le s table 8 = Int64.of_int n;
    if !ok then begin
      for e = 0 to n - 1 do
        ok := !ok && le s (!pos + (e * width)) width = elt e
      done;
      for b = n * width to bytes - 1 do
        ok := !ok && s.[!pos + b] = '\000'
      done;
      let h = ref 0xcbf29ce484222325L in
      for w = 0 to (bytes / 8) - 1 do
        h := Int64.mul (Int64.logxor !h (le s (!pos + (8 * w)) 8)) 0x100000001b3L
      done;
      ok := !ok && le s (table + 8) 8 = !h
    end;
    incr entry;
    pos := !pos + bytes
  in
  Array.iter
    (fun a -> section ~width:8 ~bytes:(8 * A1.dim a) (A1.dim a) (fun e -> Int64.of_int a.{e}))
    img.isecs;
  Array.iter
    (fun a ->
      section ~width:8 ~bytes:(8 * A1.dim a) (A1.dim a) (fun e -> Int64.bits_of_float a.{e}))
    img.fsecs;
  Array.iter
    (fun a ->
      section ~width:2 ~bytes:(8 * ((A1.dim a + 3) / 4)) (A1.dim a) (fun e -> Int64.of_int a.{e}))
    img.usecs;
  !ok && !pos = String.length s

let same_sections (a : Image.t) (b : Image.t) =
  let same eq x y =
    let same_sec s t =
      A1.dim s = A1.dim t && List.for_all (fun e -> eq s.{e} t.{e}) (List.init (A1.dim s) Fun.id)
    in
    Array.length x = Array.length y && Array.for_all2 same_sec x y
  in
  a.Image.scheme = b.Image.scheme
  && same Int.equal a.isecs b.isecs
  && same (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a.fsecs b.fsecs
  && same Int.equal a.usecs b.usecs

(* Random images mixing the three kinds; uint16 sections take odd
   lengths (1 included) or none. *)
let arb_image =
  let open QCheck.Gen in
  let secs len elt = list_size (int_range 0 3) (list_size len elt) in
  let u16_len = oneof [ return 0; map (fun k -> (2 * k) + 1) (int_range 0 8) ] in
  let gen =
    map3
      (fun is fs us ->
        {
          Image.scheme = 1;
          isecs = Array.of_list (List.map (fun l -> Image.ints_of_array (Array.of_list l)) is);
          fsecs = Array.of_list (List.map (fun l -> Image.floats_of_array (Array.of_list l)) fs);
          usecs =
            Array.of_list
              (List.map
                 (fun l ->
                   let a = Image.u16s_create (List.length l) in
                   List.iteri (A1.set a) l;
                   a)
                 us);
        })
      (secs (int_range 0 9) int) (secs (int_range 0 9) float) (secs u16_len (int_range 0 0xffff))
  in
  let print (img : Image.t) =
    let dims secs = String.concat "," (List.map (fun s -> string_of_int (A1.dim s)) secs) in
    Printf.sprintf "int [%s] float [%s] uint16 [%s]"
      (dims (Array.to_list img.Image.isecs)) (dims (Array.to_list img.fsecs))
      (dims (Array.to_list img.usecs))
  in
  QCheck.make ~print gen

let prop_image_roundtrip =
  QCheck.Test.make ~name:"mixed sections round-trip" ~count:200 arb_image (fun img ->
      let file = Filename.temp_file "ron_serve_test" ".snap" in
      Image.save img file;
      let size = (Unix.stat file).Unix.st_size in
      let layout = layout_ok file img in
      let loaded = Image.load file in
      Sys.remove file;
      match loaded with
      | Error e -> QCheck.Test.fail_report e
      | Ok back -> size = Image.byte_size img && layout && same_sections img back)

(* A saved basic snapshot and the offset of its first uint16 payload
   (z_y): header, section table, then the int and float payloads. *)
let basic_snapshot () =
  let img = Lazy.force basic_image in
  let file = Filename.temp_file "ron_serve_test" ".snap" in
  Image.save img file;
  let words secs = Array.fold_left (fun acc s -> acc + A1.dim s) 0 secs in
  let count = Array.length img.Image.isecs + Array.length img.fsecs + Array.length img.usecs in
  (file, 56 + (16 * count) + (8 * (words img.isecs + words img.fsecs)), A1.dim img.usecs.(0))

let load_error file =
  let r = Server.load file in
  Sys.remove file;
  match r with Ok _ -> Alcotest.fail "damaged snapshot accepted" | Error e -> e

let patch_byte file off f =
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (f (Char.code (Bytes.get b 0))));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_u16_flip_rejected () =
  let file, z_y, n = basic_snapshot () in
  patch_byte file (z_y + n) (fun c -> c lxor 0x01);
  let e = load_error file in
  check_bool ("names the uint16 checksum: " ^ e) (contains e "uint16 section 0 checksum")

let test_u16_truncated_rejected () =
  let file, z_y, n = basic_snapshot () in
  Unix.truncate file (z_y + n + 1);
  let e = load_error file in
  check_bool ("names the truncation: " ^ e) (contains e "truncated")

(* A table entry claiming more elements than the file holds: 2^61 int
   elements would overflow the payload's byte count. *)
let test_oversized_length_rejected () =
  let file, _, _ = basic_snapshot () in
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 56 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.init 8 (fun k -> if k = 7 then '\x20' else '\000')) 0 8);
  Unix.close fd;
  let e = load_error file in
  check_bool ("names the truncation: " ^ e) (contains e "truncated")

let test_version_1_rejected () =
  let file, _, _ = basic_snapshot () in
  patch_byte file 8 (fun _ -> 1);
  let e = load_error file in
  check_bool ("names version 1: " ^ e) (contains e "unsupported snapshot version 1")

(* ------------------------------------------------- meta-section checks *)

(* An image whose meta section is empty still passes the checksums when
   saved, so [of_image] must check each meta length before reading it. *)
let test_empty_meta_rejected scheme () =
  let (scheme, n, _) = case scheme in
  let img = Server.image (Fixture.build ~scheme ~n ~seed:5) in
  let emptied secs k empty = Array.mapi (fun j s -> if j = k then empty else s) secs in
  let with_isec k = { img with Image.isecs = emptied img.Image.isecs k (Image.ints_create 0) } in
  let rejected what img =
    match Server.of_image img with
    | Ok _ -> Alcotest.failf "%s: %s accepted" scheme what
    | Error e ->
      check_bool (Printf.sprintf "%s error names the scheme: %s" what e) (contains e scheme)
  in
  rejected "empty meta section" (with_isec 0);
  (match scheme with
  | "labelled" -> rejected "empty DLS meta section" (with_isec 5)
  | "two_mode" ->
    rejected "empty DLS meta section" (with_isec 9);
    rejected "empty threshold section"
      { img with Image.fsecs = emptied img.Image.fsecs 0 (Image.floats_create 0) }
  | _ -> ());
  (* The untouched image still loads. *)
  check_bool (scheme ^ " intact image loads") (Result.is_ok (Server.of_image img))

(* ------------------------------------------------------------ GC audit *)

let test_zero_alloc scheme () =
  let (scheme, n, queries) = case scheme in
  let t = Fixture.build ~scheme ~n ~seed:5 in
  let work = workload_for t ~queries in
  let res = Loop.results_create queries in
  let words = Loop.minor_words_per_query t work res in
  check_bool
    (Printf.sprintf "%s steady-state allocation ~ 0 (got %.3f words/query)" scheme words)
    (words <= 8.0)

(* ------------------------------------- observed serving: jobs invariance *)

module Flight = Ron_obs.Flight
module Slo = Ron_obs.Slo

(* Under the logical clock the per-query cost is a pure function of the
   result, so the flight dump and the SLO verdict must be byte-identical
   at every job count — and recording must not perturb the result columns
   themselves. *)
let test_observed_invariant scheme () =
  let (scheme, n, queries) = case scheme in
  let t = Fixture.build ~scheme ~n ~seed:5 in
  let work = workload_for t ~queries in
  let res = Loop.results_create queries in
  let observed jobs =
    let fr = Flight.create ~window:32 ~per_window:4 ~retain:4 ~trace_every:4 () in
    let objs =
      match Slo.parse "p95<=65536,delivery>=0.5" with
      | Ok o -> o
      | Error e -> Alcotest.fail e
    in
    let s = Slo.create ~window:(max 1 (queries / 5)) ~name:("slo.test." ^ scheme) objs in
    Loop.run_observed ~jobs ~flight:fr ~slo:s t work res;
    ( Ron_obs.Json.to_string (Flight.to_json fr),
      Ron_obs.Json.to_string (Slo.to_json ~flight:(Flight.to_json fr) s) )
  in
  let (f1, v1) = observed 1 in
  let d_obs = Loop.digest res in
  let (f4, v4) = observed 4 in
  Alcotest.(check string) (scheme ^ " flight dump jobs-invariant") f1 f4;
  Alcotest.(check string) (scheme ^ " slo verdict jobs-invariant") v1 v4;
  Loop.run ~jobs:1 t work res;
  check_int (scheme ^ " observed digest matches plain run") (Loop.digest res) d_obs

let () =
  let per_scheme mk = List.map (fun s -> mk s) Fixture.names in
  Alcotest.run "ron_serve"
    [
      ("frozen matches live",
       List.map QCheck_alcotest.to_alcotest
         (List.map (fun s -> prop_matches_live s) Fixture.names @ basic_families
          @ two_mode_families)
       @ [ Alcotest.test_case "forced M2 switches" `Quick test_forced_m2_switches ]);
      ("snapshot round-trip",
       per_scheme (fun s -> Alcotest.test_case s `Quick (test_roundtrip s)));
      ("basic image",
       [ Alcotest.test_case "zeta sections match the join oracle" `Quick
           test_basic_image_matches_oracle ]);
      ("basic validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) basic_mutations);
      ("labelled validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) labelled_mutations);
      ("two_mode validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) two_mode_mutations);
      ("meridian validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) meridian_mutations);
      ("landmark validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) landmark_mutations);
      ("corruption",
       [
         Alcotest.test_case "checksum flip rejected" `Quick test_corrupt_rejected;
         Alcotest.test_case "truncation rejected" `Quick test_truncated_rejected;
       ]);
      ("uint16 sections",
       [
         QCheck_alcotest.to_alcotest prop_image_roundtrip;
         Alcotest.test_case "flipped payload byte rejected" `Quick test_u16_flip_rejected;
         Alcotest.test_case "truncated payload rejected" `Quick test_u16_truncated_rejected;
         Alcotest.test_case "oversized length rejected" `Quick test_oversized_length_rejected;
         Alcotest.test_case "version 1 rejected" `Quick test_version_1_rejected;
       ]);
      ("meta sections",
       per_scheme (fun s -> Alcotest.test_case s `Quick (test_empty_meta_rejected s)));
      ("zero allocation",
       per_scheme (fun s -> Alcotest.test_case s `Quick (test_zero_alloc s)));
      ("observed serving",
       per_scheme (fun s -> Alcotest.test_case s `Quick (test_observed_invariant s)));
    ]
