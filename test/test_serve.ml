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

(* ------------------------------------------------ sections by name *)

(* The scheme an image's tag names ([Fixture.names] is in tag order), and
   where each declared section sits in it: the [k]th section of a kind is
   the [k]th column of that kind in the scheme's declaration. *)
let scheme_of (img : Image.t) = List.nth Fixture.names (img.Image.scheme - 1)

let index_in names name =
  let rec go k = function
    | x :: rest -> if x = name then k else go (k + 1) rest
    | [] -> raise Not_found
  in
  go 0 names

let schema img : Server.column list = Server.schema (scheme_of img)
let column img name = List.find (fun (c : Server.column) -> c.name = name) (schema img)

let index img name =
  let kind = (column img name).kind in
  let same = List.filter (fun (c : Server.column) -> c.kind = kind) (schema img) in
  index_in (List.map (fun (c : Server.column) -> c.name) same) name

let isec img name = img.Image.isecs.(index img name)
let fsec img name = img.Image.fsecs.(index img name)
let usec img name = img.Image.usecs.(index img name)

(* A meta entry's value, and its section and index. *)
let value img entry = Server.eval img (Server.Meta entry)

let meta_entry img entry =
  let c = List.find (fun (c : Server.column) -> List.mem entry c.entries) (schema img) in
  (c.name, index_in c.entries entry)

(* The Basic image's structure sections, read back as columns. *)
let basic_cols (img : Image.t) =
  {
    Structure.n = value img "n";
    scales = value img "scales";
    shared = value img "shared";
    label_first = isec img "label_first";
    label_rest = isec img "label_rest";
    ring_off = isec img "ring_off";
    ring_node = isec img "ring_node";
    z_run = isec img "z_run";
    z_z = usec img "z_z";
  }

(* The Basic image freezes the rows of every zeta as Structure built them
   (z_run and the uint16 z_z slots over the ring offsets, ring_off); their
   present slots, read back per segment, must equal the hash-join oracle's
   sorted triples. The ring sections must list the rings' members, and every
   label must decode at every node as the oracle's walk decodes it. *)
let test_basic_image_matches_oracle () =
  let s =
    match Fixture.build_live ~scheme:"basic" ~n:100 ~seed:5 with
    | Fixture.L_basic s -> s
    | _ -> assert false
  in
  let img = Server.image (Server.freeze_basic_t (Basic.export s)) in
  let rings = Basic.rings_collection s in
  let oracle = Zeta_oracle.build rings ~scales:(Basic.scales s) in
  let c = basic_cols img in
  check_bool "ring_off, z_run and z_z"
    (Zeta_oracle.of_rows c = Zeta_oracle.segments oracle);
  let scales = c.Structure.scales in
  let m = Array.make scales 0 in
  for u = 0 to c.Structure.n - 1 do
    for j = 0 to scales - 1 do
      let r = (u * scales) + j in
      let lo = A1.get c.Structure.ring_off r in
      check_bool "ring_off and ring_node"
        (Array.init (A1.get c.Structure.ring_off (r + 1) - lo) (fun x ->
             A1.get c.Structure.ring_node (lo + x))
        = (Rings.rings_of rings u).(j).Rings.members)
    done;
    for t = 0 to c.Structure.n - 1 do
      let jut = Structure.decode c u c t m in
      check_bool "label_first and label_rest decode"
        (Array.sub m 0 (jut + 1) = Zeta_oracle.decode oracle u (Zeta_oracle.label_of c t))
    done
  done

(* ------------------------------------------------ basic image validation *)

(* A crafted Basic image passes the checksums once saved, so [of_image]
   checks its structure: each mutation below must load as an [Error] that
   names the scheme and the section. Sections are shared with the live
   scheme, so each mutation works on a copy. *)
let basic_image = lazy (Server.image (Fixture.build ~scheme:"basic" ~n:64 ~seed:5))

(* On the 8x8 grid every ring (u, j) is the whole net G_j; on a random
   geometric graph ring sizes, and first-hop row lengths, differ by node,
   so a column's rows moved between nodes break the segment rules. *)
let basic_geometric_image =
  lazy
    (let g = Ron_graph.Graph_gen.random_geometric (Ron_util.Rng.create 5) ~n:64 ~radius:0.3 in
     let s = Basic.build (Ron_graph.Sp_metric.create g) ~delta:0.25 in
     Server.image (Server.freeze_basic_t (Basic.export s)))

let copy_ints (a : Image.ints) =
  let b = Image.ints_create (A1.dim a) in
  A1.blit a b;
  b

let replace secs k a = Array.mapi (fun j s -> if j = k then a else s) secs

let mutate_isec img name f =
  let a = copy_ints (isec img name) in
  f a;
  { img with Image.isecs = replace img.Image.isecs (index img name) a }

let mutate_fsec img name f =
  let a = Image.floats_create (A1.dim (fsec img name)) in
  A1.blit (fsec img name) a;
  f a;
  { img with Image.fsecs = replace img.Image.fsecs (index img name) a }

let mutate_usec img name f =
  let a = Image.u16s_create (A1.dim (usec img name)) in
  A1.blit (usec img name) a;
  f a;
  { img with Image.usecs = replace img.Image.usecs (index img name) a }

(* Section [name] replaced by [f.edit] of it, whatever its kind. *)
type edit = { edit : 'a 'b. ('a, 'b, Bigarray.c_layout) A1.t -> ('a, 'b, Bigarray.c_layout) A1.t }

let edited img name f =
  let k = index img name in
  let at secs = Array.mapi (fun j s -> if j = k then f.edit s else s) secs in
  match (column img name).kind with
  | Server.Int -> { img with Image.isecs = at img.Image.isecs }
  | Server.Float -> { img with Image.fsecs = at img.Image.fsecs }
  | Server.U16 -> { img with Image.usecs = at img.Image.usecs }

(* Set meta entry [entry]. *)
let set_meta entry v img =
  let sec, i = meta_entry img entry in
  mutate_isec img sec (fun a -> A1.set a i v)

let with_isec name f = mutate_isec (Lazy.force basic_image) name f

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

(* A Basic image's zeta rows in the pair layout that preceded the slots:
   each row's present slots as (y, z) pairs in y order, under pair row
   starts in place of z_run. *)
let pair_rows img =
  let run = isec img "z_run" and zz = usec img "z_z" in
  let rows = A1.dim run - 1 in
  let pairs =
    List.init rows (fun p ->
        let start = A1.get run p in
        List.init (A1.get run (p + 1) - start) (fun y -> (y, A1.get zz (start + y)))
        |> List.filter (fun (_, z) -> z <> Ron_core.Zeta.absent))
  in
  let starts = Array.make (rows + 1) 0 in
  List.iteri (fun p l -> starts.(p + 1) <- starts.(p) + List.length l) pairs;
  let all = Array.of_list (List.concat pairs) in
  let column f =
    let a = Image.u16s_create (Array.length all) in
    Array.iteri (fun i e -> A1.set a i (f e)) all;
    a
  in
  (Image.ints_of_array starts, column fst, column snd)

(* The first present slot of a z_z column. *)
let first_present (zz : Image.u16s) =
  let rec go i = if A1.get zz i <> Ron_core.Zeta.absent then i else go (i + 1) in
  go 0

(* The Basic image as the parent layout wrote it: a meta of four entries,
   without [shared], and every node's own zeta rows at every level, node
   0's copied to each other node below [shared]. *)
let parent_layout img =
  let scales = value img "scales" and shared = value img "shared" in
  let off = isec img "ring_off" and run = isec img "z_run" and zz = usec img "z_z" in
  let positions = A1.dim run - 1 in
  let source = Array.make positions 0 in
  for r = 0 to A1.dim off - 2 do
    let j = r mod scales and lo = A1.get off r in
    for x = 0 to A1.get off (r + 1) - lo - 1 do
      source.(lo + x) <- (if j < shared then A1.get off j else lo) + x
    done
  done;
  let len p = A1.get run (p + 1) - A1.get run p in
  let starts = Array.make (positions + 1) 0 in
  Array.iteri (fun p q -> starts.(p + 1) <- starts.(p) + len q) source;
  let slots = Image.u16s_create starts.(positions) in
  Array.iteri
    (fun p q ->
      for y = 0 to len q - 1 do
        A1.set slots (starts.(p) + y) (A1.get zz (A1.get run q + y))
      done)
    source;
  let meta = [| value img "n"; scales; value img "max_hops"; value img "header_bits" |] in
  let isecs = replace img.Image.isecs (index img "meta") (Image.ints_of_array meta) in
  { img with
    Image.isecs = replace isecs (index img "z_run") (Image.ints_of_array starts);
    usecs = replace img.Image.usecs (index img "z_z") slots }

(* Section [a] with [v] inserted at [i]. *)
let inserted a i v =
  let n = A1.dim a in
  let b = A1.create (A1.kind a) Bigarray.c_layout (n + 1) in
  A1.blit (A1.sub a 0 i) (A1.sub b 0 i);
  A1.set b i v;
  A1.blit (A1.sub a i (n - i)) (A1.sub b (i + 1) (n - i));
  b

(* Ring (u, j) one member longer, with the offsets kept consistent: node
   0 at its end, an empty zeta row and a ring_hop entry of 0 at that
   position. At a shared level, with u > 0, only the rule that the rings
   up to [shared] have node 0's sizes can see it. *)
let ring_grown img u j =
  let r = (u * value img "scales") + j in
  let off = copy_ints (isec img "ring_off") and run = isec img "z_run" in
  let p = A1.get off (r + 1) in
  for k = r + 1 to A1.dim off - 1 do
    A1.set off k (A1.get off k + 1)
  done;
  let isecs = replace img.Image.isecs (index img "ring_off") off in
  let isecs = replace isecs (index img "ring_node") (inserted (isec img "ring_node") p 0) in
  { img with
    Image.isecs = replace isecs (index img "z_run") (inserted run p (A1.get run p));
    usecs = replace img.Image.usecs (index img "ring_hop") (inserted (usec img "ring_hop") p 0) }

(* The shared-level cases on a fixture: [shared] past its bound, raised by
   one, and one node's ring at a shared level grown. Raised by one, it is
   past its bound where every level is whole-net, and else names a level
   whose ring sizes differ by node. *)
let shared_cases fixture =
  let img () = Lazy.force fixture in
  [
    ( "shared past scales - 1 or negative",
      fun () ->
        let img = img () in
        expect_rejected "meta" (set_meta "shared" (value img "scales") img);
        expect_rejected "meta" (set_meta "shared" (-1) img) );
    ( "shared raised by one",
      fun () ->
        let img = img () in
        let shared = value img "shared" in
        let section = if shared = value img "scales" - 1 then "meta" else "ring_off" in
        expect_rejected section (set_meta "shared" (shared + 1) img) );
    ( "a node's ring at a shared level grown by one",
      fun () ->
        let img = img () in
        let shared = value img "shared" in
        check_bool "a shared level" (shared >= 1);
        List.iter
          (fun (u, j) -> expect_rejected "ring_off" (ring_grown img u j))
          [ (1, 0); (value img "n" - 1, shared - 1) ] );
  ]

let basic_mutations =
  let basic () = Lazy.force basic_image in
  let ring_size (off : Image.ints) r = A1.get off (r + 1) - A1.get off r in
  [
    ("intact image loads", intact "basic" basic_image);
    ( "meta n disagrees with section lengths",
      fun () ->
        expect_rejected "label_first" (set_meta "n" (value (basic ()) "n" + 1) (basic ())) );
    ( "meta scales disagrees with section lengths",
      fun () ->
        let scales = value (basic ()) "scales" in
        expect_rejected "label_rest" (set_meta "scales" (scales + 1) (basic ())) );
    ( "max_hops unbounded",
      fun () -> expect_rejected "max_hops" (set_meta "max_hops" max_int (basic ())) );
    ( "ring_off not monotone",
      fun () ->
        expect_rejected "ring_off" (with_isec "ring_off" (fun a -> A1.set a 5 (A1.get a 6 + 1))) );
    ( "z_run entries after the first out of range",
      fun () ->
        expect_rejected "z_run"
          (with_isec "z_run" (fun a -> A1.fill (A1.sub a 1 (A1.dim a - 1)) (1 lsl 40))) );
    ( "t_off not ending at the table",
      fun () ->
        expect_rejected "t_off" (with_isec "t_off" (fun a -> A1.set a (A1.dim a - 1) (1 lsl 40))) );
    ( "ring member not a node",
      fun () ->
        let n = value (basic ()) "n" in
        expect_rejected "ring_node" (with_isec "ring_node" (fun a -> A1.set a 0 n)) );
    ( "table target not a node",
      fun () -> expect_rejected "t_w" (with_isec "t_w" (fun a -> A1.set a 0 (-1))) );
    ( "every next hop 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "basic" "t_next"
          (with_isec "t_next" (fun a -> A1.fill a (1 lsl 40))) );
    ( "z outside the next ring",
      fun () ->
        (* Entry 0 belongs to the first ring r with rows; its z indexes
           ring r + 1, so that ring's size is the first bad value. *)
        let img = basic () in
        let off = isec img "ring_off" and run = isec img "z_run" in
        let rec first_ring r =
          if A1.get run (A1.get off (r + 1)) > 0 then r else first_ring (r + 1)
        in
        let size = ring_size off (first_ring 0 + 1) in
        expect_rejected "z_z" (mutate_usec img "z_z" (fun a -> A1.set a 0 size)) );
    ( "label first index outside ring 0",
      fun () ->
        let img = basic () in
        let size = ring_size (isec img "ring_off") 0 in
        expect_rejected "label_first" (with_isec "label_first" (fun a -> A1.set a 0 size)) );
    ( "non-finite and negative costs",
      fun () ->
        List.iter
          (fun bad ->
            expect_rejected "t_cost" (mutate_fsec (basic ()) "t_cost" (fun c -> A1.set c 0 bad)))
          [ nan; infinity; -1.0 ] );
    ( "parent layout rejected",
      fun () ->
        (* The earlier layouts: two with int z_y/z_z pair sections — 11
           int sections, and before them a 3-entry meta, a per-destination
           header bits section, and z_off/z_x columns before z_y/z_z — and
           the uint16 z_y/z_z pairs that followed, with and without
           ring_hop. Their pairs are rebuilt from the slots. *)
        let img = basic () in
        let i = isec img and u = usec img in
        let n = value img "n" in
        let pair_run, z_y, z_z = pair_rows img in
        let widened (a : Image.u16s) = Image.ints_of_array (Array.init (A1.dim a) (A1.get a)) in
        let int_zetas =
          [| i "meta"; i "label_first"; i "label_rest"; i "ring_off"; i "ring_node"; pair_run;
             widened z_y; widened z_z; i "t_off"; i "t_w"; i "t_next" |]
        in
        let older =
          [|
            Image.ints_of_array [| n; value img "scales"; value img "max_hops" |];
            Image.ints_of_array (Array.make n (value img "header_bits"));
            i "label_first"; i "label_rest"; i "ring_off"; i "ring_node";
            Image.ints_create 0; Image.ints_create 0;
            widened z_y; widened z_z; i "t_off"; i "t_w"; i "t_next";
          |]
        in
        List.iter
          (fun isecs -> expect_rejected "basic" { img with Image.isecs; usecs = [||] })
          [ int_zetas; older ];
        let pair_isecs =
          [| i "meta"; i "label_first"; i "label_rest"; i "ring_off"; i "ring_node"; pair_run;
             i "t_off"; i "t_w"; i "t_next" |]
        in
        List.iter
          (fun usecs -> expect_rejected "basic" { img with Image.isecs = pair_isecs; usecs })
          [ [| z_y; z_z; u "ring_hop" |]; [| z_y; z_z |] ];
        (* The slot rows of every node at every level, under a meta
           without [shared]. *)
        expect_rejected "meta" (parent_layout img) );
    ( "every level whole-net on the grid",
      fun () ->
        let img = basic () in
        check_int "shared" (value img "scales" - 1) (value img "shared") );
  ]
  @ shared_cases basic_image

(* ------------------------------------ labelled and two_mode validation *)

(* The same for the two DLS-backed views: one mutation per section the
   validator bounds, each loading as an [Error] naming the scheme and the
   section. The 2^40 cases crashed the server before the views were
   validated. *)
let labelled_image = lazy (Server.image (Fixture.build ~scheme:"labelled" ~n:49 ~seed:5))
let two_mode_image = lazy (Server.image (Fixture.build ~scheme:"two_mode" ~n:64 ~seed:5))
let big = 1 lsl 40

(* Section [name] without its first entry. *)
let shortened name img = edited img name { edit = (fun s -> A1.sub s 1 (A1.dim s - 1)) }

(* Set entry [i] of int (or float, or uint16) section [name]. *)
let set_i name i v img = mutate_isec img name (fun a -> A1.set a i v)
let set_f name i v img = mutate_fsec img name (fun a -> A1.set a i v)
let set_u name i v img = mutate_usec img name (fun a -> A1.set a i v)
let last img name = A1.dim (isec img name) - 1

let rejects scheme img cases =
  List.map
    (fun (name, section, m) ->
      (name, fun () -> expect_rejected ~scheme section (m (Lazy.force img))))
    cases

(* Mutations of the DLS sections, shared by both views. z_y and z_z are
   uint16 sections: a -1 written to one is stored as 65,535, and 65,535
   is the largest value one holds. *)
let dls_cases =
  [
    ("DLS max_virt above n", "dls_meta", fun img -> set_meta "max_virt" (value img "n" + 1) img);
    ("DLS prefix longer than a label", "dls_meta", set_meta "prefix_len" big);
    ("d_off past d_val", "d_off", set_i "d_off" 1 big);
    ( "zoom_first outside the prefix", "zoom_first",
      fun img -> set_i "zoom_first" 0 (value img "prefix_len") img );
    ( "zoom_rest not a virtual index", "zoom_rest",
      fun img -> set_i "zoom_rest" 0 (value img "max_virt") img );
    ("z_run not monotone", "z_run", set_i "z_run" 1 big);
    ("z_y negative", "z_y", set_u "z_y" 0 (-1));
    ("z_z 0xffff", "z_z", set_u "z_z" 0 0xffff);
    ("d_val not finite", "d_val", set_f "d_val" 0 nan);
  ]

let labelled_mutations =
  let img = labelled_image in
  [
    ("intact image loads", intact "labelled" img);
    ( "every next hop 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "labelled" "t_next"
          (mutate_isec (Lazy.force img) "t_next" (fun a -> A1.fill a big)) );
  ]
  @ rejects "labelled" img
      ([
         ("max_hops unbounded", "meta", set_meta "max_hops" max_int);
         ("header bits not per node", "header_bits", shortened "header_bits");
         ( "t_off not ending at the table", "t_off",
           fun img -> set_i "t_off" (last img "t_off") big img );
         ("table target not a node", "t_w", fun img -> set_i "t_w" 0 (value img "n") img);
         ("negative cost", "t_cost", set_f "t_cost" 0 (-1.0));
       ]
      @ dls_cases)

let two_mode_mutations =
  let img = two_mode_image in
  [
    ("intact image loads", intact "two_mode" img);
    ( "every host 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "two_mode" "hosts"
          (mutate_isec (Lazy.force img) "hosts" (fun a -> A1.fill a big)) );
  ]
  @ rejects "two_mode" img
      ([
         ("max_hops unbounded", "meta", set_meta "max_hops" max_int);
         ("hub pointer not a node", "hub_ptr", fun img -> set_i "hub_ptr" 0 (value img "n") img);
         ("hub_g names no directory", "hub_g", fun img -> set_i "hub_g" 0 (last img "dir_off") img);
         ("empty directory", "dir_off", set_i "dir_off" 1 0);
         ("directory member not a node", "dir_mem", set_i "dir_mem" 0 (-1));
         ("boundaries not per member", "dir_bnd", shortened "dir_bnd");
         ("owned offsets past the targets", "own_off", fun img ->
             set_i "own_off" (last img "own_off") big img);
         ("owned target not a node", "own_tgt", fun img -> set_i "own_tgt" 0 (value img "n") img);
         ("threshold 1/2", "threshold", set_f "threshold" 0 0.5);
         ("r_level not finite", "r_level", set_f "r_level" 0 infinity);
         ("negative distance", "dist", set_f "dist" 1 (-1.0));
       ]
      @ dls_cases)

(* ------------------------------------ meridian and landmark validation *)

(* The two views without a route: one mutation per section, each loading
   as an [Error] naming the scheme and the section. The 2^40 cases made
   the server crash before these views were validated. *)
let meridian_image = lazy (Server.image (Fixture.build ~scheme:"meridian" ~n:100 ~seed:5))
let landmark_image = lazy (Server.image (Fixture.build ~scheme:"landmark" ~n:100 ~seed:5))

(* The meridian image as the parent layout wrote it: a two-entry meta,
   the rings as int offsets over (node, scale) and int ring entries, no
   uint16 section. *)
let meridian_parent_layout img =
  let n = value img "n" and scales = value img "scales" and size = value img "ring_size" in
  let fill = usec img "mr_fill" and slots = usec img "mr_node" in
  let off = Array.make ((n * scales) + 1) 0 in
  for r = 0 to (n * scales) - 1 do
    off.(r + 1) <- off.(r) + A1.get fill r
  done;
  let entries =
    Array.init off.(n * scales) (fun e ->
        let r = ref 0 in
        while off.(!r + 1) <= e do
          incr r
        done;
        A1.get slots ((!r * size) + e - off.(!r)))
  in
  let ints = Image.ints_of_array in
  { img with
    Image.isecs = [| ints [| n; scales |]; isec img "mmembers"; ints off; ints entries |];
    usecs = [||] }

let meridian_mutations =
  let img = meridian_image in
  [
    ("intact image loads", intact "meridian" img);
    ( "every mr_node entry 65,535, saved with valid checksums",
      fun () ->
        expect_load_rejected "meridian" "mr_node"
          (mutate_usec (Lazy.force img) "mr_node" (fun a -> A1.fill a 0xffff)) );
    ( "parent layout rejected",
      fun () ->
        match Server.of_image (meridian_parent_layout (Lazy.force img)) with
        | Ok _ -> Alcotest.fail "parent meridian layout accepted"
        | Error e ->
          let counts = "expected 2 int / 1 float / 2 uint16 sections, got 4 / 1 / 0" in
          check_bool e (contains e ("meridian image: " ^ counts)) );
  ]
  @ rejects "meridian" img
      [
        ("no scales", "meta", set_meta "scales" 0);
        ("rings of no slots", "meta", set_meta "ring_size" 0);
        ("member not a node", "mmembers", fun img -> set_i "mmembers" 0 (value img "n") img);
        ( "no members", "mmembers",
          fun img -> edited img "mmembers" { edit = (fun s -> A1.sub s 0 0) } );
        ("fill not per (node, scale)", "mr_fill", shortened "mr_fill");
        ("fill above ring_size", "mr_fill", fun img ->
            set_u "mr_fill" 0 (value img "ring_size" + 1) img);
        ("slots not ring_size per fill", "mr_node", shortened "mr_node");
        ("ring entry not a node", "mr_node", set_u "mr_node" 0 (-1));
        ("slot holding n", "mr_node", fun img -> set_u "mr_node" 0 (value img "n") img);
        ("distances not n x n", "mdmat", shortened "mdmat");
        ("negative distance", "mdmat", set_f "mdmat" 1 (-1.0));
      ]

let landmark_mutations =
  let img = landmark_image in
  [
    ("intact image loads", intact "landmark" img);
    ( "every col entry 2^40, saved with valid checksums",
      fun () ->
        expect_load_rejected "landmark" "col"
          (mutate_isec (Lazy.force img) "col" (fun a -> A1.fill a big)) );
  ]
  @ rejects "landmark" img
      [
        ("more beacons than nodes", "meta", fun img -> set_meta "k" (value img "n" + 1) img);
        ("beacons not k long", "beacons", shortened "beacons");
        ("beacon not a node", "beacons", fun img -> set_i "beacons" 0 (value img "n") img);
        ("col not per node", "col", shortened "col");
        ("col below -1", "col", set_i "col" 0 (-2));
        ("col names no beacon", "col", fun img -> set_i "col" 0 (value img "k") img);
        ("ball offsets past the ball column", "ball_off", fun img ->
            set_i "ball_off" (last img "ball_off") big img);
        ("ball member not a node", "ball_node", fun img -> set_i "ball_node" 0 (value img "n") img);
        ("rows not k x n", "rows", shortened "rows");
        ("row entry not finite", "rows", set_f "rows" 0 nan);
        ("ball distances not per member", "ball_dist", shortened "ball_dist");
        ("negative ball distance", "ball_dist", set_f "ball_dist" 0 (-1.0));
      ]

(* ------------------------------------------------ schema-driven fuzzing *)

(* Mutants of the five fixtures, one section at a time, built from the
   declared rules. Each is saved, so its checksums are valid, and loaded:
   a mutant that breaks a rule must be refused with an [Error] naming the
   scheme and the section; one the loader accepts must keep the checked
   copies of the views' walks in bounds and equal to the served answers
   ([walk_error]), and serve a short workload to its end, a scheme's [Failure]
   included. A missing rule shows as a walk out of bounds, which the
   served walk's unchecked reads would not report. *)
let fixtures =
  [
    ("basic", basic_image);
    ("basic on a geometric graph", basic_geometric_image);
    ("labelled", labelled_image);
    ("two_mode", two_mode_image);
    ("meridian", meridian_image);
    ("landmark", landmark_image);
  ]

let rec mentions s = function
  | Server.Dim x -> x = s
  | Server.Min_size (x, e) -> x = s || mentions s e
  | Server.Plus (e, _) -> mentions s e
  | Server.Const _ | Server.Meta _ -> false

let rule_mentions s = function
  | Server.Length e -> mentions s e
  | Server.Product (a, b, _) | Server.Range (a, b) -> mentions s a || mentions s b
  | Server.Offsets (t, e) -> t = s || mentions s e
  | Server.Finite -> false
  | Server.Segments g -> g.groups = Some s || g.sizes = s || g.rows = s || mentions s g.every
  | Server.Leading_sizes g -> mentions s g.every || mentions s g.upto

(* The sections whose rules can fail when [name] changes: itself and the
   columns whose rules read it; every section, for a meta section. *)
let related img name =
  let meta = (column img name).entries <> [] in
  List.filter_map
    (fun (c : Server.column) ->
      if meta || c.name = name || List.exists (rule_mentions name) c.rules then Some c.name
      else None)
    (schema img)

let dim_of img (c : Server.column) =
  match c.kind with
  | Server.Int -> A1.dim (isec img c.name)
  | Server.Float -> A1.dim (fsec img c.name)
  | Server.U16 -> A1.dim (usec img c.name)

(* The entries [start, stop) of each non-empty group of a segment rule,
   with the group's bound. *)
let segment_runs img = function
  | Server.Segments g ->
    let rows = isec img g.rows and sizes = isec img g.sizes in
    let group k = match g.groups with Some s -> A1.get (isec img s) k | None -> k in
    let every = Server.eval img g.every in
    let start k = A1.get rows (group k * every) in
    List.filter_map
      (fun k ->
        let size = A1.get sizes (k + g.shift + 1) - A1.get sizes (k + g.shift) in
        if start k < start (k + 1) then Some (start k, start (k + 1), size) else None)
      (List.init (A1.dim sizes - 1 - g.shift) Fun.id)
  | _ -> []

let segment_firsts img r = List.map (fun (start, _, size) -> (start, size)) (segment_runs img r)

(* Entry [i] of column [c] set to [v], or to [f] in a float section. *)
let set_entry img (c : Server.column) i ?f v =
  match c.kind with
  | Server.Int -> set_i c.name i v img
  | Server.Float -> set_f c.name i (Option.value f ~default:(float_of_int v)) img
  | Server.U16 -> mutate_usec img c.name (fun a -> A1.set a i v)

(* Each declared bound's first values outside it, at a random entry:
   hi and lo - 1 for a range (a uint16 entry cannot hold -1), nan and
   -1.0 for finite floats, a group's bound (and -1) for a segment rule;
   for a leading-sizes rule, one of those segments of a later group one
   entry shorter, and the meta entry bounding them at [every], one past
   the last segment of a group. *)
let bound_mutants rng img =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  List.concat_map
    (fun (c : Server.column) ->
      let n = dim_of img c in
      let at ?f v i = (Printf.sprintf "%s entry %d" c.name i, set_entry img c i ?f v, [ c.name ]) in
      let low lo i = if c.kind = Server.U16 && lo = 0 then [] else [ at (lo - 1) i ] in
      List.concat_map
        (fun r ->
          match r with
          | _ when n = 0 -> []
          | Server.Range (lo, hi) ->
            let i = Random.State.int rng n in
            at (Server.eval img hi) i :: low (Server.eval img lo) i
          | Server.Finite ->
            let i = Random.State.int rng n in
            [ at ~f:nan 0 i; at ~f:(-1.0) 0 i ]
          | Server.Segments _ -> (
            match segment_firsts img r with
            | [] -> []
            | firsts ->
              let i, size = pick firsts in
              at size i :: low 0 i)
          | Server.Leading_sizes g ->
            let every = Server.eval img g.every and off = isec img c.name in
            let upto = min (Server.eval img g.upto) (every - 1) and groups = (n - 1) / every in
            let resized =
              if groups < 2 || upto < 0 then []
              else
                let g = 1 + Random.State.int rng (groups - 1) in
                let r = (g * every) + Random.State.int rng (upto + 1) in
                [ ( Printf.sprintf "%s segment %d one entry shorter" c.name r,
                    set_i c.name (r + 1) (A1.get off (r + 1) - 1) img,
                    related img c.name ) ]
            in
            let past =
              match g.upto with
              | Server.Meta m ->
                [ (m ^ " past its bound", set_meta m every img, [ fst (meta_entry img m) ]) ]
              | _ -> []
            in
            resized @ past
          | _ -> [])
        c.rules)
    (schema img)

(* Every offsets column ending one past its target. *)
let past_mutants img =
  List.concat_map
    (fun (c : Server.column) ->
      List.filter_map
        (function
          | Server.Offsets (target, _) ->
            let past = dim_of img (column img target) + 1 in
            let m = set_i c.name (A1.dim (isec img c.name) - 1) past img in
            Some (c.name ^ " past " ^ target, m, [ c.name ])
          | _ -> None)
        c.rules)
    (schema img)

(* Sections [a] and [b], of one kind, swapped. *)
let swapped img a b =
  let ia = index img a and ib = index img b in
  let swap secs =
    Array.mapi (fun j s -> if j = ia then secs.(ib) else if j = ib then secs.(ia) else s)
  in
  match (column img a).kind with
  | Server.Int -> { img with Image.isecs = swap img.Image.isecs img.Image.isecs }
  | Server.Float -> { img with Image.fsecs = swap img.Image.fsecs img.Image.fsecs }
  | Server.U16 -> { img with Image.usecs = swap img.Image.usecs img.Image.usecs }

(* Column [name] rotated [k] places towards the front: entry [i] takes
   entry [i + k]'s value, so each run of a segment rule holds entries
   written for a later one. *)
let shifted img name k =
  edited img name
    {
      edit =
        (fun a ->
          let n = A1.dim a in
          let b = A1.create (A1.kind a) Bigarray.c_layout n in
          for i = 0 to n - 1 do
            A1.set b i (A1.get a ((i + k) mod n))
          done;
          b);
    }

(* The runs [(s1, e1)] and [(s2, e2)] of column [name] exchanged over the
   shorter one's length. *)
let rows_swapped img name (s1, e1) (s2, e2) =
  let len = min (e1 - s1) (e2 - s2) in
  edited img name
    {
      edit =
        (fun a ->
          let b = A1.create (A1.kind a) Bigarray.c_layout (A1.dim a) in
          A1.blit a b;
          A1.blit (A1.sub a s2 len) (A1.sub b s1 len);
          A1.blit (A1.sub a s1 len) (A1.sub b s2 len);
          b);
    }

(* The columns with a segment rule, each with its non-empty groups'
   runs. *)
let segmented img =
  List.concat_map
    (fun (c : Server.column) ->
      List.filter_map
        (fun r ->
          match segment_runs img r with
          | [] -> None
          | runs -> Some (c, List.map (fun (s, e, _) -> (s, e)) runs))
        c.rules)
    (List.filter (fun c -> dim_of img c > 1) (schema img))

(* The slot runs [(start, stop)] in z_z of two rings (u1, j) and (u2, j)
   whose next rings differ in size: the first slots of (u2, j)'s run hold
   a position past (u1, j + 1), so the two runs swapped break the slot
   rule. On the grid fixture, where every ring (u, j) is the net G_j, no
   two such rings exist. *)
let slot_runs_to_swap img =
  let scales = value img "scales" and n = value img "n" in
  let off = isec img "ring_off" and run = isec img "z_run" and zz = usec img "z_z" in
  let size r = A1.get off (r + 1) - A1.get off r in
  let slots r = (A1.get run (A1.get off r), A1.get run (A1.get off (r + 1))) in
  let breaks a b =
    let (sa, ea), (sb, eb) = (slots a, slots b) in
    let rec past k =
      k < min (ea - sa) (eb - sb)
      && (let z = A1.get zz (sb + k) in
          (z <> Ron_core.Zeta.absent && z >= size (a + 1)) || past (k + 1))
    in
    past 0
  in
  let rings = List.init (n * scales) Fun.id |> List.filter (fun r -> r mod scales < scales - 1) in
  let pick a =
    List.find_opt
      (fun b -> b / scales <> a / scales && b mod scales = a mod scales && breaks a b)
      rings
  in
  match List.find_map (fun a -> Option.map (fun b -> (a, b)) (pick a)) rings with
  | Some (a, b) -> (slots a, slots b)
  | None -> Alcotest.fail "no two rings of one scale whose next rings differ in size"

(* The first-hop position column against its rule, where rows differ by
   node: an entry past its row, the column shifted, and the rows of the
   nodes with the shortest and the longest first-hop rows swapped each
   break it. So do z_z's slot runs of two rings whose next rings differ in
   size swapped, and a slot equal to the size of the smallest next ring
   with rows. On the grid fixture such runs are served swapped. *)
let basic_geometric_mutations =
  let basic () = Lazy.force basic_image and geo () = Lazy.force basic_geometric_image in
  let node_runs img = List.concat_map (segment_runs img) (column img "ring_hop").rules in
  (* The position runs of the nodes with the shortest and the longest
     first-hop rows. *)
  let extreme_rows img =
    let by_size = List.sort (fun (_, _, a) (_, _, b) -> compare a b) (node_runs img) in
    let s1, e1, _ = List.hd by_size and s2, e2, _ = List.hd (List.rev by_size) in
    ((s1, e1), (s2, e2))
  in
  shared_cases basic_geometric_image
  @ [
    ( "a level below the last not whole-net on the geometric graph",
      fun () ->
        let img = geo () in
        check_bool "shared" (value img "shared" < value img "scales" - 1) );
    ( "z_z rows of rings that differ by node swapped",
      fun () ->
        let img = geo () in
        let a, b = slot_runs_to_swap img in
        expect_rejected "z_z" (rows_swapped img "z_z" a b) );
    ( "slot equal to the smallest next ring's size",
      fun () ->
        let img = geo () in
        let runs = List.concat_map (segment_runs img) (column img "z_z").rules in
        let start, _, size = List.hd (List.sort (fun (_, _, a) (_, _, b) -> compare a b) runs) in
        expect_rejected "z_z" (mutate_usec img "z_z" (fun a -> A1.set a start size)) );
    ( "ring_hop entry past its first-hop row",
      fun () ->
        let img = basic () in
        let start, _, size = List.hd (node_runs img) in
        expect_rejected "ring_hop" (mutate_usec img "ring_hop" (fun a -> A1.set a start size)) );
    ( "ring_hop shifted, the longest first-hop row's positions onto the shortest's",
      fun () ->
        let img = geo () in
        let (s1, _), (s2, _) = extreme_rows img in
        let n = A1.dim (usec img "ring_hop") in
        expect_rejected "ring_hop" (shifted img "ring_hop" (((s2 - s1) + n) mod n)) );
    ( "ring_hop rows of the shortest and the longest first-hop rows swapped",
      fun () ->
        let img = geo () in
        let a, b = extreme_rows img in
        expect_rejected "ring_hop" (rows_swapped img "ring_hop" a b) );
  ]

(* One to three random bits of column [c] flipped. *)
let flipped rng img (c : Server.column) =
  let bit k = 1 lsl Random.State.int rng k in
  let flip img =
    let i = Random.State.int rng (dim_of img c) in
    match c.kind with
    | Server.Int -> mutate_isec img c.name (fun a -> A1.set a i (A1.get a i lxor bit 62))
    | Server.U16 -> mutate_usec img c.name (fun a -> A1.set a i (A1.get a i lxor bit 16))
    | Server.Float ->
      mutate_fsec img c.name (fun a ->
          let w = Int64.bits_of_float (A1.get a i) in
          let flip = Int64.shift_left 1L (Random.State.int rng 64) in
          A1.set a i (Int64.float_of_bits (Int64.logxor w flip)))
  in
  List.fold_left (fun img _ -> flip img) img (List.init (1 + Random.State.int rng 3) Fun.id)

(* A column picked with odds in proportion to its entries: where a random
   bit of the image's payload lies. *)
let by_size rng img cols =
  let rec go r = function
    | [ c ] -> c
    | c :: rest -> if r < dim_of img c then c else go (r - dim_of img c) rest
    | [] -> invalid_arg "by_size"
  in
  go (Random.State.int rng (List.fold_left (fun a c -> a + dim_of img c) 0 cols)) cols

(* Mutants aimed at Meridian's ring rows, each breaking a rule: a fill
   above ring_size, a slot holding n, and mr_fill one entry short. *)
let meridian_aimed rng img =
  let at name = Random.State.int rng (A1.dim (usec img name)) in
  [
    ("fill above ring_size", set_u "mr_fill" (at "mr_fill") (value img "ring_size" + 1) img,
     [ "mr_fill" ]);
    ("slot holding n", set_u "mr_node" (at "mr_node") (value img "n") img, [ "mr_node" ]);
    ("mr_fill one entry short", shortened "mr_fill" img, [ "mr_fill"; "mr_node" ]);
  ]

(* A mutant: its description, the image, the sections an [Error] may
   name, and whether it breaks a rule, so must be refused. *)
let mutant fixture kind seed =
  let rng = Random.State.make [| seed |] in
  let img = Lazy.force (snd (List.nth fixtures fixture)) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let nonempty = List.filter (fun c -> dim_of img c > 0) (schema img) in
  match kind with
  | 0 ->
    let what, m, names = pick (bound_mutants rng img) in
    ("bound: " ^ what, m, names, true)
  | 1 -> (
    match past_mutants img with
    | [] -> ("intact", img, [], false)
    | mutants ->
      let what, m, names = pick mutants in
      ("offsets: " ^ what, m, names, true))
  | 2 ->
    let c = pick nonempty in
    ("shorter: " ^ c.name, shortened c.name img, related img c.name, false)
  | 3 ->
    let a = pick (schema img) in
    let others = List.filter (fun (c : Server.column) -> c.kind = a.kind && c.name <> a.name) in
    let others = others (schema img) in
    let b = if others = [] then a else pick others in
    let what = Printf.sprintf "swap: %s and %s" a.name b.name in
    (what, swapped img a.name b.name, related img a.name @ related img b.name, false)
  | 4 ->
    let c = pick nonempty in
    ("flips: " ^ c.name, flipped rng img c, related img c.name, false)
  | 5 when scheme_of img = "meridian" ->
    let what, m, names = pick (meridian_aimed rng img) in
    ("aimed: " ^ what, m, names, true)
  | 6 -> (
    match segmented img with
    | [] -> ("intact", img, [], false)
    | cols ->
      let c, _ = pick cols in
      let k = 1 + Random.State.int rng (dim_of img c - 1) in
      (Printf.sprintf "shifted by %d: %s" k c.name, shifted img c.name k, related img c.name, false))
  | 7 -> (
    match segmented img with
    | [] -> ("intact", img, [], false)
    | cols ->
      let c, runs = pick cols in
      let a = pick runs and b = pick runs in
      let what = Printf.sprintf "rows swapped: %s [%d, %d) and [%d, %d)" in
      ( what c.name (fst a) (snd a) (fst b) (snd b),
        rows_swapped img c.name a b,
        related img c.name,
        false ))
  | _ ->
    let c = by_size rng img nonempty in
    ("flips, by size: " ^ c.name, flipped rng img c, related img c.name, false)

(* The DLS columns of a labelled or two_mode image, by name. *)
let dls_cols img =
  {
    Ron_labeling.Dls.rows = value img "rows";
    levels = value img "levels";
    prefix_len = value img "prefix_len";
    max_virt = value img "max_virt";
    d_off = isec img "d_off";
    d_val = fsec img "d_val";
    hosts = Image.ints_create 0;
    zoom_first = isec img "zoom_first";
    zoom_rest = isec img "zoom_rest";
    z_run = isec img "z_run";
    z_y = usec img "z_y";
    z_z = usec img "z_z";
  }

(* The table reads of the Thm 2.1 hop at node [u] toward each target a
   decoded zooming prefix [m] names, checked: a ring position that does
   not hold [u] must name an entry of u's first-hop row. *)
let hop_reads img (c : Structure.cols) u m =
  let hops = usec img "ring_hop" and t_off = isec img "t_off" in
  let row = A1.get t_off (u + 1) - A1.get t_off u in
  Array.iteri
    (fun j x ->
      let p = A1.get c.ring_off ((u * c.scales) + j) + x in
      if A1.get c.ring_node p <> u && A1.get hops p >= row then
        invalid_arg
          (Printf.sprintf "ring_hop %d at position %d, outside node %d's first-hop row of %d"
             (A1.get hops p) p u row))
    m

(* The meridian image's columns, by name. *)
let meridian_cols img =
  {
    Ron_smallworld.Meridian.n = value img "n";
    scales = value img "scales";
    ring_size = value img "ring_size";
    members = isec img "mmembers";
    fill = usec img "mr_fill";
    node = usec img "mr_node";
    dmat = fsec img "mdmat";
  }

(* [Landmark.bounds] over a landmark image's columns, by the same reads,
   checked: raises [Invalid_argument] naming the read where the served
   sandwich's unchecked reads lose their footing. Returns (lo, hi). *)
let landmark_checked img u v =
  let at : type a b. string -> (a, b, Bigarray.c_layout) A1.t -> int -> a =
   fun name a i ->
    if i < 0 || i >= A1.dim a then
      invalid_arg (Printf.sprintf "%s entry %d, past its %d" name i (A1.dim a));
    A1.get a i
  in
  let n = value img "n" and k = value img "k" in
  let row i w = at "rows" (fsec img "rows") ((i * n) + w) in
  let nodes = isec img "ball_node" and off = isec img "ball_off" in
  (* [Landmark.ball_idx]'s search of u's ball for v. *)
  let rec ball s e =
    if s >= e then -1
    else
      let mid = (s + e) / 2 in
      let x = at "ball_node" nodes mid in
      if x < v then ball (mid + 1) e else if x = v then mid else ball s mid
  in
  if u = v then (0.0, 0.0)
  else
    match ball (at "ball_off" off u) (at "ball_off" off (u + 1)) with
    | b when b >= 0 ->
      let d = at "ball_dist" (fsec img "ball_dist") b in
      (d, d)
    | _ -> (
      let col = isec img "col" in
      match (at "col" col v, lazy (at "col" col u)) with
      | cv, _ when cv >= 0 -> (row cv u, row cv u)
      | _, (lazy cu) when cu >= 0 -> (row cu v, row cu v)
      | _ ->
        let lo = ref 0.0 and hi = ref infinity in
        for i = 0 to k - 1 do
          let da = row i u and db = row i v in
          if Float.abs (da -. db) > !lo then lo := Float.abs (da -. db);
          if da +. db < !hi then hi := da +. db
        done;
        (!lo, !hi))

(* The checked copies of the views' walks on a served image: [Some read]
   names the first read the served walk would make outside the rows it
   may address, or the first answer of the served locate or sandwich that
   differs from its checked copy's. The Thm 2.1 walk runs for every (u, t)
   pair and Meridian's for every (member, target) pair, since a deep row,
   or the last slot of the last ring, is on the walks of only a few; the
   others run for a seeded sample of pairs. *)
let walk_error ~seed t =
  let img = Server.image t and n = Server.size t and rng = Random.State.make [| seed |] in
  let sample bound =
    List.init 1000 (fun _ -> (Random.State.int rng bound, Random.State.int rng n))
  in
  let served ~kind u v =
    let sc = Server.scratch_for t in
    Server.query t sc ~kind ~src:u ~dst:v;
    sc
  in
  let differs what u v = invalid_arg (Printf.sprintf "served %s %d -> %d differs" what u v) in
  let walk, pairs =
    match scheme_of img with
    | "basic" ->
      let c = basic_cols img in
      ( (fun (u, v) -> hop_reads img c u (Zeta_oracle.decode_rows c u (Zeta_oracle.label_of c v))),
        List.init (n * n) (fun p -> (p / n, p mod n)) )
    | "labelled" | "two_mode" ->
      let c = dls_cols img in
      ((fun (u, v) -> ignore (Dls_oracle.scan_rows c u v)), sample n)
    | "meridian" ->
      let c = meridian_cols img and members = isec img "mmembers" in
      ( (fun (i, v) ->
          let start = A1.get members i in
          let checked = Meridian_oracle.locate_checked c ~start ~target:v in
          let sc = served ~kind:2 start v in
          if checked <> (sc.Server.r_next, sc.Server.r_hops, sc.Server.r_aux) then
            differs "locate" start v),
        List.init (A1.dim members * n) (fun p -> (p / n, p mod n)) )
    | _ ->
      ( (fun (u, v) ->
          let lo, hi = landmark_checked img u v in
          let sc = served ~kind:1 u v in
          if not (Float.equal lo sc.Server.fbuf.(3) && Float.equal hi sc.Server.fbuf.(4)) then
            differs "bounds" u v),
        sample n )
  in
  match List.iter walk pairs with () -> None | exception Invalid_argument read -> Some read

let serves t =
  let work = Loop.prepare t ~seed:3 ~queries:40 ~zipf_s:1.1 ~route_frac:0.6 ~dist_frac:0.3 in
  match Loop.run ~jobs:1 t work (Loop.results_create 40) with
  | () -> true
  | exception Failure _ -> true

let basic_slot_cases =
  let basic () = Lazy.force basic_image in
  [
    ( "absent slot loads and serves",
      fun () ->
        (* A present slot made absent is a null step of the walks through
           it: the image loads, every walk stays in its rows, and a
           workload is served to its end. *)
        let img = basic () in
        let i = first_present (usec img "z_z") in
        let absent = mutate_usec img "z_z" (fun a -> A1.set a i Ron_core.Zeta.absent) in
        match Server.of_image absent with
        | Error e -> Alcotest.failf "absent slot refused: %s" e
        | Ok t ->
          (match walk_error ~seed:1 t with
          | None -> ()
          | Some read -> Alcotest.failf "absent slot: the walk reads %s" read);
          check_bool "served to the end" (serves t) );
  ]

(* ------------------------------------------- Basic labels past their rows *)

(* A label's y at level j indexes slot row m_j, so a y that is negative or
   past the row must decode as a null step — what the pair rows' search
   gave, -1 — at every node, and no read may leave the row. A wire label
   holds any y below 2^width, a snapshot's label_rest any int; each is
   checked against the checked walk, [Zeta_oracle.decode_rows]. *)
let basic_live =
  lazy
    (match Fixture.build_live ~scheme:"basic" ~n:64 ~seed:5 with
    | Fixture.L_basic s -> s
    | _ -> assert false)

(* [Structure.decode] of label row [row] of [l] at every node of [c],
   against the checked walk. *)
let decodes_as_checked (c : Structure.cols) (l : Structure.cols) row =
  let m = Array.make c.Structure.scales 0 in
  let label = Zeta_oracle.label_of l row in
  for u = 0 to c.Structure.n - 1 do
    let want =
      try Zeta_oracle.decode_rows c u label
      with Invalid_argument read -> Alcotest.failf "node %d reads %s" u read
    in
    check_bool (Printf.sprintf "node %d decodes as the checked walk" u)
      (Array.sub m 0 (Structure.decode c u l row m + 1) = want)
  done

(* The deepest level j of [t]'s label whose row, f_tj's ring j + 1, is
   shorter than [bound]. *)
let short_level s (c : Structure.cols) t bound =
  let f = Basic.zooming s t and off = c.Structure.ring_off and scales = c.Structure.scales in
  let len j = A1.get off ((f.(j) * scales) + j + 2) - A1.get off ((f.(j) * scales) + j + 1) in
  let rec go j =
    if j < 0 then Alcotest.fail "no row short enough" else if len j < bound then j else go (j - 1)
  in
  go (scales - 2)

(* An image's label_rest entry (t, j) set to [y], loaded. *)
let with_rest img (c : Structure.cols) t j y =
  let sm1 = c.Structure.scales - 1 in
  match Server.of_image (mutate_isec img "label_rest" (fun a -> A1.set a ((t * sm1) + j) y)) with
  | Ok srv -> srv
  | Error e -> Alcotest.failf "label_rest %d refused: %s" y e

let basic_label_cases =
  [
    ( "wire label y past its row is a null step",
      fun () ->
        (* Target t's label written with y = 2^width - 1 at a level whose
           row is shorter: every node decodes it as the checked walk, and
           each live route from it equals the served route from an image
           holding the same y (both may end in the scheme's Failure). *)
        let s = Lazy.force basic_live in
        let c = (Basic.export s).Basic.st in
        let n = c.Structure.n and scales = c.Structure.scales and sm1 = c.Structure.scales - 1 in
        let t = n - 1 in
        let _, bits = Basic.serialize_label s t in
        let id_bits = Ron_util.Bits.index_bits n in
        let width = (bits - id_bits) / scales in
        let past = (1 lsl width) - 1 in
        let j = short_level s c t past in
        let rest =
          Array.init sm1 (fun k -> if k = j then past else A1.get c.label_rest ((t * sm1) + k))
        in
        let first = A1.get c.label_first t in
        let w = Ron_util.Bitio.Writer.create () in
        Ron_util.Bitio.Writer.bits w t ~width:id_bits;
        Array.iter (fun y -> Ron_util.Bitio.Writer.bits w y ~width) (Array.append [| first |] rest);
        let header = Basic.deserialize_label s (Ron_util.Bitio.Writer.to_bytes w) in
        let ints a = Image.ints_of_array a in
        decodes_as_checked c { c with label_first = ints [| first |]; label_rest = ints rest } 0;
        let srv = with_rest (Server.image (Server.freeze_basic_t (Basic.export s))) c t j past in
        let sc = Server.scratch_for srv in
        for src = 0 to n - 1 do
          let live =
            match Basic.route_header s ~src header with
            | r -> Ok (outcome_code r.Scheme.outcome, r.Scheme.hops, r.Scheme.length)
            | exception Failure e -> Error e
          in
          let served =
            match Server.query srv sc ~kind:0 ~src ~dst:t with
            | () -> Ok (sc.Server.r_outcome, sc.Server.r_hops, sc.Server.fbuf.(2))
            | exception Failure e -> Error e
          in
          check_bool (Printf.sprintf "route %d -> %d: wire = served" src t) (live = served)
        done );
    ( "snapshot label_rest y negative or past its row is a null step",
      fun () ->
        (* On the geometric fixture, where rows differ by node: y = -1 and
           y = the row's length at one level of one label, each loaded and
           decoded at every node as the checked walk, then served. *)
        let img = Lazy.force basic_geometric_image in
        let c = basic_cols img in
        let t = c.Structure.n / 2 in
        let sm1 = c.Structure.scales - 1 in
        let level = sm1 / 2 in
        (* The label's row at [level], as t itself decodes it. *)
        let m = Array.make (sm1 + 1) 0 in
        if Structure.decode_to c t c t m level < level then Alcotest.fail "t's own label stops";
        let owner = Zeta_oracle.row_owner c t level in
        let p = A1.get c.Structure.ring_off ((owner * (sm1 + 1)) + level) + m.(level) in
        let row_length = A1.get c.Structure.z_run (p + 1) - A1.get c.Structure.z_run p in
        List.iter
          (fun (j, y) ->
            let srv = with_rest img c t j y in
            let c' = basic_cols (Server.image srv) in
            decodes_as_checked c' c' t;
            (match walk_error ~seed:1 srv with
            | None -> ()
            | Some read -> Alcotest.failf "label_rest %d at level %d: the walk reads %s" y j read);
            check_bool "served to the end" (serves srv))
          [ (level, -1); (level, row_length) ] );
  ]

let prop_schema_fuzz =
  let print (f, k, seed) =
    let what, _, _, _ = mutant f k seed in
    Printf.sprintf "%s %s" (fst (List.nth fixtures f)) what
  in
  QCheck.Test.make ~name:"mutants are refused by name or served to the end" ~count:800
    (QCheck.make ~print
       QCheck.Gen.(
         triple (int_bound (List.length fixtures - 1)) (int_bound 7) (int_bound 1_000_000)))
    (fun (f, k, seed) ->
      let what, img, names, must = mutant f k seed in
      let scheme = scheme_of img in
      let file = Filename.temp_file "ron_serve_fuzz" ".snap" in
      Image.save img file;
      let loaded = Server.load file in
      Sys.remove file;
      match loaded with
      | Error e ->
        (contains e scheme && List.exists (contains e) names)
        || QCheck.Test.fail_reportf "%s: the error names no section it may: %s" what e
      | Ok t -> (
        (not must || QCheck.Test.fail_reportf "%s: accepted" what)
        &&
        match walk_error ~seed t with
        | None -> serves t
        | Some read -> QCheck.Test.fail_reportf "%s: accepted, but the walk reads %s" what read))

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
      (* The builder's columns meet the declaration that guards a load. *)
      (match Server.of_image (Server.image t) with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "built columns refused: %s" e);
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
let basic_graphs =
  let module Gen = Ron_graph.Graph_gen in
  [
    ( " on random geometric graphs",
      (16, 100),
      fun ~n ~seed -> Gen.random_geometric (Ron_util.Rng.create seed) ~n ~radius:0.3 );
    (" on the exponential line", (8, 40), fun ~n ~seed:_ -> Gen.exponential_line_graph n);
  ]

let basic_of graph ~n ~seed = Basic.build (Ron_graph.Sp_metric.create (graph ~n ~seed)) ~delta:0.25

let basic_families =
  List.map
    (fun (name, size, graph) ->
      prop_matches_live "basic" ~name ~size ~build:(fun ~scheme:_ ~n ~seed ->
          Fixture.L_basic (basic_of graph ~n ~seed)))
    basic_graphs

(* Every state (node, level) a Basic route visits on its way to [dst]:
   [Some error] at the first whose level or table entry differs from the
   hop oracle's, which decodes to j_ut and searches the first-hop row. *)
let hop_mismatch (c : Basic.cols) ~src ~dst =
  let m = Array.make c.st.Structure.scales 0 and m' = Array.make c.st.Structure.scales 0 in
  let rec go node level hops =
    if node = dst || hops > c.max_hops then None
    else
      let j = Basic.target_level c c.st dst m node level in
      let j' = Hop_oracle.target_level c c.st dst m' node level in
      let e = Basic.hop_entry c node m j and e' = Hop_oracle.hop_entry c node m' j' in
      if j <> j' || e <> e' then
        Some
          (Printf.sprintf "%d -> %d at node %d, level %d: level %d entry %d, oracle %d and %d" src
             dst node level j e j' e')
      else go (A1.get c.table.Ron_routing.First_hop.t_next e) j (hops + 1)
  in
  go src (-1) 0

(* The hop against its oracle on the basic families' graphs and on the
   20x20 grid, where the rings of the finer scales differ by node: routes
   between seeded random pairs, compared state by state. *)
let grid20 =
  lazy (Basic.build (Ron_graph.Sp_metric.create (Ron_graph.Graph_gen.grid 20 20)) ~delta:0.25)

let prop_hop_matches_oracle =
  let families = List.length basic_graphs in
  QCheck.Test.make ~name:"Thm 2.1 hop = decode to j_ut and first-hop search" ~count:9
    QCheck.(pair (int_bound families) (int_range 1 1000))
    (fun (f, seed) ->
      let s =
        if f = families then Lazy.force grid20
        else
          let _, (lo, hi), graph = List.nth basic_graphs f in
          basic_of graph ~n:(lo + (seed mod (hi - lo + 1))) ~seed
      in
      let c = Basic.export s and rng = Random.State.make [| seed |] in
      let n = c.st.Structure.n in
      let rec go k =
        k = 0
        ||
        match hop_mismatch c ~src:(Random.State.int rng n) ~dst:(Random.State.int rng n) with
        | None -> go (k - 1)
        | Some e -> QCheck.Test.fail_report e
      in
      go 1000)

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

(* ---------------------------------- paper guarantees on the served path *)

(* Each property freezes a scheme built on a random instance, serves a
   seeded workload from the snapshot through [Loop], and checks every
   answer [Loop] wrote against the exact distance. *)
module Sp_metric = Ron_graph.Sp_metric

let geometric ~n ~seed =
  Sp_metric.create (Ron_graph.Graph_gen.random_geometric (Ron_util.Rng.create seed) ~n ~radius:0.25)

let every_answer t ~seed ~route_frac ~dist_frac ok =
  let queries = 200 in
  let work = Loop.prepare t ~seed ~queries ~zipf_s:1.1 ~route_frac ~dist_frac in
  let res = Loop.results_create queries in
  Loop.run ~jobs:1 t work res;
  List.for_all
    (fun i -> ok (Loop.kind_of work i) (Loop.src_of work i) (Loop.dst_of work i) res i)
    (List.init queries Fun.id)

(* Thm 2.1 at delta = 1/4: every frozen Basic route on a random geometric
   graph is delivered, with stretch at most (1 + delta) / (1 - delta) = 5/3. *)
let prop_served_basic_stretch =
  QCheck.Test.make ~name:"Thm 2.1: frozen Basic routes deliver within stretch 5/3" ~count:6
    QCheck.(pair (int_range 20 60) (int_range 1 1000))
    (fun (n, seed) ->
      let sp = geometric ~n ~seed in
      let t = Server.freeze_basic_t (Basic.export (Basic.build sp ~delta:0.25)) in
      every_answer t ~seed ~route_frac:1.0 ~dist_frac:0.0 (fun kind src dst res i ->
          kind = 0
          && A1.get res.Loop.ra i = 0
          && A1.get res.Loop.rx i <= (5.0 /. 3.0 *. Sp_metric.dist sp src dst) +. 1e-9))

(* The landmark sandwich: every served answer brackets the distance. *)
let prop_served_landmark_sandwich =
  QCheck.Test.make ~name:"landmark: served bounds satisfy lo <= d <= hi" ~count:6
    QCheck.(triple (int_range 20 80) (int_range 1 1000) (int_range 2 8))
    (fun (n, seed, k) ->
      let sp = geometric ~n ~seed in
      let lm = Ron_labeling.Landmark.build sp (Ron_util.Rng.create seed) ~k ~local_radius:0.1 in
      let t = Server.freeze_landmark_t (Ron_labeling.Landmark.export lm) in
      every_answer t ~seed ~route_frac:0.0 ~dist_frac:1.0 (fun kind src dst res i ->
          let d = Sp_metric.dist sp src dst in
          kind = 1 && A1.get res.Loop.rx i <= d +. 1e-9 && d <= A1.get res.Loop.ry i +. 1e-9))

(* Thm 3.4 at [delta]: a served labelled or two_mode distance estimate
   lies within [d, (1 + 2 delta)(1 + delta/8) d], for [d] the distance in
   the metric the labels were built on. *)
let within_thm34 t dist ~delta ~seed =
  let stretch = (1.0 +. (2.0 *. delta)) *. (1.0 +. (delta /. 8.0)) in
  every_answer t ~seed ~route_frac:0.0 ~dist_frac:1.0 (fun kind src dst res i ->
      let d = dist src dst and est = A1.get res.Loop.rx i in
      kind = 1 && est >= d -. 1e-9 && est <= (stretch *. d) +. 1e-9)

(* Labelled labels are built on the normalized metric, so its answers
   are in that metric's units. *)
let prop_served_labelled_estimate =
  QCheck.Test.make ~name:"Thm 3.4: served labelled estimates within the stretch bound" ~count:3
    QCheck.(pair (int_range 16 36) (int_range 1 1000))
    (fun (n, seed) ->
      let sp = geometric ~n ~seed in
      let live = Ron_routing.Labelled.build sp ~delta:0.25 in
      let t = Server.freeze_labelled_t (Ron_routing.Labelled.export live) in
      let metric = Ron_metric.Metric.normalize (Sp_metric.metric sp) in
      within_thm34 t (Ron_metric.Metric.dist metric) ~delta:Ron_routing.Labelled.dls_delta ~seed)

let prop_served_two_mode_estimate =
  QCheck.Test.make ~name:"Thm 3.4: served two_mode estimates within the stretch bound" ~count:3
    QCheck.(pair (int_range 20 64) (int_range 1 1000))
    (fun (n, seed) ->
      let idx =
        Ron_metric.(Indexed.create (Generators.random_cloud (Ron_util.Rng.create seed) ~n ~dim:2))
      in
      let live = Ron_routing.Two_mode.build idx ~delta:0.125 in
      let t = Server.freeze_two_mode_t (Ron_routing.Two_mode.export live) in
      within_thm34 t (Ron_metric.Indexed.dist idx) ~delta:0.125 ~seed)

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
   (z_z): header, section table, then the int and float payloads. *)
let basic_snapshot () =
  let img = Lazy.force basic_image in
  let file = Filename.temp_file "ron_serve_test" ".snap" in
  Image.save img file;
  let words secs = Array.fold_left (fun acc s -> acc + A1.dim s) 0 secs in
  let count = Array.length img.Image.isecs + Array.length img.fsecs + Array.length img.usecs in
  (file, 56 + (16 * count) + (8 * (words img.isecs + words img.fsecs)), A1.dim (usec img "z_z"))

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
  let file, z_z, n = basic_snapshot () in
  patch_byte file (z_z + n) (fun c -> c lxor 0x01);
  let e = load_error file in
  check_bool ("names the uint16 checksum: " ^ e) (contains e "uint16 section 0 checksum")

let test_u16_truncated_rejected () =
  let file, z_z, n = basic_snapshot () in
  Unix.truncate file (z_z + n + 1);
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
  let emptied name = edited img name { edit = (fun s -> A1.sub s 0 0) } in
  let rejected what img =
    match Server.of_image img with
    | Ok _ -> Alcotest.failf "%s: %s accepted" scheme what
    | Error e ->
      check_bool (Printf.sprintf "%s error names the scheme: %s" what e) (contains e scheme)
  in
  (* Every meta section the declaration names: "meta", and the DLS meta
     and threshold sections where the view has them. *)
  List.iter
    (fun (c : Server.column) ->
      if c.entries <> [] then rejected ("empty " ^ c.name ^ " section") (emptied c.name))
    (Server.schema scheme);
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
    (words < 0.5)

(* The same audit of an observed pass with the flight recorder on (no SLO
   monitor, logical clock, one domain): the recorder, its trace sampling
   ([Rng.mix]) and the per-hop capture allocate nothing per query. *)
let test_observed_zero_alloc scheme () =
  let (scheme, n, queries) = case scheme in
  let t = Fixture.build ~scheme ~n ~seed:5 in
  let work = workload_for t ~queries in
  let res = Loop.results_create queries in
  let flight = Ron_obs.Flight.create ~window:32 ~per_window:4 ~retain:4 ~trace_every:4 () in
  Loop.run_observed ~jobs:1 ~flight t work res;
  let w0 = Gc.minor_words () in
  Loop.run_observed ~jobs:1 ~flight t work res;
  let words = (Gc.minor_words () -. w0) /. float_of_int queries in
  check_bool
    (Printf.sprintf "%s observed allocation ~ 0 (got %.3f words/query)" scheme words)
    (words < 0.5)

(* An observed pass with the SLO monitor only (logical clock, one domain,
   no window closing before the end): the latency column is a float
   Bigarray stored unboxed, so the 2 words of the float [Slo.observe]
   receives are all a query allocates. A column typed only at run time
   compiles to the generic C setter on a boxed float: 2 words more. *)
let test_slo_observed_words () =
  let queries = 20000 in
  let t = Fixture.build ~scheme:"basic" ~n:100 ~seed:5 in
  let work = workload_for t ~queries in
  let res = Loop.results_create queries in
  let slo () =
    match Ron_obs.Slo.parse "p95<=65536,delivery>=0.5" with
    | Ok o -> Ron_obs.Slo.create ~window:(2 * queries) ~name:"slo.test.words" o
    | Error e -> Alcotest.fail e
  in
  Loop.run_observed ~jobs:1 ~slo:(slo ()) t work res;
  let s = slo () in
  let w0 = Gc.minor_words () in
  Loop.run_observed ~jobs:1 ~slo:s t work res;
  let words = (Gc.minor_words () -. w0) /. float_of_int queries in
  check_bool
    (Printf.sprintf "slo-only observed basic below 2.5 words/query (got %.3f)" words)
    (words < 2.5)

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
      ("thm21 hop", [ QCheck_alcotest.to_alcotest prop_hop_matches_oracle ]);
      ("served guarantees",
       List.map QCheck_alcotest.to_alcotest
         [
           prop_served_basic_stretch;
           prop_served_landmark_sandwich;
           prop_served_labelled_estimate;
           prop_served_two_mode_estimate;
         ]);
      ("snapshot round-trip",
       per_scheme (fun s -> Alcotest.test_case s `Quick (test_roundtrip s)));
      ("basic image",
       [ Alcotest.test_case "zeta sections match the join oracle" `Quick
           test_basic_image_matches_oracle ]);
      ("basic validation",
       List.map
         (fun (name, f) -> Alcotest.test_case name `Quick f)
         (basic_mutations @ basic_geometric_mutations @ basic_slot_cases));
      ("basic labels",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) basic_label_cases);
      ("labelled validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) labelled_mutations);
      ("two_mode validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) two_mode_mutations);
      ("meridian validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) meridian_mutations);
      ("landmark validation",
       List.map (fun (name, f) -> Alcotest.test_case name `Quick f) landmark_mutations);
      ("schema fuzzing", [ QCheck_alcotest.to_alcotest prop_schema_fuzz ]);
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
       per_scheme (fun s -> Alcotest.test_case s `Quick (test_zero_alloc s))
       @ per_scheme (fun s ->
             Alcotest.test_case ("observed " ^ s) `Quick (test_observed_zero_alloc s))
       @ [ Alcotest.test_case "slo-only observed basic" `Quick test_slo_observed_words ]);
      ("observed serving",
       per_scheme (fun s -> Alcotest.test_case s `Quick (test_observed_invariant s)));
    ]
