(* Tests for ron_core: rings of neighbors and zooming sequences. *)

module Rng = Ron_util.Rng
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Net = Ron_metric.Net
module Measure = Ron_metric.Measure
module Rings = Ron_core.Rings
module Zooming = Ron_core.Zooming

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

let grid = lazy (Indexed.create (Generators.grid2d 8 8))
let hier = lazy (Net.Hierarchy.create (Lazy.force grid))

(* ---------------------------------------------------------------- Rings *)

let test_net_rings_thm21_shape () =
  (* The Theorem 2.1 rings: G_j is a Delta/2^j-net, r_j = 4 Delta/(delta 2^j). *)
  let idx = Lazy.force grid and h = Lazy.force hier in
  let delta = 0.25 in
  let big_l = Indexed.log2_aspect_ratio idx in
  let aspect = Indexed.diameter idx in
  let rings =
    Rings.net_rings idx h ~scales:(big_l + 1)
      ~radius_of:(fun j -> 4.0 *. aspect /. (delta *. Float.of_int (1 lsl j)))
      ~level_of:(fun j -> big_l - j)
  in
  check_bool "containment" (Rings.check_containment idx rings);
  (* Ring 0 contains the single top net point for every node. *)
  for u = 0 to Indexed.size idx - 1 do
    let r0 = Rings.ring rings u 0 in
    check_bool "ring 0 nonempty" (Array.length r0.Rings.members >= 1)
  done;
  (* Every node has itself in the last ring (level 0 net = all nodes,
     radius >= 4/delta > 0). *)
  for u = 0 to Indexed.size idx - 1 do
    let last = Rings.ring rings u big_l in
    check_bool "self in last ring" (Array.exists (( = ) u) last.Rings.members)
  done

let test_net_rings_bounded_cardinality () =
  (* Lemma 1.4: |B_u(r_j) ∩ G_j| <= (4 r_j / 2^level)^alpha. With
     r_j = 4 Delta/(delta 2^j) and net radius Delta/2^j the bound is
     (16/delta)^alpha. Check a concrete cap for the grid (alpha <= 3). *)
  let idx = Lazy.force grid and h = Lazy.force hier in
  let delta = 0.5 in
  let big_l = Indexed.log2_aspect_ratio idx in
  let aspect = Indexed.diameter idx in
  let rings =
    Rings.net_rings idx h ~scales:(big_l + 1)
      ~radius_of:(fun j -> 4.0 *. aspect /. (delta *. Float.of_int (1 lsl j)))
      ~level_of:(fun j -> big_l - j)
  in
  let cap = int_of_float ((16.0 /. delta) ** 3.0) in
  check_bool "K bounded by (16/delta)^alpha" (Rings.max_ring_size rings <= cap)

let test_uniform_rings () =
  let idx = Lazy.force grid in
  let rng = Rng.create 5 in
  let scales = Indexed.log2_size idx + 1 in
  let rings = Rings.uniform_rings idx rng ~scales ~samples:8 in
  check_bool "containment" (Rings.check_containment idx rings);
  for u = 0 to Indexed.size idx - 1 do
    check_int "all rings present" scales (Rings.scales rings u);
    (* Deepest ring samples from the singleton ball: only u itself. *)
    let deep = Rings.ring rings u (scales - 1) in
    check_bool "deep ring is self" (Array.for_all (( = ) u) deep.Rings.members)
  done

let test_uniform_rings_shift_clamp () =
  (* The per-scale population target is n / 2^i; rings.ml clamps the shift
     at i >= 62 so deep scales don't overflow into a negative (or zero)
     divisor. Every scale past log2 n already targets a count of 1, clamped
     scales included: the ball is the singleton {u}. *)
  let idx = Lazy.force grid in
  let n = Indexed.size idx in
  List.iter
    (fun scales ->
      let rng = Rng.create 11 in
      let rings = Rings.uniform_rings idx rng ~scales ~samples:4 in
      check_bool "containment" (Rings.check_containment idx rings);
      for u = 0 to n - 1 do
        check_int "all scales present" scales (Rings.scales rings u);
        let deepest = Rings.ring rings u (scales - 1) in
        for i = Indexed.log2_size idx + 1 to scales - 1 do
          let r = Rings.ring rings u i in
          check_bool "singleton ball past log2 n" (Array.for_all (( = ) u) r.Rings.members);
          check_bool "radius equals deepest ring's" (r.Rings.radius = deepest.Rings.radius)
        done
      done)
    [ 61; 62; 63 ]

let prop_uniform_ring_radii_monotone =
  (* Ball populations shrink as the scale deepens, so ring radii must be
     monotone non-increasing in the scale index — including across the
     i >= 62 shift clamp. *)
  QCheck.Test.make ~name:"uniform ring radii monotone non-increasing in scale" ~count:25
    QCheck.(pair (int_range 2 70) (int_range 0 10_000))
    (fun (scales, seed) ->
      let idx = Lazy.force grid in
      let rings = Rings.uniform_rings idx (Rng.create seed) ~scales ~samples:2 in
      let ok = ref true in
      for u = 0 to Indexed.size idx - 1 do
        for i = 1 to scales - 1 do
          if (Rings.ring rings u i).Rings.radius > (Rings.ring rings u (i - 1)).Rings.radius
          then ok := false
        done
      done;
      !ok)

let test_measure_rings () =
  let idx = Lazy.force grid in
  let h = Lazy.force hier in
  let mu = Measure.create idx h in
  let rng = Rng.create 6 in
  let scales = Net.Hierarchy.jmax h + 1 in
  let rings =
    Rings.measure_rings idx mu rng ~scales ~samples:8 ~radius_of:(fun j ->
        Float.of_int (1 lsl j))
  in
  check_bool "containment" (Rings.check_containment idx rings);
  (* Scale-0 balls have radius 1: members at distance <= 1. *)
  let r0 = Rings.ring rings 0 0 in
  Array.iter (fun v -> check_bool "close" (Indexed.dist idx 0 v <= 1.0)) r0.Rings.members

let test_rings_accounting () =
  let idx = Lazy.force grid in
  let rng = Rng.create 9 in
  let rings = Rings.uniform_rings idx rng ~scales:3 ~samples:4 in
  check_int "sizes" 64 (Rings.size rings);
  check_bool "out degree positive" (Rings.out_degree rings 0 >= 1);
  check_bool "max out degree sane" (Rings.max_out_degree rings <= 12);
  check_bool "max ring size" (Rings.max_ring_size rings = 4)

let test_rings_neighbors_canonical () =
  (* [neighbors] is the canonical adjacency view: sorted ascending, no
     duplicates, exactly the union of the ring members. Parallel builders
     and serialized outputs rely on this order being deterministic. *)
  let idx = Lazy.force grid in
  let rng = Rng.create 13 in
  let rings = Rings.uniform_rings idx rng ~scales:4 ~samples:6 in
  for u = 0 to Rings.size rings - 1 do
    let nbrs = Rings.neighbors rings u in
    for i = 1 to Array.length nbrs - 1 do
      check_bool "sorted strictly ascending" (nbrs.(i - 1) < nbrs.(i))
    done;
    let union =
      Array.fold_left
        (fun acc r -> Array.fold_left (fun acc v -> v :: acc) acc r.Rings.members)
        [] (Rings.rings_of rings u)
    in
    let expect = List.sort_uniq Int.compare union in
    check_bool "equals sorted union of ring members" (Array.to_list nbrs = expect)
  done

(* -------------------------------------------------------------- Zooming *)

let test_zooming_encode_decode () =
  (* Toy setup: three "nodes" 100, 200, 300 where the enumeration of each
     element assigns the next element index 7, and u's translation tables
     map everything through. *)
  let sequence = [| 100; 200; 300 |] in
  let enum_of_prev _j next = Some (next / 100) in
  let enc = Zooming.encode ~sequence ~enum_of_prev ~first_index:0 in
  check_int "first" 0 enc.Zooming.first;
  check_bool "rest" (enc.Zooming.rest = [| 2; 3 |]);
  (* Translation: m_{j+1} = m_j * 10 + y. *)
  let translate _j ~x ~y = (x * 10) + y in
  let m = Zeta_oracle.decode_walk ~translate enc in
  check_bool "walk" (m = [| 0; 2; 23 |])

let test_zooming_walk_stops_at_null () =
  let enc = { Zooming.first = 1; rest = [| 5; 6; 7 |] } in
  let translate j ~x ~y = if j < 2 then x + y else -1 in
  let m = Zeta_oracle.decode_walk ~translate enc in
  check_bool "stops at null" (m = [| 1; 6; 12 |])

let test_zooming_encode_rejects_gap () =
  Alcotest.check_raises "gap"
    (Invalid_argument
       "Zooming.encode: element 1 not enumerable at its predecessor (Claim 2.3/3.5 violated)")
    (fun () ->
      ignore
        (Zooming.encode ~sequence:[| 1; 2 |] ~enum_of_prev:(fun _ _ -> None) ~first_index:0))

let test_zooming_bits () =
  let enc = { Zooming.first = 0; rest = [| 1; 2; 3 |] } in
  check_int "bits" 20 (Zooming.bits enc ~index_bits:5)

(* ---------------------------------------------------------- Enumeration *)

(* A ring's host enumeration is its member order: a member's index is its
   position, and a node outside the ring has none. *)
let test_enum_roundtrip () =
  let idx = Lazy.force grid and h = Lazy.force hier in
  let big_l = Indexed.log2_aspect_ratio idx in
  let radius_of j = 4.0 *. Indexed.diameter idx /. (0.25 *. Float.of_int (1 lsl j)) in
  let scales = big_l + 1 in
  let rings = Rings.net_rings idx h ~scales ~radius_of ~level_of:(fun j -> big_l - j) in
  for u = 0 to Indexed.size idx - 1 do
    for j = 0 to scales - 1 do
      let members = (Rings.ring rings u j).Rings.members in
      Array.iteri
        (fun x v ->
          check_int (Printf.sprintf "index of member %d" x) x (Rings.find_member rings u j v))
        members;
      let inside = Array.make (Indexed.size idx) false in
      Array.iter (fun v -> inside.(v) <- true) members;
      Array.iteri
        (fun v b -> if not b then check_int "non-member" (-1) (Rings.find_member rings u j v))
        inside
    done
  done

(* Integration: encode a real zooming sequence on the grid using the
   hierarchy, mimicking Theorem 2.1 (f_tj = nearest net point of G_(L-j)),
   and decode it from the rings through real translation tables. *)
let test_zooming_on_grid_via_rings () =
  let idx = Lazy.force grid and h = Lazy.force hier in
  let delta = 0.25 in
  let big_l = Indexed.log2_aspect_ratio idx in
  let aspect = Indexed.diameter idx in
  let level_of j = big_l - j in
  let radius_of j = 4.0 *. aspect /. (delta *. Float.of_int (1 lsl j)) in
  let rings = Rings.net_rings idx h ~scales:(big_l + 1) ~radius_of ~level_of in
  (* A ring's host enumeration is its member order: index = position. *)
  let node u j x = (Rings.ring rings u j).Rings.members.(x) in
  let index u j v = match Rings.find_member rings u j v with -1 -> None | i -> Some i in
  let t = 37 in
  let f = Array.init (big_l + 1) (fun j -> fst (Net.Hierarchy.nearest h (level_of j) t)) in
  (* Claim 2.3 instance: f_(t,j+1) is in ring j+1 of f_tj. *)
  let enum_of_prev j next = index f.(j) (j + 1) next in
  let first_index = Option.get (index t 0 f.(0)) in
  let enc = Zooming.encode ~sequence:f ~enum_of_prev ~first_index in
  (* Decode at a far-away node u: build u's translation tables on the fly. *)
  let u = 0 in
  let translate j ~x ~y =
    let fu = node u j x in
    let w_opt =
      let ring = (Rings.ring rings fu (j + 1)).Rings.members in
      if y < Array.length ring then Some ring.(y) else None
    in
    match Option.bind w_opt (index u (j + 1)) with None -> -1 | Some i -> i
  in
  (* Ring 0 is the same set for every node, but enumeration order may differ;
     align the first index to u's enumeration (canonical share). *)
  let enc = { enc with Zooming.first = Option.get (index u 0 f.(0)) } in
  let m = Zeta_oracle.decode_walk ~translate enc in
  (* The walk recovers a prefix of the zooming sequence in u's coordinates. *)
  check_bool "prefix nonempty" (Array.length m >= 1);
  Array.iteri
    (fun j mj -> check_int (Printf.sprintf "element %d recovered" j) f.(j) (node u j mj))
    m

(* ----------------------------------------------------------------- Zeta *)

module Zeta = Ron_core.Zeta

let u16s a = Bigarray.Array1.of_array Bigarray.int16_unsigned Bigarray.c_layout a

(* [Zeta.find] against a plain binary search, on strictly increasing
   16-bit rows of the lengths around its scan threshold (16), for y below,
   between, equal to and above the entries. Each row sits between pads
   whose y is the queried y and whose z is 0xffff, a value no row holds,
   so a read outside [lo, hi) shows as a wrong answer. *)
let prop_zeta_find =
  let lengths = [| 0; 1; 15; 16; 17; 200 |] in
  QCheck.Test.make ~name:"Zeta.find = binary search around the scan threshold" ~count:60
    QCheck.(pair (int_bound (Array.length lengths - 1)) (int_range 0 1_000_000))
    (fun (li, seed) ->
      let rng = Random.State.make [| seed |] in
      let len = lengths.(li) in
      (* Distinct sorted values, spaced so most neighbours leave a gap. *)
      let ys = Array.make len 0 in
      let y = ref (Random.State.int rng 4) in
      for i = 0 to len - 1 do
        ys.(i) <- !y;
        y := !y + 1 + Random.State.int rng 300
      done;
      let zs = Array.init len (fun _ -> Random.State.int rng 0xffff) in
      let rec search lo hi q =
        if lo >= hi then -1
        else
          let mid = (lo + hi) / 2 in
          if ys.(mid) = q then zs.(mid) else if ys.(mid) < q then search (mid + 1) hi q
          else search lo mid q
      in
      let queries =
        [ 0; 0xffff ]
        @ List.concat_map (fun v -> [ v - 1; v; v + 1 ]) (Array.to_list ys)
        @ List.init 20 (fun _ -> Random.State.int rng 0x10000)
      in
      List.for_all
        (fun q ->
          q < 0 || q > 0xffff
          ||
          let pad = 1 + Random.State.int rng 3 in
          let zy = u16s (Array.concat [ Array.make pad q; ys; Array.make pad q ]) in
          let zz = u16s (Array.concat [ Array.make pad 0xffff; zs; Array.make pad 0xffff ]) in
          let got = Zeta.find zy zz q pad (pad + len) in
          got = search 0 len q
          || QCheck.Test.fail_reportf "row of %d, y %d: %d, expected %d" len q got
               (search 0 len q))
        queries)

(* A random row of [len] slots over a next ring of [size] members, each a
   position or absent, and the same row as sorted (y, z) pairs. *)
let slot_row rng ~len ~size =
  let slots =
    Array.init len (fun _ ->
        if Random.State.int rng 3 = 0 then Zeta.absent else Random.State.int rng size)
  in
  let pairs = List.mapi (fun y z -> (y, z)) (Array.to_list slots) in
  let pairs = List.filter (fun (_, z) -> z <> Zeta.absent) pairs in
  (slots, Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

(* [Zeta.slot] gives what [Zeta.find] gives on the same row as pairs, for
   every y from below the row to past it, 2^16 and beyond included; the
   row sits between pads holding [size], which no slot of the row holds,
   so a read outside it shows. *)
let prop_zeta_slot =
  QCheck.Test.make ~name:"Zeta.slot = Zeta.find on the row as pairs" ~count:60
    QCheck.(triple (int_range 0 40) (int_range 1 0xfffe) (int_range 0 1_000_000))
    (fun (len, size, seed) ->
      let rng = Random.State.make [| seed |] in
      let slots, ys, zs = slot_row rng ~len ~size in
      let pad = Array.make (1 + Random.State.int rng 3) size in
      let row = u16s (Array.concat [ pad; slots; pad ]) in
      let lo = Array.length pad in
      List.for_all
        (fun y ->
          let want =
            if y < 0 || y > 0xffff then -1 else Zeta.find (u16s ys) (u16s zs) y 0 (Array.length ys)
          in
          let got = Zeta.slot row y lo (lo + len) in
          got = want || QCheck.Test.fail_reportf "row of %d, y %d: %d, expected %d" len y got want)
        ([ min_int; -1; 0; len - 1; len; len + 1; 0xffff; 0x10000; max_int ]
        @ List.init len Fun.id))

(* [Zeta.outside_slots] against a plain scan, on rows of every length
   around its four-slot step, with one slot possibly set past the ring. *)
let prop_zeta_outside_slots =
  QCheck.Test.make ~name:"Zeta.outside_slots = a plain scan" ~count:200
    QCheck.(triple (int_range 0 13) (int_range 1 0xfffe) (int_range 0 1_000_000))
    (fun (len, size, seed) ->
      let rng = Random.State.make [| seed |] in
      let slots, _, _ = slot_row rng ~len ~size in
      if len > 0 && Random.State.bool rng then
        slots.(Random.State.int rng len) <- size + Random.State.int rng (0xffff - size);
      let want =
        let rec scan i =
          if i >= len then -1
          else if slots.(i) = Zeta.absent || slots.(i) < size then scan (i + 1)
          else i
        in
        scan 0
      in
      let got = Zeta.outside_slots (u16s (Array.append [| size |] slots)) size 1 (len + 1) in
      got = (if want < 0 then -1 else want + 1)
      || QCheck.Test.fail_reportf "row of %d over %d: %d, expected %d" len size got want)

let () =
  Alcotest.run "ron_core"
    [
      ( "rings",
        [
          Alcotest.test_case "thm 2.1 shape" `Quick test_net_rings_thm21_shape;
          Alcotest.test_case "bounded cardinality" `Quick test_net_rings_bounded_cardinality;
          Alcotest.test_case "uniform rings" `Quick test_uniform_rings;
          Alcotest.test_case "uniform rings shift clamp" `Quick test_uniform_rings_shift_clamp;
          QCheck_alcotest.to_alcotest prop_uniform_ring_radii_monotone;
          Alcotest.test_case "measure rings" `Quick test_measure_rings;
          Alcotest.test_case "accounting" `Quick test_rings_accounting;
          Alcotest.test_case "neighbors canonical order" `Quick test_rings_neighbors_canonical;
        ] );
      ("enumeration", [ Alcotest.test_case "roundtrip" `Quick test_enum_roundtrip ]);
      ( "zooming",
        [
          Alcotest.test_case "encode/decode" `Quick test_zooming_encode_decode;
          Alcotest.test_case "stops at null" `Quick test_zooming_walk_stops_at_null;
          Alcotest.test_case "encode rejects gaps" `Quick test_zooming_encode_rejects_gap;
          Alcotest.test_case "bit cost" `Quick test_zooming_bits;
          Alcotest.test_case "grid integration" `Quick test_zooming_on_grid_via_rings;
        ] );
      ( "zeta",
        List.map QCheck_alcotest.to_alcotest
          [ prop_zeta_find; prop_zeta_slot; prop_zeta_outside_slots ] );
    ]
