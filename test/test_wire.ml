(* Tests for the bit-level wire formats: Bitio, Qfloat serialization, the
   Theorem 3.4 label codec, and the Theorem 2.1 routing-label codec. These
   materialize the paper's bit-counting claims as real bitstrings. *)

module Rng = Ron_util.Rng
module Bits = Ron_util.Bits
module Bitio = Ron_util.Bitio
module Qfloat = Ron_util.Qfloat
module Indexed = Ron_metric.Indexed
module Generators = Ron_metric.Generators
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls
module Basic = Ron_routing.Basic
module Sp_metric = Ron_graph.Sp_metric
module Graph_gen = Ron_graph.Graph_gen
module Scheme = Ron_routing.Scheme

let check_bool msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------- Bitio *)

let test_bitio_roundtrip_fields () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w 5 ~width:3;
  Bitio.Writer.bool w true;
  Bitio.Writer.bits w 1023 ~width:10;
  Bitio.Writer.bits w 0 ~width:7;
  Bitio.Writer.bool w false;
  check_int "length" (3 + 1 + 10 + 7 + 1) (Bitio.Writer.length w);
  let r = Bitio.Reader.of_writer w in
  check_int "field 1" 5 (Bitio.Reader.bits r ~width:3);
  check_bool "field 2" (Bitio.Reader.bool r);
  check_int "field 3" 1023 (Bitio.Reader.bits r ~width:10);
  check_int "field 4" 0 (Bitio.Reader.bits r ~width:7);
  check_bool "field 5" (not (Bitio.Reader.bool r));
  check_int "drained" 0 (Bitio.Reader.remaining r)

let test_bitio_rejects_bad_values () =
  let w = Bitio.Writer.create () in
  Alcotest.check_raises "too wide" (Invalid_argument "Bitio.Writer.bits: value too wide")
    (fun () -> Bitio.Writer.bits w 8 ~width:3);
  Alcotest.check_raises "negative" (Invalid_argument "Bitio.Writer.bits: negative value")
    (fun () -> Bitio.Writer.bits w (-1) ~width:3)

let test_bitio_truncation_detected () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w 42 ~width:6;
  let r = Bitio.Reader.of_writer w in
  ignore (Bitio.Reader.bits r ~width:6);
  Alcotest.check_raises "out of bits" (Invalid_argument "Bitio.Reader: out of bits") (fun () ->
      ignore (Bitio.Reader.bits r ~width:1))

let prop_bitio_roundtrip =
  QCheck.Test.make ~name:"bitio roundtrips random field sequences" ~count:300
    QCheck.(small_list (pair (int_bound 61) (int_bound 1_000_000)))
    (fun fields ->
      let fields =
        List.map
          (fun (width, v) ->
            let width = max 1 width in
            let v = if width >= 62 then v else v land ((1 lsl width) - 1) in
            (width, v))
          fields
      in
      let w = Bitio.Writer.create () in
      List.iter (fun (width, v) -> Bitio.Writer.bits w v ~width) fields;
      let r = Bitio.Reader.of_writer w in
      List.for_all (fun (width, v) -> Bitio.Reader.bits r ~width = v) fields)

(* --------------------------------------------------------- Qfloat wire *)

let prop_qfloat_wire_roundtrip =
  QCheck.Test.make ~name:"qfloat write/read = quantize" ~count:1000
    QCheck.(float_range 0.0 100_000.0)
    (fun x ->
      let c = Qfloat.codec ~mantissa_bits:6 ~max_exponent:30 in
      let w = Bitio.Writer.create () in
      Qfloat.write c w x;
      let r = Bitio.Reader.of_writer w in
      Bitio.Writer.length w = Qfloat.bits c && Qfloat.read c r = Qfloat.quantize c x)

(* ------------------------------------------------------- Dls label wire *)

let dls_fixture =
  lazy
    (let idx = Indexed.create (Generators.random_cloud (Rng.create 3) ~n:60 ~dim:2) in
     let tri = Triangulation.build idx ~delta:0.25 in
     (idx, Dls.build tri))

let test_dls_label_roundtrip_estimates () =
  let (idx, dls) = Lazy.force dls_fixture in
  let wc = Dls.wire_codec dls in
  let n = Indexed.size idx in
  let relabel u =
    let (bytes, _) = Dls.serialize wc (Dls.label dls u) in
    Dls.deserialize wc bytes
  in
  let wire = Array.init n relabel in
  for u = 0 to n - 1 do
    for v = u to n - 1 do
      let a = Dls.estimate (Dls.label dls u) (Dls.label dls v) in
      let b = Dls.estimate wire.(u) wire.(v) in
      check_bool "estimate identical through the wire" (Float.abs (a -. b) < 1e-12)
    done
  done

let test_dls_label_id_preserved () =
  let (_, dls) = Lazy.force dls_fixture in
  let wc = Dls.wire_codec dls in
  for u = 0 to 20 do
    let (bytes, bits) = Dls.serialize wc (Dls.label dls u) in
    check_bool "bit length matches bytes" (8 * Bytes.length bytes >= bits && bits > 0);
    check_int "id preserved" u (Dls.label_of_id (Dls.deserialize wc bytes))
  done

let test_dls_wire_close_to_accounting () =
  (* The serialized length must track the label_bits accounting: the wire
     adds only small count fields. *)
  let (_, dls) = Lazy.force dls_fixture in
  let wc = Dls.wire_codec dls in
  let acc = Dls.label_bits dls in
  Array.iteri
    (fun u bits_acc ->
      let (_, bits_wire) = Dls.serialize wc (Dls.label dls u) in
      check_bool
        (Printf.sprintf "wire %d vs accounting %d" bits_wire bits_acc)
        (float_of_int bits_wire <= (1.35 *. float_of_int bits_acc) +. 512.0))
    acc

let test_dls_truncated_label_rejected () =
  let (_, dls) = Lazy.force dls_fixture in
  let wc = Dls.wire_codec dls in
  let (bytes, _) = Dls.serialize wc (Dls.label dls 5) in
  let truncated = Bytes.sub bytes 0 (Bytes.length bytes / 2) in
  let ok =
    try
      ignore (Dls.deserialize wc truncated);
      (* A truncation that happens to fall beyond the last field can parse;
         anything else must raise, never loop or crash. *)
      true
    with Invalid_argument _ -> true
  in
  check_bool "truncation handled loudly" ok

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Copy [k] bits from [r] to [w]. *)
let rec copy r w k =
  if k > 0 then begin
    let c = min k 30 in
    Bitio.Writer.bits w (Bitio.Reader.bits r ~width:c) ~width:c;
    copy r w (k - c)
  end

(* The [width]-bit field at bit [pos] of [bytes]. *)
let field bytes ~pos ~width =
  let r = Bitio.Reader.of_bytes bytes in
  copy r (Bitio.Writer.create ()) pos;
  Bitio.Reader.bits r ~width

(* [bytes], [bits] long, with that field set to [v]. *)
let rewrite bytes bits ~pos ~width v =
  let r = Bitio.Reader.of_bytes bytes and w = Bitio.Writer.create () in
  copy r w pos;
  ignore (Bitio.Reader.bits r ~width);
  Bitio.Writer.bits w v ~width;
  copy r w (bits - pos - width);
  Bitio.Writer.to_bytes w

(* A label whose fields would address rows outside it is rejected at
   deserialization, naming the field: a real label with its host count
   set to 0, below the prefix, one triple's x or z set to the host count,
   or zoom_first set to the prefix length, each value within its field.
   The widths and positions are re-derived from the scheme: the id, the
   host count, the distances, then per level a triple count and its
   (x, y, z) triples, then zoom_first. *)
let test_dls_label_out_of_range_rejected () =
  let (idx, dls) = Lazy.force dls_fixture in
  let wc = Dls.wire_codec dls in
  let tri = Dls.triangulation dls in
  let all = List.init (Indexed.size idx) Fun.id in
  let hosts = Array.of_list (List.map (Dls.host_beacons dls) all) in
  let k u = Array.length hosts.(u) in
  let widest f = Bits.index_bits (List.fold_left (fun m u -> max m (f u)) 1 all) in
  let hb = widest k and vb = widest (fun u -> Array.length (Dls.virtual_neighbors dls u)) in
  let qb =
    Qfloat.bits
      (Qfloat.codec_for ~delta:(Triangulation.delta tri)
         ~aspect_ratio:(Float.max 2.0 (Indexed.aspect_ratio idx)))
  in
  (* The canonical prefix starts every host list. *)
  let rec common p =
    if List.for_all (fun u -> p < k u && hosts.(u).(p) = hosts.(0).(p)) all then common (p + 1)
    else p
  in
  let count = hb + vb + 1 and triple = (2 * hb) + vb in
  let k_pos = Bits.index_bits (List.length all) in
  let count_pos u = k_pos + hb + 1 + (k u * qb) in
  let label u = fst (Dls.serialize wc (Dls.label dls u)) in
  (* A label with a level-0 triple, whose host count fits an x field. *)
  let u =
    List.find (fun u -> k u < 1 lsl hb && field (label u) ~pos:(count_pos u) ~width:count > 0) all
  in
  let bytes, bits = Dls.serialize wc (Dls.label dls u) in
  let rec zoom_pos j pos =
    if j = Triangulation.levels tri - 1 then pos
    else zoom_pos (j + 1) (pos + count + (field bytes ~pos ~width:count * triple))
  in
  let x_pos = count_pos u + count in
  let rejects ~pos ~width v error =
    match Dls.deserialize wc (rewrite bytes bits ~pos ~width v) with
    | _ -> Alcotest.failf "label with %d for %S accepted" v error
    | exception Invalid_argument msg ->
      check_bool (Printf.sprintf "error says %S: %s" error msg) (contains msg error)
  in
  rejects ~pos:k_pos ~width:(hb + 1) 0 "host count 0 below the prefix";
  rejects ~pos:x_pos ~width:hb (k u) "triple x";
  rejects ~pos:(x_pos + hb + vb) ~width:hb (k u) "triple z";
  rejects ~pos:(zoom_pos 0 (count_pos u)) ~width:hb (common 0) "zoom_first"

(* ----------------------------------------------------- Basic label wire *)

let test_basic_label_roundtrip_routes () =
  let sp = Sp_metric.create (Graph_gen.grid 6 6) in
  let b = Basic.build sp ~delta:0.25 in
  for dst = 0 to 35 do
    let (bytes, bits) = Basic.serialize_label b dst in
    check_bool "bits positive" (bits > 0);
    let header = Basic.deserialize_label b bytes in
    for src = 0 to 35 do
      if src <> dst then begin
        let r1 = Basic.route b ~src ~dst in
        let r2 = Basic.route_header b ~src header in
        check_bool "delivered from wire label" r2.Scheme.delivered;
        check_bool "same path length" (Float.abs (r1.Scheme.length -. r2.Scheme.length) < 1e-9)
      end
    done
  done

let test_basic_label_wire_matches_accounting () =
  let sp = Sp_metric.create (Graph_gen.grid 6 6) in
  let b = Basic.build sp ~delta:0.25 in
  let acc = Basic.label_bits b in
  for dst = 0 to 35 do
    let (_, bits) = Basic.serialize_label b dst in
    check_int "wire = accounting" acc.(dst) bits
  done

(* A label whose fields are out of range is rejected at deserialization,
   naming the field, before any routing reads it: on the 8x8 grid an
   all-ones label names a node (63) but no ring-0 position; on the 6x6 grid
   its 6-bit target (63) names no node. *)
let test_basic_label_out_of_range_rejected () =
  let rejects side field =
    let b = Basic.build (Sp_metric.create (Graph_gen.grid side side)) ~delta:0.25 in
    let (bytes, _) = Basic.serialize_label b 0 in
    match Basic.deserialize_label b (Bytes.make (Bytes.length bytes) '\xff') with
    | _ -> Alcotest.failf "%dx%d all-ones label accepted" side side
    | exception Invalid_argument msg ->
      check_bool (Printf.sprintf "%dx%d error names the %s: %s" side side field msg)
        (contains msg field)
  in
  rejects 8 "first index";
  rejects 6 "target"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ron_wire"
    [
      ( "bitio",
        [
          Alcotest.test_case "field roundtrip" `Quick test_bitio_roundtrip_fields;
          Alcotest.test_case "bad values rejected" `Quick test_bitio_rejects_bad_values;
          Alcotest.test_case "truncation detected" `Quick test_bitio_truncation_detected;
          qt prop_bitio_roundtrip;
        ] );
      ("qfloat-wire", [ qt prop_qfloat_wire_roundtrip ]);
      ( "dls-wire",
        [
          Alcotest.test_case "estimates identical through the wire" `Slow
            test_dls_label_roundtrip_estimates;
          Alcotest.test_case "id preserved" `Quick test_dls_label_id_preserved;
          Alcotest.test_case "wire close to accounting" `Quick test_dls_wire_close_to_accounting;
          Alcotest.test_case "truncation handled" `Quick test_dls_truncated_label_rejected;
          Alcotest.test_case "out-of-range label rejected" `Quick
            test_dls_label_out_of_range_rejected;
        ] );
      ( "basic-wire",
        [
          Alcotest.test_case "routes from wire labels" `Slow test_basic_label_roundtrip_routes;
          Alcotest.test_case "wire = accounting" `Quick test_basic_label_wire_matches_accounting;
          Alcotest.test_case "out-of-range label rejected" `Quick
            test_basic_label_out_of_range_rejected;
        ] );
    ]
