(* Tests for bit-level IO and the Lgraph wire codec. *)

open Ssg_util
open Ssg_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Bitio --- *)

let test_bitio_roundtrip_simple () =
  let w = Bitio.writer () in
  Bitio.write w ~bits:3 5;
  Bitio.write w ~bits:1 1;
  Bitio.write w ~bits:12 3000;
  check_int "bit length" 16 (Bitio.bit_length w);
  let r = Bitio.reader (Bitio.contents w) in
  check_int "3 bits" 5 (Bitio.read r ~bits:3);
  check_int "1 bit" 1 (Bitio.read r ~bits:1);
  check_int "12 bits" 3000 (Bitio.read r ~bits:12);
  check_int "nothing left" 0 (Bitio.bits_remaining r)

let test_bitio_padding () =
  let w = Bitio.writer () in
  Bitio.write w ~bits:3 7;
  check_int "one byte with padding" 1 (Bytes.length (Bitio.contents w));
  let r = Bitio.reader (Bitio.contents w) in
  check_int "value back" 7 (Bitio.read r ~bits:3);
  check_int "padding bits" 5 (Bitio.bits_remaining r)

let test_bitio_validation () =
  let w = Bitio.writer () in
  check "too wide" true
    (try Bitio.write w ~bits:2 4; false with Invalid_argument _ -> true);
  check "negative" true
    (try Bitio.write w ~bits:4 (-1); false with Invalid_argument _ -> true);
  check "zero bits" true
    (try Bitio.write w ~bits:0 0; false with Invalid_argument _ -> true);
  let r = Bitio.reader (Bytes.make 1 '\000') in
  check "read past end" true
    (try ignore (Bitio.read r ~bits:9); false with Invalid_argument _ -> true)

let test_width_for () =
  check_int "2" 1 (Bitio.width_for 2);
  check_int "3" 2 (Bitio.width_for 3);
  check_int "4" 2 (Bitio.width_for 4);
  check_int "5" 3 (Bitio.width_for 5);
  check_int "256" 8 (Bitio.width_for 256);
  check_int "257" 9 (Bitio.width_for 257)

let prop_bitio_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"bitio roundtrips any field sequence"
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (let* bits = int_range 1 30 in
         let+ v = int_bound ((1 lsl bits) - 1) in
         (bits, v)))
    (fun fields ->
      let w = Bitio.writer () in
      List.iter (fun (bits, v) -> Bitio.write w ~bits v) fields;
      let r = Bitio.reader (Bitio.contents w) in
      List.for_all (fun (bits, v) -> Bitio.read r ~bits = v) fields)

(* --- Codec --- *)

(* n also takes the word-boundary sizes, where the presence rows of
   [Lgraph] span one, two and three 63-bit words. *)
let gen_lgraph =
  QCheck2.Gen.(
    let* n =
      oneof [ int_range 2 12; oneofl [ 1; 62; 63; 64; 130 ] ]
    in
    let edge =
      triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 30)
    in
    let+ es = list_size (int_bound (max 20 (2 * n))) edge in
    let g = Lgraph.create n ~self:0 in
    List.iter (fun (q, p, l) -> Lgraph.set_edge g q p ~label:l) es;
    g)

let test_codec_roundtrip_example () =
  let g = Lgraph.create 6 ~self:5 in
  Lgraph.set_edge g 1 5 ~label:3;
  Lgraph.set_edge g 4 5 ~label:7;
  Lgraph.add_node g 2;
  let bytes = Codec.encode g ~label_bits:4 in
  let g' = Codec.decode bytes ~n:6 ~self:5 ~label_bits:4 in
  check "roundtrip" true (Lgraph.equal g g')

let test_codec_bit_length_exact () =
  let g = Lgraph.create 6 ~self:0 in
  Lgraph.set_edge g 1 0 ~label:2;
  Lgraph.set_edge g 3 0 ~label:5;
  (* header: width_for 7 (=3) + 2*3 = 9; nodes: 3*3 = 9; edges: 2*(6+3)=18 *)
  check_int "exact bit length" 36 (Codec.encoded_bit_length g ~label_bits:3);
  let w = Bitio.writer () in
  Codec.write g ~label_bits:3 w;
  check_int "writer agrees" 36 (Bitio.bit_length w)

let test_codec_label_overflow () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 0 ~label:9;
  check "label too wide" true
    (try ignore (Codec.encode g ~label_bits:3); false
     with Invalid_argument _ -> true)

let test_codec_malformed_input () =
  (* a node count larger than n *)
  let w = Bitio.writer () in
  Bitio.write w ~bits:(Bitio.width_for 5) 4;
  check "bad node count" true
    (try
       ignore (Codec.decode (Bitio.contents w) ~n:3 ~self:0 ~label_bits:3);
       false
     with Invalid_argument _ -> true)

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"codec roundtrips any labelled graph"
    gen_lgraph (fun g ->
      let bytes = Codec.encode g ~label_bits:5 in
      Lgraph.equal g
        (Codec.decode bytes ~n:(Lgraph.capacity g) ~self:0 ~label_bits:5))

let prop_codec_length =
  QCheck2.Test.make ~count:300
    ~name:"encoded length = header + Lgraph.encoded_bits" gen_lgraph (fun g ->
      let w = Bitio.writer () in
      Codec.write g ~label_bits:5 w;
      Bitio.bit_length w
      = Codec.header_bits ~n:(Lgraph.capacity g)
        + Lgraph.encoded_bits g ~label_bits:5)

let prop_frozen_length =
  QCheck2.Test.make ~count:300
    ~name:"snapshot length = thawed encoded length = real length" gen_lgraph
    (fun g ->
      let f = Lgraph.freeze g in
      let w = Bitio.writer () in
      Codec.write g ~label_bits:5 w;
      let bits = Codec.frozen_bit_length f ~label_bits:5 in
      bits = Codec.encoded_bit_length (Lgraph.thaw f) ~label_bits:5
      && bits = Bitio.bit_length w
      && Bytes.length (Codec.encode g ~label_bits:5) = (bits + 7) / 8)

let tests =
  [
    Alcotest.test_case "bitio roundtrip" `Quick test_bitio_roundtrip_simple;
    Alcotest.test_case "bitio padding" `Quick test_bitio_padding;
    Alcotest.test_case "bitio validation" `Quick test_bitio_validation;
    Alcotest.test_case "width_for" `Quick test_width_for;
    Alcotest.test_case "codec roundtrip example" `Quick test_codec_roundtrip_example;
    Alcotest.test_case "codec exact bit length" `Quick test_codec_bit_length_exact;
    Alcotest.test_case "codec label overflow" `Quick test_codec_label_overflow;
    Alcotest.test_case "codec malformed input" `Quick test_codec_malformed_input;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_bitio_roundtrip;
        prop_codec_roundtrip;
        prop_codec_length;
        prop_frozen_length;
      ]
