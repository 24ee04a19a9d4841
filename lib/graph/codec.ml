open Ssg_util

(* |V| must express 0..n, |E| must express 0..n². *)
let header_bits ~n = Bitio.width_for (n + 1) + Bitio.width_for ((n * n) + 1)

let write g ~label_bits w =
  let n = Lgraph.capacity g in
  let id = Bitio.width_for n in
  let nodes = Lgraph.nodes g in
  Bitio.write w ~bits:(Bitio.width_for (n + 1)) (Bitset.cardinal nodes);
  Bitset.iter (fun v -> Bitio.write w ~bits:id v) nodes;
  Bitio.write w ~bits:(Bitio.width_for ((n * n) + 1)) (Lgraph.edge_count g);
  Lgraph.iter_edges g (fun src dst label ->
      if label_bits < 62 && label lsr label_bits <> 0 then
        invalid_arg "Codec.write: label does not fit label_bits";
      Bitio.write w ~bits:id src;
      Bitio.write w ~bits:id dst;
      Bitio.write w ~bits:label_bits label)

let encode g ~label_bits =
  let w = Bitio.writer () in
  write g ~label_bits w;
  Bitio.contents w

let encoded_bit_length g ~label_bits =
  header_bits ~n:(Lgraph.capacity g) + Lgraph.encoded_bits g ~label_bits

let frozen_bit_length f ~label_bits =
  header_bits ~n:(Lgraph.frozen_capacity f)
  + Lgraph.frozen_encoded_bits f ~label_bits

let read ~n ~self ~label_bits r =
  let id = Bitio.width_for n in
  let g = Lgraph.create n ~self in
  let node_count = Bitio.read r ~bits:(Bitio.width_for (n + 1)) in
  if node_count > n then invalid_arg "Codec.read: node count exceeds n";
  for _ = 1 to node_count do
    let v = Bitio.read r ~bits:id in
    if v >= n then invalid_arg "Codec.read: node id out of range";
    Lgraph.add_node g v
  done;
  let edge_count = Bitio.read r ~bits:(Bitio.width_for ((n * n) + 1)) in
  if edge_count > n * n then invalid_arg "Codec.read: edge count exceeds n²";
  for _ = 1 to edge_count do
    let src = Bitio.read r ~bits:id in
    let dst = Bitio.read r ~bits:id in
    let label = Bitio.read r ~bits:label_bits in
    if src >= n || dst >= n then invalid_arg "Codec.read: edge id out of range";
    if label = 0 then invalid_arg "Codec.read: zero label";
    Lgraph.set_edge g src dst ~label
  done;
  g

let decode bytes ~n ~self ~label_bits =
  read ~n ~self ~label_bits (Bitio.reader bytes)
