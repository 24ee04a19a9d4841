(* Dense reference for [Lgraph]: no presence rows, every operation scans
   the n×n label matrix.  Test executable only, as the oracle of the
   reference-equivalence property in test_approx.ml; operations that
   property does not need are left out. *)

open Ssg_util
open Ssg_graph

(* Dense n×n label matrix; labels.(q*n + p) is the label of edge q -> p,
   0 when absent.  The node set is tracked separately because Algorithm 1
   distinguishes isolated nodes (members of V_p without edges) from absent
   ones. *)
type t = { n : int; mutable nodes : Bitset.t; mutable labels : int array }

let check_node g i =
  if i < 0 || i >= g.n then
    invalid_arg (Printf.sprintf "Lgraph: node %d out of range [0, %d)" i g.n)

let create n ~self =
  if n <= 0 then invalid_arg "Lgraph.create: empty universe";
  let g = { n; nodes = Bitset.create n; labels = Array.make (n * n) 0 } in
  check_node g self;
  Bitset.add g.nodes self;
  g

let capacity g = g.n

let reset g ~self =
  check_node g self;
  Bitset.clear g.nodes;
  Bitset.add g.nodes self;
  Array.fill g.labels 0 (Array.length g.labels) 0

let copy g =
  { n = g.n; nodes = Bitset.copy g.nodes; labels = Array.copy g.labels }

(* Same node set and same edge-presence pattern, labels ignored.  One
   linear pass over the label matrix, no allocation — cheaper than any
   traversal, and the key to memoizing label-blind derivations (strong
   connectivity) across rounds that only refresh labels. *)
let same_support a b =
  a.n = b.n
  && Bitset.equal a.nodes b.nodes
  &&
  let len = Array.length a.labels in
  let rec go i =
    i >= len || (a.labels.(i) > 0 == (b.labels.(i) > 0) && go (i + 1))
  in
  go 0

let nodes g = Bitset.copy g.nodes
let node_count g = Bitset.cardinal g.nodes

let set_edge g q p ~label =
  check_node g q;
  check_node g p;
  if label <= 0 then invalid_arg "Lgraph.set_edge: label must be positive";
  Bitset.add g.nodes q;
  Bitset.add g.nodes p;
  g.labels.((q * g.n) + p) <- label

let iter_edges g f =
  for q = 0 to g.n - 1 do
    let base = q * g.n in
    for p = 0 to g.n - 1 do
      let l = g.labels.(base + p) in
      if l > 0 then f q p l
    done
  done

let edge_count g =
  let c = ref 0 in
  iter_edges g (fun _ _ _ -> incr c);
  !c

let check_same a b =
  if a.n <> b.n then
    invalid_arg (Printf.sprintf "Lgraph: universe mismatch (%d vs %d)" a.n b.n)

let merge_max_into ~into src =
  check_same into src;
  Bitset.union_into ~into:into.nodes src.nodes;
  for i = 0 to Array.length src.labels - 1 do
    if src.labels.(i) > into.labels.(i) then into.labels.(i) <- src.labels.(i)
  done

let purge g ~upto =
  for i = 0 to Array.length g.labels - 1 do
    if g.labels.(i) > 0 && g.labels.(i) <= upto then g.labels.(i) <- 0
  done

(* Backward BFS from [self] along labelled edges: a node survives iff it
   can reach [self].  Frontier expansion scans the label matrix rows of
   candidate predecessors — O(n²) per call, dominated elsewhere. *)
let prune_unreachable g ~self =
  check_node g self;
  let keep = Bitset.create g.n in
  Bitset.add keep self;
  let frontier = ref [ self ] in
  while !frontier <> [] do
    let current = !frontier in
    frontier := [];
    List.iter
      (fun p ->
        for q = 0 to g.n - 1 do
          if
            (not (Bitset.mem keep q))
            && Bitset.mem g.nodes q
            && g.labels.((q * g.n) + p) > 0
          then begin
            Bitset.add keep q;
            frontier := q :: !frontier
          end
        done)
      current
  done;
  (* Drop nodes not kept, and all their incident edges. *)
  Bitset.iter
    (fun v ->
      if not (Bitset.mem keep v) then begin
        for p = 0 to g.n - 1 do
          g.labels.((v * g.n) + p) <- 0;
          g.labels.((p * g.n) + v) <- 0
        done
      end)
    g.nodes;
  Bitset.inter_into ~into:g.nodes keep

let swap a b =
  check_same a b;
  let nodes = a.nodes and labels = a.labels in
  a.nodes <- b.nodes;
  a.labels <- b.labels;
  b.nodes <- nodes;
  b.labels <- labels

let to_digraph g =
  let d = Digraph.create g.n in
  iter_edges g (fun q p _ -> Digraph.add_edge d q p);
  d

let is_strongly_connected g =
  if Bitset.cardinal g.nodes <= 1 then true
  else Scc.is_strongly_connected ~nodes:g.nodes (to_digraph g)

let encoded_bits g ~label_bits =
  if label_bits < 0 then invalid_arg "Lgraph.encoded_bits: negative label_bits";
  let id_bits = Bitio.width_for g.n in
  (node_count g * id_bits) + (edge_count g * ((2 * id_bits) + label_bits))
