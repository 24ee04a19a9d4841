open Ssg_util

(* Two views of one edge set.  [rows] holds a presence row per source:
   bit p of row q (word [q * w + p / word_bits]) is set iff edge q -> p
   has a label.  [labels.(q * n + p)] is that label, 0 when absent.  Bulk
   operations walk the set bits of the rows or combine whole words, never
   the n² matrix; [label] stays an O(1) lookup.  w = ⌈n / word_bits⌉.  The
   node set is tracked separately because Algorithm 1 distinguishes
   isolated nodes (members of V_p without edges) from absent ones.
   Invariant: only the rows of nodes are nonempty. *)
type t = {
  n : int;
  w : int;
  mutable nodes : Bitset.t;
  mutable rows : int array;
  mutable labels : int array;
}

(* A snapshot: the node set, the presence rows and the present labels only,
   in (q, p) lexicographic order, so O(n·w + |E|) words.  Never mutated. *)
type frozen = {
  f_n : int;
  f_nodes : Bitset.t;
  f_node_count : int;
  f_rows : int array;
  f_labels : int array;
}

(* As in Bitset: a word holds [Sys.int_size] elements.  A literal
   constant here, so the divisions below compile to multiplications. *)
let word_bits = Sys.int_size
let bit p = 1 lsl (p mod word_bits)

(* Raw word sets over the universe, for the reachability closures. *)
let mem_words s p = s.(p / word_bits) land bit p <> 0
let add_words s p = s.(p / word_bits) <- s.(p / word_bits) lor bit p

let check_node g i =
  if i < 0 || i >= g.n then
    invalid_arg (Printf.sprintf "Lgraph: node %d out of range [0, %d)" i g.n)

let create n ~self =
  if n <= 0 then invalid_arg "Lgraph.create: empty universe";
  let w = Bitset.words_for n in
  let g =
    {
      n;
      w;
      nodes = Bitset.create n;
      rows = Array.make (n * w) 0;
      labels = Array.make (n * n) 0;
    }
  in
  check_node g self;
  Bitset.add g.nodes self;
  g

let capacity g = g.n

(* Zeroes the labels of the bits of [word], a subset of word [i] of row
   [q]. *)
let clear_labels g q i word =
  let base = (q * g.n) + (i * word_bits) in
  let word = ref word in
  while !word <> 0 do
    g.labels.(base + Bitset.lowest_bit !word) <- 0;
    word := !word land (!word - 1)
  done

let reset g ~self =
  check_node g self;
  for q = 0 to g.n - 1 do
    for i = 0 to g.w - 1 do
      let j = (q * g.w) + i in
      if g.rows.(j) <> 0 then begin
        clear_labels g q i g.rows.(j);
        g.rows.(j) <- 0
      end
    done
  done;
  Bitset.clear g.nodes;
  Bitset.add g.nodes self

let copy g =
  {
    g with
    nodes = Bitset.copy g.nodes;
    rows = Array.copy g.rows;
    labels = Array.copy g.labels;
  }

let equal a b =
  a.n = b.n && Bitset.equal a.nodes b.nodes && a.labels = b.labels

let mem_node g p =
  check_node g p;
  Bitset.mem g.nodes p

let add_node g p =
  check_node g p;
  Bitset.add g.nodes p

let nodes g = Bitset.copy g.nodes
let node_count g = Bitset.cardinal g.nodes

let label g q p =
  check_node g q;
  check_node g p;
  g.labels.((q * g.n) + p)

let mem_edge g q p = label g q p > 0

let set_edge g q p ~label =
  check_node g q;
  check_node g p;
  if label <= 0 then invalid_arg "Lgraph.set_edge: label must be positive";
  Bitset.add g.nodes q;
  Bitset.add g.nodes p;
  let j = (q * g.w) + (p / word_bits) in
  g.rows.(j) <- g.rows.(j) lor bit p;
  g.labels.((q * g.n) + p) <- label

let remove_edge g q p =
  check_node g q;
  check_node g p;
  let j = (q * g.w) + (p / word_bits) in
  g.rows.(j) <- g.rows.(j) land lnot (bit p);
  g.labels.((q * g.n) + p) <- 0

let edge_count g =
  Array.fold_left (fun acc word -> acc + Bitset.popcount word) 0 g.rows

(* Calls [f q p] for every set bit of [rows], in (q, p) order.  The
   per-round operations (reset, freeze, merge, purge) walk the bits with
   the same loop written out, saving a closure call per edge. *)
let iter_bits ~n ~w rows f =
  for q = 0 to n - 1 do
    for i = 0 to w - 1 do
      let word = ref rows.((q * w) + i) in
      while !word <> 0 do
        f q ((i * word_bits) + Bitset.lowest_bit !word);
        word := !word land (!word - 1)
      done
    done
  done

let iter_edges g f =
  iter_bits ~n:g.n ~w:g.w g.rows (fun q p -> f q p g.labels.((q * g.n) + p))

let edges g =
  let acc = ref [] in
  iter_edges g (fun q p l -> acc := (q, p, l) :: !acc);
  List.rev !acc

let check_universe n m =
  if n <> m then
    invalid_arg (Printf.sprintf "Lgraph: universe mismatch (%d vs %d)" n m)

let freeze g =
  let f_labels = Array.make (edge_count g) 0 and k = ref 0 in
  for q = 0 to g.n - 1 do
    for i = 0 to g.w - 1 do
      let base = (q * g.n) + (i * word_bits) in
      let word = ref g.rows.((q * g.w) + i) in
      while !word <> 0 do
        f_labels.(!k) <- g.labels.(base + Bitset.lowest_bit !word);
        incr k;
        word := !word land (!word - 1)
      done
    done
  done;
  {
    f_n = g.n;
    f_nodes = Bitset.copy g.nodes;
    f_node_count = Bitset.cardinal g.nodes;
    f_rows = Array.copy g.rows;
    f_labels;
  }

let thaw f =
  let g = create f.f_n ~self:0 in
  Bitset.blit ~src:f.f_nodes ~dst:g.nodes;
  Array.blit f.f_rows 0 g.rows 0 (Array.length f.f_rows);
  let k = ref 0 in
  iter_bits ~n:g.n ~w:g.w g.rows (fun q p ->
      g.labels.((q * g.n) + p) <- f.f_labels.(!k);
      incr k);
  g

let frozen_capacity f = f.f_n

(* Same node set and same presence rows: n·w word compares, no
   allocation — the key to memoizing label-blind derivations (strong
   connectivity) across rounds that only refresh labels. *)
let same_support g f =
  g.n = f.f_n && Bitset.equal g.nodes f.f_nodes && g.rows = f.f_rows

(* The snapshot's labels are read in the order its bits are walked, the
   order [freeze] stored them in. *)
let merge_max_into ~into src =
  check_universe into.n src.f_n;
  Bitset.union_into ~into:into.nodes src.f_nodes;
  let k = ref 0 in
  for q = 0 to into.n - 1 do
    for i = 0 to into.w - 1 do
      let j = (q * into.w) + i and base = (q * into.n) + (i * word_bits) in
      let word = ref src.f_rows.(j) in
      into.rows.(j) <- into.rows.(j) lor !word;
      while !word <> 0 do
        let e = base + Bitset.lowest_bit !word in
        let l = src.f_labels.(!k) in
        if l > into.labels.(e) then into.labels.(e) <- l;
        incr k;
        word := !word land (!word - 1)
      done
    done
  done

(* Labels are positive, so [upto <= 0] removes nothing. *)
let purge g ~upto =
  if upto > 0 then
    for q = 0 to g.n - 1 do
      for i = 0 to g.w - 1 do
        let j = (q * g.w) + i and base = (q * g.n) + (i * word_bits) in
        let word = ref g.rows.(j) in
        while !word <> 0 do
          let b = Bitset.lowest_bit !word in
          if g.labels.(base + b) <= upto then begin
            g.labels.(base + b) <- 0;
            g.rows.(j) <- g.rows.(j) land lnot (1 lsl b)
          end;
          word := !word land (!word - 1)
        done
      done
    done

(* [meets g q s]: some edge q -> p has p in the raw word set [s]. *)
let rec meets g q s i =
  i < g.w && (g.rows.((q * g.w) + i) land s.(i) <> 0 || meets g q s (i + 1))

(* The nodes that reach [v] along labelled edges, [v] included, as raw
   words.  Passes over the rows add every node with an edge into the set,
   until a pass adds none; a pass is n·w word operations. *)
let reaching g v =
  let s = Array.make g.w 0 and grew = ref true in
  add_words s v;
  while !grew do
    grew := false;
    for q = 0 to g.n - 1 do
      if (not (mem_words s q)) && meets g q s 0 then begin
        add_words s q;
        grew := true
      end
    done
  done;
  s

(* The nodes reachable from [v], [v] included: passes OR the row of every
   node in the set into it, until a pass adds nothing. *)
let reachable g v =
  let s = Array.make g.w 0 and grew = ref true in
  add_words s v;
  while !grew do
    grew := false;
    for q = 0 to g.n - 1 do
      if mem_words s q then
        for i = 0 to g.w - 1 do
          let word = s.(i) lor g.rows.((q * g.w) + i) in
          if word <> s.(i) then begin
            s.(i) <- word;
            grew := true
          end
        done
    done
  done;
  s

(* Drops every node outside the backward closure of [self], with its row
   and its column. *)
let prune_unreachable g ~self =
  check_node g self;
  let keep = reaching g self in
  for q = 0 to g.n - 1 do
    let kept = mem_words keep q in
    if not kept then Bitset.remove g.nodes q;
    for i = 0 to g.w - 1 do
      let j = (q * g.w) + i in
      let dead = if kept then g.rows.(j) land lnot keep.(i) else g.rows.(j) in
      if dead <> 0 then begin
        clear_labels g q i dead;
        g.rows.(j) <- g.rows.(j) lxor dead
      end
    done
  done

let swap a b =
  check_universe a.n b.n;
  let nodes = a.nodes and rows = a.rows and labels = a.labels in
  a.nodes <- b.nodes;
  a.rows <- b.rows;
  a.labels <- b.labels;
  b.nodes <- nodes;
  b.rows <- rows;
  b.labels <- labels

let to_digraph g =
  let d = Digraph.create g.n in
  iter_bits ~n:g.n ~w:g.w g.rows (Digraph.add_edge d);
  d

(* Edges only join nodes, so both closures stay inside the node set. *)
let is_strongly_connected g =
  Bitset.cardinal g.nodes <= 1
  ||
  let v = Bitset.min_elt g.nodes in
  let fwd = reachable g v and bwd = reaching g v in
  Bitset.for_all (fun q -> mem_words fwd q && mem_words bwd q) g.nodes

let fold_labels f g init =
  let acc = ref init in
  iter_edges g (fun _ _ l -> acc := f !acc l);
  !acc

let min_label g =
  fold_labels (fun acc l -> match acc with None -> Some l | Some m -> Some (min m l)) g None

let max_label g =
  fold_labels (fun acc l -> match acc with None -> Some l | Some m -> Some (max m l)) g None

(* Section V's payload: a node id per node, two ids and a label per edge. *)
let section_v_bits ~n ~nodes ~edges ~label_bits =
  if label_bits < 0 then invalid_arg "Lgraph.encoded_bits: negative label_bits";
  let id_bits = Bitio.width_for n in
  (nodes * id_bits) + (edges * ((2 * id_bits) + label_bits))

let encoded_bits g ~label_bits =
  section_v_bits ~n:g.n ~nodes:(node_count g) ~edges:(edge_count g) ~label_bits

let frozen_encoded_bits f ~label_bits =
  section_v_bits ~n:f.f_n ~nodes:f.f_node_count
    ~edges:(Array.length f.f_labels) ~label_bits

let pp fmt g =
  Format.fprintf fmt "@[<v>nodes %a@," Bitset.pp g.nodes;
  iter_edges g (fun q p l -> Format.fprintf fmt "  %d -[%d]-> %d@," q l p);
  Format.fprintf fmt "@]"
