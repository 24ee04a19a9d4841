open Ssg_util
open Ssg_graph

type t = {
  skeleton : Digraph.t;
  partition : Scc.partition;
  components : Bitset.t array;
  contraction : Digraph.t;
  root_ids : int list;
}

let analyze skel =
  let partition = Scc.compute skel in
  let components = Scc.component_sets skel partition in
  let contraction = Scc.condensation skel partition in
  let root_ids = ref [] in
  for c = partition.count - 1 downto 0 do
    if Digraph.in_degree contraction c = 0 then root_ids := c :: !root_ids
  done;
  { skeleton = Digraph.copy skel; partition; components; contraction;
    root_ids = !root_ids }

let skeleton t = t.skeleton
let partition t = t.partition
let components t = t.components
let component_of t p = t.components.(t.partition.comp.(p))
let roots t = List.map (fun c -> t.components.(c)) t.root_ids
let root_count t = List.length t.root_ids
let is_root t p = List.mem t.partition.comp.(p) t.root_ids
let single_root t = root_count t = 1

let root_reaching t p =
  (* Walk the condensation backward from p's component until a source is
     found; the condensation is acyclic so this terminates. *)
  let rec climb c =
    if Digraph.in_degree t.contraction c = 0 then c
    else begin
      let parent = ref c in
      Digraph.iter_preds t.contraction c (fun u ->
          if !parent = c then parent := u);
      climb !parent
    end
  in
  t.components.(climb t.partition.comp.(p))

let pp fmt t =
  Format.fprintf fmt "@[<v>%d components, %d roots:@," t.partition.count
    (root_count t);
  List.iter (fun r -> Format.fprintf fmt "  root %a@," Bitset.pp r) (roots t);
  Format.fprintf fmt "@]"
