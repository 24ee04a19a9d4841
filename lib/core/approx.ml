open Ssg_util
open Ssg_graph

type t = {
  order : int;
  owner : int;
  enable_purge : bool;
  enable_prune : bool;
  mutable round : int;
  pt : Bitset.t;
  graph : Lgraph.t;
  mutable sent : Lgraph.frozen option;
      (* this round's message, once asked for; cleared by [step] *)
  mutable sc_cache : bool option;
      (* memoized strong-connectivity certificate of [graph]; valid
         because labels refresh every round but the support goes stable
         once the skeleton does, and SC is label-blind *)
}

let create ?(enable_purge = true) ?(enable_prune = true) ~n ~self () =
  if n <= 0 then invalid_arg "Approx.create: empty system";
  if self < 0 || self >= n then invalid_arg "Approx.create: bad self";
  {
    order = n;
    owner = self;
    enable_purge;
    enable_prune;
    round = 0;
    pt = Bitset.full n;
    graph = Lgraph.create n ~self;
    sent = None;
    sc_cache = None;
  }

let n t = t.order
let self t = t.owner

let message t =
  match t.sent with
  | Some m -> m
  | None ->
      let m = Lgraph.freeze t.graph in
      t.sent <- Some m;
      m

let step t ~round ~received =
  if round <> t.round + 1 then
    invalid_arg
      (Printf.sprintf "Approx.step: expected round %d, got %d" (t.round + 1)
         round);
  t.round <- round;
  (* G_p as it enters the round: this round's message (frozen here if
     nobody asked for it). *)
  let before = message t in
  t.sent <- None;
  (* Lines 15–23 rebuild G_p from ⟨{p}, ∅⟩ by folding in the graphs of
     the timely senders with per-edge max.  While p hears itself, its own
     graph is one of them, and folding it into ⟨{p}, ∅⟩ reproduces G_p:
     then it is enough to fold the others into G_p in place.  That needs
     the graph p heard from itself to be G_p as it stands, which physical
     equality with [before] proves. *)
  let own = received t.owner in
  let keep =
    Bitset.mem t.pt t.owner
    && match own with Some g -> g == before | None -> false
  in
  if not keep then Lgraph.reset t.graph ~self:t.owner;
  (* Line 9 in the same pass: PT_p <- PT_p ∩ {q | heard q this round}. *)
  for q = 0 to t.order - 1 do
    match if q = t.owner then own else received q with
    | Some g ->
        if Lgraph.frozen_capacity g <> t.order then
          invalid_arg "Approx.step: received graph capacity mismatch";
        if Bitset.mem t.pt q && not (keep && q = t.owner) then
          Lgraph.merge_max_into ~into:t.graph g
    | None -> Bitset.remove t.pt q
  done;
  (* Line 17: the fresh timely edges (q --round--> p).  [round] exceeds
     every label in any received graph, so overwriting preserves the max
     semantics. *)
  Bitset.iter
    (fun q -> Lgraph.set_edge t.graph q t.owner ~label:round)
    t.pt;
  (* Line 24: drop labels <= round - n. *)
  if t.enable_purge then Lgraph.purge t.graph ~upto:(round - t.order);
  (* Line 25: drop nodes that cannot reach p. *)
  if t.enable_prune then Lgraph.prune_unreachable t.graph ~self:t.owner;
  (* Strong connectivity only reads the support (nodes + edge presence),
     which the rebuild usually reproduces exactly once the run settles —
     only the labels keep rotating.  Keep the memoized certificate alive
     across support-stable rounds. *)
  if not (Lgraph.same_support t.graph before) then t.sc_cache <- None

let pt t = Bitset.copy t.pt
let pt_mem t q = Bitset.mem t.pt q
let graph t = Lgraph.copy t.graph
let graph_view t = t.graph
let is_strongly_connected t =
  match t.sc_cache with
  | Some sc -> sc
  | None ->
      let sc = Lgraph.is_strongly_connected t.graph in
      t.sc_cache <- Some sc;
      sc
