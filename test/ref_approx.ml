(* Dense reference for [Approx], over Ref_lgraph: messages are copies of
   G_p, and every step rebuilds G_p in a second buffer, rescanning the
   n×n label matrix.  Test executable only; the reference-equivalence
   property in test_approx.ml steps it beside the real one. *)

open Ssg_util
module Lgraph = Ref_lgraph

type t = {
  order : int;
  owner : int;
  enable_purge : bool;
  enable_prune : bool;
  mutable round : int;
  pt : Bitset.t;
  graph : Lgraph.t;
  scratch : Lgraph.t; (* reused accumulator for the per-round rebuild *)
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
    scratch = Lgraph.create n ~self;
    sc_cache = None;
  }

let message t = Lgraph.copy t.graph

let step t ~round ~received =
  if round <> t.round + 1 then
    invalid_arg
      (Printf.sprintf "Approx.step: expected round %d, got %d" (t.round + 1)
         round);
  t.round <- round;
  (* Line 9: PT_p <- PT_p ∩ {q | heard q this round}. *)
  let heard = Bitset.create t.order in
  let inboxes = Array.make t.order None in
  for q = 0 to t.order - 1 do
    match received q with
    | Some g ->
        if Lgraph.capacity g <> t.order then
          invalid_arg "Approx.step: received graph capacity mismatch";
        Bitset.add heard q;
        inboxes.(q) <- Some g
    | None -> ()
  done;
  Bitset.inter_into ~into:t.pt heard;
  (* Lines 15–23: rebuild G_p.  We fold the received graphs of timely
     senders with per-edge max (Lines 19–23), then overwrite the fresh
     timely edges (q --round--> p) (Line 17) — [round] exceeds every label
     in any received graph, so overwriting preserves the max semantics. *)
  Lgraph.reset t.scratch ~self:t.owner;
  Bitset.iter
    (fun q ->
      match inboxes.(q) with
      | Some g -> Lgraph.merge_max_into ~into:t.scratch g
      | None -> ())
    t.pt;
  Bitset.iter
    (fun q -> Lgraph.set_edge t.scratch q t.owner ~label:round)
    t.pt;
  (* Line 24: drop labels <= round - n. *)
  if t.enable_purge then Lgraph.purge t.scratch ~upto:(round - t.order);
  (* Line 25: drop nodes that cannot reach p. *)
  if t.enable_prune then Lgraph.prune_unreachable t.scratch ~self:t.owner;
  (* Strong connectivity only reads the support (nodes + edge presence),
     which the rebuild usually reproduces exactly once the run settles —
     only the labels keep rotating.  Keep the memoized certificate alive
     across support-stable rounds. *)
  if not (Lgraph.same_support t.graph t.scratch) then t.sc_cache <- None;
  (* Install the rebuilt graph by O(1) double-buffer swap. *)
  Lgraph.swap t.graph t.scratch

let pt t = Bitset.copy t.pt
let graph_view t = t.graph
let is_strongly_connected t =
  match t.sc_cache with
  | Some sc -> sc
  | None ->
      let sc = Lgraph.is_strongly_connected t.graph in
      t.sc_cache <- Some sc;
      sc
