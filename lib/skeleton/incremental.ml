open Ssg_util
open Ssg_graph

(* The cache keys on a revision counter that bumps only when an absorbed
   round actually removed skeleton edges.  Everything derived from the
   skeleton graph (the Analysis, the PT rows, the shared snapshot) is
   stamped with the revision it was computed at and rebuilt lazily on
   the first access after a change.  Soundness rests on the antitone
   chain (1): absorbing a round either leaves the skeleton bit-for-bit
   equal (delta 0) or strictly shrinks it (delta > 0, revision bump) —
   there is no third case, so a stamp match proves graph equality. *)
type t = {
  skel : Skeleton.t;
  mutable revision : int;
  mutable stable_rounds : int; (* consecutive zero-delta rounds, ending now *)
  mutable analysis : (int * Analysis.t) option;
  mutable pts : (int * Bitset.t array) option;
  mutable snapshot : (int * Digraph.t) option;
}

let start ~n =
  {
    skel = Skeleton.start ~n;
    revision = 0;
    stable_rounds = 0;
    analysis = None;
    pts = None;
    snapshot = None;
  }

let absorb t g =
  let removed = Skeleton.absorb_delta t.skel g in
  if removed > 0 then begin
    t.revision <- t.revision + 1;
    t.stable_rounds <- 0
  end
  else t.stable_rounds <- t.stable_rounds + 1;
  removed

let rounds t = Skeleton.rounds_absorbed t.skel
let revision t = t.revision
let stable_rounds t = t.stable_rounds
let view t = Skeleton.view t.skel

let cached cell stamp build install =
  match cell with
  | Some (r, v) when r = stamp -> v
  | _ ->
      let v = build () in
      install (Some (stamp, v));
      v

let analysis t =
  cached t.analysis t.revision
    (fun () -> Analysis.analyze (Skeleton.view t.skel))
    (fun c -> t.analysis <- c)

let pts t =
  cached t.pts t.revision
    (fun () -> Timely.sources_of (Skeleton.view t.skel))
    (fun c -> t.pts <- c)

let snapshot t =
  cached t.snapshot t.revision
    (fun () -> Skeleton.current t.skel)
    (fun c -> t.snapshot <- c)
