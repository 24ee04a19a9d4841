(* Incremental-skeleton suite: delta absorption (Digraph.inter_into_count,
   Skeleton.absorb_delta), the revision-stamped caches of
   Skeleton.Incremental, the warm-started MIS and its Min_k_tracker
   wrapper, the Lgraph support memo — and the central property: after any
   r rounds, the incremental state is indistinguishable from a
   from-scratch recomputation, including runs entered on their stable
   suffix and runs carrying recurrent even-round noise forever. *)

open Ssg_util
open Ssg_graph
open Ssg_rounds
open Ssg_skeleton
open Ssg_predicates
open Ssg_adversary

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- deltas: units ---------------- *)

let test_inter_into_count () =
  let into = Digraph.complete ~self_loops:true 4 in
  let g =
    Digraph.of_edges 4 [ (0, 1); (1, 2); (0, 0); (1, 1); (2, 2); (3, 3) ]
  in
  let removed = Digraph.inter_into_count ~into g in
  check_int "counts removed edges" (16 - 6) removed;
  check "intersection applied" true (Digraph.equal into g);
  (* Zero delta iff the accumulator is already a subgraph. *)
  check_int "idempotent" 0 (Digraph.inter_into_count ~into g);
  check_int "supergraph removes nothing" 0
    (Digraph.inter_into_count ~into (Digraph.complete ~self_loops:true 4))

let test_absorb_delta_matches_absorb () =
  let rng = Rng.of_int 7 in
  let a = Skeleton.start ~n:6 and b = Skeleton.start ~n:6 in
  for r = 1 to 12 do
    let g = Gen.gnp rng 6 0.5 in
    let before = Digraph.edge_count (Skeleton.current a) in
    check_int "absorb returns the round" r (Skeleton.absorb a g);
    let removed = Skeleton.absorb_delta b g in
    check "same accumulator" true
      (Digraph.equal (Skeleton.current a) (Skeleton.current b));
    check_int "delta = edge-count drop"
      (before - Digraph.edge_count (Skeleton.current a))
      removed;
    check_int "rounds tracked" r (Skeleton.rounds_absorbed b)
  done

let test_incremental_stable_rounds_and_revision () =
  let inc = Incremental.start ~n:4 in
  let g = Digraph.of_edges 4 [ (0, 1); (0, 0); (1, 1); (2, 2); (3, 3) ] in
  ignore (Incremental.absorb inc g);
  let rev1 = Incremental.revision inc in
  check_int "first absorb shrinks" 0 (Incremental.stable_rounds inc);
  ignore (Incremental.absorb inc g);
  ignore (Incremental.absorb inc g);
  check_int "two stable rounds" 2 (Incremental.stable_rounds inc);
  check_int "revision frozen while stable" rev1 (Incremental.revision inc);
  (* Physical sharing across a zero-delta round is the caching contract:
     the snapshot is the very same object, not merely an equal copy. *)
  let s1 = Incremental.snapshot inc in
  ignore (Incremental.absorb inc g);
  check "snapshot shared while stable" true (s1 == Incremental.snapshot inc);
  let g' = Digraph.of_edges 4 [ (0, 0); (1, 1); (2, 2); (3, 3) ] in
  check "losing an edge bumps" true (Incremental.absorb inc g' > 0);
  check "revision bumped" true (Incremental.revision inc > rev1);
  check "snapshot replaced" true (not (s1 == Incremental.snapshot inc));
  check_int "stability reset" 0 (Incremental.stable_rounds inc)

(* ---------------- incremental == from-scratch ---------------- *)

(* One adversary per seed, covering the regimes the tentpole cares
   about: a noisy prefix, an eventually-stable suffix, and (half the
   time) perpetual even-round transient noise on top — the skeleton is
   unchanged by the noise, so the incremental path must coast through
   it on zero-delta rounds. *)
let gen_adv seed =
  let rng = Rng.of_int seed in
  let n = 4 + Rng.int rng 5 in
  let k = 1 + Rng.int rng (n - 2) in
  let base =
    match Rng.int rng 3 with
    | 0 -> Build.block_sources rng ~n ~k ~prefix_len:(Rng.int rng 3) ()
    | 1 ->
        Build.partitioned rng ~n
          ~blocks:(1 + Rng.int rng (min 3 (n - 1)))
          ~prefix_len:(Rng.int rng 3) ()
    | _ ->
        Build.arbitrary rng ~n ~density:(Rng.float rng)
          ~prefix_len:(Rng.int rng 3) ~noise:0.5 ()
  in
  if Rng.int rng 2 = 0 then Build.with_recurrent_noise rng base ~noise:0.3
  else base

let prop_incremental_matches_scratch =
  QCheck2.Test.make ~count:60
    ~name:"incremental skeleton/PT/min_k == from-scratch"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let adv = gen_adv seed in
      let n = Adversary.n adv in
      let rounds = (2 * n) + 4 in
      let tr = Adversary.trace adv ~rounds in
      let inc = Incremental.start ~n in
      let tracker = Min_k_tracker.create () in
      let ok = ref true in
      let assert_ c = ok := !ok && c in
      for r = 1 to rounds do
        ignore (Incremental.absorb inc (Trace.graph tr r));
        (* From scratch, independently of the incremental state. *)
        let scratch = Skeleton.at tr r in
        let scratch_analysis = Analysis.analyze scratch in
        let scratch_pts = Timely.sources_of scratch in
        assert_ (Digraph.equal (Incremental.view inc) scratch);
        assert_ (Digraph.equal (Incremental.snapshot inc) scratch);
        let analysis = Incremental.analysis inc in
        assert_
          ((Analysis.partition analysis).Scc.count
          = (Analysis.partition scratch_analysis).Scc.count);
        assert_
          (Analysis.root_count analysis
          = Analysis.root_count scratch_analysis);
        let pts = Incremental.pts inc in
        for p = 0 to n - 1 do
          assert_ (Bitset.equal pts.(p) scratch_pts.(p));
          assert_
            (Bitset.equal
               (Analysis.component_of analysis p)
               (Analysis.component_of scratch_analysis p))
        done;
        assert_
          (Min_k_tracker.min_k ~revision:(Incremental.revision inc) tracker
             pts
          = Predicate.min_k scratch_pts)
      done;
      (* The ⊇-chain eventually stabilizes, so the tail of the run must
         have been served from a frozen revision. *)
      assert_ (Incremental.stable_rounds inc > 0);
      !ok)

(* Entering on the stable suffix: absorbing only the stable graph from
   round 1 means revision bumps exactly once (complete graph -> stable
   skeleton) and every later round is a zero-delta coast. *)
let test_stable_suffix_entry () =
  let adv =
    Build.block_sources (Rng.of_int 5) ~n:8 ~k:2 ~prefix_len:0 ()
  in
  let stable = Adversary.stable_skeleton adv in
  let inc = Incremental.start ~n:8 in
  for r = 1 to 10 do
    ignore (Incremental.absorb inc (Adversary.graph adv (r + 5)));
    check "suffix entry tracks the stable skeleton" true
      (Digraph.equal (Incremental.view inc) stable)
  done;
  check_int "one shrink, nine coasts" 9 (Incremental.stable_rounds inc)

(* ---------------- warm-started MIS ---------------- *)

let random_sym rng n p =
  let sym = Array.init n (fun _ -> Bitset.create n) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.float rng < p then begin
        Bitset.add sym.(i) j;
        Bitset.add sym.(j) i
      end
    done
  done;
  sym

let prop_warm_mis_optimal_under_any_seed =
  QCheck2.Test.make ~count:200
    ~name:"warm MIS matches cold MIS for any warm seed"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 1 + Rng.int rng 10 in
      let sym = random_sym rng n (Rng.float rng) in
      let cold = Mis.independence_number sym in
      (* No seed, a garbage seed (possibly dependent), a wrong-capacity
         seed: the size found must always be the true optimum. *)
      let garbage = Bitset.create n in
      for v = 0 to n - 1 do
        if Rng.int rng 2 = 0 then Bitset.add garbage v
      done;
      let _, no_seed = Mis.max_independent_set_warm sym in
      let w, with_garbage = Mis.max_independent_set_warm ~warm:garbage sym in
      let _, wrong_cap =
        Mis.max_independent_set_warm ~warm:(Bitset.create (n + 3)) sym
      in
      no_seed = cold && with_garbage = cold && wrong_cap = cold
      && Mis.is_independent sym w
      && Bitset.cardinal w = cold)

let prop_warm_mis_along_shrinking_chain =
  QCheck2.Test.make ~count:100
    ~name:"previous witness warm-starts the shrunk graph"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 3 + Rng.int rng 8 in
      let sym = random_sym rng n 0.6 in
      (* Remove edges round by round — the sharing graph's trajectory
         along the skeleton ⊇-chain — reusing each witness as the next
         round's warm start. *)
      let warm = ref None in
      let ok = ref true in
      for _round = 1 to 5 do
        (* drop a few random edges *)
        for _ = 1 to 2 do
          let i = Rng.int rng n and j = Rng.int rng n in
          Bitset.remove sym.(i) j;
          Bitset.remove sym.(j) i
        done;
        let w, size = Mis.max_independent_set_warm ?warm:!warm sym in
        ok :=
          !ok
          && size = Mis.independence_number sym
          && Mis.is_independent sym w;
        warm := Some w
      done;
      !ok)

let test_min_k_tracker_revision_cache () =
  let pts = [| Bitset.of_list 2 [ 0 ]; Bitset.of_list 2 [ 1 ] |] in
  let t = Min_k_tracker.create () in
  let k1 = Min_k_tracker.min_k ~revision:0 t pts in
  check_int "two isolated sources" 2 k1;
  (* Same revision: served from cache even if the array were mutated —
     the stamp is the contract. *)
  Bitset.add pts.(0) 1;
  Bitset.add pts.(1) 0;
  check_int "stamped hit ignores mutation" 2
    (Min_k_tracker.min_k ~revision:0 t pts);
  check_int "new stamp recomputes" 1 (Min_k_tracker.min_k ~revision:1 t pts);
  check_int "stampless always recomputes" 1 (Min_k_tracker.min_k t pts)

(* ---------------- Lgraph support memo ---------------- *)

let test_same_support () =
  let a = Lgraph.create 3 ~self:0 and b = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge a 1 0 ~label:3;
  Lgraph.set_edge b 1 0 ~label:7;
  check "labels ignored" true (Lgraph.same_support a (Lgraph.freeze b));
  Lgraph.set_edge b 2 0 ~label:1;
  check "extra edge breaks support" false (Lgraph.same_support a (Lgraph.freeze b));
  Lgraph.remove_edge b 2 0;
  (* [remove_edge] keeps the endpoint, so the node sets still differ
     from a graph that never saw node 2. *)
  check "node sets compared too" false (Lgraph.same_support a (Lgraph.freeze b));
  Lgraph.add_node a 2;
  check "support restored" true (Lgraph.same_support a (Lgraph.freeze b))

(* The Approx memo rests on: support-equal graphs agree on strong
   connectivity.  Drive a real multi-process run and cross-check the
   memoized answer against a fresh SCC pass every round. *)
let test_approx_sc_memo_consistent () =
  let open Ssg_core in
  let n = 5 in
  let rng = Rng.of_int 11 in
  let procs = Array.init n (fun self -> Approx.create ~n ~self ()) in
  for round = 1 to 3 * n do
    let messages = Array.map Approx.message procs in
    (* Random (but self-inclusive) delivery each round. *)
    let delivered =
      Array.init n (fun p ->
          Array.init n (fun q -> p = q || Rng.float rng < 0.7))
    in
    Array.iteri
      (fun p t ->
        Approx.step t ~round ~received:(fun q ->
            if delivered.(p).(q) then Some messages.(q) else None))
      procs;
    Array.iter
      (fun t ->
        check "memoized SC = fresh SC" true
          (Approx.is_strongly_connected t
          = Lgraph.is_strongly_connected (Approx.graph t));
        (* asking twice hits the memo; the answer must not drift *)
        check "memo stable" true
          (Approx.is_strongly_connected t = Approx.is_strongly_connected t))
      procs
  done

(* End to end: the rewired Monitor (incremental skeleton + cached
   analyses) still certifies Lemmas 3-7 / Theorem 8 on runs with
   recurrent noise — zero violations, same as the from-scratch monitor
   always reported. *)
let test_monitor_clean_on_recurrent_noise () =
  for seed = 0 to 4 do
    let rng = Rng.of_int (100 + seed) in
    let base =
      Build.block_sources rng ~n:6 ~k:2 ~prefix_len:2 ~noise:0.4 ()
    in
    let adv = Build.with_recurrent_noise rng base ~noise:0.3 in
    let r = Ssg_sim.Runner.run_kset ~monitor:true ~rounds:20 adv in
    Alcotest.(check (list string))
      (Printf.sprintf "monitors clean (seed %d)" seed)
      [] r.Ssg_sim.Runner.violations
  done

(* ---------------- suite ---------------- *)

let tests =
  [
    Alcotest.test_case "digraph: inter_into_count" `Quick
      test_inter_into_count;
    Alcotest.test_case "skeleton: absorb_delta = absorb" `Quick
      test_absorb_delta_matches_absorb;
    Alcotest.test_case "incremental: revisions and stability" `Quick
      test_incremental_stable_rounds_and_revision;
    Alcotest.test_case "incremental: stable-suffix entry" `Quick
      test_stable_suffix_entry;
    Alcotest.test_case "tracker: revision cache" `Quick
      test_min_k_tracker_revision_cache;
    Alcotest.test_case "lgraph: same_support" `Quick test_same_support;
    Alcotest.test_case "approx: SC memo consistent" `Quick
      test_approx_sc_memo_consistent;
    Alcotest.test_case "monitor: clean under recurrent noise" `Quick
      test_monitor_clean_on_recurrent_noise;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_incremental_matches_scratch;
        prop_warm_mis_optimal_under_any_seed;
        prop_warm_mis_along_shrinking_chain;
      ]
