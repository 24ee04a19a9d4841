(* Tests for the stable-skeleton approximation (Approx) — the executable
   content of Section IV-A: Observation 1, Lemmas 3–7, Theorem 8.

   Strategy: drive a full system of Approx instances by hand against
   generated adversaries (any predicate — the approximation must be correct
   regardless), tracking ground-truth skeletons, and assert each lemma
   statement directly.  The Monitor module repeats these checks online; here
   we also cover Lemma 4 (path propagation), which the monitor skips. *)

open Ssg_util
open Ssg_graph
open Ssg_skeleton
open Ssg_adversary
open Ssg_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run n Approx instances for [rounds] rounds against an adversary,
   calling [observe ~round states skeletons] after each round, where
   [skeletons.(r-1)] is G^∩r. *)
let drive ?(enable_purge = true) ?(enable_prune = true) adv ~rounds ~observe =
  let n = Adversary.n adv in
  let states =
    Array.init n (fun self ->
        Approx.create ~enable_purge ~enable_prune ~n ~self ())
  in
  let skel = Skeleton.start ~n in
  let skeletons = ref [] in
  for r = 1 to rounds do
    let graph = Adversary.graph adv r in
    ignore (Skeleton.absorb skel graph);
    skeletons := Skeleton.current skel :: !skeletons;
    let payloads = Array.map Approx.message states in
    Array.iteri
      (fun q s ->
        Approx.step s ~round:r ~received:(fun p ->
            if Digraph.mem_edge graph p q then Some payloads.(p) else None))
      states;
    observe ~round:r states (Array.of_list (List.rev !skeletons))
  done;
  states

let adversaries seed =
  let rng = Rng.of_int seed in
  [
    Build.figure1 ();
    Build.block_sources rng ~n:7 ~k:3 ~prefix_len:3 ~noise:0.4 ();
    Build.partitioned rng ~n:6 ~blocks:2 ~prefix_len:2 ();
    Build.arbitrary rng ~n:6 ~density:0.3 ~prefix_len:4 ~noise:0.5 ();
    Build.lower_bound ~n:6 ~k:3;
    Build.with_recurrent_noise rng (Build.partitioned rng ~n:6 ~blocks:2 ()) ~noise:0.3;
  ]

let for_all_adversaries f = List.iter f (adversaries 42)

let test_observation1 () =
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(2 * n) ~observe:(fun ~round states _ ->
             Array.iteri
               (fun p s ->
                 let g = Approx.graph_view s in
                 check "owner present" true (Lgraph.mem_node g p);
                 Lgraph.iter_edges g (fun _ _ l ->
                     check "no stale label" true (l > round - n)))
               states)))

let test_lemma3 () =
  (* PT_p = PT(p, r), and the (q -> p) edge label is r iff q ∈ PT(p,r). *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(2 * n) ~observe:(fun ~round states skels ->
             let skel = skels.(round - 1) in
             Array.iteri
               (fun p s ->
                 let pt_true = Digraph.preds skel p in
                 check "PT matches" true (Bitset.equal (Approx.pt s) pt_true);
                 let g = Approx.graph_view s in
                 for q = 0 to n - 1 do
                   check "fresh label iff timely" true
                     ((Lgraph.label g q p = round) = Bitset.mem pt_true q)
                 done)
               states)))

let test_lemma4_path_propagation () =
  (* If p1 -> ... -> p(l+1) is a path in G^∩r (r >= n, l <= n-1), then for
     q ∈ PT(p1, r - l), G^r_{p(l+1)} has a (q -> p1) edge labelled in
     [r - l, r] (the paper's induction establishes the non-strict lower
     bound: the base-case label is exactly r - l).  We check it on the
     figure-1 run where the stable path p3 -> p4 -> p5 -> p6 exists. *)
  let adv = Build.figure1 () in
  let n = 6 in
  ignore
    (drive adv ~rounds:(2 * n) ~observe:(fun ~round states skels ->
         if round >= n then begin
           let skel = skels.(round - 1) in
           (* path 2 -> 3 -> 4 -> 5 (p3..p6), length 3 *)
           check "path in skeleton" true
             (Digraph.mem_edge skel 2 3 && Digraph.mem_edge skel 3 4
             && Digraph.mem_edge skel 4 5);
           let l = 3 in
           let pt_p1 = Digraph.preds skels.(round - l - 1) 2 in
           let g = Approx.graph_view states.(5) in
           Bitset.iter
             (fun q ->
               let lbl = Lgraph.label g q 2 in
               check
                 (Printf.sprintf "r=%d q=%d edge labelled in [r-l, r]" round q)
                 true
                 (lbl >= round - l && lbl <= round))
             pt_p1
         end))

let test_lemma5 () =
  (* r >= n: G^r_p ⊇ C^r_p (nodes and edges). *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(2 * n) ~observe:(fun ~round states skels ->
             if round >= n then
               let skel = skels.(round - 1) in
               Array.iteri
                 (fun p s ->
                   let comp = Scc.component_containing skel p in
                   let g = Approx.graph_view s in
                   let nodes = Lgraph.nodes g in
                   check "component nodes present" true
                     (Bitset.subset comp nodes);
                   Bitset.iter
                     (fun q ->
                       Digraph.iter_preds skel q (fun q' ->
                           if Bitset.mem comp q' then
                             check "component edge present" true
                               (Lgraph.mem_edge g q' q)))
                     comp)
                 states)))

let test_lemma6 () =
  (* Every edge (q' --s--> q) in G^r_p satisfies q' ∈ PT(q, s). *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(2 * n) ~observe:(fun ~round:_ states skels ->
             Array.iter
               (fun s ->
                 Lgraph.iter_edges (Approx.graph_view s) (fun q' q lbl ->
                     check "edge was timely at label round" true
                       (Digraph.mem_edge skels.(lbl - 1) q' q)))
               states)))

let test_lemma7 () =
  (* If G^r_p is strongly connected and r - n + 1 >= 1 then
     G^r_p ⊆ C^(r-n+1)_p. *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      ignore
        (drive adv ~rounds:(3 * n) ~observe:(fun ~round states skels ->
             if round >= n then
               Array.iteri
                 (fun p s ->
                   if Approx.is_strongly_connected s then begin
                     let base = skels.(round - n) in
                     let comp = Scc.component_containing base p in
                     let g = Approx.graph_view s in
                     check "nodes inside component" true
                       (Bitset.subset (Lgraph.nodes g) comp);
                     Lgraph.iter_edges g (fun q' q _ ->
                         check "edges inside skeleton" true
                           (Digraph.mem_edge base q' q))
                   end)
                 states)))

let test_theorem8 () =
  (* A strongly connected G^R_p (R >= n, past stabilization) contains the
     full stable component C^∞_q of each of its nodes. *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      let final_skel = Adversary.stable_skeleton adv in
      let rounds = Adversary.decision_horizon adv in
      ignore
        (drive adv ~rounds ~observe:(fun ~round states _ ->
             if round >= n then
               Array.iter
                 (fun s ->
                   if Approx.is_strongly_connected s then begin
                     let g = Approx.graph_view s in
                     let nodes = Lgraph.nodes g in
                     Bitset.iter
                       (fun q ->
                         let comp = Scc.component_containing final_skel q in
                         check "C∞ nodes contained" true
                           (Bitset.subset comp nodes);
                         Bitset.iter
                           (fun v ->
                             Digraph.iter_preds final_skel v (fun u ->
                                 if Bitset.mem comp u then
                                   check "C∞ edges contained" true
                                     (Lgraph.mem_edge g u v)))
                           comp)
                       nodes
                   end)
                 states)))

let test_root_members_become_strongly_connected () =
  (* Lemma 11's engine: members of a root component see a strongly
     connected approximation by stabilization + n - 1. *)
  for_all_adversaries (fun adv ->
      let n = Adversary.n adv in
      let analysis = Analysis.analyze (Adversary.stable_skeleton adv) in
      let horizon = Adversary.prefix_length adv + 1 + n in
      let states = drive adv ~rounds:horizon ~observe:(fun ~round:_ _ _ -> ()) in
      Array.iteri
        (fun p s ->
          if Analysis.is_root analysis p then
            check
              (Printf.sprintf "root member %d SC by %d" p horizon)
              true
              (Approx.is_strongly_connected s))
        states)

let test_approx_misuse () =
  let a = Approx.create ~n:3 ~self:0 () in
  check "out-of-order round" true
    (try
       Approx.step a ~round:2 ~received:(fun _ -> None);
       false
     with Invalid_argument _ -> true);
  check "bad self" true
    (try ignore (Approx.create ~n:3 ~self:3 ()); false
     with Invalid_argument _ -> true)

let test_message_is_snapshot () =
  (* A round-r message must outlive its sender's later rounds: the timing
     layer delivers messages after their sender has moved on. *)
  let adv = Build.figure1 () in
  let n = Adversary.n adv in
  let states = Array.init n (fun self -> Approx.create ~n ~self ()) in
  let step_all r payloads =
    let graph = Adversary.graph adv r in
    Array.iteri
      (fun q s ->
        Approx.step s ~round:r ~received:(fun p ->
            if Digraph.mem_edge graph p q then Some payloads.(p) else None))
      states
  in
  for r = 1 to 2 do
    step_all r (Array.map Approx.message states)
  done;
  let sender = 5 in
  let payloads = Array.map Approx.message states in
  let had = Lgraph.copy (Approx.graph_view states.(sender)) in
  step_all 3 payloads;
  for r = 4 to 5 do
    step_all r (Array.map Approx.message states)
  done;
  check "sender's graph moved on" false
    (Lgraph.equal had (Approx.graph_view states.(sender)));
  check "round-3 message still thaws to its graph" true
    (Lgraph.equal had (Lgraph.thaw payloads.(sender)))

let test_combined_ablations_still_sound_edges () =
  (* Even with purge AND prune disabled, Lemma 6 soundness holds: the
     approximation never invents an edge (it only retains stale ones). *)
  let adv = Build.figure1 () in
  ignore
    (drive ~enable_purge:false ~enable_prune:false adv ~rounds:12
       ~observe:(fun ~round:_ states skels ->
         Array.iter
           (fun s ->
             Lgraph.iter_edges (Approx.graph_view s) (fun q' q lbl ->
                 check "edge was timely at its label round" true
                   (Digraph.mem_edge skels.(lbl - 1) q' q)))
           states))

let test_purge_disabled_violates_obs1 () =
  (* Failure injection: without Line 24 the Observation 1 bound fails in
     runs whose early edges die. *)
  let adv = Build.figure1 () in
  let n = 6 in
  let stale_found = ref false in
  ignore
    (drive ~enable_purge:false adv ~rounds:(3 * n)
       ~observe:(fun ~round states _ ->
         Array.iter
           (fun s ->
             Lgraph.iter_edges (Approx.graph_view s) (fun _ _ l ->
                 if l <= round - n then stale_found := true))
           states));
  check "stale labels appear" true !stale_found

(* Reference equivalence: [Approx] against the dense reference
   (Ref_approx over Ref_lgraph), stepped side by side over generated
   adversaries and compared after every round.  n reaches past one 63-bit
   word (62..65), and every purge/prune combination occurs. *)

(* Each family builds its adversary from (rng, n, seed).  Densities fall
   as 1/n past n = 12, so the dense reference (n² work per process and
   operation) stays affordable at n = 62..65. *)
let reference_families =
  let sparse n d = Float.min d (4. /. float_of_int n) in
  [
    ( "block_sources",
      fun rng ~n ~seed ->
        Build.block_sources rng ~n ~k:(1 + (seed mod n)) ~prefix_len:3
          ~intra:(sparse n 0.2) ~cross:(sparse n 0.05) ~noise:(sparse n 0.4)
          () );
    ( "partitioned",
      fun rng ~n ~seed ->
        Build.partitioned rng ~n ~blocks:(1 + (seed mod min 3 n))
          ~extra:(sparse n 0.2) ~prefix_len:2 ~noise:(sparse n 0.3) () );
    ( "arbitrary",
      fun rng ~n ~seed:_ ->
        Build.arbitrary rng ~n ~density:(sparse n 0.3) ~prefix_len:4
          ~noise:(sparse n 0.5) () );
    ( "with_recurrent_noise",
      fun rng ~n ~seed:_ ->
        Build.with_recurrent_noise rng
          (Build.partitioned rng ~n ~blocks:2 ~extra:(sparse n 0.2)
             ~prefix_len:2 ())
          ~noise:(sparse n 0.3) );
    ( "lower_bound",
      fun _ ~n ~seed -> Build.lower_bound ~n ~k:(1 + (seed mod (n - 1))) );
    ("figure1", fun _ ~n:_ ~seed:_ -> Build.figure1 ());
  ]

let gen_reference_case =
  QCheck2.Gen.(
    let* family = oneofl reference_families in
    let* n = frequency [ (7, int_range 2 12); (1, oneofl [ 62; 63; 64; 65 ]) ] in
    let* seed = int_bound 10_000 in
    let* purge = bool in
    let* prune = bool in
    let+ fresh = bool in
    (family, n, seed, purge, prune, fresh))

let print_reference_case ((name, _), n, seed, purge, prune, fresh) =
  Printf.sprintf "%s n=%d seed=%d purge=%b prune=%b fresh=%b" name n seed
    purge prune fresh

(* Runs past the prefix by n + 2 rounds, so purging is live at the end.
   With [fresh], each process hears fresh snapshots of the graphs, its
   own included, instead of the messages [Approx.message] handed out:
   [Approx.step] must then rebuild G_p from ⟨{p}, ∅⟩ rather than extend
   it in place. *)
let matches_reference ((_, build), n, seed, enable_purge, enable_prune, fresh)
    =
  let adv = build (Rng.of_int seed) ~n ~seed in
  let n = Adversary.n adv in
  let fast =
    Array.init n (fun self ->
        Approx.create ~enable_purge ~enable_prune ~n ~self ())
  in
  let dense =
    Array.init n (fun self ->
        Ref_approx.create ~enable_purge ~enable_prune ~n ~self ())
  in
  let expect round p what ok =
    if not ok then
      QCheck2.Test.fail_reportf "round %d, process %d: %s differs" round p what
  in
  (* Each reference graph, copied into an [Lgraph] for comparison. *)
  let copies = Array.init n (fun self -> Lgraph.create n ~self) in
  for round = 1 to Adversary.prefix_length adv + n + 2 do
    let graph = Adversary.graph adv round in
    let fast_msgs =
      if fresh then
        Array.map (fun s -> Lgraph.freeze (Approx.graph_view s)) fast
      else Array.map Approx.message fast
    in
    let dense_msgs = Array.map Ref_approx.message dense in
    let label_bits = Bitio.width_for (round + 1) in
    Array.iteri
      (fun p m ->
        expect round p "message bit length"
          (Codec.frozen_bit_length m ~label_bits
          = Codec.header_bits ~n
            + Ref_lgraph.encoded_bits dense_msgs.(p) ~label_bits))
      fast_msgs;
    let received msgs q p =
      if Digraph.mem_edge graph p q then Some msgs.(p) else None
    in
    Array.iteri
      (fun q s -> Approx.step s ~round ~received:(received fast_msgs q))
      fast;
    Array.iteri
      (fun q s -> Ref_approx.step s ~round ~received:(received dense_msgs q))
      dense;
    Array.iteri
      (fun p s ->
        let d = dense.(p) in
        let g = Approx.graph_view s and h = Ref_approx.graph_view d in
        expect round p "PT" (Bitset.equal (Approx.pt s) (Ref_approx.pt d));
        expect round p "node set"
          (Bitset.equal (Lgraph.nodes g) (Ref_lgraph.nodes h));
        (* [Lgraph.equal] compares the whole label matrix, absent edges
           (label 0) included; [same_support] the presence rows. *)
        let h' = copies.(p) in
        Lgraph.reset h' ~self:p;
        Bitset.iter (Lgraph.add_node h') (Ref_lgraph.nodes h);
        Ref_lgraph.iter_edges h (fun q v label -> Lgraph.set_edge h' q v ~label);
        expect round p "labels"
          (Lgraph.equal g h' && Lgraph.same_support g (Lgraph.freeze h'));
        expect round p "strong connectivity"
          (Approx.is_strongly_connected s = Ref_approx.is_strongly_connected d))
      fast
  done;
  true

let prop_matches_reference =
  QCheck2.Test.make ~count:30 ~print:print_reference_case
    ~name:"matches the dense reference, round by round" gen_reference_case
    matches_reference

let tests =
  [
    Alcotest.test_case "Observation 1" `Quick test_observation1;
    Alcotest.test_case "Lemma 3 (PT and fresh labels)" `Quick test_lemma3;
    Alcotest.test_case "Lemma 4 (path propagation)" `Quick
      test_lemma4_path_propagation;
    Alcotest.test_case "Lemma 5 (overapproximation)" `Quick test_lemma5;
    Alcotest.test_case "Lemma 6 (soundness of edges)" `Quick test_lemma6;
    Alcotest.test_case "Lemma 7 (containment when SC)" `Quick test_lemma7;
    Alcotest.test_case "Theorem 8 (component closure)" `Quick test_theorem8;
    Alcotest.test_case "root members reach SC (Lemma 11)" `Quick
      test_root_members_become_strongly_connected;
    Alcotest.test_case "misuse rejected" `Quick test_approx_misuse;
    Alcotest.test_case "message is a snapshot" `Quick test_message_is_snapshot;
    Alcotest.test_case "no purge -> Obs1 violated" `Quick
      test_purge_disabled_violates_obs1;
    Alcotest.test_case "ablated variants never invent edges" `Quick
      test_combined_ablations_still_sound_edges;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_matches_reference ]
