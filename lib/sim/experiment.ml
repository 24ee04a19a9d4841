open Ssg_util
open Ssg_graph
open Ssg_rounds
open Ssg_skeleton
open Ssg_adversary
open Ssg_core

type scale = [ `Quick | `Standard | `Full ]

type result = {
  id : string;
  title : string;
  table : Table.t;
  notes : string list;
}

type t = {
  id : string;
  title : string;
  paper_artifact : string;
  run : scale -> result;
}

let master_seed = 0x5EED_2011

(* Independent generator for run [i] of experiment [id]. *)
let rng_for id i =
  let h = Hashtbl.hash (id, i) in
  Rng.make (Int64.of_int ((master_seed * 1_000_003) + h))

let runs_at scale ~quick ~standard ~full =
  match scale with `Quick -> quick | `Standard -> standard | `Full -> full

let pct num den =
  if den = 0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int num /. float_of_int den)

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1: the worked 6-process example.                        *)
(* ------------------------------------------------------------------ *)

let edge_string (q, p, l) = Printf.sprintf "p%d-[%d]->p%d" (q + 1) l (p + 1)

let run_f1 _scale =
  let adv = Build.figure1 () in
  let n = Adversary.n adv in
  let module E = Executor.Make (Kset_agreement.Alg) in
  let table = Table.create [ "round"; "PT(p6)"; "|V|"; "G^r_p6 edges (no self-loops)"; "SC?" ] in
  let capture ~round ~graph:_ states =
    if round <= n then begin
      let s = states.(5) in
      let g = Kset_agreement.approx_of s in
      let pt = Kset_agreement.pt_of s in
      let pt_names =
        Bitset.elements pt
        |> List.map (fun i -> Printf.sprintf "p%d" (i + 1))
        |> String.concat ","
      in
      let edges =
        List.filter (fun (q, p, _) -> q <> p) (Lgraph.edges g)
        |> List.map edge_string |> String.concat " "
      in
      Table.add_row table
        [
          string_of_int round;
          "{" ^ pt_names ^ "}";
          string_of_int (Lgraph.node_count g);
          edges;
          Table.cell_bool (Lgraph.is_strongly_connected g);
        ]
    end
  in
  let cfg =
    E.config ~on_round:capture ~stop_when_all_decided:false
      ~inputs:(Array.init n (fun i -> i))
      ~graphs:(Adversary.graph adv)
      ~max_rounds:(Adversary.decision_horizon adv) ()
  in
  let outcome, _ = E.run cfg in
  let skel_run = Adversary.stable_skeleton adv in
  let trace = Adversary.trace adv ~rounds:6 in
  let skel2 = Skeleton.at trace 2 in
  let fmt_graph g =
    Digraph.edges g
    |> List.filter (fun (p, q) -> p <> q)
    |> List.map (fun (p, q) -> Printf.sprintf "p%d->p%d" (p + 1) (q + 1))
    |> String.concat " "
  in
  let decisions =
    Array.to_list outcome.Executor.decisions
    |> List.mapi (fun p d ->
           match d with
           | Some { Executor.round; value } ->
               Printf.sprintf "p%d decides %d @r%d" (p + 1) value round
           | None -> Printf.sprintf "p%d undecided" (p + 1))
    |> String.concat ", "
  in
  {
    id = "F1";
    title = "Figure 1 — skeleton approximation at p6 (n = 6, Psrcs(3))";
    table;
    notes =
      [
        Printf.sprintf "G^∩2  (fig. 1a): %s" (fmt_graph skel2);
        Printf.sprintf "G^∩∞ (fig. 1b): %s" (fmt_graph skel_run);
        Printf.sprintf "root components: {p1,p2} and {p3,p4,p5}; Psrcs(3) holds (min_k = %d)"
          (Adversary.min_k adv);
        "p6's approximation accumulates round-labelled edges (1c-1h); labels";
        "are the rounds at which the edge was last observed timely.";
        decisions;
      ];
  }

(* ------------------------------------------------------------------ *)
(* F2 — supplementary figure: convergence dynamics at scale.           *)
(* ------------------------------------------------------------------ *)

let run_f2 scale =
  let n = match scale with `Quick -> 10 | `Standard -> 16 | `Full -> 32 in
  let rng = rng_for "F2" 0 in
  let adv = Build.block_sources rng ~n ~k:3 ~prefix_len:4 ~noise:0.4 () in
  let samples = Series.collect adv in
  let table =
    Table.create
      [ "round"; "skel edges"; "comps"; "roots"; "mean |PT|";
        "mean |V(Gp)|"; "mean |E(Gp)|"; "certs"; "decided" ]
  in
  let show (s : Series.sample) =
    Table.add_row table
      [
        string_of_int s.Series.round;
        string_of_int s.Series.skeleton_edges;
        string_of_int s.Series.components;
        string_of_int s.Series.roots;
        Table.cell_float s.Series.mean_pt;
        Table.cell_float s.Series.mean_approx_nodes;
        Table.cell_float s.Series.mean_approx_edges;
        string_of_int s.Series.certificates;
        string_of_int s.Series.decided;
      ]
  in
  let total = List.length samples in
  List.iteri
    (fun i s ->
      (* print the early rounds densely, then every 4th *)
      if i < 8 || i mod 4 = 3 || i = total - 1 then show s)
    samples;
  {
    id = "F2";
    title =
      Printf.sprintf
        "Supplementary figure — convergence dynamics (n = %d, Psrcs(3), noisy prefix)"
        n;
    table;
    notes =
      ("sparklines over all rounds:" :: String.split_on_char '\n' (Series.summary samples))
      @ [
          "The ground-truth skeleton shrinks to its fixpoint while every";
          "local approximation G_p grows to cover its component (Lemma 5)";
          "and sheds stale edges (Line 24/25); certificates open at round";
          ">= n and decisions follow — Figure 1's mechanism at scale.";
        ];
  }

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1: at most k root components under Psrcs(k).           *)
(* ------------------------------------------------------------------ *)

let run_e1 scale =
  let runs = runs_at scale ~quick:8 ~standard:60 ~full:300 in
  let table =
    Table.create [ "n"; "k"; "runs"; "max roots"; "mean roots"; "bound k holds" ]
  in
  let cells =
    List.concat_map
      (fun n -> List.filter_map (fun k -> if k < n then Some (n, k) else None) [ 1; 2; 4; 8 ])
      [ 8; 16; 32 ]
  in
  List.iter
    (fun (n, k) ->
      let roots =
        List.init runs Fun.id |> Pool.run (fun i ->
            let rng = rng_for (Printf.sprintf "E1-%d-%d" n k) i in
            let adv =
              Build.block_sources rng ~n ~k
                ~blocks:(1 + Rng.int rng k)
                ~prefix_len:(Rng.int rng 5)
                ~cross:(if Rng.bool rng then 0.05 else 0.0)
                ()
            in
            assert (Adversary.psrcs adv ~k);
            Analysis.root_count (Analysis.analyze (Adversary.stable_skeleton adv)))
      in
      let max_roots = List.fold_left max 0 roots in
      let mean =
        float_of_int (List.fold_left ( + ) 0 roots) /. float_of_int runs
      in
      Table.add_row table
        [
          string_of_int n;
          string_of_int k;
          string_of_int runs;
          string_of_int max_roots;
          Table.cell_float mean;
          Table.cell_bool (max_roots <= k);
        ])
    cells;
  {
    id = "E1";
    title = "Theorem 1 — root components of G^∩∞ never exceed k";
    table;
    notes =
      [
        "Every run satisfies Psrcs(k) by construction (machine-checked via";
        "the MIS decision procedure); the bound is tight: cells with";
        "blocks = k regularly reach max roots = k.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 2: Psrcs(k) is too weak for (k-1)-set agreement.       *)
(* ------------------------------------------------------------------ *)

let run_e2 scale =
  let table =
    Table.create
      [ "n"; "k"; "Psrcs(k)"; "Psrcs(k-1)"; "min_k"; "distinct decisions"; "= k" ]
  in
  let cells =
    match scale with
    | `Quick -> [ (6, 3); (8, 4) ]
    | `Standard -> [ (4, 2); (6, 3); (8, 4); (12, 6); (16, 8); (24, 12) ]
    | `Full -> [ (4, 2); (6, 3); (8, 4); (12, 6); (16, 8); (24, 12); (32, 16); (48, 24) ]
  in
  List.iter
    (fun (n, k) ->
      let adv = Build.lower_bound ~n ~k in
      let r = Runner.run_kset adv in
      let distinct = Metrics.distinct_decisions r.Runner.outcome in
      Table.add_row table
        [
          string_of_int n;
          string_of_int k;
          Table.cell_bool (Adversary.psrcs adv ~k);
          (if k > 1 then Table.cell_bool (Adversary.psrcs adv ~k:(k - 1)) else "n/a");
          string_of_int r.Runner.min_k;
          string_of_int distinct;
          Table.cell_bool (distinct = k);
        ])
    cells;
  {
    id = "E2";
    title = "Theorem 2 — the lower-bound run forces exactly k values";
    table;
    notes =
      [
        "The k-1 lonely processes and the 2-source s can never learn any";
        "other input, so every algorithm decides >= k values on this run";
        "although Psrcs(k) holds — (k-1)-set agreement is impossible.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 16: agreement/validity/termination across the zoo.     *)
(* ------------------------------------------------------------------ *)

let zoo rng n =
  match Rng.int rng 6 with
  | 0 ->
      Build.block_sources rng ~n ~k:(1 + Rng.int rng (n - 1))
        ~prefix_len:(Rng.int rng 5) ~noise:(Rng.float rng *. 0.5) ()
  | 1 -> Build.partitioned rng ~n ~blocks:(1 + Rng.int rng 3) ~prefix_len:(Rng.int rng 4) ()
  | 2 -> Build.single_root rng ~n ~prefix_len:(Rng.int rng 4) ()
  | 3 ->
      Build.arbitrary rng ~n
        ~density:(0.1 +. (Rng.float rng *. 0.4))
        ~prefix_len:(Rng.int rng 5) ~noise:0.4 ()
  | 4 -> Build.lower_bound ~n ~k:(1 + Rng.int rng (n - 1))
  | _ ->
      Build.with_recurrent_noise rng
        (Build.partitioned rng ~n ~blocks:(1 + Rng.int rng 3) ())
        ~noise:(Rng.float rng *. 0.3)

let run_e3 scale =
  let runs = runs_at scale ~quick:10 ~standard:120 ~full:600 in
  let table =
    Table.create
      [ "n"; "runs"; "k-agreement@min_k"; "validity"; "termination"; "monitors clean" ]
  in
  List.iter
    (fun n ->
      let monitored = n <= 12 in
      let verdicts =
        List.init runs Fun.id |> Pool.run (fun i ->
            let rng = rng_for (Printf.sprintf "E3-%d" n) i in
            let adv = zoo rng n in
            let r = Runner.run_kset ~monitor:monitored adv in
            Metrics.verdict ~k:r.Runner.min_k r)
      in
      let count f = List.fold_left (fun a v -> if f v then a + 1 else a) 0 verdicts in
      Table.add_row table
        [
          string_of_int n;
          string_of_int runs;
          pct (count (fun v -> v.Metrics.agreement)) runs;
          pct (count (fun v -> v.Metrics.validity)) runs;
          pct (count (fun v -> v.Metrics.termination)) runs;
          (if monitored then pct (count (fun v -> v.Metrics.monitors_clean)) runs
           else "(n>12: off)");
        ])
    [ 6; 9; 12; 16 ];
  {
    id = "E3";
    title = "Theorem 16 — k-set agreement across the adversary zoo";
    table;
    notes =
      [
        "k is the run's exact min_k = α(source-sharing graph).  Monitors";
        "are the executable Lemmas 3-7 and Theorem 8 — the approximation is";
        "correct under every predicate (Section V), not just Psrcs(k).";
        "Agreement below 100% is NOT a bug of this implementation: it is a";
        "reproducible counterexample to Theorem 16 as stated — see E9.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E4 — Lemma 11: decision latency vs the r_ST + 2n - 1 bound.         *)
(* ------------------------------------------------------------------ *)

let run_e4 scale =
  let runs = runs_at scale ~quick:5 ~standard:40 ~full:200 in
  let table =
    Table.create
      [ "n"; "r_ST"; "runs"; "mean last dec"; "max last dec"; "bound"; "within" ]
  in
  let cells =
    List.concat_map
      (fun n -> List.map (fun rst -> (n, rst)) [ 1; n / 2; n; 2 * n ])
      [ 8; 16; 32 ]
  in
  List.iter
    (fun (n, rst) ->
      let lasts =
        List.init runs Fun.id |> Pool.run (fun i ->
            let rng = rng_for (Printf.sprintf "E4-%d-%d" n rst) i in
            let adv =
              Build.delayed_stability rng ~n ~k:(1 + Rng.int rng 3) ~rst
            in
            let r = Runner.run_kset adv in
            match Metrics.last_decision_round r.Runner.outcome with
            | Some l -> l
            | None -> max_int)
      in
      let bound = rst + (2 * n) - 1 in
      let max_last = List.fold_left max 0 lasts in
      let mean =
        float_of_int (List.fold_left ( + ) 0 lasts) /. float_of_int runs
      in
      Table.add_row table
        [
          string_of_int n;
          string_of_int rst;
          string_of_int runs;
          Table.cell_float mean;
          string_of_int max_last;
          string_of_int bound;
          Table.cell_bool (max_last <= bound);
        ])
    cells;
  {
    id = "E4";
    title = "Lemma 11 — all processes decide by r_ST + 2n - 1";
    table;
    notes =
      [
        "r_ST is forced exactly: a batch of extra edges is timely in every";
        "round up to r_ST - 1 and then vanishes, so the skeleton stabilizes";
        "at r_ST.  The bound holds in every run, and measured latency is";
        "~n..2n nearly independently of r_ST — Line 28 may legitimately";
        "certify on the pre-stabilization skeleton (whose root components";
        "are stable-so-far), so decisions need not wait for r_ST at all.";
        "The r_ST + 2n - 1 worst case is loose for these workloads.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E5 — Section V: message bit complexity is polynomial in n.          *)
(* ------------------------------------------------------------------ *)

let run_e5 scale =
  let sizes =
    match scale with
    | `Quick -> [ 8; 16 ]
    | `Standard -> [ 8; 12; 16; 24; 32; 48 ]
    | `Full -> [ 8; 12; 16; 24; 32; 48; 64; 96 ]
  in
  let table =
    Table.create
      [ "n"; "max msg bits"; "n^2*log2(n)"; "ratio"; "total bits (run)"; "rounds" ]
  in
  let points =
    List.map
      (fun n ->
        let rng = rng_for "E5" n in
        let adv = Build.block_sources rng ~n ~k:(max 1 (n / 4)) ~intra:0.3 () in
        let r = Runner.run_kset adv in
        let o = r.Runner.outcome in
        let reference =
          float_of_int (n * n) *. (log (float_of_int n) /. log 2.0)
        in
        Table.add_row table
          [
            string_of_int n;
            string_of_int o.Executor.max_message_bits;
            Printf.sprintf "%.0f" reference;
            Table.cell_float (float_of_int o.Executor.max_message_bits /. reference);
            string_of_int o.Executor.bits_sent;
            string_of_int o.Executor.rounds_run;
          ];
        (log (float_of_int n), log (float_of_int o.Executor.max_message_bits)))
      sizes
  in
  let xs = Array.of_list (List.map fst points)
  and ys = Array.of_list (List.map snd points) in
  let slope, _ = Stats.linear_fit xs ys in
  {
    id = "E5";
    title = "Section V — worst-case message size is polynomial in n";
    table;
    notes =
      [
        Printf.sprintf
          "log-log slope of max message bits vs n: %.2f (graph payload is" slope;
        "Θ(E·log n) = O(n² log n) bits; no exponential blow-up).  Compare";
        "FloodMin's constant 32-bit messages in E6 — the price of running";
        "without a known failure bound.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E6 — baselines: FloodMin in and outside its model.                  *)
(* ------------------------------------------------------------------ *)

let run_e6 scale =
  let runs = runs_at scale ~quick:5 ~standard:30 ~full:150 in
  let table =
    Table.create
      [ "scenario"; "algorithm"; "k budget"; "runs"; "ok"; "mean last dec"; "max msg bits" ]
  in
  let n = 12 in
  (* Part A: the crash-synchronous home model of FloodMin. *)
  List.iter
    (fun (f, k) ->
      let row alg_name make_alg check_k =
        let oks = ref 0 and lasts = ref 0 and bits = ref 0 in
        let stalled = ref false in
        for i = 0 to runs - 1 do
          let rng = rng_for (Printf.sprintf "E6-%d-%d-%s" f k alg_name) i in
          let crashed = Rng.sample rng n f in
          let crashes =
            Array.to_list (Array.map (fun p -> (p, 1 + Rng.int rng 3)) crashed)
          in
          let adv = Build.crash_synchronous rng ~n ~crashes in
          let r =
            match make_alg with
            | `Floodmin ->
                let rounds = Ssg_baselines.Floodmin.rounds_for ~f ~k in
                Runner.run_packed (Ssg_baselines.Floodmin.make ~rounds) ~rounds adv
            | `Otr ->
                Runner.run_packed Ssg_baselines.One_third_rule.packed
                  ~rounds:(2 * n) adv
            | `Kset -> Runner.run_kset adv
          in
          let o = r.Runner.outcome in
          if Metrics.termination o && Metrics.k_agreement ~k:check_k o then incr oks;
          (match Metrics.last_decision_round o with
          | Some l when Metrics.termination o -> lasts := !lasts + l
          | _ -> stalled := true);
          bits := max !bits o.Executor.max_message_bits
        done;
        Table.add_row table
          [
            Printf.sprintf "crash-sync f=%d" f;
            alg_name;
            string_of_int k;
            string_of_int runs;
            pct !oks runs;
            (if !stalled then "-"
             else Table.cell_float (float_of_int !lasts /. float_of_int runs));
            string_of_int !bits;
          ]
      in
      row "floodmin" `Floodmin k;
      (* OTR is live here only while f < n/3 (needs > 2n/3 arrivals). *)
      row "one-third-rule" `Otr 1;
      (* Algorithm 1 solves consensus here (min_k = 1 <= k). *)
      row "skeleton-kset" `Kset k)
    [ (2, 1); (4, 2); (8, 4) ];
  Table.add_rule table;
  (* Part B: outside FloodMin's model — a partitioned Psrcs run. *)
  let oks_fm = ref 0 and oks_ks = ref 0 in
  let otr_safe = ref 0 and otr_live = ref 0 in
  let blocks = 3 in
  for i = 0 to runs - 1 do
    let rng = rng_for "E6-B" i in
    let adv = Build.partitioned rng ~n ~blocks () in
    let fm =
      Runner.run_packed (Ssg_baselines.Floodmin.make ~rounds:4) ~rounds:4 adv
    in
    if Metrics.k_agreement ~k:1 fm.Runner.outcome then incr oks_fm;
    let otr =
      Runner.run_packed Ssg_baselines.One_third_rule.packed ~rounds:(3 * n) adv
    in
    if Metrics.k_agreement ~k:1 otr.Runner.outcome then incr otr_safe;
    if Metrics.termination otr.Runner.outcome then incr otr_live;
    let ks = Runner.run_kset adv in
    if Metrics.k_agreement ~k:ks.Runner.min_k ks.Runner.outcome then incr oks_ks
  done;
  Table.add_row table
    [ Printf.sprintf "partitioned(%d)" blocks; "floodmin"; "1"; string_of_int runs;
      pct !oks_fm runs; "-"; "32" ];
  Table.add_row table
    [ Printf.sprintf "partitioned(%d)" blocks; "one-third-rule"; "1";
      string_of_int runs;
      Printf.sprintf "%s safe / %s live" (pct !otr_safe runs) (pct !otr_live runs);
      "-"; "32" ];
  Table.add_row table
    [ Printf.sprintf "partitioned(%d)" blocks; "skeleton-kset"; "min_k";
      string_of_int runs; pct !oks_ks runs; "-"; "-" ];
  {
    id = "E6";
    title = "Baselines — FloodMin vs Algorithm 1, inside and outside the crash model";
    table;
    notes =
      [
        "Three corners of the design space.  FloodMin: fastest (⌊f/k⌋+1";
        "rounds, 32-bit messages) but only sound inside the crash model —";
        "on partitions its fixed horizon violates agreement in every run.";
        "One-Third-Rule (HO model, ref. [4]): safe under every pattern but";
        "live only when > 2n/3 arrivals occur — it stalls on partitions and";
        "already at f >= n/3 crashes ('ok' above counts termination too).";
        "Algorithm 1: terminates in every run, bounds disagreement by the";
        "run's own min_k, pays Θ(n) rounds and O(n² log n)-bit messages.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E7 — Section III: the eventual predicate ♦Psrcs(k) is too weak.     *)
(* ------------------------------------------------------------------ *)

let run_e7 scale =
  let runs = runs_at scale ~quick:5 ~standard:30 ~full:100 in
  let n = 8 in
  let table =
    Table.create
      [ "isolation L"; "runs"; "min_k after L"; "kset distinct (max)"; "naive(H=n) distinct (max)" ]
  in
  List.iter
    (fun isolation ->
      let kset_max = ref 0 and naive_max = ref 0 and mink = ref 0 in
      for i = 0 to runs - 1 do
        let rng = rng_for (Printf.sprintf "E7-%d" isolation) i in
        let base = Build.block_sources rng ~n ~k:2 () in
        let adv =
          if isolation = 0 then base else Build.isolated_prefix base ~rounds:isolation
        in
        mink := max !mink (Adversary.min_k adv);
        let r = Runner.run_kset adv in
        kset_max := max !kset_max (Metrics.distinct_decisions r.Runner.outcome);
        let nv =
          Runner.run_packed (Ssg_baselines.Naive_min.make ~horizon:n)
            ~rounds:(n + isolation + 2) adv
        in
        naive_max := max !naive_max (Metrics.distinct_decisions nv.Runner.outcome)
      done;
      Table.add_row table
        [
          string_of_int isolation;
          string_of_int runs;
          string_of_int !mink;
          string_of_int !kset_max;
          string_of_int !naive_max;
        ])
    [ 0; 1; 2; 4 ];
  {
    id = "E7";
    title = "♦Psrcs(k) is too weak — one isolated round erases perpetual timeliness";
    table;
    notes =
      [
        "With L = 0 the perpetual predicate holds and Algorithm 1 stays";
        "within k = 2 (the naive fixed-horizon rule already overshoots even";
        "here — it ignores graph structure entirely).  Any L >= 1 collapses";
        "G^∩∞ to self-loops: min_k jumps to n and the indistinguishability";
        "argument of Section III plays out — Algorithm 1's n distinct values";
        "are unavoidable, not a defect: no algorithm can do better under the";
        "eventual predicate, which is why Psrcs(k) must be perpetual.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E8 — Section V: consensus in well-behaved runs.                     *)
(* ------------------------------------------------------------------ *)

let run_e8 scale =
  let runs = runs_at scale ~quick:10 ~standard:80 ~full:400 in
  let table =
    Table.create [ "n"; "runs"; "consensus"; "mean last dec"; "bound 2n+1" ]
  in
  List.iter
    (fun n ->
      let results =
        List.init runs Fun.id |> Pool.run (fun i ->
            let rng = rng_for (Printf.sprintf "E8-%d" n) i in
            let adv = Build.single_root rng ~n () in
            let r = Runner.run_kset adv in
            ( Metrics.distinct_decisions r.Runner.outcome,
              Option.value ~default:999 (Metrics.last_decision_round r.Runner.outcome) ))
      in
      let consensus =
        List.fold_left (fun a (d, _) -> if d = 1 then a + 1 else a) 0 results
      in
      let mean_last =
        float_of_int (List.fold_left (fun a (_, l) -> a + l) 0 results)
        /. float_of_int runs
      in
      Table.add_row table
        [
          string_of_int n;
          string_of_int runs;
          pct consensus runs;
          Table.cell_float mean_last;
          string_of_int ((2 * n) + 1);
        ])
    [ 6; 10; 16; 24 ];
  {
    id = "E8";
    title = "Section V — consensus whenever G^∩∞ has a single root component";
    table;
    notes =
      [
        "Runs are stable from round 1 with exactly one root component; the";
        "algorithm (which never mentions k) decides a single value in all of";
        "them.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E10 — exhaustive model checking of tiny systems.                    *)
(* ------------------------------------------------------------------ *)

let run_e10 scale =
  let table =
    Table.create
      [ "space"; "runs"; "Thm1 fail"; "paper (r>=n) fail"; "strict (r>n) fail";
        "repaired fail"; "non-term" ]
  in
  let row label (v : Exhaustive.verdict) =
    Table.add_row table
      [
        label;
        string_of_int v.Exhaustive.runs;
        string_of_int v.Exhaustive.theorem1_failures;
        string_of_int v.Exhaustive.agreement_failures;
        string_of_int v.Exhaustive.strict_agreement_failures;
        string_of_int v.Exhaustive.repaired_agreement_failures;
        string_of_int
          (v.Exhaustive.termination_failures
          + v.Exhaustive.repaired_termination_failures);
      ]
  in
  row "n=3, no prefix (all)" (Exhaustive.check_prefix_free ~n:3);
  if scale <> `Quick then begin
    row "n=3, every 1-round prefix" (Exhaustive.check_with_one_round_prefixes ~n:3);
    let graphs = Exhaustive.all_stable_graphs ~n:3 in
    let doubled = List.map (fun g -> [ g; Digraph.copy g ]) graphs in
    row "n=3, repeated 2-round prefixes" (Exhaustive.check ~n:3 ~prefixes:doubled);
    row "n=4, no prefix (all)" (Exhaustive.check_prefix_free ~n:4)
  end;
  if scale = `Full then begin
    (* n=4 with sampled 1-round prefixes: 64 random prefixes per check. *)
    let rng = rng_for "E10" 0 in
    let prefixes =
      List.init 64 (fun _ -> [ Gen.gnp rng 4 (Rng.float rng) ])
    in
    row "n=4, 64 sampled 1-round prefixes" (Exhaustive.check ~n:4 ~prefixes)
  end;
  {
    id = "E10";
    title = "Exhaustive model checking — every tiny run, three decision rules";
    table;
    notes =
      [
        "Every digraph with self-loops is a stable graph; a run is a prefix";
        "plus a stable graph.  For these spaces the sweep is exhaustive, so";
        "zeros are proofs over the space, not samples.  Findings: Theorem 1";
        "and validity/termination never fail; the paper's decision rule";
        "(r >= n reading) fails k-agreement in 20/4096 of the n=3 one-round-";
        "prefix runs (minimal counterexample: 3 processes, one transient";
        "edge); the strict r > n reading survives n=3 entirely but fails";
        "from n=4 with 2-round prefixes (random hunts: 39/40k at n=4);";
        "the confirm-n repair has no failure anywhere we looked.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E11 — predicates emerging from timing (the timing substrate).       *)
(* ------------------------------------------------------------------ *)

let run_e11 scale =
  let runs = runs_at scale ~quick:4 ~standard:20 ~full:100 in
  let n = 9 in
  let clusters = 3 in
  let assign = Array.init n (fun p -> p mod clusters) in
  let table =
    Table.create
      [ "timeout tau"; "runs"; "mean induced min_k"; "mean roots";
        "mean distinct decisions"; "late msgs/run" ]
  in
  List.iter
    (fun tau ->
      let results =
        List.init runs Fun.id |> Pool.run (fun i ->
            (* intra-cluster links ~ U[0.1, 0.5); cross ~ U[0.5, 3.0) *)
            let seed = (i * 7919) + int_of_float (tau *. 1000.0) in
            let latency =
              Ssg_timing.Latency.clustered ~assign
                ~intra:(Ssg_timing.Latency.uniform ~seed ~lo:0.1 ~hi:0.5)
                ~inter:
                  (Ssg_timing.Latency.uniform ~seed:(seed + 1) ~lo:0.5 ~hi:3.0)
            in
            let r =
              Ssg_timing.Round_sync.run_kset
                ~timeouts:(Array.make n tau)
                ~inputs:(Array.init n (fun p -> p))
                ~latency ~max_rounds:(3 * n) ()
            in
            let skel =
              Ssg_skeleton.Skeleton.final r.Ssg_timing.Round_sync.trace
            in
            let mink = Ssg_predicates.Predicate.min_k
                (Ssg_predicates.Predicate.of_skeleton skel)
            in
            let roots =
              Analysis.root_count (Analysis.analyze skel)
            in
            let distinct =
              Array.to_list r.Ssg_timing.Round_sync.decisions
              |> List.filter_map
                   (Option.map (fun d -> d.Ssg_timing.Round_sync.value))
              |> List.sort_uniq compare |> List.length
            in
            (mink, roots, distinct, r.Ssg_timing.Round_sync.messages_late))
      in
      let meanf f =
        float_of_int (List.fold_left (fun a x -> a + f x) 0 results)
        /. float_of_int runs
      in
      Table.add_row table
        [
          Table.cell_float tau;
          string_of_int runs;
          Table.cell_float (meanf (fun (m, _, _, _) -> m));
          Table.cell_float (meanf (fun (_, r, _, _) -> r));
          Table.cell_float (meanf (fun (_, _, d, _) -> d));
          Table.cell_float (meanf (fun (_, _, _, l) -> l));
        ])
    [ 0.3; 0.6; 1.0; 1.8; 3.2 ];
  {
    id = "E11";
    title =
      "Timing substrate — Psrcs(k) emerges from timeout vs latency";
    table;
    notes =
      [
        "9 processes in 3 clusters run Algorithm 1 on top of a discrete-";
        "event network: intra-cluster latency U[0.1,0.5), cross-cluster";
        "U[0.5,3.0); the round abstraction is rebuilt from per-process";
        "timers (Round_sync).  No predicate is assumed anywhere: the";
        "skeleton, min_k and the decision count are *emergent*.  Small";
        "timeouts isolate everyone (min_k -> n, one value per process);";
        "timeouts covering intra-cluster latency yield ~3 islands (k-set";
        "agreement, one value per cluster); timeouts above the worst cross-";
        "cluster latency yield consensus — the paper's framing of asynchrony";
        "as communication graphs, executed end to end.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E12 — per-round vs perpetual predicates are incomparable.           *)
(* ------------------------------------------------------------------ *)

let run_e12 scale =
  let runs = runs_at scale ~quick:5 ~standard:25 ~full:100 in
  let n = 8 in
  let table =
    Table.create
      [ "scenario"; "algorithm"; "runs"; "max distinct"; "all decided";
        "agreement ok" ]
  in
  let algorithms =
    [
      ("skeleton-kset", fun adv rounds -> Runner.run_kset ~rounds adv);
      ( "uniform-voting",
        fun adv rounds ->
          Runner.run_packed Ssg_baselines.Uniform_voting.packed ~rounds adv );
      ( "one-third-rule",
        fun adv rounds ->
          Runner.run_packed Ssg_baselines.One_third_rule.packed ~rounds adv );
      ( "floodmin(R=4)",
        fun adv rounds ->
          Runner.run_packed (Ssg_baselines.Floodmin.make ~rounds:4) ~rounds adv );
    ]
  in
  let scenarios =
    [
      (* per-round no-split holds forever; perpetual skeleton is empty
         (min_k = n): consensus achievable per round, nothing perpetual *)
      ( "rotating-kernel (no-split ∀r, min_k=n)",
        (fun i -> Build.rotating_kernel (rng_for "E12-a" i) ~n ~extra:0.3),
        1 (* the no-split family promises consensus *) );
      (* Psrcs(2) holds; no-split fails in every round *)
      ( "lower-bound k=2 (Psrcs(2), split ∀r)",
        (fun _ -> Build.lower_bound ~n ~k:2),
        2 );
      (* a fixed star: both predicate families hold (kernel every round,
         Psrcs(1)) — but the only shared process holds the largest value,
         so a fixed-horizon rule decides before minima can flood *)
      ( "fixed star, max-valued center (Psrcs(1))",
        (fun _ ->
          (* identity inputs: centering the star on process n-1 makes the
             only shared process carry the largest value *)
          Adversary.make ~name:"fixed-star" ~prefix:[||]
            ~stable:(Gen.star n ~center:(n - 1))),
        1 );
    ]
  in
  List.iter
    (fun (scenario, build, k_promise) ->
      List.iter
        (fun (alg_name, run_alg) ->
          let max_distinct = ref 0 and all_dec = ref 0 and ok = ref 0 in
          for i = 0 to runs - 1 do
            let adv = build i in
            let r = run_alg adv (4 * n) in
            let d = Metrics.distinct_decisions r.Runner.outcome in
            max_distinct := max !max_distinct d;
            if Metrics.termination r.Runner.outcome then incr all_dec;
            if d <= k_promise then incr ok
          done;
          Table.add_row table
            [
              scenario;
              alg_name;
              string_of_int runs;
              string_of_int !max_distinct;
              pct !all_dec runs;
              pct !ok runs;
            ])
        algorithms;
      Table.add_rule table)
    scenarios;
  {
    id = "E12";
    title =
      "Per-round HO predicates vs the paper's perpetual predicates —        incomparable";
    table;
    notes =
      [
        "Three runs probe the two predicate families.  Rotating kernel:";
        "no-split holds every round while the perpetual skeleton is empty";
        "(min_k = n) — the families' *values* diverge maximally, though";
        "outcomes happen to coincide here because the moving kernel floods";
        "the minimum before anyone decides.  Lower-bound run: Psrcs(2)";
        "holds, every round is split; Algorithm 1 and UV both produce 2";
        "values, OTR stalls forever (safe but not live: its two-thirds";
        "test never passes).  Fixed star with a max-valued center: both";
        "predicates hold, and the outcome-level separation appears —";
        "FloodMin's fixed horizon decides before minima can flood (many";
        "values, consensus broken), while UV and Algorithm 1, whose";
        "decisions are gated by their predicates' mechanisms rather than a";
        "round count, reach consensus on the center's value.  Neither";
        "predicate family subsumes the other; they measure different";
        "synchrony.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* A1 — ablations of Algorithm 1's mechanisms.                         *)
(* ------------------------------------------------------------------ *)

let run_a1 scale =
  let runs = runs_at scale ~quick:5 ~standard:40 ~full:200 in
  let table =
    Table.create
      [ "variant"; "runs"; "termination"; "agreement@min_k"; "monitor violations"; "mean last dec" ]
  in
  let variants =
    [
      ("paper", Kset_agreement.make_alg ());
      ("no purge (L24 off)", Kset_agreement.make_alg ~enable_purge:false ());
      ("no prune (L25 off)", Kset_agreement.make_alg ~enable_prune:false ());
      ("estimate from all (L27)", Kset_agreement.make_alg ~estimate_from_all:true ());
      ("decide early (no r>=n)", Kset_agreement.make_alg ~decide_early:true ());
      ("confirm n rounds (repair)", Kset_agreement.make_alg ~confirm_rounds:12 ());
    ]
  in
  List.iter
    (fun (label, variant) ->
      let term = ref 0 and agree = ref 0 and viol = ref 0 and lasts = ref 0 in
      for i = 0 to runs - 1 do
        let rng = rng_for ("A1-" ^ label) i in
        let n = 8 + Rng.int rng 5 in
        let adv =
          match Rng.int rng 3 with
          | 0 -> Build.block_sources rng ~n ~k:3 ~prefix_len:3 ~noise:0.4 ()
          | 1 -> Build.partitioned rng ~n ~blocks:2 ~prefix_len:3 ~noise:0.4 ()
          | _ ->
              Build.with_recurrent_noise rng
                (Build.partitioned rng ~n ~blocks:2 ())
                ~noise:0.3
        in
        (* Generous fixed horizon: the repaired rule needs ~n more rounds
           than the paper's, and ablated variants may be slower still. *)
        let rounds = Adversary.prefix_length adv + (4 * n) + 4 in
        let r = Runner.run_kset ~variant ~monitor:true ~rounds adv in
        if Metrics.termination r.Runner.outcome then incr term;
        if Metrics.k_agreement ~k:r.Runner.min_k r.Runner.outcome then incr agree;
        if r.Runner.violations <> [] then incr viol;
        lasts :=
          !lasts
          + Option.value ~default:rounds
              (Metrics.last_decision_round r.Runner.outcome)
      done;
      Table.add_row table
        [
          label;
          string_of_int runs;
          pct !term runs;
          pct !agree runs;
          pct !viol runs;
          Table.cell_float (float_of_int !lasts /. float_of_int runs);
        ])
    variants;
  {
    id = "A1";
    title = "Ablations — which mechanisms of Algorithm 1 are load-bearing";
    table;
    notes =
      [
        "Purge (Line 24) off: stale labels violate Observation 1/Lemma 7 —";
        "the monitors fire in essentially every noisy run.  Prune (Line 25)";
        "off: transient foreign nodes keep G_p from ever becoming strongly";
        "connected — termination is lost.  The Line 27 PT-restriction and";
        "the r >= n guard are required by the paper's proof, but neither";
        "ablation produced a k-agreement violation in this run class (the";
        "decide-early variant does, however, break the one-value-per-root";
        "correspondence more often, and both change which values win).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E9 — the Theorem 16 gap and the repaired decision rule.             *)
(* ------------------------------------------------------------------ *)

let run_e9 scale =
  let runs = runs_at scale ~quick:60 ~standard:500 ~full:2000 in
  let table =
    Table.create
      [ "n"; "runs"; "paper rule: runs > min_k"; "repaired rule: runs > min_k";
        "repaired non-termination"; "mean latency paper"; "mean latency repaired" ]
  in
  List.iter
    (fun n ->
      let results =
        List.init runs Fun.id |> Pool.run (fun i ->
            let rng = rng_for (Printf.sprintf "E9-%d" n) i in
            let adv = zoo rng n in
            let mk = Adversary.min_k adv in
            let paper = Runner.run_kset adv in
            let repaired_alg = Kset_agreement.make_alg ~confirm_rounds:n () in
            let rounds = Adversary.prefix_length adv + (3 * n) + 4 in
            let repaired = Runner.run_kset ~variant:repaired_alg ~rounds adv in
            let viol r = Metrics.distinct_decisions r.Runner.outcome > mk in
            let last r =
              Option.value ~default:rounds
                (Metrics.last_decision_round r.Runner.outcome)
            in
            ( viol paper,
              viol repaired,
              not (Metrics.termination repaired.Runner.outcome),
              last paper,
              last repaired ))
      in
      let count f = List.fold_left (fun a x -> if f x then a + 1 else a) 0 results in
      let mean f =
        float_of_int (List.fold_left (fun a x -> a + f x) 0 results)
        /. float_of_int runs
      in
      Table.add_row table
        [
          string_of_int n;
          string_of_int runs;
          string_of_int (count (fun (v, _, _, _, _) -> v));
          string_of_int (count (fun (_, v, _, _, _) -> v));
          string_of_int (count (fun (_, _, nt, _, _) -> nt));
          Table.cell_float (mean (fun (_, _, _, l, _) -> l));
          Table.cell_float (mean (fun (_, _, _, _, l) -> l));
        ])
    [ 6; 8; 10 ];
  {
    id = "E9";
    title =
      "Reproduction finding — the Theorem 16 gap, and the n-round repair";
    table;
    notes =
      [
        "With noisy prefixes, purged-but-not-yet-expired labels can certify";
        "a strongly connected G_p whose edges are no longer timely, and the";
        "certifying process decides early (Line 28 passes at some r >= n";
        "with r - n + 1 < r_ST).  Lemma 15's proof applies Lemma 14 to";
        "C^(ri-n+1) although the lemma only equalizes estimates within C^n —";
        "exactly the step these runs break: decisions can exceed min_k.";
        "Repair: decide only after the strong-connectivity test has held for";
        "n consecutive rounds.  A certificate that survives a full purge";
        "window must contain a fresh (still timely) edge per node, so it";
        "reflects a true component.  Across every run we generated the";
        "repaired rule restored k-agreement at min_k, at a latency cost of";
        "about +n rounds and with termination preserved.  (The violations";
        "are rare — O(0.1%) of zoo runs — but deterministic: the test suite";
        "exhibits one by directed search and pins the repair on it.)";
      ];
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "F1"; title = "Figure 1 reproduction"; paper_artifact = "Figure 1 (a)-(h)"; run = run_f1 };
    { id = "F2"; title = "Convergence dynamics"; paper_artifact = "Figure 1 mechanism, at scale (supplementary)"; run = run_f2 };
    { id = "E1"; title = "Root components bound"; paper_artifact = "Theorem 1"; run = run_e1 };
    { id = "E2"; title = "Tightness of Psrcs(k)"; paper_artifact = "Theorem 2"; run = run_e2 };
    { id = "E3"; title = "k-set agreement correctness"; paper_artifact = "Theorem 16"; run = run_e3 };
    { id = "E4"; title = "Termination latency"; paper_artifact = "Lemma 11"; run = run_e4 };
    { id = "E5"; title = "Message bit complexity"; paper_artifact = "Section V"; run = run_e5 };
    { id = "E6"; title = "Baseline comparison"; paper_artifact = "Context (ref. [5])"; run = run_e6 };
    { id = "E7"; title = "Eventual predicate too weak"; paper_artifact = "Section III"; run = run_e7 };
    { id = "E8"; title = "Consensus in well-behaved runs"; paper_artifact = "Section V"; run = run_e8 };
    { id = "E9"; title = "Theorem 16 gap and repair"; paper_artifact = "Lemma 15 / Theorem 16"; run = run_e9 };
    { id = "E10"; title = "Exhaustive tiny-system check"; paper_artifact = "Theorems 1, 2, 16"; run = run_e10 };
    { id = "E11"; title = "Predicates from timing"; paper_artifact = "Section I (motivation)"; run = run_e11 };
    { id = "E12"; title = "Per-round vs perpetual predicates"; paper_artifact = "Section V (duality discussion)"; run = run_e12 };
    { id = "A1"; title = "Mechanism ablations"; paper_artifact = "Design choices"; run = run_a1 };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> String.uppercase_ascii e.id = id) all

let csv (r : result) = Table.to_csv r.table

let run_to_csv exp scale = csv (exp.run scale)

let render exp (r : result) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "== %s: %s ==\n" r.id r.title);
  Buffer.add_string buf (Printf.sprintf "   (reproduces: %s)\n\n" exp.paper_artifact);
  Buffer.add_string buf (Table.render r.table);
  if r.notes <> [] then begin
    Buffer.add_char buf '\n';
    List.iter (fun n -> Buffer.add_string buf ("  " ^ n ^ "\n")) r.notes
  end;
  Buffer.contents buf

let run_and_render exp scale = render exp (exp.run scale)
