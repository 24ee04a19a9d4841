open Ssg_rounds
open Ssg_adversary
open Ssg_sim

type algorithm = Kset | Floodmin | Flood_consensus | Naive_min

type t = {
  run : string;
  algorithm : algorithm;
  k : int;
  inputs : int array option;
  rounds : int option;
  monitor : bool;
}

let algorithm_name = function
  | Kset -> "kset-agreement"
  | Floodmin -> "floodmin"
  | Flood_consensus -> "flood-consensus"
  | Naive_min -> "naive-min"

let is_default_inputs n inputs =
  Array.length inputs = n && Array.for_all2 ( = ) inputs (Array.init n Fun.id)

let check_params ~k ~rounds =
  if k < 1 then invalid_arg "Job: k must be >= 1";
  match rounds with
  | Some r when r < 0 -> invalid_arg "Job: rounds must be >= 0"
  | _ -> ()

(* [adv] is the already-parsed form of [run] (canonical text). *)
let build ~run ~adv ?(algorithm = Kset) ?(k = 1) ?inputs ?rounds
    ?(monitor = false) () =
  check_params ~k ~rounds;
  let inputs =
    match inputs with
    | Some xs when is_default_inputs (Adversary.n adv) xs -> None
    | other -> other
  in
  let monitor = monitor && algorithm = Kset in
  { run; algorithm; k; inputs; rounds; monitor }

let make ?algorithm ?k ?inputs ?rounds ?monitor adv =
  (* to_string raises Invalid_argument on recurrent runs; round-tripping
     through of_string yields the canonical text (sorted edges, no
     comments) and keeps [run] independent of the adversary's name. *)
  let run = Run_format.to_string (Run_format.of_string (Run_format.to_string adv)) in
  build ~run ~adv ?algorithm ?k ?inputs ?rounds ?monitor ()

let of_run_text ?algorithm ?k ?inputs ?rounds ?monitor text =
  let adv = Run_format.of_string text in
  let run = Run_format.to_string adv in
  build ~run ~adv ?algorithm ?k ?inputs ?rounds ?monitor ()

let as_sent ~algorithm ~k ?inputs ?rounds ~monitor run =
  check_params ~k ~rounds;
  { run; algorithm; k; inputs; rounds; monitor }

let normalize job =
  of_run_text ~algorithm:job.algorithm ~k:job.k ?inputs:job.inputs
    ?rounds:job.rounds ~monitor:job.monitor job.run

let key job =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (algorithm_name job.algorithm);
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (string_of_int job.k);
  Buffer.add_char buf '\x00';
  (match job.inputs with
  | None -> Buffer.add_string buf "default"
  | Some xs ->
      Array.iter
        (fun x ->
          Buffer.add_string buf (string_of_int x);
          Buffer.add_char buf ',')
        xs);
  Buffer.add_char buf '\x00';
  (match job.rounds with
  | None -> Buffer.add_string buf "horizon"
  | Some r -> Buffer.add_string buf (string_of_int r));
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (if job.monitor then "mon" else "nomon");
  Buffer.add_char buf '\x00';
  Buffer.add_string buf job.run;
  Buffer.contents buf

let equal a b = key a = key b

type outcome = {
  algorithm : string;
  n : int;
  min_k : int;
  rounds_run : int;
  decisions : (int * int) option array;
  distinct_decisions : int;
  messages_sent : int;
  messages_delivered : int;
  bits_sent : int;
  violations : string list;
}

let outcome_of_report (r : Runner.report) =
  let o = r.Runner.outcome in
  {
    algorithm = r.Runner.algorithm;
    n = r.Runner.n;
    min_k = r.Runner.min_k;
    rounds_run = o.Executor.rounds_run;
    decisions =
      Array.map
        (Option.map (fun d -> (d.Executor.round, d.Executor.value)))
        o.Executor.decisions;
    distinct_decisions = Metrics.distinct_decisions o;
    messages_sent = o.Executor.messages_sent;
    messages_delivered = o.Executor.messages_delivered;
    bits_sent = o.Executor.bits_sent;
    violations = r.Runner.violations;
  }

let execute job =
  let adv = Run_format.of_string job.run in
  let n = Adversary.n adv in
  (match job.inputs with
  | Some xs when Array.length xs <> n ->
      invalid_arg
        (Printf.sprintf "Job.execute: %d inputs for a %d-process run"
           (Array.length xs) n)
  | _ -> ());
  let inputs = job.inputs in
  let rounds = job.rounds in
  let report =
    match job.algorithm with
    | Kset -> Runner.run_kset ?inputs ?rounds ~monitor:job.monitor adv
    | Floodmin ->
        let budget =
          Ssg_baselines.Floodmin.rounds_for ~f:(n / 2) ~k:job.k
        in
        Runner.run_packed
          (Ssg_baselines.Floodmin.make ~rounds:budget)
          ?inputs ?rounds adv
    | Flood_consensus ->
        Runner.run_packed
          (Ssg_baselines.Flood_consensus.make ~f:(n / 2))
          ?inputs ?rounds adv
    | Naive_min ->
        Runner.run_packed
          (Ssg_baselines.Naive_min.make ~horizon:n)
          ?inputs ?rounds adv
  in
  outcome_of_report report

type completion = {
  result : (outcome, string) Stdlib.result;
  cached : bool;
  latency_ms : float;
}

let pp_completion fmt c =
  match c.result with
  | Error msg ->
      Format.fprintf fmt "ERROR: %s  (%.2f ms)@." msg c.latency_ms
  | Ok o ->
      Format.fprintf fmt "algorithm   : %s@." o.algorithm;
      Format.fprintf fmt "n           : %d@." o.n;
      Format.fprintf fmt "min_k       : %d@." o.min_k;
      Format.fprintf fmt "rounds run  : %d@." o.rounds_run;
      Format.fprintf fmt "decisions   : %d distinct@." o.distinct_decisions;
      Array.iteri
        (fun p d ->
          match d with
          | Some (round, value) ->
              Format.fprintf fmt "  p%-3d      : decides %d at round %d@."
                (p + 1) value round
          | None -> Format.fprintf fmt "  p%-3d      : UNDECIDED@." (p + 1))
        o.decisions;
      Format.fprintf fmt "messages    : %d sent, %d delivered, %d bits@."
        o.messages_sent o.messages_delivered o.bits_sent;
      (match o.violations with
      | [] -> ()
      | vs ->
          Format.fprintf fmt "MONITOR VIOLATIONS (%d):@." (List.length vs);
          List.iter (fun s -> Format.fprintf fmt "  %s@." s) vs);
      Format.fprintf fmt "served      : %s, %.2f ms@."
        (if c.cached then "cache" else "computed")
        c.latency_ms
