open Ssg_graph

let log_src = Logs.Src.create "ssg.executor" ~doc:"Round-by-round execution"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Tracer = Ssg_obs.Tracer

type decision = { round : int; value : int }

type outcome = {
  n : int;
  rounds_run : int;
  decisions : decision option array;
  messages_sent : int;
  messages_delivered : int;
  bits_sent : int;
  max_message_bits : int;
}

let all_decided o = Array.for_all Option.is_some o.decisions

let decision_values o =
  Array.to_list o.decisions
  |> List.filter_map (Option.map (fun d -> d.value))
  |> List.sort_uniq Stdlib.compare

let last_decision_round o =
  Array.fold_left
    (fun acc d ->
      match (acc, d) with
      | None, Some d -> Some d.round
      | Some r, Some d -> Some (max r d.round)
      | acc, None -> acc)
    None o.decisions

module Make (A : Round_model.ALGORITHM) = struct
  type config = {
    inputs : int array;
    graphs : int -> Digraph.t;
    max_rounds : int;
    stop_when_all_decided : bool;
    on_round : (round:int -> graph:Digraph.t -> A.state array -> unit) option;
  }

  let config ?(stop_when_all_decided = true) ?on_round ~inputs ~graphs
      ~max_rounds () =
    { inputs; graphs; max_rounds; stop_when_all_decided; on_round }

  let run cfg =
    let n = Array.length cfg.inputs in
    if n = 0 then invalid_arg "Executor.run: empty system";
    if cfg.max_rounds < 0 then invalid_arg "Executor.run: negative max_rounds";
    let states =
      Array.init n (fun p -> A.init ~n ~self:p ~input:cfg.inputs.(p))
    in
    let decisions = Array.make n None in
    let messages_sent = ref 0 in
    let messages_delivered = ref 0 in
    let bits_sent = ref 0 in
    let max_bits = ref 0 in
    let record_decisions round =
      Array.iteri
        (fun p s ->
          match (decisions.(p), A.decision s) with
          | None, Some value ->
              decisions.(p) <- Some { round; value };
              if Tracer.enabled () then
                Tracer.instant
                  ~args:
                    [
                      ("algorithm", Tracer.Str A.name);
                      ("process", Tracer.Int p);
                      ("value", Tracer.Int value);
                      ("round", Tracer.Int round);
                    ]
                  "decide"
          | Some d, Some value when d.value <> value ->
              failwith
                (Printf.sprintf
                   "Executor: process %d changed its decision (%d -> %d)" p
                   d.value value)
          | Some _, None ->
              failwith
                (Printf.sprintf "Executor: process %d revoked its decision" p)
          | _ -> ())
        states
    in
    record_decisions 0;
    let round = ref 0 in
    let running = ref true in
    while !running && !round < cfg.max_rounds do
      incr round;
      let r = !round in
      let graph = cfg.graphs r in
      if Digraph.order graph <> n then
        invalid_arg
          (Printf.sprintf
             "Executor: round %d graph has order %d, expected %d" r
             (Digraph.order graph) n);
      (* The span opens only after the round graph validated: every
         exception past this point aborts the whole run, so a track can
         never be left with a dangling [B]. *)
      if Tracer.enabled () then
        Tracer.span_begin
          ~args:[ ("algorithm", Tracer.Str A.name); ("round", Tracer.Int r) ]
          "round";
      let sent = Array.map (fun s -> A.send ~round:r s) states in
      Array.iter
        (fun m ->
          messages_sent := !messages_sent + n;
          let bits = A.message_bits ~n ~round:r m in
          bits_sent := !bits_sent + (bits * n);
          if bits > !max_bits then max_bits := bits)
        sent;
      (* A delivered message is exactly an edge of the round graph. *)
      messages_delivered := !messages_delivered + Digraph.edge_count graph;
      (* One [Some] per sender, shared by every inbox it lands in. *)
      let payloads = Array.map Option.some sent in
      let transition_one q =
        let inbox = Array.make n None in
        Digraph.iter_preds graph q (fun p -> inbox.(p) <- payloads.(p));
        A.transition ~round:r states.(q) inbox
      in
      Array.blit (Array.init n transition_one) 0 states 0 n;
      record_decisions r;
      Log.debug (fun m ->
          let decided =
            Array.fold_left
              (fun acc d -> if d <> None then acc + 1 else acc)
              0 decisions
          in
          m "%s: round %d: %d/%d edges delivered, %d/%d decided" A.name r
            (Digraph.edge_count graph) (n * n) decided n);
      (match cfg.on_round with
      | Some f -> f ~round:r ~graph states
      | None -> ());
      if Tracer.enabled () then
        Tracer.span_end
          ~args:
            [
              ("delivered", Tracer.Int (Digraph.edge_count graph));
              ( "decided",
                Tracer.Int
                  (Array.fold_left
                     (fun acc d -> if d <> None then acc + 1 else acc)
                     0 decisions) );
            ]
          "round";
      if cfg.stop_when_all_decided && Array.for_all Option.is_some decisions
      then running := false
    done;
    ( {
        n;
        rounds_run = !round;
        decisions;
        messages_sent = !messages_sent;
        messages_delivered = !messages_delivered;
        bits_sent = !bits_sent;
        max_message_bits = !max_bits;
      },
      states )
end

let run_packed ?(stop_when_all_decided = true)
    (Round_model.Packed (module A)) ~inputs ~graphs ~max_rounds =
  let module E = Make (A) in
  let cfg = E.config ~stop_when_all_decided ~inputs ~graphs ~max_rounds () in
  fst (E.run cfg)
