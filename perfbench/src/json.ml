(* The gateway's JSON outcome, both ways, over {!Ssg_obs.Export}'s JSON
   value; and the number format of the benchmark's result line. *)

open Ssg_engine
module E = Ssg_obs.Export

let member k = function
  | E.Obj fields -> (
      match List.assoc_opt k fields with Some v -> v | None -> raise Not_found)
  | _ -> raise Not_found

let to_int = function E.Int i -> i | _ -> raise Not_found
let to_string = function E.Str s -> s | _ -> raise Not_found
let to_list = function E.Arr l -> l | _ -> raise Not_found

(* The outcome object of a [POST /submit] 200 reply.
   @raise Not_found on any other shape. *)
let outcome_of_json j : Job.outcome =
  let int k = to_int (member k j) in
  {
    algorithm = to_string (member "algorithm" j);
    n = int "n";
    min_k = int "min_k";
    rounds_run = int "rounds_run";
    decisions =
      Array.of_list
        (List.map
           (function
             | E.Null -> None
             | E.Arr [ r; v ] -> Some (to_int r, to_int v)
             | _ -> raise Not_found)
           (to_list (member "decisions" j)));
    distinct_decisions = int "distinct_decisions";
    messages_sent = int "messages_sent";
    messages_delivered = int "messages_delivered";
    bits_sent = int "bits_sent";
    violations = List.map to_string (to_list (member "violations" j));
  }

(* A 200 reply shaped like the gateway's, so the traced walk writes a
   response of the same size. *)
let render_completion ~cached ~latency_ms (o : Job.outcome) =
  let decision = function
    | None -> E.Null
    | Some (r, v) -> E.Arr [ E.Int r; E.Int v ]
  in
  E.json_to_string
    (E.Obj
       [
         ("cached", E.Bool cached);
         ("latency_ms", E.Float latency_ms);
         ( "outcome",
           E.Obj
             [
               ("algorithm", E.Str o.algorithm);
               ("n", E.Int o.n);
               ("min_k", E.Int o.min_k);
               ("rounds_run", E.Int o.rounds_run);
               ("decisions", E.Arr (Array.to_list (Array.map decision o.decisions)));
               ("distinct_decisions", E.Int o.distinct_decisions);
               ("messages_sent", E.Int o.messages_sent);
               ("messages_delivered", E.Int o.messages_delivered);
               ("bits_sent", E.Int o.bits_sent);
               ("violations", E.Arr (List.map (fun v -> E.Str v) o.violations));
             ] );
       ])

(* A float as JSON with all its digits; JSON has no infinity, so a
   percentile that reached a failed request prints as 1e9. *)
let number f =
  if Float.is_nan f then invalid_arg "Json.number: nan"
  else if f = infinity then "1e9"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f
