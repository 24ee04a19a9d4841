open Ssg_graph
open Ssg_rounds

type via = [ `Certificate | `Adopted ]

type state = {
  order : int;
  id : int;
  approx : Approx.t;
  estimate_from_all : bool;
  confirm_rounds : int;
  mutable sc_streak : int;
      (* consecutive rounds (ending now) in which the decision test held *)
  mutable x : int;
  mutable dec : int option;
  mutable via : via option;
  mutable dec_round : int option;
}

type msg = { decide : bool; x : int; graph : Lgraph.frozen }

let self_of s = s.id
let estimate (s : state) = s.x
let decided s = s.dec
let decided_via s = s.via
let decision_round s = s.dec_round
let pt_of s = Approx.pt s.approx
let approx_of s = Approx.graph s.approx
let pt_cardinal s = Ssg_util.Bitset.cardinal (Approx.pt s.approx)
let approx_edge_count s = Lgraph.edge_count (Approx.graph_view s.approx)

let value_bits = 32

module type CONFIG = sig
  val enable_purge : bool
  val enable_prune : bool
  val estimate_from_all : bool
  val decide_early : bool
  val strict_guard : bool
  val confirm_rounds : int
  val name : string
end

module Of_config (C : CONFIG) :
  Round_model.ALGORITHM with type state = state and type message = msg =
struct
  type nonrec state = state
  type message = msg

  let name = C.name

  let init ~n ~self ~input =
    {
      order = n;
      id = self;
      approx =
        Approx.create ~enable_purge:C.enable_purge
          ~enable_prune:C.enable_prune ~n ~self ();
      estimate_from_all = C.estimate_from_all;
      confirm_rounds = C.confirm_rounds;
      sc_streak = 0;
      x = input;
      dec = None;
      via = None;
      dec_round = None;
    }

  (* Lines 5–8: broadcast (decide|prop, x_p, G_p). *)
  let send ~round:_ s =
    { decide = s.dec <> None; x = s.x; graph = Approx.message s.approx }

  let transition ~round s inbox =
    (* Lines 9, 14–25: PT update and skeleton approximation. *)
    Approx.step s.approx ~round ~received:(fun q ->
        Option.map (fun m -> m.graph) inbox.(q));
    (match s.dec with
    | Some _ -> ()
    | None -> (
        (* Lines 10–13: adopt a decision received from a timely sender
           (deterministically the smallest such value). *)
        let adopted = ref None in
        Array.iteri
          (fun q m ->
            match m with
            | Some m when m.decide && Approx.pt_mem s.approx q -> (
                match !adopted with
                | None -> adopted := Some m.x
                | Some x -> if m.x < x then adopted := Some m.x)
            | _ -> ())
          inbox;
        match !adopted with
        | Some x ->
            s.x <- x;
            s.dec <- Some x;
            s.via <- Some `Adopted;
            s.dec_round <- Some round
        | None ->
            (* Line 27: x_p <- min of the values sent by timely senders
               (the ablated variant drops the timeliness filter). *)
            let mn = ref s.x in
            Array.iteri
              (fun q m ->
                match m with
                | Some m
                  when s.estimate_from_all || Approx.pt_mem s.approx q ->
                    if m.x < !mn then mn := m.x
                | _ -> ())
              inbox;
            s.x <- !mn;
            (* Lines 28–30: decide when the approximation is strongly
               connected from round n on.  [confirm_rounds] > 1 is the
               repaired rule (see Monitor/EXPERIMENTS): the certificate
               must persist, so it cannot consist of stale labels only. *)
            let guard =
              if C.decide_early then true
              else if C.strict_guard then round > s.order
              else round >= s.order
            in
            if guard && Approx.is_strongly_connected s.approx then begin
              s.sc_streak <- s.sc_streak + 1;
              if s.sc_streak >= C.confirm_rounds then begin
                s.dec <- Some s.x;
                s.via <- Some `Certificate;
                s.dec_round <- Some round
              end
            end
            else s.sc_streak <- 0));
    s

  let decision s = s.dec

  (* Actual wire size: tag bit + value + the graph at its exact codec
     length (Ssg_graph.Codec realizes this encoding bit-for-bit), with
     labels wide enough for any round number up to [round]. *)
  let message_bits ~n:_ ~round m =
    1 + value_bits
    + Codec.frozen_bit_length m.graph
        ~label_bits:(Ssg_util.Bitio.width_for (round + 1))
end

module Alg = Of_config (struct
  let enable_purge = true
  let enable_prune = true
  let estimate_from_all = false
  let decide_early = false
  let strict_guard = false
  let confirm_rounds = 1
  let name = "skeleton-kset"
end)

let packed = Round_model.Packed (module Alg)

let make_alg ?(enable_purge = true) ?(enable_prune = true)
    ?(estimate_from_all = false) ?(decide_early = false)
    ?(strict_guard = false) ?(confirm_rounds = 1) ?name () =
  if confirm_rounds < 1 then
    invalid_arg "Kset_agreement.make_alg: confirm_rounds must be >= 1";
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf
          "skeleton-kset(purge=%b,prune=%b,est_all=%b,early=%b,strict=%b,confirm=%d)"
          enable_purge enable_prune estimate_from_all decide_early strict_guard
          confirm_rounds
  in
  let module C = struct
    let enable_purge = enable_purge
    let enable_prune = enable_prune
    let estimate_from_all = estimate_from_all
    let decide_early = decide_early
    let strict_guard = strict_guard
    let confirm_rounds = confirm_rounds
    let name = name
  end in
  (module Of_config (C) : Round_model.ALGORITHM with type state = state)

let make ?enable_purge ?enable_prune ?estimate_from_all ?decide_early
    ?strict_guard ?confirm_rounds ?name () =
  let (module A) =
    make_alg ?enable_purge ?enable_prune ?estimate_from_all ?decide_early
      ?strict_guard ?confirm_rounds ?name ()
  in
  Round_model.Packed (module A)
