(** Backend membership and health for the cluster router.

    One [t] per router: the static backend list, a per-backend health
    state, and the {!Ring.t} rebuilt (deterministically) from the
    currently-up subset whenever that subset changes.

    Health moves on two inputs sharing one accounting:
    - {e active probes} — {!start} spawns a prober thread that, every
      [probe_interval_s], calls the router's probe for each member and
      never waits: a probe unanswered 1 s after it was sent fails, and
      a later answer to it is dropped;
    - {e passive reports} — the router calls {!mark_failure} /
      {!mark_success} with what it observed while forwarding, so a dead
      backend stops receiving traffic after [down_after] consecutive
      failures even between probe ticks.

    A backend is {e up} until [down_after] consecutive failures mark it
    down; any success (probe or forward) re-admits it immediately and
    resets the count — mark-down needs consecutive evidence, healing
    needs one healthy exchange. *)

type health =
  | Up
  | Probation of int  (** consecutive failures so far, still routed *)
  | Down of int  (** consecutive failures, out of the ring *)

type t

(** [create backends] — [backends] are socket addresses, deduplicated;
    all start [Up].  An {e empty} list is legal since elastic
    membership: the router starts memberless and admits workers as
    their [Join] announcements arrive ({!add_member}).
    [on_transition addr up] (default: nothing) fires under no lock
    whenever a backend crosses the up/down edge — the router hangs its
    mark-down/re-admission counters and log lines on it.
    @raise Invalid_argument on [vnodes < 1], [down_after < 1], or
    [probe_interval_s <= 0]. *)
val create :
  ?vnodes:int ->
  ?down_after:int ->
  ?probe_interval_s:float ->
  ?on_transition:(string -> bool -> unit) ->
  string list ->
  t

(** All configured backends, sorted (the ring's member universe). *)
val backends : t -> string list

val health : t -> (string * health) list
val up : t -> string list
val is_up : t -> string -> bool

(** The current ring over the up subset.  Rings are immutable, so the
    returned value stays consistent while the registry moves on. *)
val ring : t -> Ring.t

(** [candidates t key] — the failover order for [key] over the up
    subset ({!Ring.successors} of the current ring); when every backend
    is down, the full backend list (better to try a possibly-healed
    backend than to fail without trying). *)
val candidates : t -> string -> string list

(** Monotone count of ring rebuilds (up-set changes) — cheap staleness
    check for callers caching routing decisions. *)
val generation : t -> int

val mark_failure : t -> string -> unit
val mark_success : t -> string -> unit

(** Elastic membership.  Both return whether the up-set changed (the
    ring was rebuilt and the generation bumped) — the router's cue to
    run a warm handoff. *)

(** [add_member t addr] admits a new member as [Up] (keeping every
    existing member's health), or re-admits a known-down one; [false]
    when [addr] was already an up member. *)
val add_member : t -> string -> bool

(** [remove_member t addr] retires a member entirely — out of the ring
    {e and} out of the probe rotation (unlike mark-down, which keeps
    probing for recovery).  [false] if unknown; also [false] when the
    member was already down (the up-set did not change). *)
val remove_member : t -> string -> bool

(** [start t ~probe] spawns the periodic prober (idempotent).
    [probe addr answer] sends without waiting and calls [answer
    healthy] at most once, on any thread (also from within [probe]);
    it must not raise.  [stop t] stops and joins the prober
    (idempotent); an answer still due then records nothing. *)
val start : t -> probe:(string -> (bool -> unit) -> unit) -> unit

val stop : t -> unit
