(** A plain-text file format for run descriptions.

    Lets counterexamples, regression runs and hand-crafted scenarios be
    saved, diffed, mailed around and re-loaded — the unit of exchange for
    this library's experiments (the CLI's [--save]/[--load] and the
    [ssg shrink] workflow).

    Format (line oriented; [#] starts a comment; blank lines ignored):

    {v
    ssg-run v1
    n 3
    # one line per prefix round, then the stable graph
    round 1: 1>0 0>2 1>2 2>1
    stable: 1>0 0>2 1>2
    v}

    Edges are [src>dst] with 0-based process ids; self-loops are implied
    (every graph gets all of them — the model invariant) and not written.
    Runs with a recurrent-noise component cannot be serialized (they
    contain a function); [to_string] raises [Invalid_argument] on them.

    {b Canonical text.}  What [to_string] emits is a contract, byte for
    byte: the header line [ssg-run v1], the line [# name], the line
    [n N], one line [round R: edges] for each prefix round R = 1, 2, ...,
    and the line [stable: edges].  Each line ends in ['\n'].  An edge
    list is the graph's edges without self-loops, ascending by source
    then by target, written as decimal [src>dst] tokens with one space
    between tokens; an edgeless graph leaves the line as [round R: ] or
    [stable: ], with the trailing space.  [Job]'s canonical run text, and
    through it [Job.key], every cache entry and every store journal,
    depends on these bytes: a change to them turns every journaled
    outcome into a miss.

    {b Allocation budget.}  Every graph a text declares is allocated as
    its line is read.  The parser counts the words those graphs occupy
    (2n bitset rows of ⌈n/63⌉ words each, plus their headers) and
    refuses a text whose total would pass a fixed budget of 2{^22} words
    (32 MiB with 64-bit words), so a few bytes of text cannot exhaust
    memory.  The budget admits one graph up to n ≈ 11,000 and any run
    whose graphs all fit; at n = 1024 that is 90-odd graphs.  The [n]
    line is refused when one graph of that order does not fit ("line L:
    n = N is too large: ..."), a round or stable line when its graph
    would take the total past the budget ("line L: run too large:
    ..."). *)

(** [to_string adv] serializes to the canonical text.
    @raise Invalid_argument for recurrent runs. *)
val to_string : Adversary.t -> string

(** [of_string text] parses.  @raise Failure with a line-numbered message
    on malformed input — including a duplicate [n] declaration
    ("duplicate n declaration"), prefix rounds appearing after the
    stable graph ("round after stable graph") and a text over the
    allocation budget. *)
val of_string : string -> Adversary.t

(** Line anchors recorded while parsing, consumed by the lint layer to
    attach diagnostics to source positions.  [redundant_edges] lists
    textually redundant edge tokens — explicit self-loops (the model
    implies them) and duplicates within one graph line — as
    [(line, token)] pairs in source order.  Redundant tokens do not
    change the parsed graphs. *)
type spans = {
  n_line : int;
  round_lines : int array;  (** index r-1 holds the line of [round r] *)
  stable_line : int;
  redundant_edges : (int * string) list;
}

(** [parse text] is [of_string] plus the recorded {!spans}. *)
val parse : string -> Adversary.t * spans

(** [save adv path] / [load path] — file variants. *)
val save : Adversary.t -> string -> unit

val load : string -> Adversary.t
