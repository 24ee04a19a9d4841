(** Wire encoding of round-labelled graphs — Algorithm 1's message payload
    at its actual bit width.

    Section V claims the algorithm's "worst-case message bit complexity
    [is] polynomial in n"; {!Lgraph.encoded_bits} computes the payload
    size arithmetically, and this codec realizes it: the encoded length
    equals [header_bits + Lgraph.encoded_bits g ~label_bits] exactly, and
    decoding round-trips.

    Format (all fields MSB-first, widths in bits):
    - node count [|V|]: [width_for (n+1)],
    - node ids: [|V| · width_for n],
    - edge count [|E|]: [width_for (n² + 1)],
    - per edge: source, destination ([width_for n] each) and label
      ([label_bits]).

    Labels must fit [label_bits]; use [width_for (round+1)] for a graph
    whose labels are bounded by the current round. *)

open Ssg_util

(** [header_bits ~n] — the fixed cost of the two count fields. *)
val header_bits : n:int -> int

(** [encode g ~label_bits] serializes.
    @raise Invalid_argument if a label does not fit [label_bits]. *)
val encode : Lgraph.t -> label_bits:int -> Bytes.t

(** [encoded_bit_length g ~label_bits] — exact bit length of [encode]'s
    output before byte padding: [header_bits + Lgraph.encoded_bits]. *)
val encoded_bit_length : Lgraph.t -> label_bits:int -> int

(** [frozen_bit_length f ~label_bits] is
    [encoded_bit_length (Lgraph.thaw f) ~label_bits], in O(1) — the
    Section V length of a round message. *)
val frozen_bit_length : Lgraph.frozen -> label_bits:int -> int

(** [decode bytes ~n ~self ~label_bits] reconstructs the graph over
    universe [n] with owner [self].
    @raise Invalid_argument on malformed input. *)
val decode : Bytes.t -> n:int -> self:int -> label_bits:int -> Lgraph.t

(** [write g ~label_bits w] / [read ~n ~self ~label_bits r] — the same
    codec against caller-supplied bit streams, for embedding the graph in
    a larger message. *)
val write : Lgraph.t -> label_bits:int -> Bitio.writer -> unit

val read : n:int -> self:int -> label_bits:int -> Bitio.reader -> Lgraph.t
