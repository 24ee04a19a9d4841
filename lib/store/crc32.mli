(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]), the checksum guarding
    every journal record on disk.

    Table-driven, allocation-free per byte.  The single-byte error
    detection guarantee of CRC-32 is what the store's fuzz property
    leans on: flipping any one byte of a framed record always changes
    the digest, so the decoder can promise to reject every one-byte
    mutation. *)

(** [digest ?pos ?len s] — the CRC-32 of [s.[pos .. pos+len-1]]
    (default: all of [s]).
    @raise Invalid_argument if the range is out of bounds. *)
val digest : ?pos:int -> ?len:int -> string -> int32

(** [update crc s pos len] folds more bytes into a running digest, so
    large payloads can be checked without concatenation:
    [digest s = update (digest a) b 0 (String.length b)] when
    [s = a ^ b]. *)
val update : int32 -> string -> int -> int -> int32
