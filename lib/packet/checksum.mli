(** The Internet checksum (RFC 1071).

    One's-complement sum of 16-bit big-endian words, used identically by
    IPv4 headers, ICMP, and (over a pseudo-header) TCP and UDP.  The
    algebraic properties the protocols rely on — order independence,
    verifiability by summing to 0xFFFF, incremental update — are exercised
    by property tests. *)

type acc
(** Partial one's-complement accumulator. *)

val zero : acc

val add_bytes : acc -> bytes -> pos:int -> len:int -> acc
(** Fold a byte range into the accumulator.  A trailing odd byte is padded
    with zero, as the RFC specifies; callers must therefore only split
    input on even offsets.

    The range is summed in native byte order, eight bytes a load, and the
    folded 16-bit total is byte-swapped into network order once (RFC 1071
    §2), so the result equals the big-endian word sum bit for bit on
    either kind of host and allocates nothing.  One range check guards
    the unchecked loads: [Invalid_argument] unless [pos >= 0], [len >= 0]
    and [pos + len <= Bytes.length b]. *)

val finish : acc -> int
(** Final one's-complement (bit-flipped) 16-bit checksum.  A range that
    includes its own correct checksum field finishes to 0, so a transport
    verifies a segment over its pseudo-header with
    [finish (add_bytes (pseudo_header ...) buf ~pos ~len) = 0]. *)

val of_bytes : bytes -> pos:int -> len:int -> int
(** Checksum of a byte range alone: [finish (add_bytes zero ...)].  Over a
    pseudo-header, fold with {!add_bytes} and {!finish} instead. *)

val update_u16 : int -> old_word:int -> new_word:int -> int
(** [update_u16 csum ~old_word ~new_word] is the checksum after one 16-bit
    word of the covered data changes from [old_word] to [new_word], per
    RFC 1624's incremental-update equation — the trick that lets a gateway
    repair an IP header checksum after decrementing the TTL without
    re-summing the header. *)

val valid : bytes -> pos:int -> len:int -> bool
(** A range that includes its own (correct) checksum field sums to 0xFFFF
    before complementing; [valid] checks exactly that. *)

val pseudo_header : src:Addr.t -> dst:Addr.t -> proto:int -> len:int -> acc
(** Accumulator pre-loaded with the TCP/UDP pseudo-header: source and
    destination address, protocol number, and transport-segment length. *)
