(** TCP segment wire format (RFC 793), with the MSS (RFC 1122), window
    scale (RFC 7323), SACK-permitted and SACK (RFC 2018) options.

    Sequence and acknowledgment numbers are represented as non-negative
    OCaml ints in [\[0, 2^32)]; modular comparison lives in the TCP
    library's [Seq] module. *)

type flags = {
  urg : bool;
  ack : bool;
  psh : bool;
  rst : bool;
  syn : bool;
  fin : bool;
}

val no_flags : flags

val flags :
  ?urg:bool ->
  ?ack:bool ->
  ?psh:bool ->
  ?rst:bool ->
  ?syn:bool ->
  ?fin:bool ->
  unit ->
  flags

val pp_flags : Format.formatter -> flags -> unit
(** Compact "S", "SA", "FA", "R"… notation. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** [\[0, 2^32)]. *)
  ack_n : int;  (** Acknowledgment number, meaningful when [flags.ack]. *)
  flags : flags;
  window : int;  (** Advertised receive window field, 16 bits (unscaled). *)
  urgent : int;
  mss : int option;  (** MSS option, normally only on SYN segments. *)
  wscale : int option;
      (** Window scale shift (RFC 7323), only meaningful on SYN segments;
          encoded alongside MSS in the canonical SYN option block. *)
  sack_permitted : bool;
      (** SACK-permitted option (RFC 2018), only meaningful on SYN
          segments. *)
  sack : (int * int) list;
      (** SACK blocks as [(left, right)] sequence-number edges (right edge
          exclusive), at most 4; never on SYN segments — a segment cannot
          carry both SYN options and SACK blocks. *)
  payload : bytes;
}

val make :
  ?seq:int ->
  ?ack_n:int ->
  ?flags:flags ->
  ?window:int ->
  ?urgent:int ->
  ?mss:int option ->
  ?wscale:int option ->
  ?sack_permitted:bool ->
  ?sack:(int * int) list ->
  ?payload:bytes ->
  src_port:int ->
  dst_port:int ->
  unit ->
  t

val max_sack_blocks : int
(** 4: as many (left, right) pairs as fit a 40-byte option area. *)

type error = [ `Truncated | `Bad_checksum | `Bad_header of string ]

val pp_error : Format.formatter -> error -> unit

val encode : src:Addr.t -> dst:Addr.t -> t -> bytes
(** Serialize with the checksum computed over the RFC 793 pseudo-header.
    The addresses are those of the enclosing IP datagram.
    @raise Invalid_argument if a field is out of range, if [sack] holds
    more than {!max_sack_blocks} blocks, or if SACK blocks are combined
    with SYN-only options (MSS / wscale / SACK-permitted). *)

val decode : src:Addr.t -> dst:Addr.t -> bytes -> (t, error) result

val header_size : t -> int
(** Bytes of TCP header this segment carries on the wire: 20 bare, 24
    with the lone MSS option, 32 with the canonical SYN option block
    (MSS + wscale + SACK-permitted), 20 + 4 + 8·blocks with SACK. *)

val header_bytes :
  mss:int option ->
  wscale:int option ->
  sack_permitted:bool ->
  sack:(int * int) list ->
  int
(** {!header_size} from the option set alone, for sizing an
    {!encode_into} buffer before the segment exists.  A segment without
    options passes [~mss:None ~wscale:None ~sack_permitted:false
    ~sack:[]]. *)

val layout : (string * int * int) list
(** [(field, offset, width)] wire contract, machine-checked by
    catenet-lint: fixed header plus the historical 4-byte MSS option
    block. *)

val syn_opts_layout : (string * int * int) list
(** Wire contract for the canonical 12-byte SYN option block: MSS,
    window scale (or NOP padding), SACK-permitted (or NOP padding). *)

val sack_opts_layout : (string * int * int) list
(** Wire contract for the NOP-NOP-SACK option block carrying up to
    {!max_sack_blocks} (left, right) edges. *)

val encode_into :
  src:Addr.t ->
  dst:Addr.t ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack_n:int ->
  flags:flags ->
  window:int ->
  urgent:int ->
  mss:int option ->
  wscale:int option ->
  sack_permitted:bool ->
  sack:(int * int) list ->
  payload_len:int ->
  bytes ->
  pos:int ->
  int
(** {!encode} in place: the payload must already occupy
    [pos + header_bytes ... .. pos + header_bytes ... + payload_len) in
    the buffer; the header is written around it and the checksum computed
    over the whole segment in one pass.  Returns the total segment length.
    Every argument is a plain label and no option block is built, so a
    segment allocates nothing.  Output is byte-for-byte identical to
    {!encode}, the reference it is tested against.
    @raise Invalid_argument as {!encode}, or if the buffer is too small. *)

val peek : src:Addr.t -> dst:Addr.t -> bytes -> pos:int -> len:int -> int
(** Validate length, data offset and checksum — everything {!decode}
    checks — without allocating: the data offset (payload start,
    relative to the segment, at least 20) of a good segment, 0 for a bad
    one ({!decode} names the fault).  The segment is the [len] bytes at
    [pos], so a whole IP frame can be peeked without first carving the
    TCP payload out of it, the IP total length bounding the segment.
    Combined with the [peek_*] accessors this lets a receive fast path
    read header fields in place. *)

val of_peeked :
  bytes -> pos:int -> len:int -> data_offset:int -> (t, error) result
(** Finish a {!peek} of the [len]-byte segment at [pos] into a full [t]:
    header and options are read in place, and only the payload is
    copied.  The checksum is not re-validated.  [decode] is a {!peek} of
    the whole buffer followed by [of_peeked ~pos:0]. *)

val peek_src_port : bytes -> pos:int -> int
val peek_dst_port : bytes -> pos:int -> int
val peek_seq : bytes -> pos:int -> int
val peek_ack_n : bytes -> pos:int -> int
val peek_window : bytes -> pos:int -> int

val peek_flag_bits : bytes -> pos:int -> int
(** Low six flag bits of the offset/flags word of the segment at [pos]:
    URG 0x20, ACK 0x10, PSH 0x08, RST 0x04, SYN 0x02, FIN 0x01.  A
    predictable segment in the header-prediction sense is [0x10] (pure
    ACK) or [0x18] (ACK|PSH).  Like every [peek_*] reader, [pos] is a
    plain label: an optional one would be boxed at each call. *)

val pp : Format.formatter -> t -> unit
