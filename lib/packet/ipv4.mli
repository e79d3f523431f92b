(** IPv4 datagram header (RFC 791), the 20-byte options-free form.

    The datagram is the architecture's central abstraction (Clark §3): a
    self-contained unit carrying everything the network needs to deliver
    it, so that gateways keep no per-conversation state. *)

(** IP protocol numbers carried in the [proto] field. *)
module Proto : sig
  type t = Icmp | Tcp | Udp | Other of int

  val to_int : t -> int
  (** 1, 6, 17, or the raw value. *)

  val of_int : int -> t
  val pp : Format.formatter -> t -> unit
end

(** Type-of-service requested by the sender (goal 2).  Encoded in the ToS
    octet's precedence/D/T bits; the simulator's queues understand
    [Low_delay] as a priority hint. *)
module Tos : sig
  type t = Routine | Low_delay | High_throughput | High_reliability

  val to_int : t -> int
  val of_int : int -> t
  val pp : Format.formatter -> t -> unit
end

type header = {
  tos : Tos.t;
  id : int;  (** Fragment-group identification, 16 bits. *)
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;  (** In bytes: a multiple of 8, at most 65,528. *)
  ttl : int;
  proto : Proto.t;
  src : Addr.t;
  dst : Addr.t;
}

val header_size : int
(** 20 bytes. *)

val layout : (string * int * int) list
(** [(field, offset, width)] wire contract, machine-checked by
    catenet-lint against the byte accesses in {!encode_fields}, the
    [peek] readers and {!patch_ttl}. *)

val max_datagram : int
(** 65535, the total-length field bound. *)

val default_ttl : int
(** 64, the TTL a datagram starts with unless its sender picks one. *)

val make_header :
  ?tos:Tos.t ->
  ?id:int ->
  ?dont_fragment:bool ->
  ?more_fragments:bool ->
  ?frag_offset:int ->
  ?ttl:int ->
  proto:Proto.t ->
  src:Addr.t ->
  dst:Addr.t ->
  unit ->
  header
(** Defaults: routine ToS, id 0, no fragmentation fields set, TTL 64. *)

type error =
  [ `Truncated  (** Too short for the declared lengths. *)
  | `Bad_version of int
  | `Bad_checksum
  | `Bad_header of string ]

val pp_error : Format.formatter -> error -> unit

val encode : header -> payload:bytes -> bytes
(** Serialize header plus payload, computing the header checksum.
    @raise Invalid_argument if a field is out of range or the result would
    exceed {!max_datagram}. *)

val encode_into : header -> bytes -> unit
(** Allocation-free {!encode}: the frame's first {!header_size} bytes are
    a reserved prefix and the IP payload already sits after them; the
    header is written into the prefix in place.  The frame length is the
    datagram's total length.  Output is byte-for-byte identical to
    {!encode}.
    @raise Invalid_argument as {!encode}. *)

val encode_fields :
  bytes ->
  tos:Tos.t ->
  id:int ->
  dont_fragment:bool ->
  more_fragments:bool ->
  frag_offset:int ->
  ttl:int ->
  proto:Proto.t ->
  src:Addr.t ->
  dst:Addr.t ->
  unit
(** {!encode_into} with the header given field by field, so an origin
    writes its header into its one frame without building a {!header}:
    nothing is allocated.  @raise Invalid_argument as {!encode}. *)

val decode : bytes -> (header * bytes, error) result
(** Parse and validate (version, IHL, checksum, total length).  Returns the
    header and a copy of the payload. *)

val peek : bytes -> (header, error) result
(** Like {!decode} — same validation, byte for byte — but reads only the
    header and never touches the payload. *)

(** {1 Reading in place}

    The gateway and delivery fast paths never build a {!header}: they
    check a frame with {!valid} and then read the fields they need by
    offset, as etherparse's [Ipv4HeaderSlice] does.  A transit
    datagram's payload is dead weight to a forwarder, so it is never
    copied out of the frame.  The readers below assume a frame that
    {!valid} accepted; on anything else they read garbage or raise. *)

val valid : bytes -> bool
(** [true] exactly when {!peek} would return [Ok]; allocates nothing. *)

val peek_header : bytes -> header
(** The header of a valid frame, as {!peek} returns it. *)

val peek_tos : bytes -> Tos.t

val peek_total_len : bytes -> int
(** The datagram's length, header included.  A frame may be longer
    (link padding); its datagram ends here, and so does every read of
    its payload. *)

val peek_id : bytes -> int
val peek_frag_offset : bytes -> int
val peek_more_fragments : bytes -> bool
val peek_ttl : bytes -> int

val peek_proto : bytes -> int
(** The raw protocol number ({!Proto.to_int} of the header's). *)

val peek_src : bytes -> Addr.t
val peek_dst : bytes -> Addr.t

val payload_of : bytes -> bytes
(** Copy the payload out of a frame already validated by {!peek} (uses the
    frame's total-length field; unvalidated input is undefined behaviour).
    Only the local-delivery path needs this. *)

val patch_ttl : bytes -> unit
(** Decrement the TTL of a validated frame in place and repair the header
    checksum incrementally (RFC 1624) — two bytes mutated, nothing
    allocated, the frame stays wire-valid.  @raise Invalid_argument if the
    TTL is already zero. *)

val pp_header : Format.formatter -> header -> unit
