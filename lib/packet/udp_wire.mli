(** UDP datagram wire format (RFC 768).

    UDP is the visible result of separating TCP from IP (Clark §4): the
    architecture's "other" type of service — unreliable, unordered, but
    minimal-latency datagram delivery for applications like packet voice
    and the XNET debugger that do not want reliability at the cost of
    timeliness. *)

type t = { src_port : int; dst_port : int; payload : bytes }

val header_size : int
(** 8 bytes. *)

val layout : (string * int * int) list
(** [(field, offset, width)] wire contract, machine-checked by
    catenet-lint. *)

type error = [ `Truncated | `Bad_checksum | `Bad_header of string ]

val pp_error : Format.formatter -> error -> unit

val encode : src:Addr.t -> dst:Addr.t -> t -> bytes
(** Serialize with the pseudo-header checksum (always computed; the
    all-zero "no checksum" escape is not used). *)

val encode_into :
  src:Addr.t ->
  dst:Addr.t ->
  src_port:int ->
  dst_port:int ->
  payload_len:int ->
  bytes ->
  pos:int ->
  int
(** Allocation-free {!encode}: the payload must already occupy
    [pos + header_size .. pos + header_size + payload_len) in the buffer;
    the header is written around it.  Returns the total datagram length.
    Output is byte-for-byte identical to {!encode}. *)

val peek : src:Addr.t -> dst:Addr.t -> bytes -> pos:int -> len:int -> int
(** Validate the datagram that starts at [pos] within the [len] bytes
    there, e.g. the transport part of a received IP frame, bounded by the
    IP total length: its length field, then its checksum, over the buffer
    in place.  Returns the datagram's length, header included, or 0 for
    an invalid datagram ({!decode} names the fault); a valid datagram's
    payload is the bytes from [pos + header_size] up to [pos] plus that
    length.  Nothing is copied or allocated.
    @raise Invalid_argument on a negative [pos]. *)

val peek_src_port : bytes -> pos:int -> int
val peek_dst_port : bytes -> pos:int -> int

val decode :
  ?pos:int -> src:Addr.t -> dst:Addr.t -> bytes -> (t, error) result
(** {!peek} (with [len] the rest of the buffer), then a copy of the
    payload into a [t]. *)

val pp : Format.formatter -> t -> unit
