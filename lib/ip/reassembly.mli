(** Datagram reassembly at the destination host.

    Fragments of one datagram share (src, dst, proto, id); the buffer
    completes when offset 0, the final fragment (MF clear), and a
    contiguous byte range are all present.  Incomplete buffers expire
    after a timeout (RFC 791 suggests up to 15 s; we default to 30 s to
    ride out retransmissions on slow paths). *)

type t

val create : ?timeout_us:int -> ?node:int -> Engine.t -> t
(** [node] identifies the owning node in flight-recorder events
    (default [-1], meaning unattributed). *)

type result =
  | Incomplete  (** Stored; waiting for more fragments. *)
  | Complete of bytes
      (** The whole datagram in one valid frame: the completing
          fragment's header with MF clear and offset 0, then every
          payload byte. *)

val push : t -> bytes -> result
(** Feed one fragment, a frame {!Packet.Ipv4.valid} accepts; its payload
    is copied, up to the IP total length.  An unfragmented datagram
    (offset 0, MF clear) completes immediately as the frame itself.
    Overlapping fragments are accepted; earlier data wins on overlap.
    The caller keeps the rebuilt datagram within
    {!Packet.Ipv4.max_datagram}: a fragment whose offset plus length
    passes it must be dropped before it gets here.
    @raise Invalid_argument when the rebuilt datagram would exceed
    {!Packet.Ipv4.max_datagram}. *)

val pending : t -> int
(** Reassembly buffers currently held. *)

val expired : t -> int
(** Buffers dropped by timeout since creation. *)

val flush : t -> unit
(** Discard every pending buffer and cancel its expiry timer, without
    counting the loss as a timeout.  Used by crash simulation: partial
    datagrams are soft state and die with the node (fate-sharing). *)
