(** The per-node internet layer: sending, receiving and — on gateways —
    forwarding datagrams.

    This is the architecture's narrow waist.  Everything a gateway does is
    a pure function of the datagram in hand plus the routing table: there
    is no per-conversation state to lose when a gateway dies, which is the
    fate-sharing design decision (Clark §3) that experiments E1/E2 probe. *)

module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4

type t

type counters = {
  mutable sent : int;  (** Datagrams originated here. *)
  mutable received : int;  (** Well-formed datagrams arriving on any iface. *)
  mutable delivered : int;  (** Datagrams handed to a local protocol. *)
  mutable forwarded : int;
  mutable dropped_malformed : int;
  mutable dropped_no_route : int;
  mutable dropped_ttl : int;
  mutable dropped_no_proto : int;  (** No handler for the protocol. *)
  mutable dropped_not_forwarding : int;
  mutable dropped_df : int;  (** Needed fragmenting but DF was set. *)
  mutable dropped_unroutable_icmp : int;
      (** ICMP errors we generated but could not route back — previously a
          silent drop. *)
  mutable fragments_made : int;
  mutable icmp_tx : int;
  mutable echo_replies : int;
  mutable route_cache_hits : int;
      (** Always 0: the stack keeps no route cache, and every lookup walks
          the {!Route_table} trie.  Kept only for readers built against
          the field; {!metrics_items} omits it. *)
  mutable route_cache_misses : int;  (** Always 0, as [route_cache_hits]. *)
}

type send_error = [ `No_route | `Too_big ]

val create : ?forwarding:bool -> Netsim.t -> Netsim.node_id -> t
(** Attach an IP stack to a node.  [forwarding] defaults to [false]
    (host); gateways pass [true].  Installs itself as the node's frame
    handler. *)

val net : t -> Netsim.t
val engine : t -> Engine.t
val node_id : t -> Netsim.node_id

val configure_iface : t -> Netsim.iface -> addr:Addr.t -> prefix_len:int -> unit
(** Assign an address to an interface and install the connected route. *)

val iface_addr : t -> Netsim.iface -> Addr.t option
val addresses : t -> Addr.t list
val has_addr : t -> Addr.t -> bool

val primary_addr : t -> Addr.t
(** The first configured address.  @raise Failure when none configured. *)

val table : t -> Route_table.t
val set_forwarding : t -> bool -> unit
val forwarding : t -> bool

val set_fast_path : t -> bool -> unit
(** The fast path (default on) reads every header field in place and
    forwards transit datagrams by patching TTL and checksum in the
    received frame (RFC 1624) and retransmitting the same bytes.
    Switching it off restores the legacy decode/re-encode path.  Both
    roads look every route up in the {!Route_table} trie.  The switch
    exists only as a differential oracle: test_ip checks the two roads
    agree, and E13 measures one against the other. *)

val fast_path : t -> bool

val receive : t -> iface:Netsim.iface -> bytes -> unit
(** Hand a raw frame to the stack, exactly as the netsim delivery handler
    does.  Exposed so tests and instrumentation can interpose on a node's
    handler (e.g. to observe per-hop frames) and still feed the stack.
    On the fast path, forwarding (route lookup included) allocates
    nothing; local delivery of an unfragmented datagram skips reassembly
    and allocates only the {!Ipv4.header} its upcall takes (plus the
    payload copy for a plain {!register_proto} upcall). *)

val register_proto : t -> Ipv4.Proto.t -> (Ipv4.header -> bytes -> unit) -> unit
(** Install the upcall for a transport protocol.  ICMP is handled
    internally (echo responder, error dispatch) and cannot be overridden. *)

val register_proto_frame :
  t -> Ipv4.Proto.t -> (Ipv4.header -> bytes -> pos:int -> unit) -> unit
(** Optional zero-copy overlay on {!register_proto}: on the receive fast
    path, an unfragmented datagram for a protocol with a frame handler is
    delivered as the whole received frame with the payload starting at
    [pos], sparing the payload copy.  Fragmented datagrams, loopback
    sends and the slow path still use the plain [register_proto]
    handler, which must also be installed.  Accounting no longer forces
    the slow road: enabled ledgers are fed by [Accounting.record_fast]
    straight off the frame. *)

val add_error_handler :
  t -> (from:Addr.t -> Packet.Icmp_wire.t -> unit) -> unit
(** Subscribe to decoded ICMP error messages (unreachables, time-exceeded)
    addressed to this host; [from] is the reporting node.  Transports use
    this to abort doomed connections, diagnostics to map paths.  Handlers
    accumulate; all are invoked. *)

val set_echo_reply_handler : t -> (id:int -> seq:int -> payload:bytes -> unit) -> unit
(** Receives echo replies, for ping-style probing. *)

val send :
  t ->
  ?tos:Ipv4.Tos.t ->
  ?ttl:int ->
  ?dont_fragment:bool ->
  ?src:Addr.t ->
  proto:Ipv4.Proto.t ->
  dst:Addr.t ->
  bytes ->
  (unit, send_error) result
(** Originate a datagram.  The source address defaults to the outgoing
    interface's address.  Local destinations loop back through the engine
    (asynchronously, like everything else).  A routed datagram that fits
    the MTU allocates exactly its frame: the header is written in front of
    a copy of the payload, and that buffer is transmitted. *)

val send_frame :
  t ->
  ?tos:Ipv4.Tos.t ->
  ?ttl:int ->
  ?dont_fragment:bool ->
  ?src:Addr.t ->
  proto:Ipv4.Proto.t ->
  dst:Addr.t ->
  bytes ->
  (unit, send_error) result
(** Like {!send}, but the argument is a whole frame: the first
    [Ipv4.header_size] bytes are a reserved prefix the stack fills in, and
    the transport payload already sits after it.  When the datagram is
    routed out an interface and fits the MTU, the frame is transmitted as
    is — no payload copy, no re-encode.  Loopback and fragmentation fall
    back to the copying path.  Transports use this to emit segments built
    allocation-free with the wire modules' [encode_into]. *)

val send_echo_request : t -> dst:Addr.t -> id:int -> seq:int -> payload:bytes -> unit

val icmp_unreachable :
  t -> Ipv4.header -> bytes -> Packet.Icmp_wire.unreach_code -> unit
(** For transports: report a received datagram (header plus payload) as
    undeliverable back to its source, e.g. UDP port unreachable. *)

val counters : t -> counters

val enable_accounting : ?mode:Accounting.mode -> t -> Accounting.t
(** Start attributing every datagram forwarded (or locally delivered) by
    this stack to flows; returns the live ledger.  Default mode is
    [Exact]; pass [Sketch _] for scale runs — sketch-mode attribution is
    allocation-free, so datagrams stay on [forward_fast] and the
    frame-handler delivery road with accounting enabled. *)

val accounting : t -> Accounting.t option
(** The ledger, if {!enable_accounting} has been called. *)

val reassembly_pending : t -> int
val reassembly_expired : t -> int

val flush_soft_state : t -> unit
(** Simulate the memory loss of a crash: drop every learned route
    (anything with a next hop or a nonzero metric) and all pending
    reassembly buffers.  Connected interface routes remain — they are
    configuration, not soft state.  Emits [Trace.Event.Fault_soft_reset]
    when the fault class is enabled, then runs every {!on_soft_flush}
    subscriber. *)

val on_soft_flush : t -> (unit -> unit) -> unit
(** Subscribe to {!flush_soft_state}: layers above IP that keep derived
    state (resolver caches, name-server health views) register here so a
    crash's amnesia reaches them too.  Subscribers run in registration
    order, after the stack's own soft state is gone. *)

val set_tap : t -> (rx:bool -> bytes -> unit) option -> unit
(** Attach (or detach) a frame observer at this host: fires once for
    every frame the stack receives ([rx:true]) and every frame it hands
    to a link ([rx:false]).  Used for host-side pcap capture. *)

val metrics_items : t -> unit -> (string * Trace.Metrics.value) list
(** Pull-based metrics source over {!counters} (plus reassembly state),
    for [Trace.Metrics.register]. *)
