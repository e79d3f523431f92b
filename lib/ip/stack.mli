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
(** [`Too_big]: longer than {!Ipv4.max_datagram}, or needing
    fragmentation with DF set. *)

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
(** Pick the forwarding road.  The fast path (default on) forwards
    transit datagrams by patching TTL and checksum in the received frame
    (RFC 1624) and retransmitting the same bytes; switched off, every
    transit datagram takes the legacy decode/re-encode road.  Both roads
    look every route up in the {!Route_table} trie.  Local delivery is
    the same either way.  The switch exists only as a differential
    oracle: test_ip checks the two roads agree, and E13 measures one
    against the other. *)

val fast_path : t -> bool

val receive : t -> iface:Netsim.iface -> bytes -> unit
(** Hand a raw frame to the stack, exactly as the netsim delivery handler
    does.  Exposed so tests and instrumentation can interpose on a node's
    handler (e.g. to observe per-hop frames) and still feed the stack.
    Fast-path forwarding (route lookup included) and the local delivery
    of an unfragmented datagram to a {!register_proto_frame} upcall
    allocate nothing.  A fragment that would end past
    {!Ipv4.max_datagram} is dropped as malformed before reassembly. *)

val register_proto_frame : t -> Ipv4.Proto.t -> (bytes -> unit) -> unit
(** Install the upcall for a transport protocol.  It receives every
    datagram for that protocol addressed to this stack — received whole,
    reassembled, or looped back — as one valid frame: the IP header,
    read in place with the {!Ipv4} [peek_*] readers, then the transport
    data from {!Ipv4.header_size} up to {!Ipv4.peek_total_len}, never up
    to [Bytes.length] (a frame may carry link padding).  The frame is
    the upcall's to keep.  ICMP is handled internally (echo responder,
    error dispatch) and cannot be overridden. *)

val register_proto : t -> Ipv4.Proto.t -> (Ipv4.header -> bytes -> unit) -> unit
(** A copying adapter over {!register_proto_frame}: the upcall gets the
    datagram's header as a record and a copy of its payload, two
    allocations per datagram.  Kept for benchmarks and tests written
    against it. *)

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
(** Originate a datagram: {!send_frame} over a copy of the payload, with
    routine ToS, TTL {!Ipv4.default_ttl}, DF clear and an unspecified
    source unless the caller picks them.  Local destinations loop back
    through the engine (asynchronously, like everything else).  A
    datagram that loops back, or is routed and fits the MTU, allocates
    exactly its frame: the header is written in front of a copy of the
    payload, and that buffer is delivered or transmitted. *)

val send_frame :
  t ->
  tos:Ipv4.Tos.t ->
  ttl:int ->
  dont_fragment:bool ->
  src:Addr.t ->
  proto:Ipv4.Proto.t ->
  dst:Addr.t ->
  bytes ->
  (unit, send_error) result
(** Originate a whole frame: the first [Ipv4.header_size] bytes are a
    reserved prefix the stack fills in, and the transport payload already
    sits after it.  A [src] of [Addr.any] (unspecified) takes the
    outgoing interface's address, or the primary address on loopback.
    When the datagram loops back, or is routed out an interface and fits
    the MTU, the header is written into the prefix and the frame itself
    is delivered or transmitted — no payload copy, no re-encode; the
    frame is the stack's from then on.  Fragmentation falls back to the
    copying path.  Every header field is a plain label, so a send boxes
    nothing: transports, which know them all, emit segments built with
    the wire modules' [encode_into] and allocate only the frame. *)

val send_echo_request : t -> dst:Addr.t -> id:int -> seq:int -> payload:bytes -> unit

val icmp_unreachable : t -> bytes -> Packet.Icmp_wire.unreach_code -> unit
(** For transports: report a datagram delivered to an upcall (its whole
    frame) as undeliverable back to its source, e.g. UDP port
    unreachable. *)

val counters : t -> counters

val enable_accounting : ?mode:Accounting.mode -> t -> Accounting.t
(** Start attributing every datagram forwarded (or locally delivered) by
    this stack to flows; returns the live ledger.  Default mode is
    [Exact]; pass [Sketch _] for scale runs — sketch-mode attribution is
    allocation-free, so forwarding and delivery allocate nothing more
    with accounting enabled. *)

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
