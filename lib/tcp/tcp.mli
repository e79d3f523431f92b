(** TCP: the reliable sequenced byte stream (RFC 793), with the congestion
    machinery contemporary with the paper (Jacobson 1988).

    Architecturally this module is the other half of the TCP/IP split
    (Clark §4): everything here — connection state, sequence space,
    retransmission, flow and congestion control — lives in the *hosts*.
    Gateways see only self-describing datagrams.  That is fate-sharing:
    when a gateway reboots, nothing a connection depends on is lost
    (experiments E1/E2); when an endpoint dies, its connections die with
    it, which is exactly the intended semantics.

    The engine implements: the full 11-state machine, three-way handshake,
    MSS negotiation, sliding-window flow control with receiver-driven
    window advertisement, out-of-order reassembly, cumulative ACKs with
    delayed ACK, Nagle's algorithm, RTT estimation (Jacobson/Karels) with
    Karn's rule and exponential backoff, zero-window persist probes,
    TIME-WAIT with 2MSL, RST handling, and selectable congestion control:
    [No_cc] (pre-1988 TCP), [Tahoe] (slow start + congestion avoidance +
    fast retransmit), [Reno] (adds fast recovery) — compared in E9. *)

module Seq = Seq_num
module Rto = Rto
module Sendbuf = Sendbuf
module Sack = Sack

type cc_algo = No_cc | Tahoe | Reno

val pp_cc : Format.formatter -> cc_algo -> unit

type config = {
  mss : int;  (** Announced MSS (default 1460). *)
  window : int;  (** Receive window / buffer (default 65535). *)
  cc : cc_algo;  (** Default [Reno]. *)
  nagle : bool;  (** Default [true]. *)
  syn_retries : int;  (** Connection-establishment attempts (default 6). *)
  max_retransmits : int;  (** Data retransmissions before giving up (12). *)
  msl_us : int;  (** MSL for TIME-WAIT = 2·MSL (default 5 s). *)
  delayed_ack_us : int;  (** Delayed-ACK timer (default 200 ms). *)
  persist_us : int;  (** Initial zero-window probe interval (1 s). *)
  send_buffer : int;  (** Send-buffer bytes (default 262144). *)
  tos : Packet.Ipv4.Tos.t;  (** ToS for all segments (default Routine). *)
  sack : bool;
      (** Offer/accept selective acknowledgment, RFC 2018 (default
          [true]).  Live on a connection only when both SYNs carried
          sack-permitted. *)
  window_scaling : bool;
      (** Offer window scaling, RFC 7323 (default [true]).  The shift is
          derived from [window]; live only when both sides offer. *)
}

val default_config : config

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

val pp_state : Format.formatter -> state -> unit

val st_transitions : (string * string * string) list
(** The RFC 793 transition diagram as data: [(state, event, state')]
    edges, where ["*"] is the any-state source of the teardown path.
    The catenet-lint [transitions] pass checks every state assignment in
    the implementation against this table and flags declared edges with
    no implementing assignment. *)

type close_reason =
  | Graceful  (** Both FINs exchanged. *)
  | Reset  (** Peer sent RST. *)
  | Timed_out  (** Retransmission limit exceeded. *)
  | Refused  (** SYN answered by RST. *)

val pp_close_reason : Format.formatter -> close_reason -> unit

type t
(** A host's TCP instance (one per IP stack). *)

type conn

type listener

(** Per-connection counters and live congestion snapshot. *)
type conn_stats = {
  mutable segs_out : int;
  mutable segs_in : int;
  mutable bytes_out : int;  (** Payload bytes sent, first transmissions. *)
  mutable bytes_in : int;  (** Payload bytes delivered in order. *)
  mutable retransmits : int;
  mutable rto_fires : int;
  mutable fast_retransmits : int;
  mutable dupacks : int;
  mutable bytes_retransmitted : int;
  mutable fast_path_acks : int;
      (** Pure ACKs consumed by header prediction. *)
  mutable fast_path_data : int;
      (** In-sequence data segments consumed by header prediction. *)
}

val create : ?config:config -> Ip.Stack.t -> t
(** Attach TCP to a stack; registers protocol 6. *)

val stack : t -> Ip.Stack.t

val set_fast_path : t -> bool -> unit
(** Toggle the transport fast path (default on): header-predicted receive
    for in-sequence ESTABLISHED traffic and allocation-free segment
    emission.  Off means the reference RFC 793 dispatch and the copying
    encode everywhere.  Protocol behaviour — every segment, state change
    and delivered byte — is identical either way; the switch exists for
    benchmarking and differential testing. *)

val fast_path : t -> bool

type listen_error = Port_in_use of int

exception Listen_error of listen_error

val listen_error_to_string : listen_error -> string

val listen : t -> port:int -> accept:(conn -> unit) -> listener
(** Passive open.  [accept] fires when a handshake completes.
    @raise Listen_error if the port is in use. *)

val close_listener : listener -> unit

type connect_error = No_free_port of { dst : Packet.Addr.t; dst_port : int }

exception Connect_error of connect_error

val connect :
  t ->
  ?config:config ->
  dst:Packet.Addr.t ->
  dst_port:int ->
  unit ->
  conn
(** Active open; returns immediately with the connection in [Syn_sent].
    [config] overrides the instance default for this connection.  The
    local port is the next ephemeral port (49152–65535, taken in turn)
    whose 4-tuple to the peer is free, so a wrapped counter never
    shadows a live connection.
    @raise Connect_error if every ephemeral port to [dst]:[dst_port] is
    in use. *)

(** {1 Connection API} *)

val on_established : conn -> (unit -> unit) -> unit
val on_receive : conn -> (bytes -> unit) -> unit
(** In-order data upcall.  Not called while reading is paused. *)

val on_peer_fin : conn -> (unit -> unit) -> unit
(** Fires when the peer's FIN is consumed: end of incoming stream. *)

val on_close : conn -> (close_reason -> unit) -> unit

val send : conn -> bytes -> int
(** Queue bytes for transmission; returns how many the send buffer
    accepted (0 once the connection is closing). *)

val send_space : conn -> int

val close : conn -> unit
(** Graceful close: FIN once queued data drains. *)

val abort : conn -> unit
(** Hard close: RST to the peer, connection discarded. *)

val pause_reading : conn -> unit
(** Stop delivering and start shrinking the advertised window — backing
    the zero-window/persist machinery. *)

val resume_reading : conn -> unit

val state : conn -> state
val stats : conn -> conn_stats
val cwnd : conn -> int
val ssthresh : conn -> int
val srtt_us : conn -> int option
val snd_wnd : conn -> int
val local_port : conn -> int
val remote_addr : conn -> Packet.Addr.t
val remote_port : conn -> int
val mss : conn -> int
(** Effective (negotiated) MSS. *)

(** {1 Instance-wide} *)

type stats = {
  mutable active_opens : int;
  mutable passive_opens : int;
  mutable established : int;
  mutable resets_out : int;
  mutable resets_in : int;
  mutable bad_segments : int;
  mutable no_listener : int;
  mutable challenge_acks_out : int;
      (** Challenge ACKs sent for in-window RST/SYN (RFC 5961). *)
  mutable rst_rejected_inexact : int;
      (** In-window RSTs refused because seq <> rcv_nxt. *)
  mutable dropped_acks_invalid : int;
      (** ACKs outside [snd_una - max_wnd, snd_max], dropped. *)
}

val instance_stats : t -> stats

val metrics_items : t -> unit -> (string * Trace.Metrics.value) list
(** Pull-based metrics source over {!instance_stats} plus the live
    connection count, for [Trace.Metrics.register]. *)

val connection_count : t -> int
(** Live (non-Closed) connections. *)

(** {1 Introspection (tests and debugging)} *)

val snd_una : conn -> int
val snd_nxt : conn -> int
val rcv_nxt : conn -> int
val ooo_segments : conn -> int
val rto_us : conn -> int

val snd_wscale : conn -> int
(** Shift applied to windows the peer advertises (0 = no scaling). *)

val rcv_wscale : conn -> int
(** Shift the peer applies to windows we advertise. *)

val sack_enabled : conn -> bool
(** Both SYNs carried sack-permitted. *)

val sacked_bytes : conn -> int
(** Bytes currently held on the sender's SACK scoreboard. *)
