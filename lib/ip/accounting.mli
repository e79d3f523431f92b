(** Per-flow resource accounting at a gateway (goal 7).

    The 1988 paper notes that accounting was a poor fit for a pure
    datagram network because the gateway must reconstruct flows from
    individual packets — and the cost of that reconstruction is why
    goal 7 was quietly dropped.  This module shows it could have been
    cheap.  Two engines sit behind one facade:

    - {!Exact} — the original unbounded [(flow, usage)] ledger.  Exact
      counts for every flow, O(flows) memory, allocating hot path.
      Right for small tests and differential baselines.
    - {!Sketch} — sublinear scale mode: a count-min sketch
      ({!Sketch.t}) estimates every flow's usage in fixed memory with
      one-sided error, and a space-saving tracker ({!Heavy_hitters.t})
      keeps exact-from-admission records for the current top-k flows.
      {!record} is allocation-free, so accounting rides
      [forward_fast] instead of disqualifying it. *)

type flow = {
  src : Packet.Addr.t;
  dst : Packet.Addr.t;
  proto : Packet.Ipv4.Proto.t;
  src_port : int;  (** 0 when the flow is portless. *)
  dst_port : int;
  portless : bool;
      (** Ports unknowable: ICMP, unknown protocols, or a non-first
          fragment.  Kept in the flow identity so such traffic never
          aliases a genuine port-(0,0) flow. *)
}

type usage = { mutable packets : int; mutable bytes : int }
(** Mutable so exact-mode {!record} can bump a flow's tallies in
    place.  The query functions below always return fresh copies, never
    the live record. *)

type mode =
  | Exact
  | Sketch of { width : int; depth : int; top_k : int }
      (** [width] cells (power of two) × [depth] rows of count-min,
          plus a [top_k]-entry heavy-hitter tracker. *)

type snapshot = {
  snap_epoch : int;
  snap_packets : int;
  snap_bytes : int;
  snap_top : (flow * usage) list;  (** Top 100 by bytes, largest first. *)
}
(** A closed epoch's headline record, captured by {!rotate} before the
    engines reset: the heavy hitters of epoch [n] survive into epoch
    [n+1] for billing and post-mortems. *)

type t

val create : ?mode:mode -> ?history:int -> unit -> t
(** Default mode is [Exact] (the historical behavior).  [history]
    (default 4) bounds how many closed-epoch {!snapshot}s {!rotate}
    retains; 0 disables retention. *)

val mode : t -> mode

val record : t -> frame:bytes -> unit
(** Attribute one datagram, read in place from a valid frame: addresses
    and protocol from its IP header, ports from a first fragment's
    transport header, and the IP total length (header included) as its
    byte count.  Allocation-free in sketch mode ([@@fastpath], checked by
    catenet-lint); exact mode allocates its ledger key. *)

val rotate : t -> unit
(** Start a new accounting epoch: snapshot the closing epoch's top
    flows and totals into {!history}, reset all counters and tracked
    flows, increment {!epoch}.  Long sketch-mode runs rotate before the
    cardinality bitmap saturates. *)

val epoch : t -> int

val history : t -> snapshot list
(** Closed epochs, newest first, at most the [history] bound given to
    {!create}. *)

val flows : ?limit:int -> t -> (flow * usage) list
(** Largest byte counts first; [limit] bounds the result.  Exact mode
    reports the full ledger; sketch mode reports the tracked top-k,
    each usage refined to [min tracker-count, count-min estimate] (an
    overestimate of the truth, tighter than either source alone). *)

val lookup : t -> flow -> usage option
(** Exact mode: a copy of the ledger record.  Sketch mode: the
    count-min estimate (never an underestimate); [None] if the sketch
    has no evidence of the flow. *)

val total : t -> usage
(** Exact in both modes (running totals, not derived from the table). *)

val flow_count : t -> int
(** Exact mode: ledger size.  Sketch mode: linear-counting cardinality
    estimate of distinct flows this epoch. *)

val tracked_count : t -> int
(** Flows with an individually reportable record: ledger size in exact
    mode, live top-k entries in sketch mode. *)

val pp_flow : Format.formatter -> flow -> unit

val flow_to_string : flow -> string

val to_json : ?limit:int -> t -> Trace.Json.t
(** Mode, epoch, flow count, totals, the top [limit] (default 100)
    flows by bytes, and the retained per-epoch {!history} (each entry's
    top list also clipped to [limit]) — bounded output even at millions
    of flows; wired into [Internet.metrics] snapshots. *)

val metrics_items : t -> unit -> (string * Trace.Metrics.value) list
(** Pull-based summary source (flow count, totals, epoch, retained
    history depth) for [Trace.Metrics.register]. *)
