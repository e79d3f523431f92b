(** Discrete-event simulation engine.

    A single virtual clock (integer microseconds) and an event queue; every
    protocol timer, link transmission and application action in the system
    is an event on one engine.  Events scheduled for the same instant fire
    in scheduling order, so runs are fully deterministic.

    The queue is one hierarchical timing wheel (Varghese & Lauck, scheme
    7): four levels of 256 slots, level [l] indexed by byte [l] of the
    deadline, plus an overflow list for deadlines outside the cursor's
    2{^32} µs block.  An event goes on the level of the highest byte in
    which its deadline differs from the wheel's cursor, which never passes
    the clock.  Scheduling is O(1); taking the next event is amortised
    O(1), moving a slot's events one level down ("cascading") as the
    cursor reaches it.  Neither allocates: events live in an int-indexed
    slab recycled through a free list, so {!schedule} and {!after} cost
    only the caller's closure.

    Same-instant order needs no sequence number.  Slot lists and the
    overflow list are FIFO, a slot is cascaded (in list order) only when
    every lower level is empty, and the cursor enters a slot's span only
    by cascading it.  Hence all events due at one instant always share
    one list, joined in scheduling order, and leave it in that order. *)

type t

val create : unit -> t
(** A fresh engine with the clock at 0. *)

val now : t -> int
(** Current virtual time in microseconds.

    Convention, enforced by the catenet-lint [seqcmp] time rule: values
    from [now] are {e absolute timestamps}; integer literals in protocol
    code are {e durations}.  Never compare a timestamp against a bare
    literal — subtract two timestamps to get a duration first
    ([now t - t0 > timeout_us]), or add a duration to a timestamp to get
    a deadline.  Mixing the two classes silently breaks when a scenario
    starts the clock at a nonzero epoch. *)

val us : int -> int
(** Identity on microseconds; for call-site readability. *)

val ms : int -> int
(** Milliseconds to microseconds. *)

val sec : float -> int
(** Seconds to microseconds (rounded). *)

val to_sec : int -> float
(** Microseconds to seconds. *)

val schedule : t -> at:int -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] when the clock reaches [at].  Scheduling in
    the past is an error ([Invalid_argument]). *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t d f] runs [f] [d] microseconds from now. *)

(** Cancellable timers, used for protocol timeouts that are usually
    cancelled before firing (retransmission, delayed ACK, reassembly).

    A timer is an ordinary event carrying a two-field handle, the only
    allocation besides the closure.  Cancelling sets a flag and leaves the
    event queued as a {e shell}: shells count in {!pending}, are discarded
    when they reach the front without counting as steps, and still
    advance the clock to their time, exactly like live events. *)
module Timer : sig
  type handle

  val start : t -> after:int -> (unit -> unit) -> handle
  (** Arm a one-shot timer. *)

  val cancel : handle -> unit
  (** Disarm; harmless if already fired or cancelled. *)

  val active : handle -> bool
  (** [true] while armed and not yet fired. *)
end

val timer_starts : t -> int
(** Cumulative count of {!Timer.start} calls, for instrumentation. *)

val pending : t -> int
(** Number of events still queued (including cancelled timer shells). *)

val step : t -> bool
(** Execute the next live event, discarding any cancelled shells ahead of
    it.  [false] if no live event remained. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Drain the queue.  [until] stops the clock from advancing past the given
    time (events at exactly [until] still run); [max_events] bounds work as
    a runaway guard. *)
