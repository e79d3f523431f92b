(** Retransmission-timeout estimation (Jacobson & Karels 1988, the
    algorithm contemporary with the paper; RFC 6298 formulation).

    Maintains the smoothed RTT and its variance from timed segments and
    produces the retransmission timeout with exponential backoff.  Karn's
    rule — never sample a retransmitted segment — is the caller's duty and
    is observed by the TCP engine. *)

type t

val create : ?initial_rto_us:int -> ?min_rto_us:int -> ?max_rto_us:int -> unit -> t
(** Defaults: initial 1 s, floor 200 ms, ceiling 60 s. *)

val sample : t -> int -> unit
(** Feed one RTT measurement in microseconds (non-negative); resets
    backoff.  Allocates nothing. *)

val rto : t -> int
(** Current timeout in microseconds, backoff included. *)

val backoff : t -> unit
(** Double the timeout (up to the ceiling) after a retransmission. *)

val reset_backoff : t -> unit

val srtt : t -> int option
(** Smoothed RTT, if at least one sample has been taken. *)

val rttvar : t -> int option
