(** Binary min-heap keyed by [(int, int)] pairs.

    Ordered by (key, insertion sequence), as link-state routing's Dijkstra
    needs: the sequence component makes the pop order of equal keys
    deterministic (FIFO in insertion order), which keeps whole simulations
    reproducible. *)

type 'a t
(** Heap of values of type ['a]. *)

val create : unit -> 'a t
(** Fresh empty heap. *)

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push t ~key ~seq v] inserts [v] ordered primarily by [key] and, among
    equal keys, by [seq]. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum as [(key, seq, value)], or [None] if the
    heap is empty. *)
