(** Binary min-heap keyed by [(int, int)] pairs.

    Ordered by (key, insertion sequence), as link-state routing's Dijkstra
    needs: the sequence component makes the pop order of equal keys
    deterministic (FIFO in insertion order), which keeps whole simulations
    reproducible. *)

type 'a t
(** Heap of values of type ['a]. *)

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int
(** Number of stored elements. *)

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push t ~key ~seq v] inserts [v] ordered primarily by [key] and, among
    equal keys, by [seq]. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum as [(key, seq, value)], or [None] if the
    heap is empty. *)

val peek : 'a t -> (int * int * 'a) option
(** Like {!pop} without removing. *)

val min_key : 'a t -> int
(** Key of the minimum element without allocating.  @raise Not_found when
    empty. *)

val min_seq : 'a t -> int
(** Sequence of the minimum element without allocating.  @raise Not_found
    when empty. *)

val pop_min : 'a t -> 'a
(** Remove the minimum and return its value without allocating.
    @raise Not_found when empty. *)

val clear : 'a t -> unit
(** Drop all elements, retaining the backing array's capacity. *)
