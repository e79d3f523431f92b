(** Big-endian byte readers and writers for wire formats.

    All internet protocol fields are network byte order (big-endian); these
    cursors wrap [Bytes.t] and fail loudly on overrun so that header
    encoders/decoders stay short and total. *)

exception Truncated
(** Raised by read operations that run past the end of the buffer, and by
    write operations past capacity.  Decoders treat it as a malformed
    packet. *)

(** {1 Writer} *)

module W : sig
  type t

  val create : int -> t
  (** [create n] is a writer over a fresh zeroed buffer of capacity [n]. *)

  val pos : t -> int
  (** Bytes written so far. *)

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit

  val u32_of_int : t -> int -> unit
  (** Writes the low 32 bits of an [int]; convenient for sequence numbers
      kept as OCaml ints. *)

  val bytes : t -> bytes -> unit
  (** Append a whole byte string. *)

  val sub : t -> bytes -> pos:int -> len:int -> unit
  (** Append a slice. *)

  val seek : t -> int -> unit
  (** Reposition the cursor (for checksum backpatching). *)

  val contents : t -> bytes
  (** The written prefix: the buffer itself once it is exactly full, a
      fresh copy otherwise.  Read it once, after the last write. *)
end

(** {1 Reader} *)

module R : sig
  type t

  val of_bytes : bytes -> t
  val of_sub : bytes -> pos:int -> len:int -> t

  val pos : t -> int
  (** Cursor position relative to the start of the reader's window. *)

  val remaining : t -> int

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int32

  val u32_to_int : t -> int
  (** Reads 32 bits as a non-negative [int]. *)

  val bytes : t -> int -> bytes
  (** [bytes r n] reads the next [n] bytes. *)

  val skip : t -> int -> unit
end
