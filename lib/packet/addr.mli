(** IPv4 addresses and prefixes. *)

type t = private int
(** An IPv4 address: its 32 bits as an immediate [int] in
    [\[0, 2{^32})], so an address costs nothing to read off the wire,
    store or hash.  Total order and equality follow numeric value. *)

val of_int : int -> t
(** The address with the low 32 bits of the argument. *)

val to_int : t -> int
(** The 32 address bits, in [\[0, 2{^32})]. *)

val of_string : string -> t
(** Dotted quad, e.g. ["10.1.2.3"].  @raise Invalid_argument on syntax
    errors or out-of-range octets. *)

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val v : int -> int -> int -> int -> t
(** [v 10 0 0 1] is [10.0.0.1]; octets must be in [\[0,255\]]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val any : t
(** [0.0.0.0], the wildcard/unspecified address. *)

val succ : t -> t
(** Numerically next address (wraps at 255.255.255.255). *)

(** CIDR prefixes for routing tables. *)
module Prefix : sig
  type addr := t
  type t

  val make : addr -> int -> t
  (** [make a len] is the prefix of the leading [len] bits of [a]; host
      bits are cleared.  [len] must be in [\[0,32\]]. *)

  val of_string : string -> t
  (** ["10.1.0.0/16"] syntax.  @raise Invalid_argument on bad input. *)

  val network : t -> addr
  val length : t -> int
  val mem : addr -> t -> bool
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
  val compare : t -> t -> int
  val equal : t -> t -> bool

  val default : t
  (** [0.0.0.0/0], matches every address. *)

  val host : addr -> t
  (** The /32 containing exactly one address. *)
end
