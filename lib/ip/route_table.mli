(** Longest-prefix-match forwarding table.

    The table maps CIDR prefixes to (outgoing interface, optional next-hop
    gateway, metric).  A prefix holds one route, and {!add} replaces it;
    lookup returns the route of the longest matching prefix.  Routing
    protocols own the dynamic entries; interface configuration installs
    connected routes.

    Internally a path-compressed binary trie over the address bits, packed
    into one int array of four ints per node: network bits, prefix length
    with a has-route bit, then the bit-0 and bit-1 children side by side.
    A lookup step is one node read plus one indexed load for the child.
    Routes are boxed once at {!add} into a side array that {!lookup} reads
    once, at the deepest match, so a lookup costs O(prefix depth)
    regardless of table size and allocates nothing: a transit gateway can
    hold one aggregated prefix per region of an E17-scale catenet without
    per-packet cost growing with the table.  The table is the only
    forwarding state; nothing memoizes its answers. *)

type route = {
  prefix : Packet.Addr.Prefix.t;
  iface : Netsim.iface;
  next_hop : Packet.Addr.t option;
      (** [None] when the destination is on the attached network. *)
  metric : int;
}

type t

val create : unit -> t

val add : t -> route -> unit
(** Insert, replacing any existing route with the same prefix. *)

val remove : t -> Packet.Addr.Prefix.t -> unit
(** No-op when absent. *)

val clear : t -> unit

val lookup : t -> Packet.Addr.t -> route option
(** Longest-prefix match. *)

val find : t -> Packet.Addr.Prefix.t -> route option
(** Exact-prefix lookup. *)

val entries : t -> route list
(** All routes, longest prefixes first. *)

val length : t -> int
(** Number of routes, maintained incrementally — O(1) (daemon stats paths
    call this per tick). *)

val relayout : t -> unit
(** Renumber the trie's nodes in depth-first preorder, the root first
    and every node's bit-0 child right after it, so a lookup that
    descends reads adjacent nodes instead of nodes strewn in insertion
    order.  Routes, lookups and {!entries} are unchanged; the free list
    is dropped, as every live node now sits below the high-water mark.
    [Topo.build] calls it once on every gateway table after the bulk
    build. *)

val node_count : t -> int
(** Live trie nodes (structural diagnostic; at most [2 * length t + 1]).
    Tests use it to prove remove/re-add churn reclaims nodes. *)

val pp : Format.formatter -> t -> unit
