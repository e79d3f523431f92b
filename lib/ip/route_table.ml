module Addr = Packet.Addr

type route = {
  prefix : Addr.Prefix.t;
  iface : Netsim.iface;
  next_hop : Addr.t option;
  metric : int;
}

(* Longest-prefix match over a path-compressed binary trie.

   A transit gateway holding one aggregated prefix per region (E17:
   hundreds of regions, 10^4..10^5 hosts) needs lookups priced by prefix
   *depth*, not table size.  Each node is a prefix (network bits +
   length) with at most two children, whose prefixes strictly extend it.
   Path compression means a child may extend its parent by many bits at
   once; a lookup therefore re-checks that the key matches each node's
   full prefix before descending.

   The nodes are packed into one int array, four ints per node, at
   [4i .. 4i+3]:

     nd.(4i)     network bits, 0 .. 2^32-1
     nd.(4i+1)   (prefix length lsl 1) lor 1 if the node holds a route
     nd.(4i+2)   child for next bit 0, or -1
     nd.(4i+3)   child for next bit 1, or -1

   A node is 32 bytes, half a cache line, and its two children sit side
   by side, so a lookup step reads one node and picks its child with one
   indexed load, [nd.(4i + 2 + bit)].  Routes are boxed once at [add]
   into the side array [routes] (a [route option] per node, [None] on
   branches); [lookup] remembers only the deepest matching node with the
   route bit set and reads [routes] once, at the end, so it returns a
   stored option and allocates nothing.  Free nodes are threaded through
   their bit-0 child slot.

   Nodes are numbered in the order they were allocated, which after a
   bulk build scatters a walk over the whole array.  [relayout] copies
   the live nodes in depth-first preorder, so each node's bit-0 child is
   the next node and a walk down a region gateway's 400 host routes
   reads neighbouring lines. *)

type t = {
  mutable nd : int array;
  mutable routes : route option array;
  mutable used : int;  (* high-water mark of allocated node slots *)
  mutable free_head : int;
  mutable live : int;  (* allocated minus freed nodes *)
  mutable size : int;  (* routes stored *)
}

(* Node 0 is the root, 0.0.0.0/0.  It is never freed, and it holds the
   default route when there is one. *)
let root = 0

let net_of t i = t.nd.(4 * i)
let len_of t i = t.nd.((4 * i) + 1) lsr 1
let has_route t i = t.nd.((4 * i) + 1) land 1 = 1
let child t i bit = t.nd.((4 * i) + 2 + bit)
let set_child t i bit c = t.nd.((4 * i) + 2 + bit) <- c

let set_route t i r =
  t.routes.(i) <- r;
  let k = (4 * i) + 1 in
  t.nd.(k) <-
    (match r with None -> t.nd.(k) land lnot 1 | Some _ -> t.nd.(k) lor 1)

let set_node t i ~net ~len =
  t.nd.(4 * i) <- net;
  t.nd.((4 * i) + 1) <- len lsl 1;
  set_child t i 0 (-1);
  set_child t i 1 (-1)

let create () =
  let cap = 16 in
  let t =
    {
      nd = Array.make (4 * cap) 0;
      routes = Array.make cap None;
      used = 1;
      free_head = -1;
      live = 1;
      size = 0;
    }
  in
  set_node t root ~net:0 ~len:0;
  t

let length t = t.size
let node_count t = t.live

let grow t =
  let cap = 2 * Array.length t.routes in
  let nd = Array.make (4 * cap) 0 in
  Array.blit t.nd 0 nd 0 (4 * t.used);
  t.nd <- nd;
  let routes = Array.make cap None in
  Array.blit t.routes 0 routes 0 t.used;
  t.routes <- routes

let alloc_node t ~net ~len ~route =
  let i =
    if t.free_head >= 0 then begin
      let i = t.free_head in
      t.free_head <- child t i 0;
      i
    end
    else begin
      if t.used = Array.length t.routes then grow t;
      let i = t.used in
      t.used <- t.used + 1;
      i
    end
  in
  set_node t i ~net ~len;
  set_route t i route;
  t.live <- t.live + 1;
  i

let free_node t i =
  set_route t i None;
  set_child t i 1 (-1);
  set_child t i 0 t.free_head;
  t.free_head <- i;
  t.live <- t.live - 1

(* Does the [l]-bit prefix with network bits [net] contain [a]? *)
let covers ~net l a = (a lxor net) lsr (32 - l) = 0 [@@fastpath]

(* The branching bit of [net] just past a node of length [l]. *)
let bit_after net l = (net lsr (31 - l)) land 1

(* Length of the common prefix of [a] and [b], capped at [cap]. *)
let common_len a b cap =
  let x = (a lxor b) land 0xffffffff in
  if x = 0 then cap
  else begin
    (* index (from the top) of the highest set bit of x *)
    let n = ref 0 in
    let x = ref x in
    if !x land 0xffff0000 = 0 then begin
      n := !n + 16;
      x := !x lsl 16
    end;
    if !x land 0xff000000 = 0 then begin
      n := !n + 8;
      x := !x lsl 8
    end;
    if !x land 0xf0000000 = 0 then begin
      n := !n + 4;
      x := !x lsl 4
    end;
    if !x land 0xc0000000 = 0 then begin
      n := !n + 2;
      x := !x lsl 2
    end;
    if !x land 0x80000000 = 0 then n := !n + 1;
    min cap !n
  end

let add t r =
  let net = Addr.to_int (Addr.Prefix.network r.prefix) in
  let plen = Addr.Prefix.length r.prefix in
  let boxed = Some r in
  let rec insert i =
    (* invariant: node [i]'s prefix is a (possibly equal) prefix of the
       target's *)
    if len_of t i = plen then begin
      if not (has_route t i) then t.size <- t.size + 1;
      set_route t i boxed
    end
    else begin
      let bit = bit_after net (len_of t i) in
      let c = child t i bit in
      if c < 0 then begin
        let leaf = alloc_node t ~net ~len:plen ~route:boxed in
        set_child t i bit leaf;
        t.size <- t.size + 1
      end
      else begin
        let clen = len_of t c in
        let cl = common_len net (net_of t c) (min plen clen) in
        if cl = clen then insert c
        else if cl = plen then begin
          (* target sits on the edge between [i] and [c] *)
          let mid = alloc_node t ~net ~len:plen ~route:boxed in
          set_child t mid (bit_after (net_of t c) plen) c;
          set_child t i bit mid;
          t.size <- t.size + 1
        end
        else begin
          (* diverge below [cl]: branch node with [c] and a new leaf *)
          let bnet = (net lsr (32 - cl)) lsl (32 - cl) in
          let branch = alloc_node t ~net:bnet ~len:cl ~route:None in
          let leaf = alloc_node t ~net ~len:plen ~route:boxed in
          set_child t branch (bit_after (net_of t c) cl) c;
          set_child t branch (bit_after net cl) leaf;
          set_child t i bit branch;
          t.size <- t.size + 1
        end
      end
    end
  in
  insert root;
  if Trace.want Trace.Cls.route then
    Trace.emit
      (Trace.Event.Route_change
         { prefix = r.prefix; metric = r.metric;
           action = Trace.Event.Route_add })

(* Splice out or free [i] (child of [p]) if it no longer pulls its
   weight: a routeless node with no children disappears, a routeless
   pass-through with one child is path-compressed away. *)
let compact t ~parent:p i =
  if i <> root && not (has_route t i) then begin
    let l = child t i 0 and r = child t i 1 in
    let pbit = bit_after (net_of t i) (len_of t p) in
    if l < 0 && r < 0 then begin
      set_child t p pbit (-1);
      free_node t i
    end
    else if l < 0 || r < 0 then begin
      set_child t p pbit (if l < 0 then r else l);
      free_node t i
    end
  end

let remove t prefix =
  let net = Addr.to_int (Addr.Prefix.network prefix) in
  let plen = Addr.Prefix.length prefix in
  let rec descend gp p i =
    if i >= 0 then begin
      let l = len_of t i in
      if l <= plen && covers ~net:(net_of t i) l net then begin
        if l = plen then begin
          if has_route t i then begin
            set_route t i None;
            t.size <- t.size - 1;
            (* the node may now be dead weight; and removing it can leave
               its parent a routeless pass-through *)
            compact t ~parent:p i;
            if gp >= 0 then compact t ~parent:gp p
          end
        end
        else descend p i (child t i (bit_after net l))
      end
    end
  in
  if plen = 0 then begin
    if has_route t root then begin
      set_route t root None;
      t.size <- t.size - 1
    end
  end
  else descend (-1) root (child t root (bit_after net 0));
  if Trace.want Trace.Cls.route then
    Trace.emit
      (Trace.Event.Route_change
         { prefix; metric = 0; action = Trace.Event.Route_remove })

let clear t =
  Array.fill t.routes 0 t.used None;
  set_node t root ~net:0 ~len:0;
  t.used <- 1;
  t.free_head <- -1;
  t.live <- 1;
  t.size <- 0;
  if Trace.want Trace.Cls.route then
    Trace.emit
      (Trace.Event.Route_change
         { prefix = Addr.Prefix.make Addr.any 0; metric = 0;
           action = Trace.Event.Route_clear })

(* Copy node [i] of [t] and, depth first, everything below it into
   [nd]/[routes] from slot [k] on, bit-0 subtree before bit-1 subtree;
   returns the next free slot. *)
let rec copy_preorder t nd routes i k =
  let b = 4 * k in
  nd.(b) <- t.nd.(4 * i);
  nd.(b + 1) <- t.nd.((4 * i) + 1);
  routes.(k) <- t.routes.(i);
  let k' =
    match child t i 0 with
    | -1 ->
        nd.(b + 2) <- -1;
        k + 1
    | c ->
        nd.(b + 2) <- k + 1;
        copy_preorder t nd routes c (k + 1)
  in
  match child t i 1 with
  | -1 ->
      nd.(b + 3) <- -1;
      k'
  | c ->
      nd.(b + 3) <- k';
      copy_preorder t nd routes c k'

let relayout t =
  let nd = Array.make (Array.length t.nd) 0 in
  let routes = Array.make (Array.length t.routes) None in
  let used = copy_preorder t nd routes root 0 in
  t.nd <- nd;
  t.routes <- routes;
  t.used <- used;
  t.free_head <- -1

(* The hot path: walk matching nodes from the root, remembering the last
   one that holds a route.  Each step re-checks the node's full prefix
   against the key (path compression can skip bits), then loads the
   child for the bit just past it. *)
let rec walk nd a i best =
  if i < 0 then best
  else begin
    let b = 4 * i in
    let lw = Array.unsafe_get nd (b + 1) in
    let l = lw lsr 1 in
    if not (covers ~net:(Array.unsafe_get nd b) l a) then best
    else begin
      let best = if lw land 1 = 0 then best else i in
      if l = 32 then best
      else
        walk nd a
          (Array.unsafe_get nd (b + 2 + ((a lsr (31 - l)) land 1)))
          best
    end
  end
[@@fastpath]

let lookup t addr =
  let i = walk t.nd (Addr.to_int addr) root (-1) in
  if i < 0 then None else Array.unsafe_get t.routes i
[@@fastpath]

let find t prefix =
  let net = Addr.to_int (Addr.Prefix.network prefix) in
  let plen = Addr.Prefix.length prefix in
  let rec go i =
    if i < 0 then None
    else begin
      let l = len_of t i in
      if l > plen || not (covers ~net:(net_of t i) l net) then None
      else if l = plen then t.routes.(i)
      else go (child t i (bit_after net l))
    end
  in
  go root

let entries t =
  let acc = ref [] in
  let rec go i =
    if i >= 0 then begin
      (match t.routes.(i) with Some r -> acc := r :: !acc | None -> ());
      go (child t i 0);
      go (child t i 1)
    end
  in
  go root;
  List.stable_sort
    (fun a b ->
      Int.compare (Addr.Prefix.length b.prefix) (Addr.Prefix.length a.prefix))
    !acc

let pp fmt t =
  List.iter
    (fun r ->
      Format.fprintf fmt "%a -> if%d%s metric=%d@."
        Addr.Prefix.pp r.prefix r.iface
        (match r.next_hop with
        | None -> " (connected)"
        | Some nh -> Printf.sprintf " via %s" (Addr.to_string nh))
        r.metric)
    (entries t)
