module Addr = Packet.Addr

type route = {
  prefix : Addr.Prefix.t;
  iface : Netsim.iface;
  next_hop : Addr.t option;
  metric : int;
}

(* Longest-prefix match over a path-compressed binary trie.

   The flat 33-bucket list scan this replaces was fine for tens of routes
   but priced every lookup at O(routes); a transit gateway holding one
   aggregated prefix per region (E17: hundreds of regions, 10^4..10^5
   hosts) needs lookups priced by prefix *depth*, not table size.

   Nodes live in parallel int arrays (struct-of-arrays, index = node id):
   each node is a prefix (network bits + length) with at most two
   children, whose prefixes strictly extend it.  Path compression means a
   child may extend its parent by many bits at once; a lookup therefore
   re-checks that the key matches each node's full prefix before
   descending.  The deepest matching node with a route wins — routes are
   kept pre-boxed ([route option] per node), so [lookup] returns a stored
   option and allocates nothing.

   [generation] counts mutations.  Per-stack lookup caches key their memo
   on it: any add/remove/clear invalidates every cached answer, which is
   the only correctness condition a forwarding cache needs. *)

type t = {
  mutable nd_net : int array;  (* network bits, 0 .. 2^32-1 *)
  mutable nd_len : int array;  (* prefix length, 0 .. 32 *)
  mutable nd_left : int array;  (* child for next bit 0, or -1 *)
  mutable nd_right : int array;  (* child for next bit 1, or -1 *)
  mutable nd_route : route option array;  (* pre-boxed; None on branches *)
  mutable used : int;  (* high-water mark of allocated node slots *)
  mutable free_head : int;  (* free list threaded through nd_left *)
  mutable live : int;  (* allocated minus freed nodes *)
  mutable size : int;  (* routes stored *)
  mutable generation : int;
}

(* masks.(l) keeps the top l bits of a 32-bit value.  l = 0 falls out of
   the shift naturally: (-1) lsl 32 has no low 32 bits set. *)
let masks = Array.init 33 (fun l -> ((-1) lsl (32 - l)) land 0xffffffff)

let root = 0

let create () =
  let cap = 16 in
  let t =
    {
      nd_net = Array.make cap 0;
      nd_len = Array.make cap 0;
      nd_left = Array.make cap (-1);
      nd_right = Array.make cap (-1);
      nd_route = Array.make cap None;
      used = 1;
      (* node 0 is the root, 0.0.0.0/0, never freed *)
      free_head = -1;
      live = 1;
      size = 0;
      generation = 0;
    }
  in
  t

let generation t = t.generation [@@fastpath]
let length t = t.size
let node_count t = t.live

let grow t =
  let cap = Array.length t.nd_net * 2 in
  let copy a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.used;
    a'
  in
  t.nd_net <- copy t.nd_net 0;
  t.nd_len <- copy t.nd_len 0;
  t.nd_left <- copy t.nd_left (-1);
  t.nd_right <- copy t.nd_right (-1);
  let r' = Array.make cap None in
  Array.blit t.nd_route 0 r' 0 t.used;
  t.nd_route <- r'

let alloc_node t ~net ~len ~route =
  let i =
    if t.free_head >= 0 then begin
      let i = t.free_head in
      t.free_head <- t.nd_left.(i);
      i
    end
    else begin
      if t.used = Array.length t.nd_net then grow t;
      let i = t.used in
      t.used <- t.used + 1;
      i
    end
  in
  t.nd_net.(i) <- net;
  t.nd_len.(i) <- len;
  t.nd_left.(i) <- -1;
  t.nd_right.(i) <- -1;
  t.nd_route.(i) <- route;
  t.live <- t.live + 1;
  i

let free_node t i =
  t.nd_route.(i) <- None;
  t.nd_right.(i) <- -1;
  t.nd_left.(i) <- t.free_head;
  t.free_head <- i;
  t.live <- t.live - 1

(* The branching bit of [net] just past a node of length [l]. *)
let bit_after net l = (net lsr (31 - l)) land 1

let child t i bit = if bit = 0 then t.nd_left.(i) else t.nd_right.(i)

let set_child t i bit c =
  if bit = 0 then t.nd_left.(i) <- c else t.nd_right.(i) <- c

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

let bump t = t.generation <- t.generation + 1

let add t r =
  let net = Addr.to_int (Addr.Prefix.network r.prefix) in
  let plen = Addr.Prefix.length r.prefix in
  let boxed = Some r in
  let rec insert i =
    (* invariant: node [i]'s prefix is a (possibly equal) prefix of the
       target's *)
    if t.nd_len.(i) = plen then begin
      if t.nd_route.(i) = None then t.size <- t.size + 1;
      t.nd_route.(i) <- boxed
    end
    else begin
      let bit = bit_after net t.nd_len.(i) in
      let c = child t i bit in
      if c < 0 then begin
        let leaf = alloc_node t ~net ~len:plen ~route:boxed in
        set_child t i bit leaf;
        t.size <- t.size + 1
      end
      else begin
        let cl = common_len net t.nd_net.(c) (min plen t.nd_len.(c)) in
        if cl = t.nd_len.(c) then insert c
        else if cl = plen then begin
          (* target sits on the edge between [i] and [c] *)
          let mid = alloc_node t ~net ~len:plen ~route:boxed in
          set_child t mid (bit_after t.nd_net.(c) plen) c;
          set_child t i bit mid;
          t.size <- t.size + 1
        end
        else begin
          (* diverge below [cl]: branch node with [c] and a new leaf *)
          let bnet = net land masks.(cl) in
          let branch = alloc_node t ~net:bnet ~len:cl ~route:None in
          let leaf = alloc_node t ~net ~len:plen ~route:boxed in
          set_child t branch (bit_after t.nd_net.(c) cl) c;
          set_child t branch (bit_after net cl) leaf;
          set_child t i bit branch;
          t.size <- t.size + 1
        end
      end
    end
  in
  insert root;
  bump t;
  if Trace.want Trace.Cls.route then
    Trace.emit
      (Trace.Event.Route_change
         { prefix = r.prefix; metric = r.metric;
           action = Trace.Event.Route_add })

(* Splice out or free [i] (child of [p]) if it no longer pulls its
   weight: a routeless node with no children disappears, a routeless
   pass-through with one child is path-compressed away. *)
let compact t ~parent:p i =
  if i <> root && t.nd_route.(i) = None then begin
    let l = t.nd_left.(i) and r = t.nd_right.(i) in
    let pbit = bit_after t.nd_net.(i) t.nd_len.(p) in
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
      let l = t.nd_len.(i) in
      if l <= plen && (net lxor t.nd_net.(i)) land masks.(l) = 0 then begin
        if l = plen then begin
          if t.nd_net.(i) = net && t.nd_route.(i) <> None then begin
            t.nd_route.(i) <- None;
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
  (match () with
  | () when plen = 0 ->
      (* the root itself carries the default route; never freed *)
      if t.nd_route.(root) <> None then begin
        t.nd_route.(root) <- None;
        t.size <- t.size - 1
      end
  | () -> descend (-1) root (child t root (bit_after net 0)));
  bump t;
  if Trace.want Trace.Cls.route then
    Trace.emit
      (Trace.Event.Route_change
         { prefix; metric = 0; action = Trace.Event.Route_remove })

let clear t =
  t.nd_left.(root) <- -1;
  t.nd_right.(root) <- -1;
  t.nd_route.(root) <- None;
  t.used <- 1;
  t.free_head <- -1;
  t.live <- 1;
  t.size <- 0;
  bump t;
  if Trace.want Trace.Cls.route then
    Trace.emit
      (Trace.Event.Route_change
         { prefix = Addr.Prefix.make Addr.any 0; metric = 0;
           action = Trace.Event.Route_clear })

(* The hot path: walk matching nodes from the root, remembering the last
   one that carried a route.  Each step re-checks the node's full prefix
   against the key (path compression can skip bits), then branches on the
   bit just past it.  Routes are pre-boxed at insertion, so this returns
   a stored [Some] and allocates nothing. *)
let rec lookup_at t a i best =
  if i < 0 then best
  else begin
    let l = Array.unsafe_get t.nd_len i in
    if (a lxor Array.unsafe_get t.nd_net i) land Array.unsafe_get masks l <> 0
    then best
    else begin
      let best =
        match Array.unsafe_get t.nd_route i with
        | None -> best
        | Some _ as r -> r
      in
      if l >= 32 then best
      else
        lookup_at t a
          (if (a lsr (31 - l)) land 1 = 0 then Array.unsafe_get t.nd_left i
           else Array.unsafe_get t.nd_right i)
          best
    end
  end
[@@fastpath]

let lookup t addr = lookup_at t (Addr.to_int addr) root None [@@fastpath]

let find t prefix =
  let net = Addr.to_int (Addr.Prefix.network prefix) in
  let plen = Addr.Prefix.length prefix in
  let rec go i =
    if i < 0 then None
    else begin
      let l = t.nd_len.(i) in
      if l > plen || (net lxor t.nd_net.(i)) land masks.(l) <> 0 then None
      else if l = plen then t.nd_route.(i)
      else go (child t i (bit_after net l))
    end
  in
  go root

let entries t =
  let acc = ref [] in
  let rec go i =
    if i >= 0 then begin
      (match t.nd_route.(i) with Some r -> acc := r :: !acc | None -> ());
      go t.nd_left.(i);
      go t.nd_right.(i)
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
