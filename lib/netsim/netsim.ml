type node_id = int
type iface = int
type link_id = int

type profile = {
  name : string;
  bandwidth_bps : int;
  delay_us : int;
  mtu : int;
  loss : float;
  queue_capacity : int;
  jitter_us : int;
}

let profile ?(bandwidth_bps = 10_000_000) ?(delay_us = 1_000) ?(mtu = 1500)
    ?(loss = 0.0) ?(queue_capacity = 32) ?(jitter_us = 0) name =
  { name; bandwidth_bps; delay_us; mtu; loss; queue_capacity; jitter_us }

module Profiles = struct
  let ethernet =
    profile "ethernet" ~bandwidth_bps:10_000_000 ~delay_us:100 ~mtu:1500

  let arpanet_trunk =
    profile "arpanet-trunk" ~bandwidth_bps:56_000 ~delay_us:20_000 ~mtu:1006

  let satellite =
    profile "satellite" ~bandwidth_bps:1_500_000 ~delay_us:250_000 ~mtu:1500

  let serial_9600 =
    profile "serial-9600" ~bandwidth_bps:9_600 ~delay_us:5_000 ~mtu:576

  let packet_radio =
    profile "packet-radio" ~bandwidth_bps:400_000 ~delay_us:10_000 ~mtu:254
      ~loss:0.02

  let t1 = profile "t1" ~bandwidth_bps:1_536_000 ~delay_us:10_000 ~mtu:1500

  let fast_lan =
    profile "fast-lan" ~bandwidth_bps:100_000_000 ~delay_us:50 ~mtu:1500
end

type link_stats = {
  tx_frames : int;
  tx_bytes : int;
  delivered_frames : int;
  drops_queue : int;
  drops_loss : int;
  drops_down : int;
  drops_mtu : int;
}

(* Link state is flat: per-link int arrays, grown by doubling, so a link
   costs a few dozen words and no heap object of its own — 10^5-host
   topologies are mostly links.  Both directions of a link are always
   flushed and reported together, so it has one epoch and one set of
   counters; only the queues are per direction.

   Every queued or in-flight frame is an entry of one netsim-wide slab
   (parallel arrays, recycled through a free list).  An entry records
   its link, direction, the link's epoch when it was accepted, and the
   stage of its one pending engine event: transmission done, or
   delivery.  Each entry carries a closure made once, when the slab
   grows, so scheduling a frame's events allocates nothing.  Taking a
   link down bumps its epoch and frees the entries still queued; an
   entry with an event pending is freed by that event, which finds the
   epoch stale and does nothing else.

   Reading [fire.(e)] is an application of function type, which the
   typed fast-path lint would take for a partial application: the two
   reads are exempt. *)

let nil = -1

(* Counters, [n_counters] per link. *)
let c_tx_frames = 0
let c_tx_bytes = 1
let c_delivered = 2
let c_drops_queue = 3
let c_drops_loss = 4
let c_drops_down = 5
let c_drops_mtu = 6
let n_counters = 7

(* Queue state, [n_qfields] per direction [2 * link + dir]: a FIFO of
   low-delay frames served first and a FIFO of ordinary ones (each a
   head and, right after it, a tail), the number of frames held (the one
   being transmitted included) and whether the transmitter is busy. *)
let q_hi_head = 0
let q_hi_tail = 1
let q_lo_head = 2
let q_lo_tail = 3
let q_len = 4
let q_busy = 5
let n_qfields = 6

type node = {
  name : string;
  mutable node_up : bool;
  mutable handler : (iface:iface -> bytes -> unit) option;
  mutable iface_arr : int array; (* iface -> 2 * link + side *)
  mutable n_ifaces : int;
}

type t = {
  eng : Engine.t;
  mutable nodes : node array;
  mutable n_nodes : int;
  rng : Stdext.Rng.t;
  mutable default_handler :
    (node:node_id -> iface:iface -> bytes -> unit) option;
      (* Fallback receive path for nodes with no per-node handler: one
         shared closure serves an arbitrary population of cheap hosts
         (E17's pooled endpoints), instead of a closure web per node. *)
  (* Links. *)
  mutable n_links : int;
  mutable ends : int array; (* 4 per link: node a, iface a, node b, iface b *)
  mutable prof : profile array;
  mutable link_rng : Stdext.Rng.t array;
  mutable up : bool array;
  mutable epoch : int array;
  mutable counters : int array; (* n_counters per link *)
  mutable queues : int array; (* n_qfields per direction *)
  mutable tap : (dir:int -> bytes -> unit) option array;
      (* Observes every frame at transmission completion — the sender's
         wire, before the loss draw — for pcap capture. *)
  (* The frame slab. *)
  mutable frame : bytes array;
  mutable dir_of : int array; (* 2 * link + dir *)
  mutable epoch_of : int array; (* the link's epoch at acceptance *)
  mutable delivering : bool array; (* pending event: delivery, not tx done *)
  mutable next : int array; (* queue successor, or free-list link *)
  mutable fire : (unit -> unit) array;
  mutable free : int;
}

let create ?(seed = 42) eng =
  {
    eng;
    nodes = [||];
    n_nodes = 0;
    rng = Stdext.Rng.create seed;
    default_handler = None;
    n_links = 0;
    ends = [||];
    prof = [||];
    link_rng = [||];
    up = [||];
    epoch = [||];
    counters = [||];
    queues = [||];
    tap = [||];
    frame = [||];
    dir_of = [||];
    epoch_of = [||];
    delivering = [||];
    next = [||];
    fire = [||];
    free = nil;
  }

let engine t = t.eng

let add_node t name =
  let n =
    { name; node_up = true; handler = None; iface_arr = [||];
      n_ifaces = 0 }
  in
  if t.n_nodes = Array.length t.nodes then begin
    let cap = if t.n_nodes = 0 then 8 else t.n_nodes * 2 in
    let arr = Array.make cap n in
    Array.blit t.nodes 0 arr 0 t.n_nodes;
    t.nodes <- arr
  end;
  t.nodes.(t.n_nodes) <- n;
  t.n_nodes <- t.n_nodes + 1;
  t.n_nodes - 1

let node_count t = t.n_nodes

let node t id =
  if id < 0 || id >= t.n_nodes then invalid_arg "Netsim: bad node id";
  t.nodes.(id)
[@@fastpath]

let node_name t id = (node t id).name

let attach_iface t node_id link_id side =
  let n = node t node_id in
  if n.n_ifaces = Array.length n.iface_arr then begin
    let cap = if n.n_ifaces = 0 then 4 else n.n_ifaces * 2 in
    let arr = Array.make cap 0 in
    Array.blit n.iface_arr 0 arr 0 n.n_ifaces;
    n.iface_arr <- arr
  end;
  n.iface_arr.(n.n_ifaces) <- (2 * link_id) + side;
  n.n_ifaces <- n.n_ifaces + 1;
  n.n_ifaces - 1

(* [a] with its first [n] elements kept and room for [cap]. *)
let resize a n cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 n;
  b

let grow_links t =
  let n = t.n_links in
  let cap = if n = 0 then 8 else 2 * n in
  t.ends <- resize t.ends (4 * n) (4 * cap) 0;
  t.prof <- resize t.prof n cap (profile "unused");
  t.link_rng <- resize t.link_rng n cap t.rng;
  t.up <- resize t.up n cap false;
  t.epoch <- resize t.epoch n cap 0;
  t.counters <- resize t.counters (n_counters * n) (n_counters * cap) 0;
  t.queues <- resize t.queues (2 * n_qfields * n) (2 * n_qfields * cap) 0;
  t.tap <- resize t.tap n cap None

(* Empty direction [d]'s queues and idle its transmitter. *)
let clear_queues t d =
  let q = d * n_qfields in
  t.queues.(q + q_hi_head) <- nil;
  t.queues.(q + q_hi_tail) <- nil;
  t.queues.(q + q_lo_head) <- nil;
  t.queues.(q + q_lo_tail) <- nil;
  t.queues.(q + q_len) <- 0;
  t.queues.(q + q_busy) <- 0

let add_link t prof na nb =
  if na = nb then invalid_arg "Netsim.add_link: self-link";
  ignore (node t na);
  ignore (node t nb);
  let id = t.n_links in
  let ia = attach_iface t na id 0 in
  let ib = attach_iface t nb id 1 in
  if id = Array.length t.prof then grow_links t;
  Array.blit [| na; ia; nb; ib |] 0 t.ends (4 * id) 4;
  t.prof.(id) <- prof;
  t.link_rng.(id) <- Stdext.Rng.split t.rng;
  t.up.(id) <- true;
  clear_queues t (2 * id);
  clear_queues t ((2 * id) + 1);
  t.n_links <- id + 1;
  id

let link_count t = t.n_links

let check_link t id =
  if id < 0 || id >= t.n_links then invalid_arg "Netsim: bad link id"
[@@fastpath]

let iface_count t nid = (node t nid).n_ifaces

(* [2 * link + side] of a node's interface. *)
let iface_entry t nid i =
  let n = node t nid in
  if i < 0 || i >= n.n_ifaces then invalid_arg "Netsim: bad iface";
  n.iface_arr.(i)
[@@fastpath]

let iface_link t nid i = iface_entry t nid i lsr 1 [@@fastpath]

let iface_mtu t nid i = t.prof.(iface_link t nid i).mtu [@@fastpath]

let end_of t lid side =
  (t.ends.((4 * lid) + (2 * side)), t.ends.((4 * lid) + (2 * side) + 1))

let peer t nid i =
  let d = iface_entry t nid i in
  end_of t (d lsr 1) (1 - (d land 1))

let endpoints t lid =
  check_link t lid;
  (end_of t lid 0, end_of t lid 1)

let set_handler t nid f = (node t nid).handler <- Some f
let set_default_handler t f = t.default_handler <- f

let link_between t na nb =
  let rec scan i =
    if i >= t.n_links then None
    else
      let fa = t.ends.(4 * i) and fb = t.ends.((4 * i) + 2) in
      if (fa = na && fb = nb) || (fa = nb && fb = na) then Some i
      else scan (i + 1)
  in
  scan 0

(* Transmission time for [len] bytes on the link, at least 1 us. *)
let tx_time prof len =
  let bits = len * 8 in
  let us = bits * 1_000_000 / prof.bandwidth_bps in
  if us < 1 then 1 else us
[@@fastpath]

let add_counter t lid c n =
  let i = (n_counters * lid) + c in
  t.counters.(i) <- t.counters.(i) + n
[@@fastpath]

(* Count a drop and trace it: every drop counter is bumped here. *)
let drop t lid dir len c reason =
  add_counter t lid c 1;
  if Trace.want Trace.Cls.link then
    Trace.emit (Trace.Event.Link_drop { link = lid; dir; len; reason })
[@@fastpath]

(* The frame slab --------------------------------------------------------- *)

let release t e =
  t.frame.(e) <- Bytes.empty;
  t.next.(e) <- t.free;
  t.free <- e
[@@fastpath]

(* [true] while the link has not been taken down since [e] was accepted:
   going down bumps the epoch, and a down link accepts nothing. *)
let current t e = t.epoch_of.(e) = t.epoch.(t.dir_of.(e) lsr 1) [@@fastpath]

(* Start transmitting the next queued frame of direction [d], low-delay
   frames first, unless the transmitter is busy. *)
let start_tx t d =
  let q = d * n_qfields in
  let qs = t.queues in
  if qs.(q + q_busy) = 0 && t.up.(d lsr 1) then begin
    let head =
      if qs.(q + q_hi_head) <> nil then q + q_hi_head else q + q_lo_head
    in
    let e = qs.(head) in
    if e <> nil then begin
      qs.(head) <- t.next.(e);
      if t.next.(e) = nil then qs.(head + 1) <- nil;
      qs.(q + q_busy) <- 1;
      Engine.after t.eng
        (tx_time t.prof.(d lsr 1) (Bytes.length t.frame.(e)))
        (t.fire.(e) [@fastpath.exempt])
    end
  end
[@@fastpath]

let tx_done t e =
  if not (current t e) then release t e
  else begin
    let d = t.dir_of.(e) in
    let lid = d lsr 1 and dir = d land 1 in
    let frame = t.frame.(e) in
    let len = Bytes.length frame in
    let q = d * n_qfields in
    t.queues.(q + q_len) <- t.queues.(q + q_len) - 1;
    t.queues.(q + q_busy) <- 0;
    add_counter t lid c_tx_frames 1;
    add_counter t lid c_tx_bytes len;
    if Trace.want Trace.Cls.link then
      Trace.emit (Trace.Event.Link_dequeue { link = lid; dir; len });
    (* The tap sees the sender's wire: everything transmitted, including
       frames the loss draw is about to destroy. *)
    (match t.tap.(lid) with Some f -> f ~dir frame | None -> ());
    let prof = t.prof.(lid) and rng = t.link_rng.(lid) in
    if Stdext.Rng.bool rng prof.loss then begin
      release t e;
      drop t lid dir len c_drops_loss Trace.Event.Link_loss
    end
    else begin
      let jitter =
        if prof.jitter_us = 0 then 0
        else Stdext.Rng.int rng (prof.jitter_us + 1)
      in
      t.delivering.(e) <- true;
      Engine.after t.eng (prof.delay_us + jitter)
        (t.fire.(e) [@fastpath.exempt])
    end;
    start_tx t d
  end
[@@fastpath]

let deliver t e =
  let live = current t e in
  let d = t.dir_of.(e) and frame = t.frame.(e) in
  release t e;
  if live then begin
    let lid = d lsr 1 and dir = d land 1 in
    let dst = t.ends.((4 * lid) + 2 - (2 * dir)) in
    let dst_iface = t.ends.((4 * lid) + 3 - (2 * dir)) in
    let n = t.nodes.(dst) in
    if n.node_up then begin
      add_counter t lid c_delivered 1;
      if Trace.want Trace.Cls.link then
        Trace.emit
          (Trace.Event.Link_deliver
             { link = lid; dir; len = Bytes.length frame });
      match n.handler with
      | Some h -> h ~iface:dst_iface frame
      | None -> (
          match t.default_handler with
          | Some h -> h ~node:dst ~iface:dst_iface frame
          | None -> ())
    end
  end
[@@fastpath]

let fire t e = if t.delivering.(e) then deliver t e else tx_done t e

let grow_slab t =
  let n = Array.length t.frame in
  let cap = if n = 0 then 8 else 2 * n in
  t.frame <- resize t.frame n cap Bytes.empty;
  t.dir_of <- resize t.dir_of n cap 0;
  t.epoch_of <- resize t.epoch_of n cap 0;
  t.delivering <- resize t.delivering n cap false;
  (* Chain the new entries [n, cap) into the (empty) free list. *)
  t.next <-
    Array.init cap (fun e ->
        if e < n then t.next.(e) else if e + 1 < cap then e + 1 else nil);
  t.fire <-
    Array.init cap (fun e -> if e < n then t.fire.(e) else fun () -> fire t e);
  t.free <- n

let alloc t d frame =
  if t.free = nil then (grow_slab t [@fastpath.exempt]);
  let e = t.free in
  t.free <- t.next.(e);
  t.frame.(e) <- frame;
  t.dir_of.(e) <- d;
  t.epoch_of.(e) <- t.epoch.(d lsr 1);
  t.delivering.(e) <- false;
  t.next.(e) <- nil;
  e
[@@fastpath]

let send t nid ?(priority = false) ~iface frame =
  let d = iface_entry t nid iface in
  let lid = d lsr 1 and dir = d land 1 in
  let len = Bytes.length frame in
  let q = d * n_qfields in
  if (not (node t nid).node_up) || not t.up.(lid) then begin
    drop t lid dir len c_drops_down Trace.Event.Link_down;
    false
  end
  else if len > t.prof.(lid).mtu then begin
    drop t lid dir len c_drops_mtu Trace.Event.Link_mtu;
    false
  end
  else if t.queues.(q + q_len) >= t.prof.(lid).queue_capacity then begin
    drop t lid dir len c_drops_queue Trace.Event.Queue_full;
    false
  end
  else begin
    let e = alloc t d frame in
    let tail = q + if priority then q_hi_tail else q_lo_tail in
    let last = t.queues.(tail) in
    if last = nil then t.queues.(tail - 1) <- e else t.next.(last) <- e;
    t.queues.(tail) <- e;
    t.queues.(q + q_len) <- t.queues.(q + q_len) + 1;
    if Trace.want Trace.Cls.link then
      Trace.emit
        (Trace.Event.Link_enqueue { link = lid; dir; len; priority });
    start_tx t d;
    true
  end
[@@fastpath]

(* Free the entries still queued in direction [d] and empty it.  The one
   being transmitted, if any, is out of the queue with its event pending:
   that event frees it. *)
let flush_direction t d =
  let rec free e =
    if e <> nil then begin
      let nx = t.next.(e) in
      release t e;
      free nx
    end
  in
  free t.queues.((d * n_qfields) + q_hi_head);
  free t.queues.((d * n_qfields) + q_lo_head);
  clear_queues t d

let set_link_up t lid up =
  check_link t lid;
  if t.up.(lid) <> up then begin
    t.up.(lid) <- up;
    if Trace.want Trace.Cls.fault then
      Trace.emit (Trace.Event.Fault_link { link = lid; up });
    if not up then begin
      t.epoch.(lid) <- t.epoch.(lid) + 1;
      flush_direction t (2 * lid);
      flush_direction t ((2 * lid) + 1)
    end
    else begin
      (* Restart transmitters in case something was queued while down
         (cannot happen today, but keeps the invariant local). *)
      start_tx t (2 * lid);
      start_tx t ((2 * lid) + 1)
    end
  end

let link_is_up t lid =
  check_link t lid;
  t.up.(lid)

let set_node_up t nid up =
  let n = node t nid in
  if n.node_up <> up then begin
    n.node_up <- up;
    if Trace.want Trace.Cls.fault then
      Trace.emit (Trace.Event.Fault_node { node = nid; up })
  end

let node_is_up t nid = (node t nid).node_up

let link_stats t lid =
  check_link t lid;
  let c i = t.counters.((n_counters * lid) + i) in
  {
    tx_frames = c c_tx_frames;
    tx_bytes = c c_tx_bytes;
    delivered_frames = c c_delivered;
    drops_queue = c c_drops_queue;
    drops_loss = c c_drops_loss;
    drops_down = c c_drops_down;
    drops_mtu = c c_drops_mtu;
  }

let total_stats t =
  let c i =
    let s = ref 0 in
    for lid = 0 to t.n_links - 1 do
      s := !s + t.counters.((n_counters * lid) + i)
    done;
    !s
  in
  {
    tx_frames = c c_tx_frames;
    tx_bytes = c c_tx_bytes;
    delivered_frames = c c_delivered;
    drops_queue = c c_drops_queue;
    drops_loss = c c_drops_loss;
    drops_down = c c_drops_down;
    drops_mtu = c c_drops_mtu;
  }

let set_link_tap t lid tap =
  check_link t lid;
  t.tap.(lid) <- tap

let stats_items (s : link_stats) =
  [ ("tx_frames", Trace.Metrics.Int s.tx_frames);
    ("tx_bytes", Trace.Metrics.Int s.tx_bytes);
    ("delivered_frames", Trace.Metrics.Int s.delivered_frames);
    ("drops_queue", Trace.Metrics.Int s.drops_queue);
    ("drops_loss", Trace.Metrics.Int s.drops_loss);
    ("drops_down", Trace.Metrics.Int s.drops_down);
    ("drops_mtu", Trace.Metrics.Int s.drops_mtu) ]

let link_metrics_items t lid () = stats_items (link_stats t lid)
let total_metrics_items t () = stats_items (total_stats t)

let queue_length t lid =
  check_link t lid;
  t.queues.((2 * lid * n_qfields) + q_len)
  + t.queues.((((2 * lid) + 1) * n_qfields) + q_len)
