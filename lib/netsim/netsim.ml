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

(* Link and node state is flat and packed by what one frame touches, so
   a 10^5-host topology, which is mostly links and leaf nodes, costs no
   heap object per link or node, and a hop reads a few adjacent cache
   lines of it.

   Each link is one block of [lw] ints in [links]: a state word (up,
   "draws", tapped, and the epoch above them), the index of its
   profile, its two ends, its seven counters and six ints of queue state
   per direction.  Both directions of a link are always flushed and
   reported together, so it has one epoch and one set of counters; only
   the queues are per direction.  Profiles are interned: a topology
   uses a handful, however many links share them.  A link "draws" when
   its profile has loss or jitter; a clean link skips the loss draw,
   which could only come out false, and shares one stream instead of
   owning one (add_link still splits a stream off for it, so every other
   link's stream is the one it always was).  The tap array exists from
   the first tap on, and only a link with its tapped bit set reads it.

   Each node is two ints in [nodes]: a flags word (up, has a handler of
   its own, and the interface count above them) and interface 0's entry
   [2 * link + side].  Interfaces from 1 up live in a per-node array
   made at the second attach, names and handlers in arrays of their
   own, so a pooled host's send and delivery read one int block.

   Every queued or in-flight frame is an entry of one netsim-wide slab
   (parallel arrays, recycled through a free list).  An entry records
   its link, direction, the link's epoch when it was accepted, and the
   stage of its one pending engine event: transmission done, or
   delivery.  Each entry carries a closure made once, when the slab
   grows, so scheduling a frame's events allocates nothing.  Taking a
   link down bumps its epoch and frees the entries still queued; an
   entry with an event pending is freed by that event, which finds the
   epoch stale and does nothing else.

   Reading [fire.(e)] or [handlers.(n)] is an application of function
   type, which the typed fast-path lint would take for a partial
   application: those reads are exempt. *)

let nil = -1

(* The link block, [lw] ints at [lw * link]. *)
let l_state = 0
let l_prof = 1
let l_ends = 2 (* node a, iface a, node b, iface b *)
let l_counters = 6
let l_queues = 13 (* [n_qfields] per direction *)
let lw = 25

(* The state word. *)
let s_up = 1
let s_draws = 2
let s_tapped = 4
let epoch_shift = 3

(* Counters, from [l_counters]. *)
let c_tx_frames = 0
let c_tx_bytes = 1
let c_delivered = 2
let c_drops_queue = 3
let c_drops_loss = 4
let c_drops_down = 5
let c_drops_mtu = 6

(* Queue state, [n_qfields] per direction: a FIFO of low-delay frames
   served first and a FIFO of ordinary ones (each a head and, right
   after it, a tail), the number of frames held (the one being
   transmitted included) and whether the transmitter is busy. *)
let q_hi_head = 0
let q_hi_tail = 1
let q_lo_head = 2
let q_lo_tail = 3
let q_len = 4
let q_busy = 5
let n_qfields = 6

(* The node block, [nw] ints at [nw * node]: the flags word, then
   interface 0's entry. *)
let nw = 2
let n_up = 1
let n_own = 2
let n_ifaces_shift = 2 (* the interface count sits above the two flags *)

let no_handler ~iface:_ _ = ()

type t = {
  eng : Engine.t;
  rng : Stdext.Rng.t;
  (* Nodes. *)
  mutable n_nodes : int;
  mutable nodes : int array;
  mutable ext : int array array; (* node -> entries of ifaces 1.. *)
  mutable names : string array;
  mutable handlers : (iface:iface -> bytes -> unit) array;
  mutable default_handler :
    (node:node_id -> iface:iface -> bytes -> unit) option;
      (* Fallback receive path for nodes with no per-node handler: one
         shared closure serves an arbitrary population of cheap hosts
         (E17's pooled endpoints), instead of a closure web per node. *)
  (* Links. *)
  mutable n_links : int;
  mutable links : int array;
  mutable profs : profile array; (* by a link's [l_prof] *)
  mutable link_rng : Stdext.Rng.t array;
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
    rng = Stdext.Rng.create seed;
    n_nodes = 0;
    nodes = [||];
    ext = [||];
    names = [||];
    handlers = [||];
    default_handler = None;
    n_links = 0;
    links = [||];
    profs = [||];
    link_rng = [||];
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

(* [a] with its first [n] elements kept and room for [cap]. *)
let resize a n cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 n;
  b

let add_node t name =
  let id = t.n_nodes in
  if id = Array.length t.names then begin
    let cap = if id = 0 then 8 else 2 * id in
    t.nodes <- resize t.nodes (nw * id) (nw * cap) 0;
    t.ext <- resize t.ext id cap [||];
    t.names <- resize t.names id cap "";
    t.handlers <- resize t.handlers id cap no_handler
  end;
  t.nodes.(nw * id) <- n_up;
  t.names.(id) <- name;
  t.n_nodes <- id + 1;
  id

let node_count t = t.n_nodes

let check_node t id =
  if id < 0 || id >= t.n_nodes then invalid_arg "Netsim: bad node id"
[@@fastpath]

let node_name t id =
  check_node t id;
  t.names.(id)

(* Attach interface entry [d] = [2 * link + side] to a node: interface 0
   inline in the node block, the rest in the node's own array. *)
let attach_iface t nid d =
  let f = t.nodes.(nw * nid) in
  let i = f lsr n_ifaces_shift in
  if i = 0 then t.nodes.((nw * nid) + 1) <- d
  else begin
    let x = t.ext.(nid) in
    if i - 1 = Array.length x then
      t.ext.(nid) <- resize x (i - 1) (if i = 1 then 3 else 2 * (i - 1)) 0;
    t.ext.(nid).(i - 1) <- d
  end;
  t.nodes.(nw * nid) <- f + (1 lsl n_ifaces_shift);
  i

let grow_links t =
  let n = t.n_links in
  let cap = if n = 0 then 8 else 2 * n in
  t.links <- resize t.links (lw * n) (lw * cap) 0;
  t.link_rng <- resize t.link_rng n cap t.rng

(* The index of profile [p] in [profs], added if new.  Profiles are
   compared by value, so links share an entry whether or not the caller
   built one record for them all.  A topology uses a handful, and a link
   mostly has the profile of the link before it, so the scan starts
   from the most recent one. *)
let rec find_prof profs p i =
  if i < 0 then -1
  else if profs.(i) == p || profs.(i) = p then i
  else find_prof profs p (i - 1)

let intern t p =
  match find_prof t.profs p (Array.length t.profs - 1) with
  | -1 ->
      t.profs <- Array.append t.profs [| p |];
      Array.length t.profs - 1
  | i -> i

(* First int of direction [d]'s queue state. *)
let[@inline] qbase d = (lw * (d lsr 1)) + l_queues + (n_qfields * (d land 1))
[@@fastpath]

(* Empty direction [d]'s queues and idle its transmitter. *)
let clear_queues t d =
  let q = qbase d in
  t.links.(q + q_hi_head) <- nil;
  t.links.(q + q_hi_tail) <- nil;
  t.links.(q + q_lo_head) <- nil;
  t.links.(q + q_lo_tail) <- nil;
  t.links.(q + q_len) <- 0;
  t.links.(q + q_busy) <- 0

let add_link t prof na nb =
  if na = nb then invalid_arg "Netsim.add_link: self-link";
  check_node t na;
  check_node t nb;
  let id = t.n_links in
  let ia = attach_iface t na (2 * id) in
  let ib = attach_iface t nb ((2 * id) + 1) in
  if id = Array.length t.link_rng then grow_links t;
  let draws = prof.loss <> 0.0 || prof.jitter_us <> 0 in
  let b = lw * id in
  t.links.(b + l_state) <- (if draws then s_up lor s_draws else s_up);
  t.links.(b + l_prof) <- intern t prof;
  Array.blit [| na; ia; nb; ib |] 0 t.links (b + l_ends) 4;
  (* Split a stream off for every link, so each link's stream depends
     only on its place in the order; a clean link never draws, and
     keeps the net's own stream in its place. *)
  let rng = Stdext.Rng.split t.rng in
  t.link_rng.(id) <- (if draws then rng else t.rng);
  clear_queues t (2 * id);
  clear_queues t ((2 * id) + 1);
  t.n_links <- id + 1;
  id

let link_count t = t.n_links

let check_link t id =
  if id < 0 || id >= t.n_links then invalid_arg "Netsim: bad link id"
[@@fastpath]

let iface_count t nid =
  check_node t nid;
  t.nodes.(nw * nid) lsr n_ifaces_shift

(* [2 * link + side] of a node's interface. *)
let iface_entry t nid i =
  check_node t nid;
  let k = nw * nid in
  if i < 0 || i >= t.nodes.(k) lsr n_ifaces_shift then
    invalid_arg "Netsim: bad iface";
  if i = 0 then t.nodes.(k + 1) else t.ext.(nid).(i - 1)
[@@fastpath]

let iface_link t nid i = iface_entry t nid i lsr 1 [@@fastpath]

let iface_mtu t nid i =
  t.profs.(t.links.((lw * iface_link t nid i) + l_prof)).mtu
[@@fastpath]

let end_of t lid side =
  let k = (lw * lid) + l_ends + (2 * side) in
  (t.links.(k), t.links.(k + 1))

let peer t nid i =
  let d = iface_entry t nid i in
  end_of t (d lsr 1) (1 - (d land 1))

let endpoints t lid =
  check_link t lid;
  (end_of t lid 0, end_of t lid 1)

let set_handler t nid f =
  check_node t nid;
  t.handlers.(nid) <- f;
  t.nodes.(nw * nid) <- t.nodes.(nw * nid) lor n_own

let set_default_handler t f = t.default_handler <- f

let link_between t na nb =
  let rec scan i =
    if i >= t.n_links then None
    else
      let k = (lw * i) + l_ends in
      let fa = t.links.(k) and fb = t.links.(k + 2) in
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

let[@inline] add_counter t lid c n =
  let i = (lw * lid) + l_counters + c in
  t.links.(i) <- t.links.(i) + n
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

let[@inline] epoch t lid = t.links.((lw * lid) + l_state) lsr epoch_shift [@@fastpath]

(* [true] while the link has not been taken down since [e] was accepted:
   going down bumps the epoch, and a down link accepts nothing. *)
let[@inline] current t e = t.epoch_of.(e) = epoch t (t.dir_of.(e) lsr 1) [@@fastpath]

(* Start transmitting the next queued frame of direction [d], low-delay
   frames first, unless the transmitter is busy. *)
let start_tx t d =
  let b = lw * (d lsr 1) and q = qbase d in
  let ls = t.links in
  if ls.(q + q_busy) = 0 && ls.(b + l_state) land s_up <> 0 then begin
    let head =
      if ls.(q + q_hi_head) <> nil then q + q_hi_head else q + q_lo_head
    in
    let e = ls.(head) in
    if e <> nil then begin
      ls.(head) <- t.next.(e);
      if t.next.(e) = nil then ls.(head + 1) <- nil;
      ls.(q + q_busy) <- 1;
      Engine.after t.eng
        (tx_time t.profs.(ls.(b + l_prof)) (Bytes.length t.frame.(e)))
        (t.fire.(e) [@fastpath.exempt])
    end
  end
[@@fastpath]

let tx_done t e =
  if not (current t e) then release t e
  else begin
    let d = t.dir_of.(e) in
    let lid = d lsr 1 and dir = d land 1 in
    let b = lw * lid and q = qbase d in
    let ls = t.links in
    let frame = t.frame.(e) in
    let len = Bytes.length frame in
    ls.(q + q_len) <- ls.(q + q_len) - 1;
    ls.(q + q_busy) <- 0;
    add_counter t lid c_tx_frames 1;
    add_counter t lid c_tx_bytes len;
    if Trace.want Trace.Cls.link then
      Trace.emit (Trace.Event.Link_dequeue { link = lid; dir; len });
    let st = ls.(b + l_state) in
    (* The tap sees the sender's wire: everything transmitted, including
       frames the loss draw is about to destroy. *)
    if st land s_tapped <> 0 then
      (match t.tap.(lid) with Some f -> f ~dir frame | None -> ());
    let prof = t.profs.(ls.(b + l_prof)) in
    if st land s_draws <> 0 && Stdext.Rng.bool t.link_rng.(lid) prof.loss
    then begin
      release t e;
      drop t lid dir len c_drops_loss Trace.Event.Link_loss
    end
    else begin
      let jitter =
        if prof.jitter_us = 0 then 0
        else Stdext.Rng.int t.link_rng.(lid) (prof.jitter_us + 1)
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
    let k = (lw * lid) + l_ends + 2 - (2 * dir) in
    let dst = t.links.(k) and dst_iface = t.links.(k + 1) in
    let f = t.nodes.(nw * dst) in
    if f land n_up <> 0 then begin
      add_counter t lid c_delivered 1;
      if Trace.want Trace.Cls.link then
        Trace.emit
          (Trace.Event.Link_deliver
             { link = lid; dir; len = Bytes.length frame });
      if f land n_own <> 0 then
        (t.handlers.(dst) [@fastpath.exempt]) ~iface:dst_iface frame
      else
        match t.default_handler with
        | Some h -> h ~node:dst ~iface:dst_iface frame
        | None -> ()
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
  t.epoch_of.(e) <- epoch t (d lsr 1);
  t.delivering.(e) <- false;
  t.next.(e) <- nil;
  e
[@@fastpath]

let send t nid ?(priority = false) ~iface frame =
  let d = iface_entry t nid iface in
  let lid = d lsr 1 and dir = d land 1 in
  let len = Bytes.length frame in
  let b = lw * lid and q = qbase d in
  let ls = t.links in
  let prof = t.profs.(ls.(b + l_prof)) in
  if t.nodes.(nw * nid) land n_up = 0 || ls.(b + l_state) land s_up = 0
  then begin
    drop t lid dir len c_drops_down Trace.Event.Link_down;
    false
  end
  else if len > prof.mtu then begin
    drop t lid dir len c_drops_mtu Trace.Event.Link_mtu;
    false
  end
  else if ls.(q + q_len) >= prof.queue_capacity then begin
    drop t lid dir len c_drops_queue Trace.Event.Queue_full;
    false
  end
  else begin
    let e = alloc t d frame in
    let tail = q + if priority then q_hi_tail else q_lo_tail in
    let last = ls.(tail) in
    if last = nil then ls.(tail - 1) <- e else t.next.(last) <- e;
    ls.(tail) <- e;
    ls.(q + q_len) <- ls.(q + q_len) + 1;
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
  free t.links.(qbase d + q_hi_head);
  free t.links.(qbase d + q_lo_head);
  clear_queues t d

let set_link_up t lid up =
  check_link t lid;
  let b = lw * lid in
  let st = t.links.(b + l_state) in
  if (st land s_up <> 0) <> up then begin
    t.links.(b + l_state) <-
      (if up then st lor s_up
       else (st land lnot s_up) + (1 lsl epoch_shift));
    if Trace.want Trace.Cls.fault then
      Trace.emit (Trace.Event.Fault_link { link = lid; up });
    if not up then begin
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
  t.links.((lw * lid) + l_state) land s_up <> 0

let set_node_up t nid up =
  check_node t nid;
  let f = t.nodes.(nw * nid) in
  if (f land n_up <> 0) <> up then begin
    t.nodes.(nw * nid) <- f lxor n_up;
    if Trace.want Trace.Cls.fault then
      Trace.emit (Trace.Event.Fault_node { node = nid; up })
  end

let node_is_up t nid =
  check_node t nid;
  t.nodes.(nw * nid) land n_up <> 0

let stats_of c =
  {
    tx_frames = c c_tx_frames;
    tx_bytes = c c_tx_bytes;
    delivered_frames = c c_delivered;
    drops_queue = c c_drops_queue;
    drops_loss = c c_drops_loss;
    drops_down = c c_drops_down;
    drops_mtu = c c_drops_mtu;
  }

let link_stats t lid =
  check_link t lid;
  stats_of (fun i -> t.links.((lw * lid) + l_counters + i))

let total_stats t =
  stats_of (fun i ->
      let s = ref 0 in
      for lid = 0 to t.n_links - 1 do
        s := !s + t.links.((lw * lid) + l_counters + i)
      done;
      !s)

(* The tap array covers the links that exist when it is made, and grows
   with the first tap on a later one. *)
let set_link_tap t lid tap =
  check_link t lid;
  if lid >= Array.length t.tap then
    t.tap <- resize t.tap (Array.length t.tap) (Array.length t.link_rng) None;
  t.tap.(lid) <- tap;
  let k = (lw * lid) + l_state in
  t.links.(k) <-
    (match tap with
    | Some _ -> t.links.(k) lor s_tapped
    | None -> t.links.(k) land lnot s_tapped)

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
  t.links.(qbase (2 * lid) + q_len) + t.links.(qbase ((2 * lid) + 1) + q_len)
