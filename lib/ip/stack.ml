module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Icmp = Packet.Icmp_wire

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable delivered : int;
  mutable forwarded : int;
  mutable dropped_malformed : int;
  mutable dropped_no_route : int;
  mutable dropped_ttl : int;
  mutable dropped_no_proto : int;
  mutable dropped_not_forwarding : int;
  mutable dropped_df : int;
  mutable dropped_unroutable_icmp : int;
  mutable fragments_made : int;
  mutable icmp_tx : int;
  mutable echo_replies : int;
  mutable route_cache_hits : int;  (* always 0: there is no route cache *)
  mutable route_cache_misses : int;  (* always 0 *)
}

let new_counters () =
  {
    sent = 0;
    received = 0;
    delivered = 0;
    forwarded = 0;
    dropped_malformed = 0;
    dropped_no_route = 0;
    dropped_ttl = 0;
    dropped_no_proto = 0;
    dropped_not_forwarding = 0;
    dropped_df = 0;
    dropped_unroutable_icmp = 0;
    fragments_made = 0;
    icmp_tx = 0;
    echo_replies = 0;
    route_cache_hits = 0;
    route_cache_misses = 0;
  }

type send_error = [ `No_route | `Too_big ]

type t = {
  net : Netsim.t;
  eng : Engine.t;
  node : Netsim.node_id;
  mutable fwd : bool;
  mutable fast : bool;
  table : Route_table.t;
  mutable iface_addrs : (Netsim.iface * Addr.t) list;
  (* Upcalls by protocol number: a stack speaks a handful of protocols,
     so a short list searched by [upcall] serves without allocating. *)
  mutable protos : (int * (bytes -> unit)) list;
  mutable error_handlers : (from:Addr.t -> Icmp.t -> unit) list;
  mutable echo_reply_handler : (id:int -> seq:int -> payload:bytes -> unit) option;
  reasm : Reassembly.t;
  mutable next_id : int;
  c : counters;
  mutable accounting : Accounting.t option;
  mutable tap : (rx:bool -> bytes -> unit) option;
      (* Observes every frame this stack receives or transmits, for pcap
         capture at the host rather than on a link. *)
  mutable on_flush : (unit -> unit) list;
      (* Soft-state subscribers above IP (resolver caches, name-server
         state): run after flush_soft_state clears the stack's own soft
         state, so crash amnesia reaches every layer that caches. *)
}

let net t = t.net
let engine t = t.eng
let node_id t = t.node
let table t = t.table
let set_forwarding t v = t.fwd <- v
let forwarding t = t.fwd
let set_fast_path t v = t.fast <- v
let fast_path t = t.fast
let counters t = t.c
let accounting t = t.accounting
let set_tap t tap = t.tap <- tap

(* Drop paths are cold, so the [want] check can live inside the helper;
   hot-path events guard inline before constructing anything. *)
let trace_drop t ~src ~dst reason =
  if Trace.want Trace.Cls.ip then
    Trace.emit (Trace.Event.Ip_drop { node = t.node; src; dst; reason })
[@@fastpath]

let trace_deliver t frame =
  if Trace.want Trace.Cls.ip then
    Trace.emit
      (Trace.Event.Ip_deliver
         { node = t.node; src = Ipv4.peek_src frame; dst = Ipv4.peek_dst frame;
           proto = Ipv4.peek_proto frame;
           len = Ipv4.peek_total_len frame - Ipv4.header_size })
[@@fastpath]

let iface_addr t i = List.assoc_opt i t.iface_addrs

(* The address of interface [i], or [default]: [iface_addr] without the
   option. *)
let rec addr_of_iface i default = function
  | [] -> default
  | (i', a) :: rest -> if i = i' then a else addr_of_iface i default rest

let addresses t = List.map snd t.iface_addrs

let rec mem_addr a l =
  match l with
  | [] -> false
  | (_, a') :: rest -> Addr.equal a a' || mem_addr a rest
[@@fastpath]

let has_addr t a = mem_addr a t.iface_addrs [@@fastpath]

let primary_addr t =
  match t.iface_addrs with
  | [] -> failwith "Ip.Stack.primary_addr: no address configured"
  | (_, a) :: _ -> a

let configure_iface t iface ~addr ~prefix_len =
  t.iface_addrs <- t.iface_addrs @ [ (iface, addr) ];
  Route_table.add t.table
    {
      Route_table.prefix = Addr.Prefix.make addr prefix_len;
      iface;
      next_hop = None;
      metric = 0;
    }

(* Hand [frame] to the upcall registered for protocol [n], counting and
   tracing the delivery first; [false] when no transport claims [n]. *)
let rec upcall t n frame l =
  match l with
  | [] -> false
  | (n', f) :: rest ->
      if n <> n' then upcall t n frame rest
      else begin
        t.c.delivered <- t.c.delivered + 1;
        trace_deliver t frame;
        f frame;
        true
      end
[@@fastpath]

let register_proto_frame t proto f =
  let n = Ipv4.Proto.to_int proto in
  if n = 1 then invalid_arg "Ip.Stack.register_proto_frame: ICMP is built in";
  t.protos <- (n, f) :: List.remove_assoc n t.protos

(* The copying adapter over the one upcall: a header record and a payload
   copy per datagram. *)
let register_proto t proto f =
  register_proto_frame t proto (fun frame ->
      f (Ipv4.peek_header frame) (Ipv4.payload_of frame))

let add_error_handler t f = t.error_handlers <- t.error_handlers @ [ f ]
let set_echo_reply_handler t f = t.echo_reply_handler <- Some f

let fresh_id t =
  let id = t.next_id in
  t.next_id <- (t.next_id + 1) land 0xffff;
  id

(* Split [payload] into fragments that fit [mtu] on the wire; offsets are
   relative to the original unfragmented datagram, so forwarding an
   already-fragmented datagram composes correctly. *)
let fragment_payload ~mtu (h : Ipv4.header) payload =
  let max_data = (mtu - Ipv4.header_size) / 8 * 8 in
  assert (max_data > 0);
  let len = Bytes.length payload in
  let rec cut off acc =
    if off >= len then List.rev acc
    else begin
      let n = min max_data (len - off) in
      let last = off + n >= len in
      let fh =
        {
          h with
          Ipv4.frag_offset = h.Ipv4.frag_offset + off;
          more_fragments = (if last then h.Ipv4.more_fragments else true);
        }
      in
      cut (off + n) ((fh, Bytes.sub payload off n) :: acc)
    end
  in
  cut 0 []

(* Passed as [?priority], so a low-delay send builds no option. *)
let low_delay = Some true

let transmit t iface ~priority frame =
  (match t.tap with Some f -> f ~rx:false frame | None -> ());
  (* [Netsim.send] queues the frame itself, not a copy: the buffer is the
     sender's no longer, and nothing here touches it again. *)
  ignore
    (Netsim.send t.net t.node
       ?priority:(if priority then low_delay else None)
       ~iface frame)
[@@fastpath]

(* Emit (or fragment and emit) one datagram on [iface].  Low-delay ToS
   datagrams ride the link's priority queue — the per-hop half of the
   type-of-service mechanism. *)
let emit t iface (h : Ipv4.header) payload =
  let priority = h.Ipv4.tos = Ipv4.Tos.Low_delay in
  let mtu = Netsim.iface_mtu t.net t.node iface in
  let wire_len = Ipv4.header_size + Bytes.length payload in
  if wire_len <= mtu then begin
    transmit t iface ~priority (Ipv4.encode h ~payload);
    Ok ()
  end
  else if h.Ipv4.dont_fragment then begin
    t.c.dropped_df <- t.c.dropped_df + 1;
    trace_drop t ~src:h.Ipv4.src ~dst:h.Ipv4.dst Trace.Event.Df_needed;
    Error `Too_big
  end
  else begin
    let frags = fragment_payload ~mtu h payload in
    List.iter
      (fun (fh, fp) ->
        t.c.fragments_made <- t.c.fragments_made + 1;
        if Trace.want Trace.Cls.frag then
          Trace.emit
            (Trace.Event.Ip_fragment
               { node = t.node; id = fh.Ipv4.id;
                 frag_offset = fh.Ipv4.frag_offset;
                 len = Bytes.length fp });
        transmit t iface ~priority (Ipv4.encode fh ~payload:fp))
      frags;
    Ok ()
  end

(* ICMP plumbing -------------------------------------------------------- *)

let send_raw t ~route (h : Ipv4.header) payload =
  ignore (emit t route.Route_table.iface h payload)

let icmp_to t ~dst msg =
  match Route_table.lookup t.table dst with
  | None ->
      (* Cannot even route the error back.  The datagram is still dead,
         but the loss is no longer silent: it is counted and recorded, so
         a black hole of ICMP errors shows up in the ledger instead of
         vanishing (the accountability gap this subsystem closes). *)
      t.c.dropped_unroutable_icmp <- t.c.dropped_unroutable_icmp + 1;
      let src =
        match t.iface_addrs with (_, a) :: _ -> a | [] -> Addr.any
      in
      trace_drop t ~src ~dst Trace.Event.Unroutable_icmp
  | Some route ->
      let src =
        match iface_addr t route.Route_table.iface with
        | Some a -> a
        | None -> ( match addresses t with a :: _ -> a | [] -> Addr.any)
      in
      let h =
        Ipv4.make_header ~proto:Ipv4.Proto.Icmp ~src ~dst
          ~id:(fresh_id t) ()
      in
      t.c.icmp_tx <- t.c.icmp_tx + 1;
      send_raw t ~route h (Icmp.encode msg)

(* Never generate ICMP errors about ICMP errors (RFC 792). *)
let may_report_error frame =
  Ipv4.peek_proto frame <> 1
  || Ipv4.peek_total_len frame > Ipv4.header_size
     &&
     let ty = Bytes.get_uint8 frame Ipv4.header_size in
     ty = 8 || ty = 0 (* only echo traffic may trigger errors *)

(* [frame] is the problem datagram; the error quotes its header and first
   payload bytes. *)
let report_unreachable t frame code =
  if may_report_error frame then
    icmp_to t ~dst:(Ipv4.peek_src frame)
      (Icmp.Dest_unreachable
         { code; original = Icmp.original_of ~ip_header:frame })

let report_time_exceeded t frame =
  if may_report_error frame then
    icmp_to t ~dst:(Ipv4.peek_src frame)
      (Icmp.Time_exceeded { original = Icmp.original_of ~ip_header:frame })

(* Local delivery ------------------------------------------------------- *)

let deliver_icmp t frame =
  let from = Ipv4.peek_src frame in
  match Icmp.decode (Ipv4.payload_of frame) with
  | Error _ ->
      t.c.dropped_malformed <- t.c.dropped_malformed + 1;
      trace_drop t ~src:from ~dst:(Ipv4.peek_dst frame) Trace.Event.Malformed
  | Ok (Icmp.Echo_request { id; seq; payload }) ->
      t.c.delivered <- t.c.delivered + 1;
      t.c.echo_replies <- t.c.echo_replies + 1;
      trace_deliver t frame;
      icmp_to t ~dst:from (Icmp.Echo_reply { id; seq; payload })
  | Ok (Icmp.Echo_reply { id; seq; payload }) -> (
      t.c.delivered <- t.c.delivered + 1;
      trace_deliver t frame;
      match t.echo_reply_handler with
      | Some f -> f ~id ~seq ~payload
      | None -> ())
  | Ok (Icmp.Dest_unreachable _ as msg) | Ok (Icmp.Time_exceeded _ as msg) ->
      t.c.delivered <- t.c.delivered + 1;
      trace_deliver t frame;
      List.iter (fun f -> f ~from msg) t.error_handlers

let no_proto t frame =
  t.c.dropped_no_proto <- t.c.dropped_no_proto + 1;
  trace_drop t ~src:(Ipv4.peek_src frame) ~dst:(Ipv4.peek_dst frame)
    Trace.Event.No_proto;
  report_unreachable t frame Icmp.Protocol_unreachable

(* The one road up: every local datagram — received whole, reassembled or
   looped back — arrives here as one valid frame, which ICMP or the
   protocol's upcall reads in place up to the IP total length. *)
let deliver t frame =
  (match t.accounting with
  | None -> ()
  | Some acc -> Accounting.record acc ~frame);
  let n = Ipv4.peek_proto frame in
  if n = 1 then (deliver_icmp t frame [@fastpath.exempt])
  else if not (upcall t n frame t.protos) then
    (no_proto t frame [@fastpath.exempt])
[@@fastpath]

(* A fragment waits for its siblings.  One that would end past the
   largest datagram IP can carry (RFC 791) is malformed and never stored,
   so a rebuilt datagram always fits its header's length field. *)
let deliver_fragment t frame =
  if
    Ipv4.peek_frag_offset frame + Ipv4.peek_total_len frame
    > Ipv4.max_datagram
  then begin
    t.c.dropped_malformed <- t.c.dropped_malformed + 1;
    trace_drop t ~src:(Ipv4.peek_src frame) ~dst:(Ipv4.peek_dst frame)
      Trace.Event.Malformed
  end
  else
    match Reassembly.push t.reasm frame with
    | Reassembly.Incomplete -> ()
    | Reassembly.Complete whole -> deliver t whole

(* Forwarding ----------------------------------------------------------- *)

(* Slow (decode/re-encode) forwarding: header and payload copied out of
   the frame, a fresh frame out via [emit].  Still the only road for
   datagrams that need fragmenting or draw an ICMP error, and the whole
   road when the fast path is switched off. *)
let forward t frame =
  if Ipv4.peek_ttl frame <= 1 then begin
    t.c.dropped_ttl <- t.c.dropped_ttl + 1;
    trace_drop t ~src:(Ipv4.peek_src frame) ~dst:(Ipv4.peek_dst frame)
      Trace.Event.Ttl_expired;
    report_time_exceeded t frame
  end
  else begin
    let h =
      { (Ipv4.peek_header frame) with Ipv4.ttl = Ipv4.peek_ttl frame - 1 }
    in
    let payload = Ipv4.payload_of frame in
    match Route_table.lookup t.table h.Ipv4.dst with
    | None ->
        t.c.dropped_no_route <- t.c.dropped_no_route + 1;
        trace_drop t ~src:h.Ipv4.src ~dst:h.Ipv4.dst Trace.Event.No_route;
        report_unreachable t (Ipv4.encode h ~payload) Icmp.Net_unreachable
    | Some route -> (
        t.c.forwarded <- t.c.forwarded + 1;
        if Trace.want Trace.Cls.ip then
          Trace.emit
            (Trace.Event.Ip_forward
               { node = t.node; src = h.Ipv4.src; dst = h.Ipv4.dst;
                 ttl = h.Ipv4.ttl; len = Bytes.length payload });
        (match t.accounting with
        | None -> ()
        | Some acc -> Accounting.record acc ~frame);
        match emit t route.Route_table.iface h payload with
        | Ok () -> ()
        | Error `Too_big ->
            report_unreachable t (Ipv4.encode h ~payload)
              Icmp.Fragmentation_needed)
  end

(* Fast transit: patch TTL and checksum in the received frame (RFC 1624)
   and retransmit the very same bytes — two bytes mutated, no payload copy,
   no re-encode, every field read in place.  Anything off the happy path
   (TTL expiry, no route, frame larger than the next link's MTU, i.e.
   fragmentation or a DF drop), and every datagram while the fast path is
   switched off, takes the slow path, which handles every edge already. *)
let forward_fast t frame =
  let dst = Ipv4.peek_dst frame in
  match Route_table.lookup t.table dst with
  | Some route
    when t.fast
         && Ipv4.peek_ttl frame > 1
         && Bytes.length frame
            <= Netsim.iface_mtu t.net t.node route.Route_table.iface ->
      Ipv4.patch_ttl frame;
      t.c.forwarded <- t.c.forwarded + 1;
      if Trace.want Trace.Cls.ip then
        Trace.emit
          (Trace.Event.Ip_forward
             { node = t.node; src = Ipv4.peek_src frame; dst;
               ttl = Ipv4.peek_ttl frame; len = Bytes.length frame });
      (* Sketch-mode accounting updates flat counters in place, so
         goal 7 no longer costs a payload copy or a slow-path bail. *)
      (match t.accounting with
      | None -> ()
      | Some acc -> Accounting.record acc ~frame);
      transmit t route.Route_table.iface
        ~priority:(Ipv4.peek_tos frame = Ipv4.Tos.Low_delay)
        frame
  | Some _ | None -> (forward t frame [@fastpath.exempt])
[@@fastpath]

let receive t ~iface:_ frame =
  (match t.tap with Some f -> f ~rx:true frame | None -> ());
  if not (Ipv4.valid frame) then begin
    t.c.dropped_malformed <- t.c.dropped_malformed + 1;
    trace_drop t ~src:Addr.any ~dst:Addr.any Trace.Event.Malformed
  end
  else begin
    t.c.received <- t.c.received + 1;
    if has_addr t (Ipv4.peek_dst frame) then
      if Ipv4.peek_more_fragments frame || Ipv4.peek_frag_offset frame <> 0
      then (deliver_fragment t frame [@fastpath.exempt])
      else deliver t frame
    else if t.fwd then forward_fast t frame
    else begin
      t.c.dropped_not_forwarding <- t.c.dropped_not_forwarding + 1;
      trace_drop t ~src:(Ipv4.peek_src frame) ~dst:(Ipv4.peek_dst frame)
        Trace.Event.Not_forwarding
    end
  end
[@@fastpath]

(* Origination ---------------------------------------------------------- *)

let payload_of_frame frame =
  Bytes.sub frame Ipv4.header_size (Bytes.length frame - Ipv4.header_size)

(* The caller hands over a full frame whose first [Ipv4.header_size]
   bytes are a reserved prefix and whose transport segment is already in
   place after it.  On the common road — routed out an interface, fits
   the MTU — and on loopback, the IP header is written into the prefix
   field by field and the very same buffer is transmitted or delivered:
   the frame is all a send allocates.  Every header field is a plain
   label, so nothing is boxed on the way in; an unspecified source
   ([Addr.any]) takes the outgoing interface's address from the one
   route lookup.  Fragmentation falls back to the [emit] machinery,
   which needs a materialized payload anyway.  A datagram longer than
   its header's length field can say is no datagram at all. *)
let send_frame t ~tos ~ttl ~dont_fragment ~src ~proto ~dst frame =
  let unspecified = Addr.equal src Addr.any in
  if Bytes.length frame > Ipv4.max_datagram then Error `Too_big
  else if has_addr t dst then begin
    (* Loopback: deliver through the engine so ordering matches the wire. *)
    let src = if unspecified then primary_addr t else src in
    Ipv4.encode_fields frame ~tos ~id:(fresh_id t) ~dont_fragment
      ~more_fragments:false ~frag_offset:0 ~ttl ~proto ~src ~dst;
    t.c.sent <- t.c.sent + 1;
    Engine.after t.eng 1 (fun () -> deliver t frame);
    Ok ()
  end
  else
    match Route_table.lookup t.table dst with
    | None ->
        t.c.dropped_no_route <- t.c.dropped_no_route + 1;
        trace_drop t ~src ~dst Trace.Event.No_route;
        Error `No_route
    | Some route ->
        let iface = route.Route_table.iface in
        let src =
          if unspecified then addr_of_iface iface (primary_addr t) t.iface_addrs
          else src
        in
        let id = fresh_id t in
        t.c.sent <- t.c.sent + 1;
        if Bytes.length frame <= Netsim.iface_mtu t.net t.node iface then begin
          Ipv4.encode_fields frame ~tos ~id ~dont_fragment
            ~more_fragments:false ~frag_offset:0 ~ttl ~proto ~src ~dst;
          transmit t iface ~priority:(tos = Ipv4.Tos.Low_delay) frame;
          Ok ()
        end
        else
          emit t iface
            (Ipv4.make_header ~tos ~id ~dont_fragment ~ttl ~proto ~src ~dst ())
            (payload_of_frame frame)

let send t ?(tos = Ipv4.Tos.Routine) ?(ttl = Ipv4.default_ttl)
    ?(dont_fragment = false) ?(src = Addr.any) ~proto ~dst payload =
  let len = Bytes.length payload in
  let frame = Bytes.create (Ipv4.header_size + len) in
  Bytes.blit payload 0 frame Ipv4.header_size len;
  send_frame t ~tos ~ttl ~dont_fragment ~src ~proto ~dst frame

let icmp_unreachable t frame code = report_unreachable t frame code

let send_echo_request t ~dst ~id ~seq ~payload =
  let msg = Icmp.Echo_request { id; seq; payload } in
  ignore (send t ~proto:Ipv4.Proto.Icmp ~dst (Icmp.encode msg))

let enable_accounting ?mode t =
  match t.accounting with
  | Some acc -> acc
  | None ->
      let acc = Accounting.create ?mode () in
      t.accounting <- Some acc;
      acc

let reassembly_pending t = Reassembly.pending t.reasm
let reassembly_expired t = Reassembly.expired t.reasm

(* Crash semantics (fate-sharing, Clark goal 1): everything a gateway
   holds that is *derived* — learned routes and half-assembled
   datagrams — dies with it.  Connected routes survive because they are
   configuration, re-derived from the interfaces themselves at boot, not
   from protocol exchange. *)
let flush_soft_state t =
  Reassembly.flush t.reasm;
  List.iter
    (fun (r : Route_table.route) ->
      if r.next_hop <> None || r.metric > 0 then Route_table.remove t.table r.prefix)
    (Route_table.entries t.table);
  if Trace.want Trace.Cls.fault then
    Trace.emit (Trace.Event.Fault_soft_reset { node = t.node });
  List.iter (fun f -> f ()) t.on_flush

let on_soft_flush t f = t.on_flush <- t.on_flush @ [ f ]

let metrics_items t () =
  let i v = Trace.Metrics.Int v in
  [ ("sent", i t.c.sent);
    ("received", i t.c.received);
    ("delivered", i t.c.delivered);
    ("forwarded", i t.c.forwarded);
    ("dropped_malformed", i t.c.dropped_malformed);
    ("dropped_no_route", i t.c.dropped_no_route);
    ("dropped_ttl", i t.c.dropped_ttl);
    ("dropped_no_proto", i t.c.dropped_no_proto);
    ("dropped_not_forwarding", i t.c.dropped_not_forwarding);
    ("dropped_df", i t.c.dropped_df);
    ("dropped_unroutable_icmp", i t.c.dropped_unroutable_icmp);
    ("fragments_made", i t.c.fragments_made);
    ("icmp_tx", i t.c.icmp_tx);
    ("echo_replies", i t.c.echo_replies);
    ("reassembly_pending", i (reassembly_pending t));
    ("reassembly_expired", i (reassembly_expired t)) ]

let create ?(forwarding = false) net node =
  let eng = Netsim.engine net in
  let t =
    {
      net;
      eng;
      node;
      fwd = forwarding;
      fast = true;
      table = Route_table.create ();
      iface_addrs = [];
      protos = [];
      error_handlers = [];
      echo_reply_handler = None;
      reasm = Reassembly.create ~node eng;
      next_id = 1;
      c = new_counters ();
      accounting = None;
      tap = None;
      on_flush = [];
    }
  in
  Netsim.set_handler net node (fun ~iface frame -> receive t ~iface frame);
  t
