module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Wire = Packet.Tcp_wire
module Seq = Seq_num
module Rto = Rto
module Sendbuf = Sendbuf
module Sack = Sack

type cc_algo = No_cc | Tahoe | Reno

let pp_cc fmt c =
  Format.pp_print_string fmt
    (match c with No_cc -> "no-cc" | Tahoe -> "tahoe" | Reno -> "reno")

type config = {
  mss : int;
  window : int;
  cc : cc_algo;
  nagle : bool;
  syn_retries : int;
  max_retransmits : int;
  msl_us : int;
  delayed_ack_us : int;
  persist_us : int;
  send_buffer : int;
  tos : Ipv4.Tos.t;
  sack : bool;
  window_scaling : bool;
}

let default_config =
  {
    mss = 1460;
    window = 65535;
    cc = Reno;
    nagle = true;
    syn_retries = 6;
    max_retransmits = 12;
    msl_us = 5_000_000;
    delayed_ack_us = 200_000;
    persist_us = 1_000_000;
    send_buffer = 262_144;
    tos = Ipv4.Tos.Routine;
    sack = true;
    window_scaling = true;
  }

(* The smallest shift that lets the configured receive window fit the
   16-bit wire field (RFC 7323 caps the shift at 14). *)
let desired_wscale cfg =
  let rec go s =
    if s >= 14 || cfg.window lsr s <= 65535 then s else go (s + 1)
  in
  go 0

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let pp_state fmt s =
  Format.pp_print_string fmt
    (match s with
    | Closed -> "CLOSED"
    | Listen -> "LISTEN"
    | Syn_sent -> "SYN-SENT"
    | Syn_received -> "SYN-RECEIVED"
    | Established -> "ESTABLISHED"
    | Fin_wait_1 -> "FIN-WAIT-1"
    | Fin_wait_2 -> "FIN-WAIT-2"
    | Close_wait -> "CLOSE-WAIT"
    | Closing -> "CLOSING"
    | Last_ack -> "LAST-ACK"
    | Time_wait -> "TIME-WAIT")

(* The RFC 793 §3.2 edges this implementation exercises, declared as
   data and machine-checked by the catenet-lint [transitions] pass:
   every [c.st <- ...] must be a declared edge, and every declared edge
   must have an implementing assignment.  States entered at connection
   creation ([Listen] for passive opens, [Syn_sent]/[Syn_received] for
   active and embryonic passive opens) are record literals, not
   assignments, so they carry no rows; "*" is the any-state source for
   the common teardown path. *)
let st_transitions =
  [ (* state, event, state' *)
    ("Syn_sent", "acceptable SYN-ACK: active handshake completes",
     "Established");
    ("Syn_sent", "SYN without ACK crossed ours: simultaneous open",
     "Syn_received");
    ("Syn_received", "handshake-completing ACK", "Established");
    ("Established", "application close or shutdown sends our FIN",
     "Fin_wait_1");
    ("Close_wait", "application close sends our FIN after the peer's",
     "Last_ack");
    ("Established", "FIN received from the peer", "Close_wait");
    ("Syn_received", "FIN received before the handshake ACK", "Close_wait");
    ("Fin_wait_1", "FIN received while ours is unacked: simultaneous close",
     "Closing");
    ("Fin_wait_1", "our FIN acknowledged", "Fin_wait_2");
    ("Fin_wait_2", "FIN received from the peer", "Time_wait");
    ("Closing", "our FIN acknowledged", "Time_wait");
    ("Time_wait", "peer retransmitted its FIN: re-ack, restart 2MSL",
     "Time_wait");
    ("*", "abort, RST, 2MSL expiry, last ACK of ours acknowledged",
     "Closed") ]

type close_reason = Graceful | Reset | Timed_out | Refused

let pp_close_reason fmt r =
  Format.pp_print_string fmt
    (match r with
    | Graceful -> "graceful"
    | Reset -> "reset"
    | Timed_out -> "timed-out"
    | Refused -> "refused")

type conn_stats = {
  mutable segs_out : int;
  mutable segs_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable retransmits : int;
  mutable rto_fires : int;
  mutable fast_retransmits : int;
  mutable dupacks : int;
  mutable bytes_retransmitted : int;
  mutable fast_path_acks : int;
  mutable fast_path_data : int;
}

type stats = {
  mutable active_opens : int;
  mutable passive_opens : int;
  mutable established : int;
  mutable resets_out : int;
  mutable resets_in : int;
  mutable bad_segments : int;
  mutable no_listener : int;
  (* RFC 5961 guards. *)
  mutable challenge_acks_out : int;
  mutable rst_rejected_inexact : int;
  mutable dropped_acks_invalid : int;
}

type t = {
  ip : Ip.Stack.t;
  eng : Engine.t;
  default_cfg : config;
  (* Demux: every connection, chained by a hash of its four header values
     (see [find_conn]). *)
  mutable conns : conn list array;
  mutable conn_count : int;
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
  rng : Stdext.Rng.t;
  gstats : stats;
  (* Challenge-ACK rate limit (RFC 5961 §10): a per-instance budget per
     one-second window, so a flood of forged segments cannot be turned
     into an ACK flood. *)
  mutable challenge_epoch : int;
  mutable challenge_count : int;
  (* Fast path switch: header-predicted receive and allocation-free
     emission.  Off = the reference RFC 793 dispatch everywhere; protocol
     behaviour is identical either way (property-tested). *)
  mutable fast : bool;
}

and listener = {
  l_tcp : t;
  l_port : int;
  l_accept : conn -> unit;
  mutable l_open : bool;
}

and conn = {
  tcp : t;
  cfg : config;
  local_addr : Addr.t;
  local_port : int;
  remote_addr : Addr.t;
  remote_port : int;
  via_listener : listener option;
  mutable st : state;
  (* Send side. *)
  iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  mutable snd_wl1 : int;
  mutable snd_wl2 : int;
  mutable snd_max : int; (* highest snd_nxt ever reached *)
  mutable max_snd_wnd : int; (* largest send window ever seen (RFC 5961 §5) *)
  sndbuf : Sendbuf.t;
  scoreboard : Sack.t;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  mutable eff_mss : int;
  (* Negotiated options.  [ws_send]/[sackp_send] are what our SYN or
     SYN-ACK offers (fixed at open so handshake retransmits are
     identical); the scales and [sack_ok] take effect once both sides
     have offered. *)
  mutable ws_send : int option;
  mutable sackp_send : bool;
  mutable snd_wscale : int; (* shift applied to windows the peer sends *)
  mutable rcv_wscale : int; (* shift applied to windows we advertise *)
  mutable sack_ok : bool;
  (* Receive side. *)
  mutable irs : int;
  mutable rcv_nxt : int;
  mutable ooo : (int * bytes) list;
  mutable last_ooo_seq : int; (* most recent out-of-order arrival (RFC 2018) *)
  recvq : Buffer.t;
  mutable paused : bool;
  (* Congestion. *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dupacks : int;
  mutable recover : int;
  mutable in_recovery : bool;
  (* Timers. *)
  rto : Rto.t;
  mutable rto_timer : Engine.Timer.handle option;
  mutable retries : int;
  mutable delack_timer : Engine.Timer.handle option;
  mutable ack_pending : int;
  mutable persist_timer : Engine.Timer.handle option;
  mutable timewait_timer : Engine.Timer.handle option;
  (* RTT measurement in flight: the sequence being timed and its send
     time, or a negative [timed_at] when no segment is timed. *)
  mutable timed_seq : int;
  mutable timed_at : int;
  (* Callbacks. *)
  mutable cb_established : (unit -> unit) option;
  mutable cb_receive : (bytes -> unit) option;
  mutable cb_peer_fin : (unit -> unit) option;
  mutable cb_close : (close_reason -> unit) option;
  mutable closed_notified : bool;
  cstats : conn_stats;
}

let new_conn_stats () =
  {
    segs_out = 0;
    segs_in = 0;
    bytes_out = 0;
    bytes_in = 0;
    retransmits = 0;
    rto_fires = 0;
    fast_retransmits = 0;
    dupacks = 0;
    bytes_retransmitted = 0;
    fast_path_acks = 0;
    fast_path_data = 0;
  }

(* Accessors ------------------------------------------------------------ *)

let stack t = t.ip
let instance_stats t = t.gstats
let set_fast_path t v = t.fast <- v
let fast_path t = t.fast
let connection_count t = t.conn_count

let metrics_items t () =
  let i v = Trace.Metrics.Int v in
  [ ("active_opens", i t.gstats.active_opens);
    ("passive_opens", i t.gstats.passive_opens);
    ("established", i t.gstats.established);
    ("resets_out", i t.gstats.resets_out);
    ("resets_in", i t.gstats.resets_in);
    ("bad_segments", i t.gstats.bad_segments);
    ("no_listener", i t.gstats.no_listener);
    ("challenge_acks_out", i t.gstats.challenge_acks_out);
    ("rst_rejected_inexact", i t.gstats.rst_rejected_inexact);
    ("acks_dropped_invalid", i t.gstats.dropped_acks_invalid);
    ("connections", i t.conn_count) ]
let state c = c.st
let stats c = c.cstats
let cwnd c = c.cwnd
let ssthresh c = c.ssthresh
let srtt_us c = Rto.srtt c.rto
let snd_wnd c = c.snd_wnd
let local_port c = c.local_port
let remote_addr c = c.remote_addr
let remote_port c = c.remote_port
let mss c = c.eff_mss
let on_established c f = c.cb_established <- Some f
let on_receive c f = c.cb_receive <- Some f
let on_peer_fin c f = c.cb_peer_fin <- Some f
let on_close c f = c.cb_close <- Some f

(* Sequence/offset mapping: stream byte 0 is iss+1 (after the SYN). *)
let seq_of_off c off = Seq.add c.iss (1 + off) [@@fastpath]
let off_of_seq c s = Seq.diff s c.iss - 1 [@@fastpath]

(* The FIN, if sent, occupies the sequence number just past the stream. *)
let fin_seq c = seq_of_off c (Sendbuf.tail c.sndbuf)

let flight c = Seq.diff c.snd_nxt c.snd_una [@@fastpath]

let rcv_window c =
  let used = Buffer.length c.recvq in
  min (65535 lsl c.rcv_wscale) (max 0 (c.cfg.window - used))
[@@fastpath]

(* The 16-bit window field for an outgoing segment.  Windows on SYN
   segments are never scaled (RFC 7323 §2.2); afterwards the advertised
   window is rounded down to the granularity of our shift. *)
let wire_window c ~syn =
  if syn then min 65535 (rcv_window c) else rcv_window c lsr c.rcv_wscale
[@@fastpath]

(* Every send-window update funnels through here so the RFC 5961 ACK
   acceptability test can use the largest window ever granted. *)
let set_snd_wnd c w =
  c.snd_wnd <- w;
  if w > c.max_snd_wnd then c.max_snd_wnd <- w
[@@fastpath]

let effective_cwnd c =
  match c.cfg.cc with No_cc -> 1 lsl 30 | Tahoe | Reno -> c.cwnd
[@@fastpath]

(* Demux ------------------------------------------------------------------ *)

(* A segment finds its connection from the four header values, compared
   as ints: no key is built, and a miss raises [Not_found] instead of a
   hit coming back in [Some], so a lookup allocates nothing.  Buckets are
   plain lists, a power of two of them, doubled once they average more
   than two connections.  Nothing iterates the table, so its order never
   reaches the output. *)
let demux_slot conns ~laddr ~lport ~raddr ~rport =
  let remote = ((raddr : Addr.t :> int) lsl 16) lor rport in
  let local = ((laddr : Addr.t :> int) lsl 16) lor lport in
  let h = ((remote * 0x2545F4914F6CDD1D) lxor local) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land (Array.length conns - 1)
[@@fastpath]

let rec find_in chain ~laddr ~lport ~raddr ~rport =
  match chain with
  | [] -> raise_notrace Not_found
  | c :: rest ->
      if
        c.local_port = lport && c.remote_port = rport
        && (c.remote_addr :> int) = (raddr : Addr.t :> int)
        && (c.local_addr :> int) = (laddr : Addr.t :> int)
      then c
      else find_in rest ~laddr ~lport ~raddr ~rport
[@@fastpath]

let find_conn t ~laddr ~lport ~raddr ~rport =
  find_in
    t.conns.(demux_slot t.conns ~laddr ~lport ~raddr ~rport)
    ~laddr ~lport ~raddr ~rport
[@@fastpath]

let slot_of_conn conns c =
  demux_slot conns ~laddr:c.local_addr ~lport:c.local_port
    ~raddr:c.remote_addr ~rport:c.remote_port

let chain_conn conns c =
  let i = slot_of_conn conns c in
  conns.(i) <- c :: conns.(i)

let add_conn t c =
  if t.conn_count >= 2 * Array.length t.conns then begin
    let old = t.conns in
    t.conns <- Array.make (2 * Array.length old) [];
    Array.iter (List.iter (chain_conn t.conns)) old
  end;
  chain_conn t.conns c;
  t.conn_count <- t.conn_count + 1

let remove_conn t c =
  let i = slot_of_conn t.conns c in
  if List.memq c t.conns.(i) then begin
    t.conns.(i) <- List.filter (fun d -> d != c) t.conns.(i);
    t.conn_count <- t.conn_count - 1
  end

(* Timer plumbing ------------------------------------------------------- *)

let cancel_timer slot =
  match slot with Some h -> Engine.Timer.cancel h | None -> ()
[@@fastpath]

let cancel_all_timers c =
  cancel_timer c.rto_timer;
  cancel_timer c.delack_timer;
  cancel_timer c.persist_timer;
  cancel_timer c.timewait_timer;
  c.rto_timer <- None;
  c.delack_timer <- None;
  c.persist_timer <- None;
  c.timewait_timer <- None

let destroy c reason =
  cancel_all_timers c;
  remove_conn c.tcp c;
  c.st <- Closed;
  if not c.closed_notified then begin
    c.closed_notified <- true;
    match c.cb_close with Some f -> f reason | None -> ()
  end

(* Segment emission ------------------------------------------------------ *)

(* The seven flag combinations this TCP sends: a segment picks one
   rather than building a record.  Literals, so the compiler lays them
   out as static data and they cost the heap nothing. *)
let f_ack =
  { Wire.urg = false; ack = true; psh = false; rst = false; syn = false;
    fin = false }
let f_ack_psh =
  { Wire.urg = false; ack = true; psh = true; rst = false; syn = false;
    fin = false }
let f_syn =
  { Wire.urg = false; ack = false; psh = false; rst = false; syn = true;
    fin = false }
let f_syn_ack =
  { Wire.urg = false; ack = true; psh = false; rst = false; syn = true;
    fin = false }
let f_fin_ack =
  { Wire.urg = false; ack = true; psh = false; rst = false; syn = false;
    fin = true }
let f_rst =
  { Wire.urg = false; ack = false; psh = false; rst = true; syn = false;
    fin = false }
let f_rst_ack =
  { Wire.urg = false; ack = true; psh = false; rst = true; syn = false;
    fin = false }

(* Payload is referenced by send-buffer offset, not passed as bytes: on the
   fast path the stream slice is blitted once, straight into its final
   place in the outgoing frame (reserved IP-header prefix + TCP header +
   payload), headers are written around it in place, and the very same
   buffer goes down the stack; every argument on the way is a plain
   label, so the frame is all a segment without a SYN allocates.  A SYN
   carries the connection's offer (MSS, window scale, SACK-permitted),
   the same on every transmission.  The slow path is the original
   copying [Wire.make]/[Wire.encode]/[Stack.send] chain; both produce
   identical wire bytes. *)
let emit_segment c ~flags ~seq ~payload_off ~payload_len ~sack =
  c.cstats.segs_out <- c.cstats.segs_out + 1;
  if Trace.want Trace.Cls.tcp then
    Trace.emit
      (Trace.Event.Tcp_segment_out
         { node = Ip.Stack.node_id c.tcp.ip; dst = c.remote_addr;
           dst_port = c.remote_port; seq; len = payload_len;
           flags =
             Trace.Event.tcp_flag_bits ~fin:flags.Wire.fin
               ~syn:flags.Wire.syn ~rst:flags.Wire.rst ~psh:flags.Wire.psh
               ~ack:flags.Wire.ack });
  (* An ACK-bearing segment satisfies any pending delayed ACK. *)
  if flags.Wire.ack then begin
    cancel_timer c.delack_timer;
    c.delack_timer <- None;
    c.ack_pending <- 0
  end;
  let syn = flags.Wire.syn in
  let window = wire_window c ~syn in
  let ack_n = if flags.Wire.ack then c.rcv_nxt else 0 in
  let mss = if syn then Some c.cfg.mss else None in
  let wscale = if syn then c.ws_send else None in
  let sack_permitted = syn && c.sackp_send in
  if c.tcp.fast then begin
    let hsize = Wire.header_bytes ~mss ~wscale ~sack_permitted ~sack in
    let frame = Bytes.create (Ipv4.header_size + hsize + payload_len) in
    if payload_len > 0 then
      Sendbuf.blit c.sndbuf ~off:payload_off ~len:payload_len frame
        ~pos:(Ipv4.header_size + hsize);
    ignore
      (Wire.encode_into ~src:c.local_addr ~dst:c.remote_addr
         ~src_port:c.local_port ~dst_port:c.remote_port ~seq ~ack_n ~flags
         ~window ~urgent:0 ~mss ~wscale ~sack_permitted ~sack ~payload_len
         frame ~pos:Ipv4.header_size);
    ignore
      (Ip.Stack.send_frame c.tcp.ip ~tos:c.cfg.tos ~ttl:Ipv4.default_ttl
         ~dont_fragment:false ~src:c.local_addr ~proto:Ipv4.Proto.Tcp
         ~dst:c.remote_addr frame)
  end
  else begin
    let payload =
      if payload_len > 0 then
        Sendbuf.get c.sndbuf ~off:payload_off ~len:payload_len
      else Bytes.empty
    in
    let seg =
      Wire.make ~seq ~ack_n ~flags ~window ~mss ~wscale ~sack_permitted ~sack
        ~payload ~src_port:c.local_port ~dst_port:c.remote_port ()
    in
    let bytes = Wire.encode ~src:c.local_addr ~dst:c.remote_addr seg in
    ignore
      (Ip.Stack.send c.tcp.ip ~tos:c.cfg.tos ~src:c.local_addr
         ~proto:Ipv4.Proto.Tcp ~dst:c.remote_addr bytes)
  end

(* A segment without payload or SACK blocks. *)
let emit_control c ~flags ~seq =
  emit_segment c ~flags ~seq ~payload_off:0 ~payload_len:0 ~sack:[]

(* SACK blocks advertising the out-of-order queue (RFC 2018 §4): coalesce
   the sorted ooo list into ranges, then put the range holding the most
   recent arrival first so a lost ACK costs the peer the least
   information. *)
let sack_blocks_of_ooo c =
  let ranges =
    List.fold_left
      (fun acc (s, d) ->
        let r = Seq.add s (Bytes.length d) in
        match acc with
        | (l0, r0) :: rest when Seq.le s r0 ->
            (l0, if Seq.gt r r0 then r else r0) :: rest
        | _ -> (s, r) :: acc)
      [] c.ooo
  in
  (* [ranges] is highest-first; move the freshest range up front. *)
  let fresh, others =
    List.partition
      (fun (l, r) -> Seq.le l c.last_ooo_seq && Seq.lt c.last_ooo_seq r)
      ranges
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take Wire.max_sack_blocks (fresh @ others)

let send_ack c =
  let sack =
    if c.sack_ok && c.ooo <> [] then sack_blocks_of_ooo c else []
  in
  emit_segment c ~flags:f_ack ~seq:c.snd_nxt ~payload_off:0 ~payload_len:0
    ~sack

(* Challenge ACK (RFC 5961): the answer to a suspicious but in-window RST
   or SYN.  A legitimate peer that really did lose state replies with an
   exact-sequence RST; a blind attacker learns nothing.  Rate-limited
   per instance so forged floods cannot become ACK floods. *)
let challenge_ack_limit = 100 (* per second *)

let send_challenge_ack c =
  let t = c.tcp in
  let now = Engine.now t.eng in
  if now - t.challenge_epoch >= 1_000_000 then begin
    t.challenge_epoch <- now;
    t.challenge_count <- 0
  end;
  if t.challenge_count < challenge_ack_limit then begin
    t.challenge_count <- t.challenge_count + 1;
    t.gstats.challenge_acks_out <- t.gstats.challenge_acks_out + 1;
    if Trace.want Trace.Cls.tcp then
      Trace.emit
        (Trace.Event.Tcp_guard
           { node = Ip.Stack.node_id t.ip; dst = c.remote_addr;
             kind = Trace.Event.Guard_challenge_ack });
    send_ack c
  end

(* Send a RST in reply to an orphan segment (RFC 793 p.36) that [src]
   sent to [dst]. *)
let send_rst_for t ~src ~dst (seg : Wire.t) =
  if not seg.Wire.flags.Wire.rst then begin
    t.gstats.resets_out <- t.gstats.resets_out + 1;
    let seg_len =
      Bytes.length seg.Wire.payload
      + (if seg.Wire.flags.Wire.syn then 1 else 0)
      + if seg.Wire.flags.Wire.fin then 1 else 0
    in
    let reply =
      if seg.Wire.flags.Wire.ack then
        Wire.make ~seq:seg.Wire.ack_n ~flags:f_rst
          ~src_port:seg.Wire.dst_port ~dst_port:seg.Wire.src_port ()
      else
        Wire.make ~seq:0
          ~ack_n:(Seq.add seg.Wire.seq seg_len)
          ~flags:f_rst_ack ~src_port:seg.Wire.dst_port
          ~dst_port:seg.Wire.src_port ()
    in
    let bytes = Wire.encode ~src:dst ~dst:src reply in
    ignore (Ip.Stack.send t.ip ~src:dst ~proto:Ipv4.Proto.Tcp ~dst:src bytes)
  end

let abort c =
  (match c.st with
  | Syn_sent | Closed -> ()
  | Listen | Syn_received | Established | Fin_wait_1 | Fin_wait_2
  | Close_wait | Closing | Last_ack | Time_wait ->
      c.tcp.gstats.resets_out <- c.tcp.gstats.resets_out + 1;
      emit_control c ~flags:f_rst_ack ~seq:c.snd_nxt);
  destroy c Reset

(* Retransmission -------------------------------------------------------- *)

(* Forward reference: on_rto needs the output engine, which is defined
   below and itself needs arm_rto. *)
let output_ref : (conn -> unit) ref = ref (fun _ -> ())

let rec arm_rto c =
  let delay = Rto.rto c.rto in
  cancel_timer c.rto_timer;
  c.rto_timer <- Some (Engine.Timer.start c.tcp.eng ~after:delay (fun () -> on_rto c))

and retransmit_one c =
  (* Karn's rule: a retransmitted sequence range must not be timed. *)
  c.timed_at <- -1;
  c.cstats.retransmits <- c.cstats.retransmits + 1;
  if Trace.want Trace.Cls.tcp then
    Trace.emit
      (Trace.Event.Tcp_retransmit
         { node = Ip.Stack.node_id c.tcp.ip; dst = c.remote_addr;
           seq = c.snd_una;
           len =
             max 0
               (min c.eff_mss
                  (Sendbuf.tail c.sndbuf - off_of_seq c c.snd_una)) });
  match c.st with
  | Syn_sent -> emit_control c ~flags:f_syn ~seq:c.iss
  | Syn_received -> emit_control c ~flags:f_syn_ack ~seq:c.iss
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
    ->
      let off = off_of_seq c c.snd_una in
      let data_left = Sendbuf.tail c.sndbuf - off in
      if data_left > 0 then begin
        let len = min c.eff_mss data_left in
        (* Never re-send bytes the peer has SACKed past the hole. *)
        let len =
          match Sack.next_left c.scoreboard c.snd_una with
          | Some l when Seq.gt l c.snd_una ->
              min len (Seq.diff l c.snd_una)
          | Some _ | None -> len
        in
        c.cstats.bytes_retransmitted <- c.cstats.bytes_retransmitted + len;
        emit_segment c
          ~flags:(if len = data_left then f_ack_psh else f_ack)
          ~seq:c.snd_una ~payload_off:off ~payload_len:len ~sack:[]
      end
      else if c.fin_sent then emit_control c ~flags:f_fin_ack ~seq:(fin_seq c)
  | Closed | Listen | Time_wait -> ()

and on_rto c =
  c.rto_timer <- None;
  c.cstats.rto_fires <- c.cstats.rto_fires + 1;
  c.retries <- c.retries + 1;
  if Trace.want Trace.Cls.tcp then
    Trace.emit
      (Trace.Event.Tcp_rto_fire
         { node = Ip.Stack.node_id c.tcp.ip; dst = c.remote_addr;
           retries = c.retries });
  let limit =
    match c.st with
    | Syn_sent | Syn_received -> c.cfg.syn_retries
    | Closed | Listen | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
    | Closing | Last_ack | Time_wait ->
        c.cfg.max_retransmits
  in
  if c.retries > limit then
    destroy c (if c.st = Syn_sent then Refused else Timed_out)
  else begin
    (* Timeout means congestion: collapse to slow start (Jacobson). *)
    (match c.cfg.cc with
    | No_cc -> ()
    | Tahoe | Reno ->
        c.ssthresh <- max (flight c / 2) (2 * c.eff_mss);
        c.cwnd <- c.eff_mss;
        c.in_recovery <- false;
        c.dupacks <- 0);
    Rto.backoff c.rto;
    (match c.st with
    | Syn_sent | Syn_received -> retransmit_one c
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
    | Last_ack ->
        (* Go-back-N rollback: pull snd_nxt to the oldest unacked byte and
           let the (collapsed) window drive retransmission.  The
           scoreboard survives (RFC 2018 §8 makes discarding it optional,
           and the peer's reneging would show up as holes re-reported),
           so the rollback resend skips SACKed ranges. *)
        c.timed_at <- -1;
        c.snd_nxt <- c.snd_una;
        if c.fin_sent && Seq.le c.snd_una (fin_seq c) then
          c.fin_sent <- false;
        !output_ref c
    | Closed | Listen | Time_wait -> ());
    arm_rto c
  end

(* The output engine ------------------------------------------------------ *)

(* States in which the output engine may transmit stream bytes: new data
   only flows in ESTABLISHED/CLOSE-WAIT, but retransmission after an RTO
   rollback must also run while our FIN is in flight. *)
let can_send_data c =
  match c.st with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack -> true
  | Fin_wait_2 | Time_wait | Closed | Listen | Syn_sent | Syn_received ->
      false

let rec output c =
  if can_send_data c || c.fin_pending then begin
    let progress = ref true in
    while !progress do
      progress := false;
      (* SACK: when retransmitting (snd_nxt below the high-water mark),
         hop over ranges the peer already holds. *)
      (if Seq.lt c.snd_nxt c.snd_max then
         match Sack.sacked_to c.scoreboard c.snd_nxt with
         | Some r when Seq.gt r c.snd_nxt && Seq.le r c.snd_max ->
             c.snd_nxt <- r
         | Some _ | None -> ());
      let fl = flight c in
      let wnd = min c.snd_wnd (effective_cwnd c) in
      let usable = wnd - fl in
      let nxt_off = off_of_seq c c.snd_nxt in
      let avail = Sendbuf.tail c.sndbuf - nxt_off in
      if can_send_data c && avail > 0 && usable > 0 then begin
        let chunk = min c.eff_mss (min avail usable) in
        (* A retransmission run must stop at the next SACKed range. *)
        let chunk =
          if Seq.lt c.snd_nxt c.snd_max then
            match Sack.next_left c.scoreboard c.snd_nxt with
            | Some l when Seq.gt l c.snd_nxt ->
                min chunk (Seq.diff l c.snd_nxt)
            | Some _ | None -> chunk
          else chunk
        in
        (* Nagle: withhold a final sub-MSS segment while data is in
           flight. *)
        let nagle_hold =
          c.cfg.nagle && chunk < c.eff_mss && chunk = avail && fl > 0
          && not c.fin_pending
        in
        if chunk > 0 && not nagle_hold then begin
          emit_segment c
            ~flags:(if chunk = avail then f_ack_psh else f_ack)
            ~seq:c.snd_nxt ~payload_off:nxt_off ~payload_len:chunk ~sack:[];
          if Seq.lt c.snd_nxt c.snd_max then begin
            c.cstats.retransmits <- c.cstats.retransmits + 1;
            c.cstats.bytes_retransmitted <-
              c.cstats.bytes_retransmitted + chunk;
            if Trace.want Trace.Cls.tcp then
              Trace.emit
                (Trace.Event.Tcp_retransmit
                   { node = Ip.Stack.node_id c.tcp.ip;
                     dst = c.remote_addr; seq = c.snd_nxt; len = chunk })
          end
          else begin
            c.cstats.bytes_out <- c.cstats.bytes_out + chunk;
            if c.timed_at < 0 then begin
              c.timed_seq <- c.snd_nxt;
              c.timed_at <- Engine.now c.tcp.eng
            end
          end;
          c.snd_nxt <- Seq.add c.snd_nxt chunk;
          c.snd_max <- Seq.max c.snd_max c.snd_nxt;
          if c.rto_timer = None then arm_rto c;
          progress := true
        end
      end
    done;
    (* FIN once the stream is fully transmitted. *)
    if
      c.fin_pending && (not c.fin_sent)
      && off_of_seq c c.snd_nxt = Sendbuf.tail c.sndbuf
      && (match c.st with
         | Established | Close_wait | Fin_wait_1 | Closing | Last_ack -> true
         | Closed | Listen | Syn_sent | Syn_received | Fin_wait_2
         | Time_wait ->
             false)
    then begin
      emit_control c ~flags:f_fin_ack ~seq:c.snd_nxt;
      c.fin_sent <- true;
      c.snd_nxt <- Seq.add c.snd_nxt 1;
      c.snd_max <- Seq.max c.snd_max c.snd_nxt;
      (match c.st with
      | Established -> c.st <- Fin_wait_1
      | Close_wait -> c.st <- Last_ack
      | Closed | Listen | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2
      | Closing | Last_ack | Time_wait ->
          ());
      if c.rto_timer = None then arm_rto c
    end;
    maybe_arm_persist c
  end

(* Zero-window persist: after an idle interval, force one byte into the
   closed window so the reopening ACK cannot be lost silently. *)
and maybe_arm_persist c =
  let nxt_off = off_of_seq c c.snd_nxt in
  let avail = Sendbuf.tail c.sndbuf - nxt_off in
  if
    c.snd_wnd = 0 && flight c = 0 && avail > 0 && c.persist_timer = None
    && can_send_data c
  then
    c.persist_timer <-
      Some
        (Engine.Timer.start c.tcp.eng ~after:c.cfg.persist_us (fun () ->
             c.persist_timer <- None;
             if c.snd_wnd = 0 && flight c = 0 && can_send_data c then begin
               let nxt_off = off_of_seq c c.snd_nxt in
               if Sendbuf.tail c.sndbuf > nxt_off then begin
                 emit_segment c ~flags:f_ack ~seq:c.snd_nxt
                   ~payload_off:nxt_off ~payload_len:1 ~sack:[];
                 c.cstats.bytes_out <- c.cstats.bytes_out + 1;
                 c.snd_nxt <- Seq.add c.snd_nxt 1;
                 c.snd_max <- Seq.max c.snd_max c.snd_nxt;
                 if c.rto_timer = None then arm_rto c
               end
             end))

let () = output_ref := output

(* User API --------------------------------------------------------------- *)

let send c data =
  match c.st with
  | Established | Close_wait | Syn_sent | Syn_received ->
      if c.fin_pending then 0
      else begin
        let n = Sendbuf.append c.sndbuf data in
        output c;
        n
      end
  | Closed | Listen | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack
  | Time_wait ->
      0

let send_space c = Sendbuf.space c.sndbuf

let close c =
  match c.st with
  | Closed | Listen | Time_wait | Fin_wait_1 | Fin_wait_2 | Closing
  | Last_ack ->
      ()
  | Syn_sent -> destroy c Graceful
  | Syn_received | Established | Close_wait ->
      c.fin_pending <- true;
      output c

let pause_reading c = c.paused <- true

let resume_reading c =
  if c.paused then begin
    c.paused <- false;
    if Buffer.length c.recvq > 0 then begin
      let data = Buffer.to_bytes c.recvq in
      Buffer.clear c.recvq;
      (match c.cb_receive with
      | Some f -> f data
      | None -> ());
      (* The window just reopened: tell the peer. *)
      send_ack c
    end
  end

(* Delivery -------------------------------------------------------------- *)

let deliver_to_app c data =
  c.cstats.bytes_in <- c.cstats.bytes_in + Bytes.length data;
  if c.paused then Buffer.add_bytes c.recvq data
  else
    match c.cb_receive with
    | Some f -> f data
    | None -> Buffer.add_bytes c.recvq data

(* Congestion-control reaction to one acceptable ACK. *)
let cc_on_new_ack c acked =
  match c.cfg.cc with
  | No_cc -> ()
  | Tahoe | Reno ->
      if c.in_recovery then begin
        (* Classic Reno: leave fast recovery on the first new ACK. *)
        c.cwnd <- c.ssthresh;
        c.in_recovery <- false
      end
      else if c.cwnd < c.ssthresh then
        (* Slow start. *)
        c.cwnd <- c.cwnd + min acked c.eff_mss
      else
        (* Congestion avoidance: ~one MSS per RTT. *)
        c.cwnd <- c.cwnd + max 1 (c.eff_mss * c.eff_mss / c.cwnd)
[@@fastpath]

let enter_fast_retransmit c =
  c.cstats.fast_retransmits <- c.cstats.fast_retransmits + 1;
  (match c.cfg.cc with
  | No_cc -> ()
  | Tahoe ->
      c.ssthresh <- max (flight c / 2) (2 * c.eff_mss);
      c.cwnd <- c.eff_mss;
      c.dupacks <- 0
  | Reno ->
      c.ssthresh <- max (flight c / 2) (2 * c.eff_mss);
      c.cwnd <- c.ssthresh + (3 * c.eff_mss);
      c.recover <- c.snd_nxt;
      c.in_recovery <- true);
  retransmit_one c;
  arm_rto c

(* TIME-WAIT entry / restart. *)
let enter_time_wait c =
  (c.st <- Time_wait [@transitions.from "Fin_wait_2,Closing,Time_wait"]);
  cancel_timer c.rto_timer;
  c.rto_timer <- None;
  cancel_timer c.timewait_timer;
  c.timewait_timer <-
    Some
      (Engine.Timer.start c.tcp.eng ~after:(2 * c.cfg.msl_us) (fun () ->
           destroy c Graceful))

let mark_established c =
  c.tcp.gstats.established <- c.tcp.gstats.established + 1;
  (c.st <- Established [@transitions.from "Syn_sent,Syn_received"]);
  (match c.via_listener with
  | Some l when l.l_open -> l.l_accept c
  | Some _ | None -> ());
  match c.cb_established with Some f -> f () | None -> ()

(* An ACK beyond the timed sequence completes the RTT sample (Karn-safe:
   timing is cleared on retransmission). *)
let sample_rtt c ~ack =
  if c.timed_at >= 0 && Seq.gt ack c.timed_seq then begin
    Rto.sample c.rto (Engine.now c.tcp.eng - c.timed_at);
    c.timed_at <- -1
  end
[@@fastpath]

(* ACK processing (RFC 793 p.72).  Returns false if the segment should not
   be processed further (stale ACK of unsent data). *)
let process_ack c (seg : Wire.t) =
  let ack = seg.Wire.ack_n in
  (* Validate against the high-water mark, not snd_nxt: after an RTO
     rollback, acks of pre-rollback transmissions are still good. *)
  if Seq.gt ack c.snd_max then begin
    (* Acks something not yet sent. *)
    send_ack c;
    false
  end
  else if Seq.lt ack (Seq.add c.snd_una (-max 1 c.max_snd_wnd)) then begin
    (* RFC 5961 §5.2: an ACK below [snd_una - max_snd_wnd] cannot be a
       late arrival from this connection — drop it outright so blind
       ACK-range probes neither touch cc state nor trigger a reply. *)
    c.tcp.gstats.dropped_acks_invalid <- c.tcp.gstats.dropped_acks_invalid + 1;
    if Trace.want Trace.Cls.tcp then
      Trace.emit
        (Trace.Event.Tcp_guard
           { node = Ip.Stack.node_id c.tcp.ip; dst = c.remote_addr;
             kind = Trace.Event.Guard_ack_invalid });
    false
  end
  else begin
    let seg_len = Bytes.length seg.Wire.payload in
    if c.sack_ok && seg.Wire.sack <> [] then
      Sack.record c.scoreboard ~una:c.snd_una ~high:c.snd_max
        seg.Wire.sack;
    if Seq.gt ack c.snd_una then begin
      let acked = Seq.diff ack c.snd_una in
      c.snd_una <- ack;
      Sack.clear_below c.scoreboard ack;
      if Seq.lt c.snd_nxt c.snd_una then c.snd_nxt <- c.snd_una;
      (* Drop acknowledged stream bytes (the FIN consumes no buffer). *)
      let new_base = min (off_of_seq c ack) (Sendbuf.tail c.sndbuf) in
      Sendbuf.drop_until c.sndbuf new_base;
      sample_rtt c ~ack;
      c.retries <- 0;
      Rto.reset_backoff c.rto;
      cc_on_new_ack c acked;
      if Seq.ge ack c.recover then c.dupacks <- 0;
      (* Timer: stop when everything is acked, else restart. *)
      if c.snd_una = c.snd_nxt then begin
        cancel_timer c.rto_timer;
        c.rto_timer <- None
      end
      else arm_rto c
    end
    else if
      seg_len = 0
      && ack = c.snd_una
      && seg.Wire.window lsl c.snd_wscale = c.snd_wnd
      && Seq.lt c.snd_una c.snd_nxt
      && not seg.Wire.flags.Wire.syn
      && not seg.Wire.flags.Wire.fin
    then begin
      (* A genuine duplicate ACK (RFC 5681 definition). *)
      c.cstats.dupacks <- c.cstats.dupacks + 1;
      c.dupacks <- c.dupacks + 1;
      if c.dupacks = 3 && c.cfg.cc <> No_cc then enter_fast_retransmit c
      else if c.dupacks > 3 && c.in_recovery then begin
        (* Window inflation during Reno fast recovery. *)
        c.cwnd <- c.cwnd + c.eff_mss;
        output c
      end
    end;
    (* Window update (RFC 793 p.72 wl1/wl2 test). *)
    if
      Seq.lt c.snd_wl1 seg.Wire.seq
      || (c.snd_wl1 = seg.Wire.seq && Seq.le c.snd_wl2 ack)
    then begin
      let old_wnd = c.snd_wnd in
      set_snd_wnd c (seg.Wire.window lsl c.snd_wscale);
      c.snd_wl1 <- seg.Wire.seq;
      c.snd_wl2 <- ack;
      if old_wnd = 0 && c.snd_wnd > 0 then begin
        cancel_timer c.persist_timer;
        c.persist_timer <- None
      end
    end;
    true
  end

(* In-order data and FIN delivery; assumes seg.seq = rcv_nxt after
   trimming. *)
let rec accept_text c seq payload fin =
  let len = Bytes.length payload in
  if len > 0 then begin
    c.rcv_nxt <- Seq.add c.rcv_nxt len;
    deliver_to_app c payload
  end;
  ignore seq;
  if fin then begin
    c.rcv_nxt <- Seq.add c.rcv_nxt 1;
    (match c.cb_peer_fin with Some f -> f () | None -> ());
    match c.st with
    | Established -> c.st <- Close_wait
    | Fin_wait_1 ->
        (* Our FIN not yet acked: simultaneous close. *)
        c.st <- Closing
    | Fin_wait_2 -> enter_time_wait c
    | Syn_received -> c.st <- Close_wait
    | Closed | Listen | Syn_sent | Close_wait | Closing | Last_ack
    | Time_wait ->
        ()
  end;
  (* Pull any now-contiguous out-of-order segments. *)
  drain_ooo c

and drain_ooo c =
  match c.ooo with
  | (seq, data) :: rest when Seq.le seq c.rcv_nxt ->
      c.ooo <- rest;
      let skip = Seq.diff c.rcv_nxt seq in
      if skip < Bytes.length data then begin
        let fresh =
          if skip = 0 then data
          else Bytes.sub data skip (Bytes.length data - skip)
        in
        accept_text c c.rcv_nxt fresh false
      end
      else drain_ooo c
  | _ -> ()

(* Insert an out-of-order segment, keeping the list sorted by seq. *)
let store_ooo c seq data =
  let rec ins = function
    | [] -> [ (seq, data) ]
    | (s, d) :: rest when Seq.lt s seq -> (s, d) :: ins rest
    | (s, _) :: _ as l when s = seq -> l (* duplicate: keep first *)
    | l -> (seq, data) :: l
  in
  if List.length c.ooo < 256 then begin
    c.ooo <- ins c.ooo;
    (* Most recent arrival: its range leads the SACK list (RFC 2018 §4). *)
    c.last_ooo_seq <- seq
  end

(* Segment arrival for synchronized states. *)
let rec process_segment c (seg : Wire.t) =
  c.cstats.segs_in <- c.cstats.segs_in + 1;
  let seg_len =
    (* RFC 793 §3.3: SYN and FIN each occupy one sequence number, so both
       count toward the acceptability test — a FIN exactly at the right
       window edge is acceptable, one just past it is not. *)
    Bytes.length seg.Wire.payload
    + (if seg.Wire.flags.Wire.syn then 1 else 0)
    + (if seg.Wire.flags.Wire.fin then 1 else 0)
  in
  let wnd = rcv_window c in
  (* Acceptability check (RFC 793 p.69). *)
  let acceptable =
    if seg_len = 0 && wnd = 0 then seg.Wire.seq = c.rcv_nxt
    else if seg_len = 0 then Seq.in_window seg.Wire.seq ~base:c.rcv_nxt ~size:wnd
    else if wnd = 0 then false
    else
      Seq.in_window seg.Wire.seq ~base:c.rcv_nxt ~size:wnd
      || Seq.in_window
           (Seq.add seg.Wire.seq (seg_len - 1))
           ~base:c.rcv_nxt ~size:wnd
  in
  if not acceptable then begin
    if not seg.Wire.flags.Wire.rst then send_ack c
  end
  else if seg.Wire.flags.Wire.rst then begin
    (* RFC 5961 §3.2: a reset is honored only when it names the exact
       next expected sequence.  Merely in-window resets — what a blind
       attacker can forge — earn a challenge ACK; a legitimate peer
       answers with nothing, a desynchronized one with an exact RST. *)
    if seg.Wire.seq = c.rcv_nxt then begin
      c.tcp.gstats.resets_in <- c.tcp.gstats.resets_in + 1;
      destroy c Reset
    end
    else begin
      c.tcp.gstats.rst_rejected_inexact <-
        c.tcp.gstats.rst_rejected_inexact + 1;
      if Trace.want Trace.Cls.tcp then
        Trace.emit
          (Trace.Event.Tcp_guard
             { node = Ip.Stack.node_id c.tcp.ip; dst = c.remote_addr;
               kind = Trace.Event.Guard_rst_inexact });
      send_challenge_ack c
    end
  end
  else if seg.Wire.flags.Wire.syn then begin
    (* RFC 5961 §4.2: never tear down a synchronized connection on an
       in-window SYN (RFC 793 said abort).  Challenge-ACK instead; a
       genuinely restarted peer replies with an exact-sequence RST. *)
    if Trace.want Trace.Cls.tcp then
      Trace.emit
        (Trace.Event.Tcp_guard
           { node = Ip.Stack.node_id c.tcp.ip; dst = c.remote_addr;
             kind = Trace.Event.Guard_syn_in_window });
    send_challenge_ack c
  end
  else if not seg.Wire.flags.Wire.ack then ()
  else if
    (* SYN-RECEIVED: the handshake-completing ACK. *)
    c.st = Syn_received
  then begin
    if
      Seq.in_window seg.Wire.ack_n
        ~base:(Seq.add c.snd_una 1)
        ~size:(Seq.diff c.snd_nxt c.snd_una)
    then begin
      c.snd_una <- seg.Wire.ack_n;
      (* First post-handshake window: scaling is in effect from here on. *)
      set_snd_wnd c (seg.Wire.window lsl c.snd_wscale);
      c.snd_wl1 <- seg.Wire.seq;
      c.snd_wl2 <- seg.Wire.ack_n;
      cancel_timer c.rto_timer;
      c.rto_timer <- None;
      c.retries <- 0;
      mark_established c;
      (* Fall through to text processing of this same segment. *)
      if Bytes.length seg.Wire.payload > 0 || seg.Wire.flags.Wire.fin then
        process_segment c { seg with Wire.flags = { seg.Wire.flags with Wire.syn = false } }
    end
    else send_rst_like c seg
  end
  else begin
    let continue = process_ack c seg in
    if continue then begin
      (* FIN-WAIT / CLOSING progress on FIN acknowledgment. *)
      (if c.fin_sent && Seq.gt c.snd_una (fin_seq c) then
         match c.st with
         | Fin_wait_1 -> c.st <- Fin_wait_2
         | Closing -> enter_time_wait c
         | Last_ack -> destroy c Graceful
         | Closed | Listen | Syn_sent | Syn_received | Established
         | Fin_wait_2 | Close_wait | Time_wait ->
             ());
      if c.st <> Closed then begin
        (* Segment text. *)
        let payload = seg.Wire.payload in
        let plen = Bytes.length payload in
        let fin = seg.Wire.flags.Wire.fin in
        if plen > 0 || fin then begin
          if c.st = Time_wait then begin
            (* Peer retransmitted its FIN: re-ack and restart 2MSL. *)
            send_ack c;
            enter_time_wait c
          end
          else begin
            let seq = seg.Wire.seq in
            if Seq.le seq c.rcv_nxt then begin
              (* Trim the already-received prefix. *)
              let skip = Seq.diff c.rcv_nxt seq in
              let keep = max 0 (plen - skip) in
              let fresh =
                if skip = 0 then payload
                else if keep > 0 then Bytes.sub payload skip keep
                else Bytes.empty
              in
              (* The FIN may itself be stale if rcv_nxt passed it. *)
              let fin_seq_in = Seq.add seq plen in
              let fin_fresh = fin && Seq.ge fin_seq_in c.rcv_nxt in
              if keep > 0 || fin_fresh then begin
                accept_text c c.rcv_nxt fresh fin_fresh;
                c.ack_pending <- c.ack_pending + 1;
                if fin_fresh || c.ack_pending >= 2 then send_ack c
                else if c.delack_timer = None then
                  c.delack_timer <-
                    Some
                      (Engine.Timer.start c.tcp.eng
                         ~after:c.cfg.delayed_ack_us (fun () ->
                           c.delack_timer <- None;
                           if c.ack_pending > 0 then send_ack c))
              end
              else send_ack c
            end
            else begin
              (* Out of order: stash and signal the gap at once. *)
              store_ooo c seq payload;
              send_ack c
            end
          end
        end;
        if c.st <> Closed then output c
      end
    end
  end

and send_rst_like c (seg : Wire.t) =
  c.tcp.gstats.resets_out <- c.tcp.gstats.resets_out + 1;
  emit_control c ~flags:f_rst ~seq:seg.Wire.ack_n

(* SYN-SENT arrival (RFC 793 p.66). *)
let process_syn_sent c (seg : Wire.t) =
  c.cstats.segs_in <- c.cstats.segs_in + 1;
  let ack_ok =
    seg.Wire.flags.Wire.ack
    && Seq.in_window seg.Wire.ack_n ~base:(Seq.add c.iss 1)
         ~size:(Seq.diff c.snd_nxt c.iss)
  in
  if seg.Wire.flags.Wire.ack && not ack_ok then begin
    if not seg.Wire.flags.Wire.rst then send_rst_like c seg
  end
  else if seg.Wire.flags.Wire.rst then begin
    if ack_ok then begin
      c.tcp.gstats.resets_in <- c.tcp.gstats.resets_in + 1;
      destroy c Refused
    end
  end
  else if seg.Wire.flags.Wire.syn then begin
    c.irs <- seg.Wire.seq;
    c.rcv_nxt <- Seq.add seg.Wire.seq 1;
    (match seg.Wire.mss with
    | Some peer_mss -> c.eff_mss <- min c.cfg.mss peer_mss
    | None -> c.eff_mss <- min c.cfg.mss 536);
    (* RFC 7323 §2.2: scaling is live only if both SYNs carried the
       option; RFC 2018 likewise for SACK. *)
    (match (seg.Wire.wscale, c.ws_send) with
    | Some peer_shift, Some our_shift ->
        c.snd_wscale <- min peer_shift 14;
        c.rcv_wscale <- our_shift
    | _ ->
        c.snd_wscale <- 0;
        c.rcv_wscale <- 0);
    c.sack_ok <- seg.Wire.sack_permitted && c.sackp_send;
    if ack_ok then begin
      c.snd_una <- seg.Wire.ack_n;
      (* A window carried on a SYN is never scaled (RFC 7323 §2.2). *)
      set_snd_wnd c seg.Wire.window;
      c.snd_wl1 <- seg.Wire.seq;
      c.snd_wl2 <- seg.Wire.ack_n;
      cancel_timer c.rto_timer;
      c.rto_timer <- None;
      c.retries <- 0;
      (* The SYN round trip is a valid RTT sample. *)
      if c.timed_at >= 0 then
        Rto.sample c.rto (Engine.now c.tcp.eng - c.timed_at);
      c.timed_at <- -1;
      send_ack c;
      mark_established c;
      output c
    end
    else begin
      (* Simultaneous open. *)
      (c.st <- Syn_received [@transitions.from "Syn_sent"]);
      emit_control c ~flags:f_syn_ack ~seq:c.iss;
      arm_rto c
    end
  end

(* Construction ----------------------------------------------------------- *)

let fresh_iss t = Stdext.Rng.int t.rng Seq.modulus

let make_conn t ~cfg ~local_addr ~local_port ~remote_addr ~remote_port
    ~via_listener ~st ~iss =
  let c =
    {
      tcp = t;
      cfg;
      local_addr;
      local_port;
      remote_addr;
      remote_port;
      via_listener;
      st;
      iss;
      snd_una = iss;
      snd_nxt = Seq.add iss 1;
      snd_max = Seq.add iss 1;
      snd_wnd = 0;
      max_snd_wnd = 0;
      snd_wl1 = 0;
      snd_wl2 = 0;
      sndbuf = Sendbuf.create ~limit:cfg.send_buffer ();
      scoreboard = Sack.create ();
      fin_pending = false;
      fin_sent = false;
      eff_mss = min cfg.mss 536;
      ws_send = None;
      sackp_send = false;
      snd_wscale = 0;
      rcv_wscale = 0;
      sack_ok = false;
      irs = 0;
      rcv_nxt = 0;
      ooo = [];
      last_ooo_seq = 0;
      recvq = Buffer.create 256;
      paused = false;
      cwnd = 2 * cfg.mss;
      (* RFC 5681 §3.1: initial ssthresh may be arbitrarily high; cap it
         at the peer's possible window, not at the pre-7323 64 KiB. *)
      ssthresh = max 65535 cfg.window;
      dupacks = 0;
      recover = iss;
      in_recovery = false;
      rto = Rto.create ();
      rto_timer = None;
      retries = 0;
      delack_timer = None;
      ack_pending = 0;
      persist_timer = None;
      timewait_timer = None;
      timed_seq = 0;
      timed_at = -1;
      cb_established = None;
      cb_receive = None;
      cb_peer_fin = None;
      cb_close = None;
      closed_notified = false;
      cstats = new_conn_stats ();
    }
  in
  add_conn t c;
  c

(* Typed open errors, so a caller can match on the cause. *)
type listen_error = Port_in_use of int

exception Listen_error of listen_error

let listen_error_to_string = function
  | Port_in_use p -> Printf.sprintf "port %d already has a listener" p

type connect_error = No_free_port of { dst : Addr.t; dst_port : int }

exception Connect_error of connect_error

let connect_error_to_string = function
  | No_free_port { dst; dst_port } ->
      Printf.sprintf "every ephemeral port to %s:%d is in use"
        (Addr.to_string dst) dst_port

let () =
  Printexc.register_printer (function
    | Listen_error e -> Some ("Tcp.listen: " ^ listen_error_to_string e)
    | Connect_error e -> Some ("Tcp.connect: " ^ connect_error_to_string e)
    | _ -> None)

let ephemeral_first = 49152
let ephemeral_last = 65535

(* The next ephemeral port, in turn, whose 4-tuple to the peer is free: a
   wrapped counter must not hand out the port of a live connection. *)
let alloc_ephemeral t ~local_addr ~dst ~dst_port =
  let rec next tries =
    if tries > ephemeral_last - ephemeral_first then
      raise (Connect_error (No_free_port { dst; dst_port }));
    let p = t.next_ephemeral in
    t.next_ephemeral <- (if p = ephemeral_last then ephemeral_first else p + 1);
    match find_conn t ~laddr:local_addr ~lport:p ~raddr:dst ~rport:dst_port with
    | _ -> next (tries + 1)
    | exception Not_found -> p
  in
  next 0

let local_addr_for t dst =
  match Ip.Route_table.lookup (Ip.Stack.table t.ip) dst with
  | Some r -> (
      match Ip.Stack.iface_addr t.ip r.Ip.Route_table.iface with
      | Some a -> a
      | None -> Ip.Stack.primary_addr t.ip)
  | None -> Ip.Stack.primary_addr t.ip

let connect t ?config ~dst ~dst_port () =
  let cfg = Option.value config ~default:t.default_cfg in
  let local_addr =
    if Ip.Stack.has_addr t.ip dst then dst else local_addr_for t dst
  in
  let local_port = alloc_ephemeral t ~local_addr ~dst ~dst_port in
  t.gstats.active_opens <- t.gstats.active_opens + 1;
  let c =
    make_conn t ~cfg ~local_addr ~local_port ~remote_addr:dst
      ~remote_port:dst_port ~via_listener:None ~st:Syn_sent
      ~iss:(fresh_iss t)
  in
  if cfg.window_scaling then c.ws_send <- Some (desired_wscale cfg);
  c.sackp_send <- cfg.sack;
  emit_control c ~flags:f_syn ~seq:c.iss;
  c.timed_seq <- c.iss;
  c.timed_at <- Engine.now t.eng;
  arm_rto c;
  c

let listen t ~port ~accept =
  if Hashtbl.mem t.listeners port then raise (Listen_error (Port_in_use port));
  let l = { l_tcp = t; l_port = port; l_accept = accept; l_open = true } in
  Hashtbl.add t.listeners port l;
  l

let close_listener l =
  if l.l_open then begin
    l.l_open <- false;
    Hashtbl.remove l.l_tcp.listeners l.l_port
  end

(* Passive open from a listener, for a SYN [src] sent to [dst]. *)
let passive_open t l ~src ~dst (seg : Wire.t) =
  t.gstats.passive_opens <- t.gstats.passive_opens + 1;
  let c =
    make_conn t ~cfg:t.default_cfg ~local_addr:dst
      ~local_port:seg.Wire.dst_port ~remote_addr:src
      ~remote_port:seg.Wire.src_port ~via_listener:(Some l) ~st:Syn_received
      ~iss:(fresh_iss t)
  in
  c.irs <- seg.Wire.seq;
  c.rcv_nxt <- Seq.add seg.Wire.seq 1;
  (* SYN windows are never scaled (RFC 7323 §2.2). *)
  set_snd_wnd c seg.Wire.window;
  c.snd_wl1 <- seg.Wire.seq;
  c.snd_wl2 <- 0;
  (match seg.Wire.mss with
  | Some peer_mss -> c.eff_mss <- min c.cfg.mss peer_mss
  | None -> c.eff_mss <- min c.cfg.mss 536);
  (* Offer wscale only in response to an offer, per RFC 7323 §2.2. *)
  (match seg.Wire.wscale with
  | Some peer_shift when c.cfg.window_scaling ->
      let ours = desired_wscale c.cfg in
      c.ws_send <- Some ours;
      c.rcv_wscale <- ours;
      c.snd_wscale <- min peer_shift 14
  | Some _ | None -> ());
  c.sackp_send <- c.cfg.sack && seg.Wire.sack_permitted;
  c.sack_ok <- c.sackp_send;
  emit_control c ~flags:f_syn_ack ~seq:c.iss;
  arm_rto c

(* Header prediction (Van Jacobson): in ESTABLISHED, bulk traffic is a run
   of segments that are either the next in-sequence pure data or a pure ACK
   advancing snd_una, both with an unchanged window.  For exactly those,
   update the connection directly from the raw segment buffer — no [Wire.t],
   no option parse, no payload-trim copies.  Every guard below restates a
   condition under which the full RFC 793 dispatch ([process_segment])
   would take the same actions, so any mismatch just falls back to it and
   behaviour is byte-identical (property-tested against the slow path). *)

(* Pure ACK advancing snd_una: the new-ack branch of [process_ack], the
   window-update test, then [output] — nothing else in [process_segment]
   applies (no text, no FIN, and in ESTABLISHED our own FIN is unsent). *)
let fast_ack c ~seq ~ack =
  c.cstats.segs_in <- c.cstats.segs_in + 1;
  c.cstats.fast_path_acks <- c.cstats.fast_path_acks + 1;
  let acked = Seq.diff ack c.snd_una in
  c.snd_una <- ack;
  if Seq.lt c.snd_nxt c.snd_una then c.snd_nxt <- c.snd_una;
  let new_base = min (off_of_seq c ack) (Sendbuf.tail c.sndbuf) in
  Sendbuf.drop_until c.sndbuf new_base;
  sample_rtt c ~ack;
  c.retries <- 0;
  Rto.reset_backoff c.rto;
  cc_on_new_ack c acked;
  if Seq.ge ack c.recover then c.dupacks <- 0;
  if c.snd_una = c.snd_nxt then begin
    cancel_timer c.rto_timer;
    c.rto_timer <- None
  end
  else (arm_rto c [@fastpath.exempt]);
  (* RFC 793 wl1/wl2 test; the window value itself is unchanged by the
     prediction guard, so only the bookkeeping moves. *)
  if Seq.lt c.snd_wl1 seq || (c.snd_wl1 = seq && Seq.le c.snd_wl2 ack) then begin
    c.snd_wl1 <- seq;
    c.snd_wl2 <- ack
  end;
  (* [output] decides whether freed window lets us send; it allocates only
     when it actually emits a segment. *)
  (output c [@fastpath.exempt])
[@@fastpath]

(* Next in-sequence data, nothing else new: the window-update test, text
   acceptance (no trim needed, no out-of-order queue to drain), the
   delayed-ACK decision, then [output]. *)
let fast_data c ~seq ~ack buf ~pos ~plen =
  c.cstats.segs_in <- c.cstats.segs_in + 1;
  c.cstats.fast_path_data <- c.cstats.fast_path_data + 1;
  if Seq.lt c.snd_wl1 seq || (c.snd_wl1 = seq && Seq.le c.snd_wl2 ack) then begin
    c.snd_wl1 <- seq;
    c.snd_wl2 <- ack
  end;
  c.rcv_nxt <- Seq.add c.rcv_nxt plen;
  (* The one payload-sized copy the fast path is allowed (wire -> app). *)
  (deliver_to_app c (Bytes.sub buf (pos + 20) plen) [@fastpath.exempt]);
  c.ack_pending <- c.ack_pending + 1;
  if c.ack_pending >= 2 then (send_ack c [@fastpath.exempt])
  else if c.delack_timer = None then
    c.delack_timer <-
      (Some
         (Engine.Timer.start c.tcp.eng ~after:c.cfg.delayed_ack_us (fun () ->
              c.delack_timer <- None;
              if c.ack_pending > 0 then send_ack c))
      [@fastpath.exempt]);
  (output c [@fastpath.exempt])
[@@fastpath]

(* [buf] holds, at [pos], a checksum-valid [len]-byte segment with a bare
   20-byte header and only ACK/PSH set.  Returns [true] if it was consumed
   on the fast path. *)
let try_fast c buf ~pos ~len =
  let plen = len - 20 in
  let seq = Wire.peek_seq buf ~pos in
  if seq <> c.rcv_nxt || Wire.peek_window buf ~pos lsl c.snd_wscale <> c.snd_wnd
  then false
  else begin
    let ack = Wire.peek_ack_n buf ~pos in
    if plen = 0 then
      if Seq.gt ack c.snd_una && Seq.le ack c.snd_max then begin
        fast_ack c ~seq ~ack;
        true
      end
      else false
    else if ack = c.snd_una && c.ooo = [] && plen <= rcv_window c then begin
      fast_data c ~seq ~ack buf ~pos ~plen;
      true
    end
    else false
  end
[@@fastpath]

(* Header prediction's gate for a checksum-valid segment with a bare
   20-byte header: only ACK (and PSH) set, for an ESTABLISHED connection,
   and [try_fast] took it. *)
let predicted t ~src ~dst frame ~pos ~len =
  let bits = Wire.peek_flag_bits frame ~pos in
  (bits = 0x10 || bits = 0x18)
  &&
  match
    find_conn t ~laddr:dst ~lport:(Wire.peek_dst_port frame ~pos) ~raddr:src
      ~rport:(Wire.peek_src_port frame ~pos)
  with
  | c -> c.st = Established && try_fast c frame ~pos ~len
  | exception Not_found -> false
[@@fastpath]

(* Full dispatch of a segment [src] sent to [dst]: connection lookup, the
   RFC 793 state machine, listeners and orphan RSTs. *)
let dispatch_segment t ~src ~dst (seg : Wire.t) =
  match
    find_conn t ~laddr:dst ~lport:seg.Wire.dst_port ~raddr:src
      ~rport:seg.Wire.src_port
  with
  | c -> (
      match c.st with
      | Syn_sent -> process_syn_sent c seg
      | Closed | Listen -> ()
      | Syn_received | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
      | Closing | Last_ack | Time_wait ->
          process_segment c seg)
  | exception Not_found -> (
      match Hashtbl.find_opt t.listeners seg.Wire.dst_port with
      | Some l
        when l.l_open && seg.Wire.flags.Wire.syn
             && (not seg.Wire.flags.Wire.ack)
             && not seg.Wire.flags.Wire.rst ->
          passive_open t l ~src ~dst seg
      | Some _ | None ->
          t.gstats.no_listener <- t.gstats.no_listener + 1;
          send_rst_for t ~src ~dst seg)

(* IP upcall: [frame] is the whole datagram, its segment running from
   [Ipv4.header_size] to the IP total length, and the addresses are read
   in place.  A predicted segment goes from wire to receive buffer with a
   single payload-sized copy and no other allocation; any other is read
   in place into a [Wire.t], its payload copied once, for the full
   dispatch. *)
let input t frame =
  let src = Ipv4.peek_src frame and dst = Ipv4.peek_dst frame in
  let pos = Ipv4.header_size in
  let len = Ipv4.peek_total_len frame - pos in
  if t.fast then begin
    let data_offset = Wire.peek ~src ~dst frame ~pos ~len in
    if data_offset = 0 then t.gstats.bad_segments <- t.gstats.bad_segments + 1
    else if not (data_offset = 20 && predicted t ~src ~dst frame ~pos ~len)
    then
      match Wire.of_peeked frame ~pos ~len ~data_offset with
      | Error _ -> t.gstats.bad_segments <- t.gstats.bad_segments + 1
      | Ok seg -> dispatch_segment t ~src ~dst seg
  end
  else
    match Wire.decode ~src ~dst (Bytes.sub frame pos len) with
    | Error _ -> t.gstats.bad_segments <- t.gstats.bad_segments + 1
    | Ok seg -> dispatch_segment t ~src ~dst seg

(* ICMP destination-unreachable quoting one of our SYNs is a hard error:
   abort the embryonic connection (BSD semantics).  The quote is the
   original IP header plus the first 8 TCP bytes — enough for the ports. *)
let handle_icmp_error t (msg : Packet.Icmp_wire.t) =
  match msg with
  | Packet.Icmp_wire.Dest_unreachable { original; _ } -> (
      if Bytes.length original >= Ipv4.header_size + 4 then
        match Ipv4.Proto.of_int (Bytes.get_uint8 original 9) with
        | Ipv4.Proto.Tcp -> (
            match
              find_conn t ~laddr:(Ipv4.peek_src original)
                ~lport:(Bytes.get_uint16_be original Ipv4.header_size)
                ~raddr:(Ipv4.peek_dst original)
                ~rport:(Bytes.get_uint16_be original (Ipv4.header_size + 2))
            with
            | c when c.st = Syn_sent -> destroy c Refused
            | _ | (exception Not_found) -> ())
        | Ipv4.Proto.Icmp | Ipv4.Proto.Udp | Ipv4.Proto.Other _ -> ())
  | Packet.Icmp_wire.Time_exceeded _ | Packet.Icmp_wire.Echo_request _
  | Packet.Icmp_wire.Echo_reply _ ->
      ()

let create ?(config = default_config) ip =
  let t =
    {
      ip;
      eng = Ip.Stack.engine ip;
      default_cfg = config;
      conns = Array.make 16 [];
      conn_count = 0;
      listeners = Hashtbl.create 4;
      next_ephemeral = ephemeral_first;
      rng = Stdext.Rng.create 0x7C0FFEE;
      gstats =
        {
          active_opens = 0;
          passive_opens = 0;
          established = 0;
          resets_out = 0;
          resets_in = 0;
          bad_segments = 0;
          no_listener = 0;
          challenge_acks_out = 0;
          rst_rejected_inexact = 0;
          dropped_acks_invalid = 0;
        };
      challenge_epoch = 0;
      challenge_count = 0;
      fast = true;
    }
  in
  Ip.Stack.register_proto_frame ip Ipv4.Proto.Tcp (input t);
  Ip.Stack.add_error_handler ip (fun ~from:_ msg -> handle_icmp_error t msg);
  t

let snd_una c = c.snd_una
let snd_nxt c = c.snd_nxt
let rcv_nxt c = c.rcv_nxt
let ooo_segments c = List.length c.ooo
let rto_us c = Rto.rto c.rto
let snd_wscale c = c.snd_wscale
let rcv_wscale c = c.rcv_wscale
let sack_enabled c = c.sack_ok
let sacked_bytes c = Sack.sacked_bytes c.scoreboard
