(* E18 — TCP under blind in-window attack, and windows past 64 KiB.

   The 1988 design trusted every datagram that named the right 4-tuple:
   an off-path attacker who guesses an in-window sequence number can
   reset, desynchronize or choke a connection (the accountability /
   trust gap of Clark goal 7, weaponized).  E18 measures the hardened
   transport: RFC 5961 exact-RST + challenge-ACK validation under a
   seeded hostile peer injecting >= 10^4 forged segments (RSTs at wrong
   in-window offsets, in-window SYNs, stale duplicates, out-of-window
   data, ACK-range probes) into a live transfer over the E17 region
   topology — spoofed from the peer's own address.

   Reported in BENCH_tcp_adversary.json and gated below: zero
   connections killed by forgeries, goodput under attack >= 90% of the
   unattacked run, the fast path bit-for-bit identical to the slow path
   while under fire, and — the RFC 7323 half — a window-scaled transfer
   on a high-BDP path (wscale >= 2, window > 64 KiB observed on the
   wire) completing faster than the same path capped at 16-bit windows.
   Every figure is a count or simulated time. *)

open Catenet
module Wire = Packet.Tcp_wire
module Ipv4 = Packet.Ipv4
module Seq = Tcp.Seq
module Rng = Stdext.Rng
module Addr = Packet.Addr

let hostile_full = 12_000
let transfer_full = 8_000_000
let lfn_total_full = 4_000_000
let lfn_bandwidth_bits_per_s = 200_000_000

type outcome = {
  o_finished : bool;
  o_received : int;
  o_intact : bool;
  o_killed : bool;
  o_injected : int;
  o_challenges : int;
  o_rst_rejected : int;
  o_acks_dropped : int;
  o_segs_out : int;
  o_segs_in : int;
  o_retransmits : int;
  o_done_us : int;
  o_goodput_bytes_per_s : float;
}

(* One bulk transfer across the region topology: sender in region 0,
   receiver half the ring away, Mallory a full host in region 1 forging
   segments at the sender with the receiver's source address. *)
let topo_run ~fast ~seed ~hostile ~total =
  let topo =
    Topo.build
      { Topo.default_config with Topo.seed; core = 6; chords = 2;
        regions = 12; hosts_per_region = 8 }
  in
  let eng = Topo.engine topo in
  let a_ip, a_addr = Topo.add_full_host topo ~region:0 in
  let b_ip, b_addr = Topo.add_full_host topo ~region:6 in
  let m_ip, _ = Topo.add_full_host topo ~region:1 in
  let a_tcp = Tcp.create a_ip and b_tcp = Tcp.create b_ip in
  Tcp.set_fast_path a_tcp fast;
  Tcp.set_fast_path b_tcp fast;
  let server = Apps.Bulk.serve b_tcp ~port:80 ~seed:(3 * seed) in
  let sender =
    Apps.Bulk.start a_tcp ~dst:b_addr ~dst_port:80 ~seed:(3 * seed) ~total ()
  in
  let conn = Apps.Bulk.conn sender in
  let rng = Rng.create (seed lxor 0xE18) in
  let injected = ref 0 in
  let forge () =
    let rcv = Tcp.rcv_nxt conn and una = Tcp.snd_una conn in
    let sport = 80 and dport = Tcp.local_port conn in
    let seg =
      match Rng.int rng 6 with
      | 0 ->
          Wire.make
            ~seq:(Seq.add rcv (1 + Rng.int rng 4096))
            ~flags:(Wire.flags ~rst:true ())
            ~src_port:sport ~dst_port:dport ()
      | 1 ->
          Wire.make
            ~seq:(Seq.add rcv (Rng.int rng 4096))
            ~flags:(Wire.flags ~syn:true ())
            ~window:4096 ~src_port:sport ~dst_port:dport ()
      | 2 ->
          let back = 2 + Rng.int rng 2000 in
          Wire.make
            ~seq:(Seq.add rcv (-back))
            ~ack_n:una
            ~flags:(Wire.flags ~ack:true ())
            ~window:8192
            ~payload:(Bytes.make (1 + Rng.int rng (min (back - 1) 64)) '\xaa')
            ~src_port:sport ~dst_port:dport ()
      | 3 ->
          Wire.make
            ~seq:(Seq.add rcv (1_000_000 + Rng.int rng 1_000_000))
            ~ack_n:una
            ~flags:(Wire.flags ~ack:true ())
            ~window:8192 ~payload:(Bytes.make 32 '\xbb') ~src_port:sport
            ~dst_port:dport ()
      | 4 ->
          Wire.make
            ~seq:(Seq.add rcv (Rng.int rng 1024))
            ~ack_n:(Seq.add una (-(1_000_000 + Rng.int rng 1_000_000)))
            ~flags:(Wire.flags ~ack:true ())
            ~window:8192 ~src_port:sport ~dst_port:dport ()
      | _ ->
          Wire.make
            ~seq:(Seq.add rcv (Rng.int rng 1024))
            ~ack_n:(Seq.add una (1_000_000 + Rng.int rng 1_000_000))
            ~flags:(Wire.flags ~ack:true ())
            ~window:8192 ~src_port:sport ~dst_port:dport ()
    in
    ignore
      (Ip.Stack.send m_ip ~src:b_addr ~proto:Ipv4.Proto.Tcp ~dst:a_addr
         (Wire.encode ~src:b_addr ~dst:a_addr seg));
    incr injected
  in
  if hostile > 0 then begin
    let rec barrage () =
      if !injected < hostile && Tcp.state conn <> Tcp.Closed then begin
        for _ = 1 to 25 do forge () done;
        Engine.after eng 500 barrage
      end
    in
    Engine.after eng 5_000 barrage
  end;
  Engine.run ~until:120_000_000 eng;
  let received, intact =
    match Apps.Bulk.transfers server with
    | [ tr ] -> (tr.Apps.Bulk.received, tr.Apps.Bulk.intact)
    | _ -> (-1, false)
  in
  let g = Tcp.instance_stats a_tcp in
  let st = Tcp.stats conn in
  {
    o_finished = Apps.Bulk.finished sender;
    o_received = received;
    o_intact = intact;
    o_killed = Apps.Bulk.failed sender = Some Tcp.Reset;
    o_injected = !injected;
    o_challenges = g.Tcp.challenge_acks_out;
    o_rst_rejected = g.Tcp.rst_rejected_inexact;
    o_acks_dropped = g.Tcp.dropped_acks_invalid;
    o_segs_out = st.Tcp.segs_out;
    o_segs_in = st.Tcp.segs_in;
    o_retransmits = st.Tcp.retransmits;
    o_done_us = Option.value (Apps.Bulk.completed_at_us sender) ~default:(-1);
    o_goodput_bytes_per_s =
      Option.value (Apps.Bulk.goodput_bps sender) ~default:0.0;
  }

(* A long-fat-network transfer: 200 Mbit/s x 40 ms RTT = ~1 MB of BDP,
   fifteen times what a 16-bit window can keep in flight.  The link gets
   BDP-scale buffering (256 frames ~ 375 KB) so the experiment measures
   the window limit, not slow-start overshoot into a shallow queue. *)
let lfn_run ~window_scaling ~total =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:7 eng in
  let na = Netsim.add_node net "snd" in
  let nb = Netsim.add_node net "rcv" in
  ignore
    (Netsim.add_link net
       (Netsim.profile "lfn" ~bandwidth_bps:lfn_bandwidth_bits_per_s
          ~delay_us:20_000 ~queue_capacity:256)
       na nb);
  let a_ip = Ip.Stack.create net na in
  let b_ip = Ip.Stack.create net nb in
  let a_addr = Addr.v 10 9 0 1 and b_addr = Addr.v 10 9 0 2 in
  Ip.Stack.configure_iface a_ip 0 ~addr:a_addr ~prefix_len:24;
  Ip.Stack.configure_iface b_ip 0 ~addr:b_addr ~prefix_len:24;
  let config =
    { Tcp.default_config with
      Tcp.window = 262_144; send_buffer = 524_288; window_scaling }
  in
  let a_tcp = Tcp.create ~config a_ip in
  let b_tcp = Tcp.create ~config b_ip in
  ignore (Apps.Bulk.serve b_tcp ~port:80 ~seed:11);
  let sender = Apps.Bulk.start a_tcp ~dst:b_addr ~dst_port:80 ~seed:11 ~total () in
  let conn = Apps.Bulk.conn sender in
  let peak_wnd = ref 0 in
  let rec sample () =
    peak_wnd := max !peak_wnd (Tcp.snd_wnd conn);
    if not (Apps.Bulk.finished sender) then Engine.after eng 2_000 sample
  in
  Engine.after eng 2_000 sample;
  Engine.run ~until:60_000_000 eng;
  let done_us =
    Option.value (Apps.Bulk.completed_at_us sender) ~default:(-1)
  in
  (Apps.Bulk.finished sender, done_us, !peak_wnd, Tcp.snd_wscale conn)

let run () =
  Util.banner "E18" "tcp under blind in-window attack"
    "RFC 5961 guards: >=10^4 forged segments, zero kills, goodput >= 90% \
     of the unattacked run; RFC 7323 windows past 64 KiB on a high-BDP \
     path";
  let hostile = Util.scaled hostile_full in
  let total = Util.scaled transfer_full in
  let seed = 18 in

  let base = topo_run ~fast:true ~seed ~hostile:0 ~total in
  let atk = topo_run ~fast:true ~seed ~hostile ~total in
  let atk_slow = topo_run ~fast:false ~seed ~hostile ~total in
  let agree = atk = atk_slow in
  let goodput_pct =
    if base.o_goodput_bytes_per_s <= 0.0 then 0.0
    else 100.0 *. atk.o_goodput_bytes_per_s /. base.o_goodput_bytes_per_s
  in
  let kills = if atk.o_killed || atk_slow.o_killed then 1 else 0 in

  let lfn_total = Util.scaled lfn_total_full in
  let s_ok, s_us, s_peak, s_shift = lfn_run ~window_scaling:true ~total:lfn_total in
  let u_ok, u_us, u_peak, _ = lfn_run ~window_scaling:false ~total:lfn_total in
  let speedup =
    if s_us > 0 && u_us > 0 then float_of_int u_us /. float_of_int s_us
    else 0.0
  in

  let mbit o = o.o_goodput_bytes_per_s *. 8.0 /. 1e6 in
  Util.table
    [ "metric"; "value" ]
    [
      [ "hostile segments"; string_of_int atk.o_injected ];
      [ "connections killed"; string_of_int kills ];
      [ "rst rejected (inexact)"; string_of_int atk.o_rst_rejected ];
      [ "challenge acks"; string_of_int atk.o_challenges ];
      [ "invalid acks dropped"; string_of_int atk.o_acks_dropped ];
      [ "goodput unattacked"; Printf.sprintf "%.2f Mb/s" (mbit base) ];
      [ "goodput under attack"; Printf.sprintf "%.2f Mb/s (%.1f%%)" (mbit atk) goodput_pct ];
      [ "fast = slow under attack"; string_of_bool agree ];
      [ "lfn wscale shift"; string_of_int s_shift ];
      [ "lfn peak window"; string_of_int s_peak ];
      [ "lfn peak window (unscaled)"; string_of_int u_peak ];
      [ "lfn completion scaled"; Printf.sprintf "%.2f s" (float_of_int s_us /. 1e6) ];
      [ "lfn completion unscaled"; Printf.sprintf "%.2f s" (float_of_int u_us /. 1e6) ];
      [ "lfn speedup"; Printf.sprintf "%.2fx" speedup ];
    ];
  Util.note
    "%d forgeries killed nothing: %d inexact RSTs refused, %d challenge \
     acks, goodput held at %.1f%%; scaling lifts the LFN window to %d \
     bytes for a %.1fx faster transfer"
    atk.o_injected atk.o_rst_rejected atk.o_challenges goodput_pct s_peak
    speedup;
  Util.gate "hostile_segments" (float_of_int atk.o_injected)
    (Util.At_least 10_000.0);
  Util.gate "kills" (float_of_int kills) (Util.At_most 0.0);
  Util.gate "goodput_attacked_pct" goodput_pct (Util.At_least 90.0);
  Util.gate "fast_slow_identical" (if agree then 1.0 else 0.0)
    (Util.At_least 1.0);
  Util.gate "lfn.wscale_shift" (float_of_int s_shift) (Util.At_least 2.0);
  Util.gate "lfn.peak_window" (float_of_int s_peak) (Util.Above 65_535.0);
  Util.gate "lfn.speedup" speedup (Util.Above 1.0);

  let open Trace.Json in
  Util.write_json "BENCH_tcp_adversary.json"
    (Obj
       [ ("experiment", Str "E18");
         ("hostile_segments", Int atk.o_injected);
         ("kills", Int kills);
         ("transfer_bytes", Int total);
         ("transfer_finished", Int (if atk.o_finished && atk.o_intact then 1 else 0));
         ("rst_rejected_inexact", Int atk.o_rst_rejected);
         ("challenge_acks_out", Int atk.o_challenges);
         ("acks_dropped_invalid", Int atk.o_acks_dropped);
         ("goodput_base_bytes_per_s", Float base.o_goodput_bytes_per_s);
         ("goodput_attacked_bytes_per_s", Float atk.o_goodput_bytes_per_s);
         ("goodput_attacked_pct", Float goodput_pct);
         ("fast_slow_identical", Int (if agree then 1 else 0));
         ("attacked_segs_out", Int atk.o_segs_out);
         ("attacked_segs_in", Int atk.o_segs_in);
         ("attacked_retransmits", Int atk.o_retransmits);
         ("lfn",
          Obj
            [ ("bandwidth_bits_per_s", Int lfn_bandwidth_bits_per_s);
              ("rtt_us", Int 40_000);
              ("bytes", Int lfn_total);
              ("wscale_shift", Int s_shift);
              ("peak_window", Int s_peak);
              ("peak_window_unscaled", Int u_peak);
              ("completed_scaled", Int (if s_ok then 1 else 0));
              ("completed_unscaled", Int (if u_ok then 1 else 0));
              ("completion_scaled_us", Int s_us);
              ("completion_unscaled_us", Int u_us);
              ("speedup", Float speedup) ]) ])
