(* Adversarial conformance: a seeded hostile host injects forged RSTs,
   in-window SYNs, stale duplicates, out-of-window data and ACK-range
   probes into a live bulk transfer, spoofing the peer's address.  The
   RFC 5961 hardening must hold: zero connections killed by forgeries,
   the transfer completes intact, every guard counter fires, and the
   fast path stays byte-identical to the slow path while under fire. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Internet = Catenet.Internet
module Wire = Packet.Tcp_wire
module Ipv4 = Packet.Ipv4
module Seq = Tcp.Seq
module Rng = Stdext.Rng

type outcome = {
  o_finished : bool;
  o_received : int;
  o_intact : bool;
  o_close : string;
  o_injected : int;
  o_challenges : int;
  o_rst_rejected : int;
  o_acks_dropped : int;
  o_segs_out : int;
  o_retransmits : int;
  o_clock : int;
}

let pp_outcome o =
  Printf.sprintf
    "finished=%b received=%d intact=%b close=%s injected=%d challenges=%d \
     rst_rejected=%d acks_dropped=%d segs_out=%d rexmit=%d clock=%d"
    o.o_finished o.o_received o.o_intact o.o_close o.o_injected o.o_challenges
    o.o_rst_rejected o.o_acks_dropped o.o_segs_out o.o_retransmits o.o_clock

(* Bulk transfer a -> b through a gateway, with Mallory attached to the
   same gateway forging segments that claim to come from b.  The attacker
   reads the victim's sequence state (worst case for the defense: a real
   blind attacker knows less). *)
let run_attacked ~fast ~seed ~hostile ~total =
  let t = Internet.create ~seed ~routing:Internet.Static () in
  let a = Internet.add_host t "a" in
  let g = Internet.add_gateway t "g" in
  let b = Internet.add_host t "b" in
  let m = Internet.add_host t "mallory" in
  let profile = Netsim.profile "adv" ~delay_us:1_000 in
  ignore (Internet.connect t profile a.Internet.h_node g.Internet.g_node);
  ignore (Internet.connect t profile g.Internet.g_node b.Internet.h_node);
  ignore (Internet.connect t profile m.Internet.h_node g.Internet.g_node);
  Internet.start t;
  Tcp.set_fast_path a.Internet.h_tcp fast;
  Tcp.set_fast_path b.Internet.h_tcp fast;
  let a_addr = Internet.addr_of t a.Internet.h_node in
  let b_addr = Internet.addr_of t b.Internet.h_node in
  let pseed = 7 * seed in
  let server = Apps.Bulk.serve b.Internet.h_tcp ~port:80 ~seed:pseed in
  let sender =
    Apps.Bulk.start a.Internet.h_tcp ~dst:b_addr ~dst_port:80 ~seed:pseed
      ~total ()
  in
  let conn = Apps.Bulk.conn sender in
  let close_reason = ref "open" in
  Tcp.on_close conn (fun r ->
      close_reason := Format.asprintf "%a" Tcp.pp_close_reason r);
  let rng = Rng.create (seed lxor 0x5EED) in
  let injected = ref 0 in
  (* Forge one hostile segment aimed at a's end of the connection,
     spoofed as coming from b. *)
  let forge () =
    let rcv = Tcp.rcv_nxt conn and una = Tcp.snd_una conn in
    let sport = 80 and dport = Tcp.local_port conn in
    let seg =
      match Rng.int rng 6 with
      | 0 ->
          (* In-window RST, inexact seq: the classic blind reset. *)
          Wire.make
            ~seq:(Seq.add rcv (1 + Rng.int rng 4096))
            ~flags:(Wire.flags ~rst:true ())
            ~src_port:sport ~dst_port:dport ()
      | 1 ->
          (* In-window SYN: the blind teardown of RFC 793 p.71. *)
          Wire.make
            ~seq:(Seq.add rcv (Rng.int rng 4096))
            ~flags:(Wire.flags ~syn:true ())
            ~window:4096 ~src_port:sport ~dst_port:dport ()
      | 2 ->
          (* Stale duplicate data, entirely below rcv_nxt: a replayed old
             segment.  (Fresh forged *data* is deliberately out of scope:
             RFC 5961 hardens RST/SYN/ACK, not payload injection.) *)
          let back = 2 + Rng.int rng 2000 in
          Wire.make
            ~seq:(Seq.add rcv (-back))
            ~ack_n:una
            ~flags:(Wire.flags ~ack:true ())
            ~window:8192
            ~payload:(Bytes.make (1 + Rng.int rng (min (back - 1) 64)) '\xaa')
            ~src_port:sport ~dst_port:dport ()
      | 3 ->
          (* Data far outside the window. *)
          Wire.make
            ~seq:(Seq.add rcv (1_000_000 + Rng.int rng 1_000_000))
            ~ack_n:una
            ~flags:(Wire.flags ~ack:true ())
            ~window:8192 ~payload:(Bytes.make 32 '\xbb') ~src_port:sport
            ~dst_port:dport ()
      | 4 ->
          (* ACK probe far below the validity window (RFC 5961 §5.2). *)
          Wire.make
            ~seq:(Seq.add rcv (Rng.int rng 1024))
            ~ack_n:(Seq.add una (-(1_000_000 + Rng.int rng 1_000_000)))
            ~flags:(Wire.flags ~ack:true ())
            ~window:8192 ~src_port:sport ~dst_port:dport ()
      | _ ->
          (* ACK of data never sent. *)
          Wire.make
            ~seq:(Seq.add rcv (Rng.int rng 1024))
            ~ack_n:(Seq.add una (1_000_000 + Rng.int rng 1_000_000))
            ~flags:(Wire.flags ~ack:true ())
            ~window:8192 ~src_port:sport ~dst_port:dport ()
    in
    let bytes = Wire.encode ~src:b_addr ~dst:a_addr seg in
    ignore
      (Ip.Stack.send m.Internet.h_ip ~src:b_addr ~proto:Ipv4.Proto.Tcp
         ~dst:a_addr bytes);
    incr injected
  in
  let eng = Internet.engine t in
  let rec barrage () =
    if !injected < hostile && Tcp.state conn <> Tcp.Closed then begin
      for _ = 1 to 10 do forge () done;
      ignore (Engine.Timer.start eng ~after:500 barrage)
    end
  in
  (* Start once the handshake has had a chance to complete. *)
  ignore (Engine.Timer.start eng ~after:10_000 barrage);
  Internet.run_for t 120.0;
  let received, intact =
    match Apps.Bulk.transfers server with
    | [ tr ] -> (tr.Apps.Bulk.received, tr.Apps.Bulk.intact)
    | _ -> (-1, false)
  in
  let g = Tcp.instance_stats a.Internet.h_tcp in
  let st = Tcp.stats conn in
  {
    o_finished = Apps.Bulk.finished sender;
    o_received = received;
    o_intact = intact;
    o_close = !close_reason;
    o_injected = !injected;
    o_challenges = g.Tcp.challenge_acks_out;
    o_rst_rejected = g.Tcp.rst_rejected_inexact;
    o_acks_dropped = g.Tcp.dropped_acks_invalid;
    o_segs_out = st.Tcp.segs_out;
    o_retransmits = st.Tcp.retransmits;
    o_clock = Engine.now (Internet.engine t);
  }

let test_fuzz_no_kills () =
  let o = run_attacked ~fast:true ~seed:42 ~hostile:10_000 ~total:200_000 in
  check Alcotest.bool
    (Printf.sprintf "injected >= 10^4 (%d)" o.o_injected)
    true
    (o.o_injected >= 10_000);
  check Alcotest.bool (pp_outcome o) true (o.o_finished && o.o_intact);
  check Alcotest.int "all bytes delivered" 200_000 o.o_received;
  check Alcotest.bool "never reset" true (o.o_close <> "reset");
  check Alcotest.bool "rst guard fired" true (o.o_rst_rejected > 0);
  check Alcotest.bool "challenge acks sent" true (o.o_challenges > 0);
  check Alcotest.bool "invalid acks dropped" true (o.o_acks_dropped > 0)

let test_exact_rst_still_works () =
  (* The guard must not break legitimate resets: an attacker who really
     knows rcv_nxt exactly (here: reads it) still lands the RST. *)
  let t = Internet.create ~seed:5 ~routing:Internet.Static () in
  let a = Internet.add_host t "a" in
  let b = Internet.add_host t "b" in
  let m = Internet.add_host t "mallory" in
  let g = Internet.add_gateway t "g" in
  let profile = Netsim.profile "adv" ~delay_us:1_000 in
  ignore (Internet.connect t profile a.Internet.h_node g.Internet.g_node);
  ignore (Internet.connect t profile g.Internet.g_node b.Internet.h_node);
  ignore (Internet.connect t profile m.Internet.h_node g.Internet.g_node);
  Internet.start t;
  let b_addr = Internet.addr_of t b.Internet.h_node in
  let a_addr = Internet.addr_of t a.Internet.h_node in
  ignore (Apps.Bulk.serve b.Internet.h_tcp ~port:80 ~seed:3);
  let sender =
    Apps.Bulk.start a.Internet.h_tcp ~dst:b_addr ~dst_port:80 ~seed:3
      ~total:5_000_000 ()
  in
  let conn = Apps.Bulk.conn sender in
  let close_reason = ref None in
  Tcp.on_close conn (fun r -> close_reason := Some r);
  Internet.run_for t 0.05;
  check Alcotest.bool "established" true (Tcp.state conn = Tcp.Established);
  let seg =
    Wire.make ~seq:(Tcp.rcv_nxt conn)
      ~flags:(Wire.flags ~rst:true ())
      ~src_port:80 ~dst_port:(Tcp.local_port conn) ()
  in
  ignore
    (Ip.Stack.send m.Internet.h_ip ~src:b_addr ~proto:Ipv4.Proto.Tcp
       ~dst:a_addr
       (Wire.encode ~src:b_addr ~dst:a_addr seg));
  Internet.run_for t 0.1;
  check Alcotest.bool "exact RST kills" true (!close_reason = Some Tcp.Reset)

let prop_fast_slow_agree_under_attack =
  (* Whatever the hostile mix does, the fast path must remain
     observationally identical to the slow path. *)
  QCheck.Test.make ~name:"fast path identical to slow path under attack"
    ~count:6
    QCheck.(1 -- 1_000)
    (fun seed ->
      let fast = run_attacked ~fast:true ~seed ~hostile:600 ~total:60_000 in
      let slow = run_attacked ~fast:false ~seed ~hostile:600 ~total:60_000 in
      fast = slow && fast.o_finished && fast.o_intact
      && fast.o_close <> "reset")

let () =
  Alcotest.run "tcp-adversary"
    [
      ( "hostile-peer",
        [
          Alcotest.test_case "10^4 forgeries, zero kills" `Quick
            test_fuzz_no_kills;
          Alcotest.test_case "exact rst still resets" `Quick
            test_exact_rst_still_works;
          qcheck prop_fast_slow_agree_under_attack;
        ] );
    ]
