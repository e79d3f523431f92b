(* Tests for TCP: sequence arithmetic, RTO estimation, the send buffer,
   and full end-to-end connection behaviour over the simulated network —
   handshake, data transfer, loss recovery, flow control, teardown. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Internet = Catenet.Internet
module Addr = Packet.Addr
module Seq = Tcp.Seq
module Rto = Tcp.Rto
module Sendbuf = Tcp.Sendbuf

(* --- Sequence arithmetic -------------------------------------------------- *)

let test_seq_wraparound_basics () =
  let top = Seq.modulus - 1 in
  check Alcotest.int "wraps" 4 (Seq.add top 5);
  check Alcotest.bool "lt across wrap" true (Seq.lt top 4);
  check Alcotest.bool "gt across wrap" true (Seq.gt 4 top);
  check Alcotest.int "diff across wrap" 5 (Seq.diff 4 top);
  check Alcotest.int "negative diff" (-5) (Seq.diff top 4)

let test_seq_in_window () =
  check Alcotest.bool "inside" true (Seq.in_window 10 ~base:5 ~size:10);
  check Alcotest.bool "below" false (Seq.in_window 4 ~base:5 ~size:10);
  check Alcotest.bool "at end" false (Seq.in_window 15 ~base:5 ~size:10);
  (* Window spanning the wrap point. *)
  let base = Seq.modulus - 3 in
  check Alcotest.bool "wrap inside" true (Seq.in_window 1 ~base ~size:10);
  check Alcotest.bool "wrap outside" false (Seq.in_window 8 ~base ~size:10)

let prop_seq_add_diff_inverse =
  QCheck.Test.make ~name:"diff (add a n) a = n" ~count:500
    QCheck.(pair (int_bound (Seq.modulus - 1)) (int_bound (Seq.modulus / 2 - 1)))
    (fun (a, n) -> Seq.diff (Seq.add a n) a = n)

let prop_seq_ordering_antisymmetric =
  QCheck.Test.make ~name:"lt/gt antisymmetry" ~count:500
    QCheck.(pair (int_bound (Seq.modulus - 1)) (1 -- (Seq.modulus / 2 - 1)))
    (fun (a, n) ->
      let b = Seq.add a n in
      Seq.lt a b && Seq.gt b a && Seq.le a b && (not (Seq.ge a b)) && Seq.max a b = b)

(* --- RTO estimator --------------------------------------------------------- *)

let test_rto_initial () =
  let r = Rto.create () in
  check Alcotest.int "1s default" 1_000_000 (Rto.rto r);
  check Alcotest.bool "no srtt yet" true (Rto.srtt r = None)

let test_rto_first_sample () =
  let r = Rto.create () in
  Rto.sample r 100_000;
  check Alcotest.bool "srtt set" true (Rto.srtt r = Some 100_000);
  (* RTO = srtt + 4*rttvar = 100ms + 4*50ms = 300ms. *)
  check Alcotest.int "rto" 300_000 (Rto.rto r)

let test_rto_smoothing () =
  let r = Rto.create () in
  Rto.sample r 100_000;
  Rto.sample r 100_000;
  Rto.sample r 100_000;
  (match Rto.srtt r with
  | Some s -> check Alcotest.bool "converging" true (abs (s - 100_000) < 2_000)
  | None -> Alcotest.fail "srtt unset");
  (* Variance shrinks with steady samples, so the RTO tightens but stays
     above the floor. *)
  check Alcotest.bool "rto above floor" true (Rto.rto r >= 200_000)

let test_rto_backoff_and_reset () =
  let r = Rto.create () in
  Rto.sample r 500_000;
  let base = Rto.rto r in
  Rto.backoff r;
  check Alcotest.int "doubled" (2 * base) (Rto.rto r);
  Rto.backoff r;
  check Alcotest.int "quadrupled" (4 * base) (Rto.rto r);
  Rto.reset_backoff r;
  check Alcotest.int "reset" base (Rto.rto r)

let test_rto_ceiling () =
  let r = Rto.create ~max_rto_us:3_000_000 () in
  for _ = 1 to 10 do
    Rto.backoff r
  done;
  check Alcotest.bool "capped" true (Rto.rto r <= 3_000_000)

let test_rto_floor () =
  let r = Rto.create ~min_rto_us:200_000 () in
  Rto.sample r 1_000;
  check Alcotest.bool "floored" true (Rto.rto r >= 200_000)

(* --- Sendbuf ---------------------------------------------------------------- *)

let test_sendbuf_basics () =
  let b = Sendbuf.create ~limit:10 () in
  check Alcotest.int "accepts to limit" 10
    (Sendbuf.append b (Bytes.of_string "hello worlds"));
  check Alcotest.int "full" 0 (Sendbuf.space b);
  check Alcotest.string "slice" "hello"
    (Bytes.to_string (Sendbuf.get b ~off:0 ~len:5));
  Sendbuf.drop_until b 6;
  check Alcotest.int "base advanced" 6 (Sendbuf.base b);
  check Alcotest.int "len shrank" 4 (Sendbuf.length b);
  check Alcotest.string "tail slice" "worl"
    (Bytes.to_string (Sendbuf.get b ~off:6 ~len:4));
  check Alcotest.int "more space" 6 (Sendbuf.space b)

let test_sendbuf_out_of_range () =
  let b = Sendbuf.create () in
  ignore (Sendbuf.append b (Bytes.of_string "abc"));
  Sendbuf.drop_until b 2;
  try
    ignore (Sendbuf.get b ~off:0 ~len:2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_sendbuf_vs_reference =
  (* Random interleavings of append/drop compared against a naive string
     model. *)
  QCheck.Test.make ~name:"sendbuf matches reference model" ~count:200
    QCheck.(list (pair bool (int_bound 50)))
    (fun ops ->
      let b = Sendbuf.create ~limit:1000 () in
      let model = ref "" in
      let model_base = ref 0 in
      let counter = ref 0 in
      List.for_all
        (fun (is_append, n) ->
          if is_append then begin
            let data =
              String.init n (fun i ->
                  Char.chr ((i + !counter) land 0x7f))
            in
            incr counter;
            let accepted = Sendbuf.append b (Bytes.of_string data) in
            model := !model ^ String.sub data 0 accepted
          end
          else begin
            let drop = min n (String.length !model) in
            model := String.sub !model drop (String.length !model - drop);
            model_base := !model_base + drop;
            Sendbuf.drop_until b !model_base
          end;
          Sendbuf.length b = String.length !model
          && Sendbuf.base b = !model_base
          && (Sendbuf.length b = 0
             || Bytes.to_string
                  (Sendbuf.get b ~off:!model_base ~len:(String.length !model))
                = !model))
        ops)

(* --- End-to-end fixtures ------------------------------------------------------ *)

(* Two hosts on one link (same /24: connected routes suffice). *)
let hosts ?(profile = Netsim.profile "wire" ~delay_us:5_000)
    ?(tcp_config = Tcp.default_config) () =
  let t = Internet.create ~routing:Internet.Static ~tcp_config () in
  let a = Internet.add_host t "a" in
  let b = Internet.add_host t "b" in
  ignore (Internet.connect t profile a.Internet.h_node b.Internet.h_node);
  Internet.start t;
  (t, a, b)

let b_addr t (b : Internet.host) = Internet.addr_of t b.Internet.h_node

(* Start an echo-less sink server that records received bytes. *)
let sink_server tcp ~port =
  let received = Buffer.create 256 in
  let conn = ref None in
  let got_fin = ref false in
  ignore
    (Tcp.listen tcp ~port ~accept:(fun c ->
         conn := Some c;
         Tcp.on_receive c (fun d -> Buffer.add_bytes received d);
         Tcp.on_peer_fin c (fun () ->
             got_fin := true;
             Tcp.close c)));
  (received, conn, got_fin)

let test_handshake () =
  let t, a, b = hosts () in
  let accepted = ref false and established = ref false in
  ignore
    (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun _ -> accepted := true));
  let c = Tcp.connect a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 () in
  check Alcotest.bool "starts syn-sent" true (Tcp.state c = Tcp.Syn_sent);
  Tcp.on_established c (fun () -> established := true);
  Internet.run_for t 1.0;
  check Alcotest.bool "accepted" true !accepted;
  check Alcotest.bool "established" true !established;
  check Alcotest.bool "state" true (Tcp.state c = Tcp.Established);
  check Alcotest.int "instance counters" 1
    (Tcp.instance_stats a.Internet.h_tcp).Tcp.active_opens;
  check Alcotest.int "passive" 1
    (Tcp.instance_stats b.Internet.h_tcp).Tcp.passive_opens

let test_small_transfer () =
  let t, a, b = hosts () in
  let received, _, _ = sink_server b.Internet.h_tcp ~port:80 in
  let c = Tcp.connect a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 () in
  Tcp.on_established c (fun () ->
      ignore (Tcp.send c (Bytes.of_string "hello, catenet")));
  Internet.run_for t 2.0;
  check Alcotest.string "delivered" "hello, catenet" (Buffer.contents received)

let test_bidirectional () =
  let t, a, b = hosts () in
  let from_client = Buffer.create 64 in
  ignore
    (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun c ->
         Tcp.on_receive c (fun d ->
             Buffer.add_bytes from_client d;
             ignore (Tcp.send c (Bytes.of_string "pong")))));
  let from_server = Buffer.create 64 in
  let c = Tcp.connect a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 () in
  Tcp.on_receive c (fun d -> Buffer.add_bytes from_server d);
  Tcp.on_established c (fun () -> ignore (Tcp.send c (Bytes.of_string "ping")));
  Internet.run_for t 2.0;
  check Alcotest.string "server got" "ping" (Buffer.contents from_client);
  check Alcotest.string "client got" "pong" (Buffer.contents from_server)

let bulk_transfer_over ?tcp_config profile ~total ~seconds =
  let t, a, b = hosts ~profile ?tcp_config () in
  let seed = 21 in
  let server = Apps.Bulk.serve b.Internet.h_tcp ~port:80 ~seed in
  let sender =
    Apps.Bulk.start a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 ~seed
      ~total ()
  in
  Internet.run_for t seconds;
  (server, sender)

let test_bulk_reliable_link () =
  let server, sender =
    bulk_transfer_over (Netsim.profile "clean" ~delay_us:2_000) ~total:300_000
      ~seconds:20.0
  in
  check Alcotest.bool "finished" true (Apps.Bulk.finished sender);
  match Apps.Bulk.transfers server with
  | [ tr ] ->
      check Alcotest.int "all bytes" 300_000 tr.Apps.Bulk.received;
      check Alcotest.bool "intact" true tr.Apps.Bulk.intact;
      check Alcotest.bool "fin seen" true (tr.Apps.Bulk.fin_at_us <> None)
  | l -> Alcotest.failf "expected 1 transfer, got %d" (List.length l)

let test_bulk_lossy_link () =
  (* 3% random loss both ways: end-to-end retransmission must still
     deliver every byte in order. *)
  let server, sender =
    bulk_transfer_over
      (Netsim.profile "lossy" ~delay_us:2_000 ~loss:0.03)
      ~total:200_000 ~seconds:60.0
  in
  check Alcotest.bool "finished despite loss" true (Apps.Bulk.finished sender);
  (match Apps.Bulk.transfers server with
  | [ tr ] ->
      check Alcotest.int "all bytes" 200_000 tr.Apps.Bulk.received;
      check Alcotest.bool "intact" true tr.Apps.Bulk.intact
  | l -> Alcotest.failf "expected 1 transfer, got %d" (List.length l));
  let st = Tcp.stats (Apps.Bulk.conn sender) in
  check Alcotest.bool "retransmissions happened" true (st.Tcp.retransmits > 0)

let test_bulk_all_cc_algorithms () =
  List.iter
    (fun cc ->
      let cfg = { Tcp.default_config with Tcp.cc } in
      let server, sender =
        bulk_transfer_over ~tcp_config:cfg
          (Netsim.profile "l" ~bandwidth_bps:2_000_000 ~delay_us:5_000
             ~queue_capacity:16)
          ~total:150_000 ~seconds:120.0
      in
      check Alcotest.bool
        (Format.asprintf "finished with %a" Tcp.pp_cc cc)
        true
        (Apps.Bulk.finished sender);
      match Apps.Bulk.transfers server with
      | [ tr ] ->
          check Alcotest.bool "intact" true tr.Apps.Bulk.intact;
          check Alcotest.int "complete" 150_000 tr.Apps.Bulk.received
      | _ -> Alcotest.fail "expected one transfer")
    [ Tcp.No_cc; Tcp.Tahoe; Tcp.Reno ]

let test_graceful_close_reaches_closed () =
  (* Short MSL so TIME-WAIT expires within the run. *)
  let cfg = { Tcp.default_config with Tcp.msl_us = 200_000 } in
  let t, a, b = hosts ~tcp_config:cfg () in
  let _, _, got_fin = sink_server b.Internet.h_tcp ~port:80 in
  let c =
    Tcp.connect a.Internet.h_tcp ~config:cfg ~dst:(b_addr t b) ~dst_port:80 ()
  in
  let closed = ref None in
  Tcp.on_close c (fun r -> closed := Some r);
  Tcp.on_established c (fun () ->
      ignore (Tcp.send c (Bytes.of_string "bye"));
      Tcp.close c);
  Internet.run_for t 5.0;
  check Alcotest.bool "peer saw fin" true !got_fin;
  (match !closed with
  | Some Tcp.Graceful -> ()
  | Some r -> Alcotest.failf "wrong reason: %a" Tcp.pp_close_reason r
  | None -> Alcotest.fail "never closed");
  check Alcotest.int "no connections left" 0
    (Tcp.connection_count a.Internet.h_tcp);
  check Alcotest.int "server side cleaned" 0
    (Tcp.connection_count b.Internet.h_tcp)

let test_connection_refused () =
  let t, a, b = hosts () in
  let c = Tcp.connect a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:81 () in
  let reason = ref None in
  Tcp.on_close c (fun r -> reason := Some r);
  Internet.run_for t 2.0;
  match !reason with
  | Some Tcp.Refused -> ()
  | Some r -> Alcotest.failf "wrong reason: %a" Tcp.pp_close_reason r
  | None -> Alcotest.fail "no close callback"

let test_abort_sends_rst () =
  let t, a, b = hosts () in
  let server_reason = ref None in
  ignore
    (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun c ->
         Tcp.on_close c (fun r -> server_reason := Some r)));
  let c = Tcp.connect a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 () in
  Tcp.on_established c (fun () -> Tcp.abort c);
  Internet.run_for t 2.0;
  match !server_reason with
  | Some Tcp.Reset -> ()
  | Some r -> Alcotest.failf "wrong reason: %a" Tcp.pp_close_reason r
  | None -> Alcotest.fail "server never notified"

let test_retransmission_timeout_kills () =
  let cfg = { Tcp.default_config with Tcp.max_retransmits = 3 } in
  let t, a, b = hosts ~tcp_config:cfg () in
  let _, _, _ = sink_server b.Internet.h_tcp ~port:80 in
  let c =
    Tcp.connect a.Internet.h_tcp ~config:cfg ~dst:(b_addr t b) ~dst_port:80 ()
  in
  let reason = ref None in
  Tcp.on_close c (fun r -> reason := Some r);
  Tcp.on_established c (fun () ->
      ignore (Tcp.send c (Bytes.make 5000 'x'));
      (* Sever the wire mid-conversation. *)
      Internet.fail_link t 0);
  Internet.run_for t 120.0;
  match !reason with
  | Some Tcp.Timed_out -> ()
  | Some r -> Alcotest.failf "wrong reason: %a" Tcp.pp_close_reason r
  | None -> Alcotest.fail "connection never gave up"

let test_syn_timeout_refused () =
  let t, a, b = hosts () in
  Internet.fail_link t 0;
  let cfg = { Tcp.default_config with Tcp.syn_retries = 2 } in
  let c =
    Tcp.connect a.Internet.h_tcp ~config:cfg ~dst:(b_addr t b) ~dst_port:80 ()
  in
  let reason = ref None in
  Tcp.on_close c (fun r -> reason := Some r);
  Internet.run_for t 60.0;
  match !reason with
  | Some Tcp.Refused -> ()
  | Some r -> Alcotest.failf "wrong reason: %a" Tcp.pp_close_reason r
  | None -> Alcotest.fail "SYN retried forever"

let test_mss_negotiation () =
  let small = { Tcp.default_config with Tcp.mss = 600 } in
  let t = Internet.create ~routing:Internet.Static ~tcp_config:small () in
  let a = Internet.add_host t "a" in
  let b = Internet.add_host t "b" in
  ignore
    (Internet.connect t (Netsim.profile "wire") a.Internet.h_node
       b.Internet.h_node);
  Internet.start t;
  ignore (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun _ -> ()));
  (* Client announces 1460, server 600: both sides must use 600. *)
  let c =
    Tcp.connect a.Internet.h_tcp ~config:Tcp.default_config
      ~dst:(Internet.addr_of t b.Internet.h_node) ~dst_port:80 ()
  in
  Internet.run_for t 1.0;
  check Alcotest.int "negotiated mss" 600 (Tcp.mss c)

let test_nagle_coalesces () =
  let count_segments nagle =
    let cfg = { Tcp.default_config with Tcp.nagle } in
    let t, a, b = hosts ~tcp_config:cfg () in
    ignore (sink_server b.Internet.h_tcp ~port:80);
    let c =
      Tcp.connect a.Internet.h_tcp ~config:cfg ~dst:(b_addr t b) ~dst_port:80 ()
    in
    Tcp.on_established c (fun () ->
        (* 50 tiny writes in rapid succession (1 ms apart). *)
        let eng = Internet.engine t in
        for i = 0 to 49 do
          Engine.after eng (i * 1_000) (fun () ->
              ignore (Tcp.send c (Bytes.make 10 'k')))
        done);
    Internet.run_for t 5.0;
    (Tcp.stats c).Tcp.segs_out
  in
  let with_nagle = count_segments true in
  let without = count_segments false in
  check Alcotest.bool
    (Printf.sprintf "nagle (%d) sends fewer segments than no-nagle (%d)"
       with_nagle without)
    true
    (with_nagle < without)

let test_zero_window_flow_control () =
  let t, a, b = hosts () in
  let received = Buffer.create 256 in
  let server_conn = ref None in
  ignore
    (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun c ->
         server_conn := Some c;
         (* Immediately stop reading: the window must close. *)
         Tcp.pause_reading c;
         Tcp.on_receive c (fun d -> Buffer.add_bytes received d)));
  let c = Tcp.connect a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 () in
  let total = 200_000 in
  let sent = ref 0 in
  let eng = Internet.engine t in
  let rec pump () =
    if !sent < total then begin
      sent := !sent + Tcp.send c (Bytes.make (min 8192 (total - !sent)) 'z');
      Engine.after eng 10_000 pump
    end
  in
  Tcp.on_established c (fun () -> pump ());
  Internet.run_for t 10.0;
  (* The receiver is paused: its advertised window closes at 65535 and the
     sender's transmissions (not just its buffering) must stall there. *)
  let transmitted = (Tcp.stats c).Tcp.bytes_out in
  check Alcotest.bool
    (Printf.sprintf "window closed (transmitted=%d)" transmitted)
    true
    (transmitted < 80_000);
  check Alcotest.int "nothing delivered while paused" 0 (Buffer.length received);
  (match !server_conn with
  | Some sc -> Tcp.resume_reading sc
  | None -> Alcotest.fail "no server conn");
  Internet.run_for t 120.0;
  check Alcotest.int "everything delivered after resume" total
    (Buffer.length received)

let test_listener_close_refuses () =
  let t, a, b = hosts () in
  let l = Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun _ -> ()) in
  Tcp.close_listener l;
  let c = Tcp.connect a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 () in
  let reason = ref None in
  Tcp.on_close c (fun r -> reason := Some r);
  Internet.run_for t 2.0;
  check Alcotest.bool "refused" true (!reason = Some Tcp.Refused)

let test_srtt_tracks_path_delay () =
  (* One-way 50 ms: the smoothed RTT should land near 100 ms. *)
  let t, a, b = hosts ~profile:(Netsim.profile "far" ~delay_us:50_000) () in
  ignore (sink_server b.Internet.h_tcp ~port:80);
  let c = Tcp.connect a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 () in
  Tcp.on_established c (fun () ->
      ignore (Tcp.send c (Bytes.make 20_000 'r')));
  Internet.run_for t 10.0;
  match Tcp.srtt_us c with
  | Some srtt ->
      check Alcotest.bool
        (Printf.sprintf "srtt=%dus near 100ms" srtt)
        true
        (srtt > 90_000 && srtt < 250_000)
  | None -> Alcotest.fail "no RTT measured"

let test_duplicate_listener_rejected () =
  let _, _, b = hosts () in
  ignore (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun _ -> ()));
  try
    ignore (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun _ -> ()));
    Alcotest.fail "expected Listen_error"
  with Tcp.Listen_error (Tcp.Port_in_use 80) -> ()

(* The ephemeral counter wraps after 16,384 connects.  A host keeps one
   connection on the first port, opens and aborts every other port in
   the range (to a port nobody listens on), then connects to the live
   connection's peer again: the new connection must take a free port,
   not the live one's 4-tuple, and the old connection's bytes must still
   arrive. *)
let test_ephemeral_wrap_skips_live_port () =
  let t, a, b = hosts () in
  let received, _, _ = sink_server b.Internet.h_tcp ~port:80 in
  let dst = b_addr t b in
  let live = Tcp.connect a.Internet.h_tcp ~dst ~dst_port:80 () in
  Internet.run_for t 1.0;
  check Alcotest.bool "live connection up" true
    (Tcp.state live = Tcp.Established);
  for i = 1 to 16_383 do
    Tcp.abort (Tcp.connect a.Internet.h_tcp ~dst ~dst_port:81 ());
    (* Let the aborted connections' SYNs and cancelled timers drain. *)
    if i mod 1024 = 0 || i = 16_383 then Internet.run_for t 2.0
  done;
  (* On the live 4-tuple, this connection's SYN would draw an ACK from
     b whose answer, a RST, resets b's end of the live connection. *)
  let next = Tcp.connect a.Internet.h_tcp ~dst ~dst_port:80 () in
  Internet.run_for t 1.0;
  ignore (Tcp.send live (Bytes.make 1000 'L'));
  Internet.run_for t 10.0;
  check Alcotest.int "live connection's bytes delivered" 1000
    (Buffer.length received);
  check Alcotest.bool "next connect skipped the live port" true
    (Tcp.local_port next <> Tcp.local_port live);
  check Alcotest.bool "new connection established" true
    (Tcp.state next = Tcp.Established)

let test_reordering_tolerated () =
  (* Heavy link jitter reorders deliveries; the receiver's out-of-order
     buffer must reassemble the exact stream. *)
  let t, a, b =
    hosts ~profile:(Netsim.profile "jittery" ~delay_us:2_000 ~jitter_us:8_000) ()
  in
  let seed = 31 in
  let server = Apps.Bulk.serve b.Internet.h_tcp ~port:80 ~seed in
  let sender =
    Apps.Bulk.start a.Internet.h_tcp ~dst:(b_addr t b) ~dst_port:80 ~seed
      ~total:250_000 ()
  in
  Internet.run_for t 120.0;
  check Alcotest.bool "finished" true (Apps.Bulk.finished sender);
  (match Apps.Bulk.transfers server with
  | [ tr ] ->
      check Alcotest.int "all bytes" 250_000 tr.Apps.Bulk.received;
      check Alcotest.bool "intact despite reordering" true tr.Apps.Bulk.intact
  | _ -> Alcotest.fail "expected one transfer");
  (* Reordering really happened: out-of-order arrivals provoke immediate
     duplicate ACKs at the receiver, observed by the sender. *)
  check Alcotest.bool "reordering occurred" true
    ((Tcp.stats (Apps.Bulk.conn sender)).Tcp.dupacks > 0)

let test_icmp_unreachable_refuses_syn () =
  (* Connecting to a host that does not implement TCP at all: its stack
     answers with ICMP protocol-unreachable, which must abort the SYN
     promptly (no long retry series). *)
  let t = Internet.create () in
  let full = Internet.add_host t "full" in
  let g = Internet.add_gateway t "g" in
  ignore
    (Internet.connect t (Netsim.profile "p") full.Internet.h_node
       g.Internet.g_node);
  let mini_node = Netsim.add_node (Internet.net t) "mini" in
  ignore
    (Netsim.add_link (Internet.net t) (Netsim.profile "p") mini_node
       g.Internet.g_node);
  let mini_ip = Ip.Stack.create (Internet.net t) mini_node in
  Ip.Stack.configure_iface mini_ip 0 ~addr:(Addr.v 172 16 0 1) ~prefix_len:24;
  let _, g_iface = Netsim.peer (Internet.net t) mini_node 0 in
  Ip.Stack.configure_iface g.Internet.g_ip g_iface ~addr:(Addr.v 172 16 0 2)
    ~prefix_len:24;
  Ip.Route_table.add (Ip.Stack.table mini_ip)
    {
      Ip.Route_table.prefix = Addr.Prefix.default;
      iface = 0;
      next_hop = Some (Addr.v 172 16 0 2);
      metric = 1;
    };
  (* Register some non-TCP protocol so the stack exists but refuses TCP. *)
  Ip.Stack.register_proto mini_ip (Packet.Ipv4.Proto.Other 99) (fun _ _ -> ());
  Internet.start t;
  let c =
    Tcp.connect full.Internet.h_tcp ~dst:(Addr.v 172 16 0 1) ~dst_port:80 ()
  in
  let reason = ref None in
  Tcp.on_close c (fun r -> reason := Some r);
  Internet.run_for t 3.0;
  match !reason with
  | Some Tcp.Refused -> ()
  | Some r -> Alcotest.failf "wrong reason: %a" Tcp.pp_close_reason r
  | None -> Alcotest.fail "SYN not aborted by ICMP"


let test_rst_sourced_from_secondary_address () =
  (* An orphan SYN addressed to a multi-homed host's second interface must
     draw a RST sourced from that address — not the host's primary one —
     or the initiator cannot match the reply to its connection attempt
     (and the RST's pseudo-header checksum would be computed over the
     wrong source). *)
  let t = Internet.create ~routing:Internet.Static () in
  let a = Internet.add_host t "a" in
  let b = Internet.add_host t "b" in
  ignore
    (Internet.connect t (Netsim.profile "l0") a.Internet.h_node
       b.Internet.h_node);
  let l1 =
    Internet.connect t (Netsim.profile "l1") a.Internet.h_node
      b.Internet.h_node
  in
  Internet.start t;
  let secondary = Internet.addr_on_link t l1 b.Internet.h_node in
  check Alcotest.bool "address is not the primary" true
    (secondary <> Internet.addr_of t b.Internet.h_node);
  let c = Tcp.connect a.Internet.h_tcp ~dst:secondary ~dst_port:81 () in
  let reason = ref None in
  Tcp.on_close c (fun r -> reason := Some r);
  Internet.run_for t 2.0;
  (* Refused this quickly means a RST arrived and was accepted, which
     requires its source to equal [secondary]: the client demuxes replies
     on the (remote addr, port) pair it connected to, and the checksum
     covers the source address. *)
  check Alcotest.bool "refused by rst" true (!reason = Some Tcp.Refused);
  check Alcotest.int "exactly one rst emitted" 1
    (Tcp.instance_stats b.Internet.h_tcp).Tcp.resets_out

let test_integrity_across_loss_seeds () =
  (* The headline end-to-end property, swept across substrate randomness:
     for many independent loss patterns, every byte arrives intact and in
     order.  (Each seed produces a different sequence of dropped frames.) *)
  List.iter
    (fun seed ->
      let t =
        Internet.create ~seed ~routing:Internet.Static ()
      in
      let a = Internet.add_host t "a" in
      let b = Internet.add_host t "b" in
      ignore
        (Internet.connect t
           (Netsim.profile "lossy" ~delay_us:3_000 ~loss:0.04)
           a.Internet.h_node b.Internet.h_node);
      Internet.start t;
      let pseed = 100 + seed in
      let server = Apps.Bulk.serve b.Internet.h_tcp ~port:80 ~seed:pseed in
      let sender =
        Apps.Bulk.start a.Internet.h_tcp
          ~dst:(Internet.addr_of t b.Internet.h_node)
          ~dst_port:80 ~seed:pseed ~total:120_000 ()
      in
      Internet.run_for t 120.0;
      if not (Apps.Bulk.finished sender) then
        Alcotest.failf "seed %d: transfer did not complete" seed;
      match Apps.Bulk.transfers server with
      | [ tr ] ->
          if not (tr.Apps.Bulk.intact && tr.Apps.Bulk.received = 120_000) then
            Alcotest.failf "seed %d: corrupted or short (%d bytes, intact=%b)"
              seed tr.Apps.Bulk.received tr.Apps.Bulk.intact
      | _ -> Alcotest.failf "seed %d: wrong transfer count" seed)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let () =
  Alcotest.run "tcp"
    [
      ( "seq",
        [
          Alcotest.test_case "wraparound" `Quick test_seq_wraparound_basics;
          Alcotest.test_case "in window" `Quick test_seq_in_window;
          qcheck prop_seq_add_diff_inverse;
          qcheck prop_seq_ordering_antisymmetric;
        ] );
      ( "rto",
        [
          Alcotest.test_case "initial" `Quick test_rto_initial;
          Alcotest.test_case "first sample" `Quick test_rto_first_sample;
          Alcotest.test_case "smoothing" `Quick test_rto_smoothing;
          Alcotest.test_case "backoff/reset" `Quick test_rto_backoff_and_reset;
          Alcotest.test_case "ceiling" `Quick test_rto_ceiling;
          Alcotest.test_case "floor" `Quick test_rto_floor;
        ] );
      ( "sendbuf",
        [
          Alcotest.test_case "basics" `Quick test_sendbuf_basics;
          Alcotest.test_case "range checks" `Quick test_sendbuf_out_of_range;
          qcheck prop_sendbuf_vs_reference;
        ] );
      ( "connection",
        [
          Alcotest.test_case "handshake" `Quick test_handshake;
          Alcotest.test_case "small transfer" `Quick test_small_transfer;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional;
          Alcotest.test_case "bulk clean link" `Quick test_bulk_reliable_link;
          Alcotest.test_case "bulk lossy link" `Slow test_bulk_lossy_link;
          Alcotest.test_case "all cc algorithms" `Slow test_bulk_all_cc_algorithms;
          Alcotest.test_case "mss negotiation" `Quick test_mss_negotiation;
          Alcotest.test_case "srtt" `Quick test_srtt_tracks_path_delay;
          Alcotest.test_case "reordering tolerated" `Quick test_reordering_tolerated;
          Alcotest.test_case "integrity across 10 loss seeds" `Slow
            test_integrity_across_loss_seeds;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "graceful close" `Quick test_graceful_close_reaches_closed;
          Alcotest.test_case "refused" `Quick test_connection_refused;
          Alcotest.test_case "abort/rst" `Quick test_abort_sends_rst;
          Alcotest.test_case "rst from secondary address" `Quick
            test_rst_sourced_from_secondary_address;
          Alcotest.test_case "data timeout" `Slow test_retransmission_timeout_kills;
          Alcotest.test_case "syn timeout" `Quick test_syn_timeout_refused;
          Alcotest.test_case "listener closed" `Quick test_listener_close_refuses;
          Alcotest.test_case "icmp refuses syn" `Quick test_icmp_unreachable_refuses_syn;
          Alcotest.test_case "duplicate listener" `Quick test_duplicate_listener_rejected;
          Alcotest.test_case "ephemeral wrap skips a live port" `Quick
            test_ephemeral_wrap_skips_live_port;
        ] );
      ( "flow-control",
        [
          Alcotest.test_case "nagle" `Quick test_nagle_coalesces;
          Alcotest.test_case "zero window" `Quick test_zero_window_flow_control;
        ] );
    ]
