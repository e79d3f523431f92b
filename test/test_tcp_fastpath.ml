(* Differential tests for the transport fast path.  Header prediction
   and allocation-free emission are pure performance substitutions: the
   same seeded network must produce byte-identical transfers, identical
   segment/retransmit counts and identical final connection state whether
   the fast path is on or off.  Every run here executes twice — fast path
   on, then off (the legacy slow path) — and the two outcomes are
   compared field by field. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Internet = Catenet.Internet

type outcome = {
  o_finished : bool;
  o_received : int;
  o_intact : bool;
  o_segs_out : int;
  o_segs_in : int;
  o_retransmits : int;
  o_dupacks : int;
  o_snd_una : int;
  o_clock : int;
}

(* One bulk transfer a — gateway — b under the given impairments; jitter
   reorders deliveries and loss provokes retransmission, so both the
   predicted and the unpredictable receive branches are exercised. *)
let run_transfer ~fast ~seed ~loss ~jitter_us ~total =
  let t = Internet.create ~seed ~routing:Internet.Static () in
  let a = Internet.add_host t "a" in
  let g = Internet.add_gateway t "g" in
  let b = Internet.add_host t "b" in
  let profile =
    Netsim.profile "impaired" ~delay_us:2_000 ~loss ~jitter_us
  in
  ignore (Internet.connect t profile a.Internet.h_node g.Internet.g_node);
  ignore (Internet.connect t profile g.Internet.g_node b.Internet.h_node);
  Internet.start t;
  Tcp.set_fast_path a.Internet.h_tcp fast;
  Tcp.set_fast_path b.Internet.h_tcp fast;
  let pseed = 7 * seed in
  let server = Apps.Bulk.serve b.Internet.h_tcp ~port:80 ~seed:pseed in
  let sender =
    Apps.Bulk.start a.Internet.h_tcp
      ~dst:(Internet.addr_of t b.Internet.h_node)
      ~dst_port:80 ~seed:pseed ~total ()
  in
  Internet.run_for t 60.0;
  let conn = Apps.Bulk.conn sender in
  let st = Tcp.stats conn in
  let received, intact =
    match Apps.Bulk.transfers server with
    | [ tr ] -> (tr.Apps.Bulk.received, tr.Apps.Bulk.intact)
    | _ -> (-1, false)
  in
  let outcome =
    {
      o_finished = Apps.Bulk.finished sender;
      o_received = received;
      o_intact = intact;
      o_segs_out = st.Tcp.segs_out;
      o_segs_in = st.Tcp.segs_in;
      o_retransmits = st.Tcp.retransmits;
      o_dupacks = st.Tcp.dupacks;
      o_snd_una = Tcp.snd_una conn;
      o_clock = Engine.now (Internet.engine t);
    }
  in
  (outcome, st.Tcp.fast_path_acks + st.Tcp.fast_path_data)

let pp_outcome o =
  Printf.sprintf
    "finished=%b received=%d intact=%b segs_out=%d segs_in=%d rexmit=%d \
     dupacks=%d snd_una=%d clock=%d"
    o.o_finished o.o_received o.o_intact o.o_segs_out o.o_segs_in
    o.o_retransmits o.o_dupacks o.o_snd_una o.o_clock

let test_clean_link_identical () =
  let fast, hits = run_transfer ~fast:true ~seed:3 ~loss:0.0 ~jitter_us:0
      ~total:150_000
  in
  let slow, slow_hits = run_transfer ~fast:false ~seed:3 ~loss:0.0 ~jitter_us:0
      ~total:150_000
  in
  check Alcotest.string "identical outcome" (pp_outcome slow) (pp_outcome fast);
  check Alcotest.bool "transfer completed" true
    (fast.o_finished && fast.o_intact && fast.o_received = 150_000);
  (* The sender of a bulk transfer receives a pure-ACK stream: header
     prediction must have handled (nearly all of) it. *)
  check Alcotest.bool
    (Printf.sprintf "fast path used (%d hits)" hits)
    true (hits > 0);
  check Alcotest.int "slow mode never predicts" 0 slow_hits

let test_lossy_link_identical () =
  (* Loss forces retransmissions and out-of-order arrival at the receiver;
     every such segment must take the unchanged RFC 793 path and the
     recovery trace must match the legacy implementation exactly. *)
  let fast, _ = run_transfer ~fast:true ~seed:9 ~loss:0.04 ~jitter_us:4_000
      ~total:120_000
  in
  let slow, _ = run_transfer ~fast:false ~seed:9 ~loss:0.04 ~jitter_us:4_000
      ~total:120_000
  in
  check Alcotest.string "identical outcome" (pp_outcome slow) (pp_outcome fast);
  check Alcotest.bool "recovery actually happened" true
    (fast.o_retransmits > 0 || fast.o_dupacks > 0);
  check Alcotest.bool "delivered intact" true
    (fast.o_intact && fast.o_received = 120_000)

let prop_fast_slow_equivalent =
  QCheck.Test.make
    ~name:"fast-path transfer identical to slow path under loss/reorder"
    ~count:10
    QCheck.(triple (1 -- 1_000) (0 -- 8) (0 -- 3))
    (fun (seed, loss_pct, jitter_ms) ->
      let loss = float_of_int loss_pct /. 100. in
      let jitter_us = jitter_ms * 1_000 in
      let fast, _ = run_transfer ~fast:true ~seed ~loss ~jitter_us
          ~total:60_000
      in
      let slow, _ = run_transfer ~fast:false ~seed ~loss ~jitter_us
          ~total:60_000
      in
      fast = slow)

(* Exact allocation of a predicted segment, in the style of test_ip's
   datagram test: the words a host's IP and TCP allocate while receiving
   one frame, measured around [Ip.Stack.receive] by a handler that
   stands in for the stack's own. *)

(* A [bytes] of n bytes is n / 8 + 1 words plus its header. *)
let bytes_words n = (n / 8) + 2

(* A delayed-ACK timer arm: the engine's 3-word handle, TCP's 4-word
   closure over the connection and the 2-word [Some] that holds the
   handle. *)
let timer_arm_words = 9

(* a — g — b with [delay_us] per hop, a listener on b's port 80 whose
   receive upcall only counts, and a connection from a, established. *)
let established_pair ~delay_us =
  let t = Internet.create ~seed:5 ~routing:Internet.Static () in
  let a = Internet.add_host t "a" in
  let g = Internet.add_gateway t "g" in
  let b = Internet.add_host t "b" in
  let profile = Netsim.profile "p" ~delay_us in
  ignore (Internet.connect t profile a.Internet.h_node g.Internet.g_node);
  ignore (Internet.connect t profile g.Internet.g_node b.Internet.h_node);
  Internet.start t;
  let server = ref None and received = ref 0 in
  ignore
    (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun c ->
         server := Some c;
         Tcp.on_receive c (fun d -> received := !received + Bytes.length d)));
  let client =
    Tcp.connect a.Internet.h_tcp
      ~dst:(Internet.addr_of t b.Internet.h_node)
      ~dst_port:80 ()
  in
  Internet.run_for t 1.0;
  match !server with
  | Some server when Tcp.state client = Tcp.Established ->
      (t, a, b, client, server, received)
  | Some _ | None -> Alcotest.fail "handshake did not complete"

let test_pure_ack_allocates_nothing () =
  let t, a, _, c, _, _ = established_pair ~delay_us:50_000 in
  let words = ref (-1) and predicted = ref false in
  Netsim.set_handler (Internet.net t) a.Internet.h_node (fun ~iface frame ->
      let acks = (Tcp.stats c).Tcp.fast_path_acks in
      let w0 = Gc.minor_words () in
      Ip.Stack.receive a.Internet.h_ip ~iface frame;
      let w1 = Gc.minor_words () in
      words := int_of_float (w1 -. w0);
      predicted := (Tcp.stats c).Tcp.fast_path_acks = acks + 1);
  (* The first segment is timed, and b's delayed ACK of it (200 ms on)
     carries the RTT sample.  The second leaves before that ACK is back,
     untimed, so the ACK that empties the flight samples nothing: it
     cancels the retransmission timer and finds nothing more to send. *)
  ignore (Tcp.send c (Bytes.make 100 'x'));
  Internet.run_for t 0.35;
  ignore (Tcp.send c (Bytes.make 1460 'y'));
  Internet.run_for t 2.0;
  check Alcotest.int "flight empty" (Tcp.snd_nxt c) (Tcp.snd_una c);
  check Alcotest.bool "last ACK predicted" true !predicted;
  check Alcotest.int "words to receive it" 0 !words

let test_sampling_ack_allocates_nothing () =
  let t, a, _, c, _, _ = established_pair ~delay_us:50_000 in
  let srtt0 = Tcp.srtt_us c in
  let words = ref (-1) and predicted = ref 0 in
  Netsim.set_handler (Internet.net t) a.Internet.h_node (fun ~iface frame ->
      let acks = (Tcp.stats c).Tcp.fast_path_acks in
      let w0 = Gc.minor_words () in
      Ip.Stack.receive a.Internet.h_ip ~iface frame;
      let w1 = Gc.minor_words () in
      if (Tcp.stats c).Tcp.fast_path_acks = acks + 1 then begin
        words := int_of_float (w1 -. w0);
        incr predicted
      end);
  (* One timed segment: b's delayed ACK of it completes the RTT sample,
     cancels the retransmission timer and finds nothing more to send. *)
  ignore (Tcp.send c (Bytes.make 100 'x'));
  Internet.run_for t 2.0;
  check Alcotest.int "flight empty" (Tcp.snd_nxt c) (Tcp.snd_una c);
  check Alcotest.int "one predicted ACK" 1 !predicted;
  check Alcotest.bool "RTT sampled" true (Tcp.srtt_us c <> srtt0);
  check Alcotest.int "words to receive it" 0 !words

let test_predicted_data_allocates_its_copy () =
  let t, _, b, c, s, received = established_pair ~delay_us:1_000 in
  let eng = Internet.engine t in
  let n = 512 in
  let words = Array.make n 0 and plen = Array.make n 0
  and acked = Array.make n 0 and armed = Array.make n 0
  and fast = Array.make n 0 and count = ref 0 in
  let measuring = ref false in
  Netsim.set_handler (Internet.net t) b.Internet.h_node (fun ~iface frame ->
      if !measuring && !count < n then begin
        let i = !count in
        let data = (Tcp.stats s).Tcp.fast_path_data
        and out = (Tcp.stats s).Tcp.segs_out
        and timers = Engine.timer_starts eng in
        let w0 = Gc.minor_words () in
        Ip.Stack.receive b.Internet.h_ip ~iface frame;
        let w1 = Gc.minor_words () in
        words.(i) <- int_of_float (w1 -. w0);
        plen.(i) <- Packet.Ipv4.peek_total_len frame - Packet.Ipv4.header_size - 20;
        fast.(i) <- (Tcp.stats s).Tcp.fast_path_data - data;
        acked.(i) <- (Tcp.stats s).Tcp.segs_out - out;
        armed.(i) <- Engine.timer_starts eng - timers;
        count := i + 1
      end
      else Ip.Stack.receive b.Internet.h_ip ~iface frame);
  let transfer bytes =
    let goal = !received + bytes in
    let chunk = Bytes.make bytes 'd' in
    let sent = ref 0 in
    while !received < goal do
      if !sent < bytes then
        sent := !sent + Tcp.send c (Bytes.sub chunk !sent (bytes - !sent));
      Internet.run_for t 0.01
    done
  in
  (* Warm-up grows netsim's frame slab and the engine's queue. *)
  transfer 200_000;
  measuring := true;
  transfer 200_000;
  let ack_frame = bytes_words (Packet.Ipv4.header_size + 20) in
  let with_ack = ref 0 and with_timer = ref 0 in
  for i = 0 to !count - 1 do
    if fast.(i) = 1 then begin
      let copy = bytes_words plen.(i) in
      match (acked.(i), armed.(i)) with
      | 1, 0 ->
          incr with_ack;
          check Alcotest.int "copy + ACK frame" (copy + ack_frame) words.(i)
      | 0, 1 ->
          incr with_timer;
          check Alcotest.int "copy + timer arm" (copy + timer_arm_words)
            words.(i)
      | o, a' ->
          Alcotest.failf "segment %d: %d segments out, %d timers armed" i o a'
    end
  done;
  check Alcotest.bool
    (Printf.sprintf "measured %d ACKing and %d timer-arming segments"
       !with_ack !with_timer)
    true
    (!with_ack >= 20 && !with_timer >= 20)

let () =
  Alcotest.run "tcp-fastpath"
    [
      ( "equivalence",
        [
          Alcotest.test_case "clean link" `Quick test_clean_link_identical;
          Alcotest.test_case "lossy link" `Quick test_lossy_link_identical;
          qcheck prop_fast_slow_equivalent;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "predicted pure ACK allocates nothing" `Quick
            test_pure_ack_allocates_nothing;
          Alcotest.test_case
            "a predicted pure ACK that completes an RTT sample allocates nothing"
            `Quick test_sampling_ack_allocates_nothing;
          Alcotest.test_case "predicted data allocates its copy" `Quick
            test_predicted_data_allocates_its_copy;
        ] );
    ]
