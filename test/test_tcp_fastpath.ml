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

let () =
  Alcotest.run "tcp-fastpath"
    [
      ( "equivalence",
        [
          Alcotest.test_case "clean link" `Quick test_clean_link_identical;
          Alcotest.test_case "lossy link" `Quick test_lossy_link_identical;
          qcheck prop_fast_slow_equivalent;
        ] );
    ]
