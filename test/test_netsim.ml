(* Tests for the network substrate: delivery, serialization timing, MTU
   enforcement, queue drops, random loss, failure injection, counters. *)


let check = Alcotest.check

(* A two-node fixture returning (engine, net, a, b, link). *)
let pair ?(profile = Netsim.profile "test") () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:1 eng in
  let a = Netsim.add_node net "a" in
  let b = Netsim.add_node net "b" in
  let l = Netsim.add_link net profile a b in
  (eng, net, a, b, l)

let collect net node =
  let inbox = ref [] in
  Netsim.set_handler net node (fun ~iface frame ->
      inbox := (iface, frame, Engine.now (Netsim.engine net)) :: !inbox);
  inbox

let test_basic_delivery () =
  let eng, net, a, b, _ = pair () in
  let inbox = collect net b in
  check Alcotest.bool "send ok" true
    (Netsim.send net a ~iface:0 (Bytes.of_string "hello"));
  Engine.run eng;
  match !inbox with
  | [ (0, frame, _) ] -> check Alcotest.string "payload" "hello" (Bytes.to_string frame)
  | l -> Alcotest.failf "expected 1 frame, got %d" (List.length l)

let test_default_handler () =
  (* Nodes without their own handler fall back to the net-wide default;
     a per-node handler still wins over it. *)
  let eng = Engine.create () in
  let net = Netsim.create ~seed:1 eng in
  let a = Netsim.add_node net "a" in
  let b = Netsim.add_node net "b" in
  let c = Netsim.add_node net "c" in
  ignore (Netsim.add_link net (Netsim.profile "p") a b);
  ignore (Netsim.add_link net (Netsim.profile "p") a c);
  let pooled = ref [] in
  Netsim.set_default_handler net
    (Some (fun ~node ~iface frame -> pooled := (node, iface, frame) :: !pooled));
  let own = collect net c in
  check Alcotest.bool "send to pooled" true
    (Netsim.send net a ~iface:0 (Bytes.of_string "to b"));
  check Alcotest.bool "send to owned" true
    (Netsim.send net a ~iface:1 (Bytes.of_string "to c"));
  Engine.run eng;
  (match !pooled with
  | [ (n, 0, f) ] ->
      check Alcotest.int "default saw b" b n;
      check Alcotest.string "frame" "to b" (Bytes.to_string f)
  | l -> Alcotest.failf "expected 1 pooled frame, got %d" (List.length l));
  check Alcotest.int "per-node handler won" 1 (List.length !own);
  (* Removing the fallback silences handlerless nodes again. *)
  Netsim.set_default_handler net None;
  ignore (Netsim.send net a ~iface:0 (Bytes.of_string "dropped"));
  Engine.run eng;
  check Alcotest.int "no fallback" 1 (List.length !pooled)

let test_delivery_time () =
  (* 1000-byte frame at 1 Mb/s = 8 ms serialization + 5 ms propagation. *)
  let profile =
    Netsim.profile "slow" ~bandwidth_bps:1_000_000 ~delay_us:5_000
  in
  let eng, net, a, b, _ = pair ~profile () in
  let inbox = collect net b in
  ignore (Netsim.send net a ~iface:0 (Bytes.make 1000 'x'));
  Engine.run eng;
  match !inbox with
  | [ (_, _, at) ] -> check Alcotest.int "8ms + 5ms" 13_000 at
  | _ -> Alcotest.fail "expected one frame"

let test_fifo_and_serialization () =
  (* Two back-to-back frames: the second waits for the first's tx time. *)
  let profile = Netsim.profile "slow" ~bandwidth_bps:1_000_000 ~delay_us:0 in
  let eng, net, a, b, _ = pair ~profile () in
  let inbox = collect net b in
  ignore (Netsim.send net a ~iface:0 (Bytes.make 1000 '1'));
  ignore (Netsim.send net a ~iface:0 (Bytes.make 1000 '2'));
  Engine.run eng;
  match List.rev !inbox with
  | [ (_, f1, t1); (_, f2, t2) ] ->
      check Alcotest.char "first" '1' (Bytes.get f1 0);
      check Alcotest.char "second" '2' (Bytes.get f2 0);
      check Alcotest.int "t1" 8_000 t1;
      check Alcotest.int "t2 = 2x tx" 16_000 t2
  | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l)

let test_bidirectional () =
  let eng, net, a, b, _ = pair () in
  let inbox_a = collect net a and inbox_b = collect net b in
  ignore (Netsim.send net a ~iface:0 (Bytes.of_string "to-b"));
  ignore (Netsim.send net b ~iface:0 (Bytes.of_string "to-a"));
  Engine.run eng;
  check Alcotest.int "a got one" 1 (List.length !inbox_a);
  check Alcotest.int "b got one" 1 (List.length !inbox_b)

let test_mtu_enforced () =
  let profile = Netsim.profile "tiny" ~mtu:100 in
  let eng, net, a, b, l = pair ~profile () in
  let inbox = collect net b in
  check Alcotest.bool "oversize rejected" false
    (Netsim.send net a ~iface:0 (Bytes.make 101 'x'));
  check Alcotest.bool "exact fits" true
    (Netsim.send net a ~iface:0 (Bytes.make 100 'x'));
  Engine.run eng;
  check Alcotest.int "one delivered" 1 (List.length !inbox);
  check Alcotest.int "drop counted" 1 (Netsim.link_stats net l).Netsim.drops_mtu

let test_queue_overflow () =
  let profile =
    Netsim.profile "q2" ~bandwidth_bps:8_000 ~queue_capacity:2 ~delay_us:0
  in
  let eng, net, a, b, l = pair ~profile () in
  let inbox = collect net b in
  (* Each 100-byte frame takes 100 ms to serialize; push 5 at once. *)
  let accepted = ref 0 in
  for _ = 1 to 5 do
    if Netsim.send net a ~iface:0 (Bytes.make 100 'x') then incr accepted
  done;
  Engine.run eng;
  check Alcotest.int "2 accepted" 2 !accepted;
  check Alcotest.int "2 delivered" 2 (List.length !inbox);
  check Alcotest.int "3 dropped" 3 (Netsim.link_stats net l).Netsim.drops_queue

let test_random_loss () =
  let profile = Netsim.profile "lossy" ~loss:0.3 in
  let eng, net, a, b, l = pair ~profile () in
  let inbox = collect net b in
  (* Pace sends so the bounded queue never tail-drops: one frame per ms. *)
  for i = 0 to 999 do
    Engine.schedule eng ~at:(i * 1_000) (fun () ->
        ignore (Netsim.send net a ~iface:0 (Bytes.make 10 'x')))
  done;
  Engine.run eng;
  let delivered = List.length !inbox in
  let stats = Netsim.link_stats net l in
  check Alcotest.int "no queue drops" 0 stats.Netsim.drops_queue;
  check Alcotest.int "delivered + lost = sent" 1000
    (delivered + stats.Netsim.drops_loss);
  check Alcotest.bool "loss near 30%" true
    (stats.Netsim.drops_loss > 200 && stats.Netsim.drops_loss < 400)

let test_link_down_drops () =
  let eng, net, a, b, l = pair () in
  let inbox = collect net b in
  Netsim.set_link_up net l false;
  check Alcotest.bool "down send fails" false
    (Netsim.send net a ~iface:0 (Bytes.of_string "x"));
  Netsim.set_link_up net l true;
  check Alcotest.bool "up send ok" true
    (Netsim.send net a ~iface:0 (Bytes.of_string "y"));
  Engine.run eng;
  check Alcotest.int "one delivered" 1 (List.length !inbox)

let test_link_down_kills_in_flight () =
  let profile = Netsim.profile "long" ~delay_us:100_000 in
  let eng, net, a, b, l = pair ~profile () in
  let inbox = collect net b in
  ignore (Netsim.send net a ~iface:0 (Bytes.of_string "doomed"));
  (* Cut the link while the frame is propagating. *)
  Engine.after eng 50_000 (fun () -> Netsim.set_link_up net l false);
  Engine.run eng;
  check Alcotest.int "nothing delivered" 0 (List.length !inbox)

let test_node_down () =
  let eng, net, a, b, _ = pair () in
  let inbox = collect net b in
  Netsim.set_node_up net b false;
  ignore (Netsim.send net a ~iface:0 (Bytes.of_string "void"));
  Engine.run eng;
  check Alcotest.int "dead node receives nothing" 0 (List.length !inbox);
  Netsim.set_node_up net b true;
  ignore (Netsim.send net a ~iface:0 (Bytes.of_string "alive"));
  Engine.run eng;
  check Alcotest.int "revived node receives" 1 (List.length !inbox)

let test_down_sender () =
  let eng, net, a, b, _ = pair () in
  let inbox = collect net b in
  Netsim.set_node_up net a false;
  check Alcotest.bool "down node cannot send" false
    (Netsim.send net a ~iface:0 (Bytes.of_string "x"));
  Engine.run eng;
  check Alcotest.int "nothing" 0 (List.length !inbox)

let test_topology_queries () =
  let eng = Engine.create () in
  let net = Netsim.create eng in
  let a = Netsim.add_node net "a" in
  let b = Netsim.add_node net "b" in
  let c = Netsim.add_node net "c" in
  let l1 = Netsim.add_link net (Netsim.profile "p" ~mtu:900) a b in
  let l2 = Netsim.add_link net (Netsim.profile "p") b c in
  check Alcotest.int "a ifaces" 1 (Netsim.iface_count net a);
  check Alcotest.int "b ifaces" 2 (Netsim.iface_count net b);
  check Alcotest.int "mtu" 900 (Netsim.iface_mtu net a 0);
  check Alcotest.bool "peer of a.0 is b" true (fst (Netsim.peer net a 0) = b);
  check Alcotest.bool "peer of b.1 is c" true (fst (Netsim.peer net b 1) = c);
  check Alcotest.bool "link between" true (Netsim.link_between net a b = Some l1);
  check Alcotest.bool "no link a-c" true (Netsim.link_between net a c = None);
  check Alcotest.int "names" 0 (compare (Netsim.node_name net a) "a");
  check Alcotest.int "link ids" 2 (Netsim.link_count net);
  ignore l2

let test_self_link_rejected () =
  let eng = Engine.create () in
  let net = Netsim.create eng in
  let a = Netsim.add_node net "a" in
  try
    ignore (Netsim.add_link net (Netsim.profile "p") a a);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_stats_totals () =
  let eng, net, a, b, l = pair () in
  ignore (collect net b);
  for _ = 1 to 10 do
    ignore (Netsim.send net a ~iface:0 (Bytes.make 50 'x'))
  done;
  Engine.run eng;
  let s = Netsim.link_stats net l in
  check Alcotest.int "tx frames" 10 s.Netsim.tx_frames;
  check Alcotest.int "tx bytes" 500 s.Netsim.tx_bytes;
  check Alcotest.int "delivered" 10 s.Netsim.delivered_frames;
  let tot = Netsim.total_stats net in
  check Alcotest.int "total matches" 10 tot.Netsim.tx_frames

let test_determinism_across_runs () =
  let run () =
    let profile = Netsim.profile "lossy" ~loss:0.5 in
    let eng, net, a, b, _ = pair ~profile () in
    let inbox = collect net b in
    for _ = 1 to 200 do
      ignore (Netsim.send net a ~iface:0 (Bytes.make 10 'x'))
    done;
    Engine.run eng;
    List.length !inbox
  in
  check Alcotest.int "same seed, same outcome" (run ()) (run ())


let test_priority_queue_preempts () =
  (* Fill the queue with bulk frames, then submit one priority frame: it
     must be transmitted before the queued bulk backlog. *)
  let profile = Netsim.profile "slow" ~bandwidth_bps:8_000 ~delay_us:0 in
  let eng, net, a, b, _ = pair ~profile () in
  let order = ref [] in
  Netsim.set_handler net b (fun ~iface:_ frame ->
      order := Bytes.get frame 0 :: !order);
  (* 5 bulk frames of 100 B (100 ms serialization each). *)
  for _ = 1 to 5 do
    ignore (Netsim.send net a ~iface:0 (Bytes.make 100 'b'))
  done;
  (* Priority frame arrives while the first bulk frame transmits. *)
  Engine.after eng 10_000 (fun () ->
      ignore (Netsim.send net a ~priority:true ~iface:0 (Bytes.make 100 'P')));
  Engine.run eng;
  match List.rev !order with
  | 'b' :: 'P' :: rest ->
      check Alcotest.int "bulk follows" 4 (List.length rest)
  | l ->
      Alcotest.failf "unexpected order: %s"
        (String.init (List.length l) (List.nth l))

let test_jitter_reorders () =
  (* With jitter comparable to the spacing, back-to-back frames may arrive
     out of order; with no jitter they never do. *)
  let arrival_order jitter_us =
    let profile =
      Netsim.profile "j" ~bandwidth_bps:100_000_000 ~delay_us:1_000 ~jitter_us
    in
    let eng, net, a, b, _ = pair ~profile () in
    let order = ref [] in
    Netsim.set_handler net b (fun ~iface:_ frame ->
        order := Bytes.get_int32_be frame 0 :: !order);
    for i = 0 to 199 do
      Engine.schedule eng ~at:(i * 100) (fun () ->
          let f = Bytes.make 10 ' ' in
          Bytes.set_int32_be f 0 (Int32.of_int i);
          ignore (Netsim.send net a ~iface:0 f))
    done;
    Engine.run eng;
    List.rev !order
  in
  let sorted l = List.sort compare l = l in
  check Alcotest.bool "no jitter: in order" true (sorted (arrival_order 0));
  check Alcotest.bool "jitter: reordered" false (sorted (arrival_order 5_000))

(* A link flap with work in every stage: at the cut, frames a1 and a2
   (a->b) are propagating, a3 is mid-transmission, a4 is queued, and b1
   (b->a) is mid-transmission.  The link comes back up before a3's
   orphaned transmission was due to end, and a fresh frame e is sent
   whose transmission ends at that very instant: only e and the later
   f may arrive, e exactly once.  Returns the (time, frame) delivery log
   and the link's counters. *)
let flap_log ~jitter_us =
  let profile =
    Netsim.profile "flap" ~bandwidth_bps:1_000_000 ~delay_us:5_000 ~jitter_us
  in
  let eng, net, a, b, l = pair ~profile () in
  let log = ref [] in
  let record ~iface:_ frame =
    log := (Engine.now eng, Bytes.to_string frame) :: !log
  in
  Netsim.set_handler net a record;
  Netsim.set_handler net b record;
  let send_at at node frame =
    Engine.schedule eng ~at (fun () ->
        ignore (Netsim.send net node ~iface:0 (Bytes.of_string frame)))
  in
  (* 100 B at 1 Mb/s is 800 us on the wire: a1 0-800, a2 800-1600,
     a3 1600-2400, a4 queued; b1 1500-2300. *)
  List.iter
    (fun f -> send_at 0 a (f ^ String.make 98 '.'))
    [ "a1"; "a2"; "a3"; "a4" ];
  send_at 1_500 b ("b1" ^ String.make 98 '.');
  Engine.schedule eng ~at:2_000 (fun () -> Netsim.set_link_up net l false);
  send_at 2_100 a "down";
  Engine.schedule eng ~at:2_200 (fun () -> Netsim.set_link_up net l true);
  (* 25 B is 200 us: e's transmission ends at 2400, with a3's orphan. *)
  send_at 2_200 a ("e" ^ String.make 24 '.');
  send_at 10_000 a ("f" ^ String.make 99 '.');
  Engine.run eng;
  let q = Netsim.queue_length net l in
  let s = Netsim.link_stats net l in
  ( List.rev_map (fun (t, f) -> (t, String.sub f 0 (String.index f '.'))) !log,
    [ s.Netsim.tx_frames; s.Netsim.tx_bytes; s.Netsim.delivered_frames;
      s.Netsim.drops_queue; s.Netsim.drops_loss; s.Netsim.drops_down;
      s.Netsim.drops_mtu; q ] )

let test_link_flap_log () =
  let deliveries = Alcotest.(list (pair int string)) in
  let counters = Alcotest.(list int) in
  let log, stats = flap_log ~jitter_us:0 in
  check deliveries "delivery log" [ (7_400, "e"); (15_800, "f") ] log;
  (* tx a1 a2 e f = 325 B; delivered e f; one send while down. *)
  check counters "counters" [ 4; 325; 2; 0; 0; 1; 0; 0 ] stats;
  let log, stats = flap_log ~jitter_us:3_000 in
  check deliveries "jitter delivery log" [ (7_663, "e"); (17_743, "f") ] log;
  check counters "jitter counters" [ 4; 325; 2; 0; 0; 1; 0; 0 ] stats

(* What a netsim holds per pooled host: one leaf node and the link to
   its gateway, [links] of them around one hub, in words reachable from
   the net.  [links] fills the link arrays' capacity, a power of two. *)
let words_per_host links =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:1 eng in
  let hub = Netsim.add_node net "g" in
  let p = Netsim.profile "host" in
  for _ = 1 to links do
    ignore (Netsim.add_link net p hub (Netsim.add_node net "h"))
  done;
  float (Obj.reachable_words (Obj.repr net)) /. float links

let test_footprint () =
  (* One int block per link, two ints per node and a clean link's
     stream shared make 37.52 words, the node arrays' doubling slack
     included. *)
  let w = words_per_host 65_536 in
  check Alcotest.bool (Printf.sprintf "%.2f words per host node and link" w)
    true (w <= 37.6)

(* Every link owns its place in the split order, drawing or not: a mixed
   net of clean, lossy, jittered and lossy-jittered links, in an order
   that puts clean links between the others, sends 12 frames over each,
   one every 2 ms, and logs each frame's delivery time or -1 for a loss.
   The log is pinned: a clean link that skipped its split, or a loss
   draw skipped on a jitter-only link, would move every later link's. *)
let stream_log () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:7 eng in
  let p ?loss ?jitter_us name =
    Netsim.profile name ~bandwidth_bps:1_000_000 ~delay_us:1_000 ?loss
      ?jitter_us
  in
  let profiles =
    [ p "clean"; p ~loss:0.3 "lossy"; p "clean"; p ~jitter_us:700 "jitter";
      p "clean"; p ~loss:0.2 ~jitter_us:400 "both"; p ~loss:0.5 "lossy" ]
  in
  let log =
    List.map
      (fun prof ->
        let a = Netsim.add_node net "a" and b = Netsim.add_node net "b" in
        ignore (Netsim.add_link net prof a b);
        let times = Array.make 12 (-1) in
        Netsim.set_handler net b (fun ~iface:_ f ->
            times.(Bytes.get_uint8 f 0) <- Engine.now eng);
        for i = 0 to 11 do
          Engine.schedule eng ~at:(i * 2_000) (fun () ->
              ignore (Netsim.send net a ~iface:0 (Bytes.make 50 (Char.chr i))))
        done;
        times)
      profiles
  in
  Engine.run eng;
  List.map Array.to_list log

let test_stream_log () =
  let clean = List.init 12 (fun i -> (i * 2_000) + 1_400) in
  check
    Alcotest.(list (list int))
    "delivery times, -1 for a loss"
    [ clean;
      [ 1400; 3400; 5400; -1; 9400; -1; -1; 15400; 17400; 19400; -1; 23400 ];
      clean;
      [ 1474; 3664; 5943; 7790; 9569; 11767; 14024; 15986; 17866; 20052;
        21817; 23644 ];
      clean;
      [ 1748; 3612; 5563; 7481; 9587; 11573; -1; 15535; 17674; 19778; 21592;
        23772 ];
      [ -1; -1; -1; 7400; 9400; 11400; -1; -1; 17400; -1; 21400; -1 ] ]
    (stream_log ())

let test_tap_across_growth () =
  (* The tap array is made at the first tap and covers the links then in
     place; the link arrays growing past it keeps that tap, and a link
     added later can still be tapped, and untapped. *)
  let eng = Engine.create () in
  let net = Netsim.create ~seed:1 eng in
  let node () = Netsim.add_node net "n" in
  let a = node () and b = node () in
  let l0 = Netsim.add_link net (Netsim.profile "p") a b in
  let seen = ref [] in
  let tap name = Some (fun ~dir f -> seen := (name, dir, Bytes.length f) :: !seen) in
  Netsim.set_link_tap net l0 (tap "l0");
  for _ = 1 to 40 do
    ignore (Netsim.add_link net (Netsim.profile "p") (node ()) (node ()))
  done;
  let c = node () in
  let late = Netsim.add_link net (Netsim.profile "p") b c in
  ignore (Netsim.send net a ~iface:0 (Bytes.make 10 'x'));
  Engine.run eng;
  check Alcotest.(list (triple string int int)) "early tap, after growth"
    [ ("l0", 0, 10) ] !seen;
  Netsim.set_link_tap net late (tap "late");
  ignore (Netsim.send net c ~iface:0 (Bytes.make 20 'y'));
  ignore (Netsim.send net b ~iface:0 (Bytes.make 30 'z'));
  Engine.run eng;
  check Alcotest.(list (triple string int int)) "late tap"
    [ ("l0", 1, 30); ("late", 1, 20); ("l0", 0, 10) ] !seen;
  Netsim.set_link_tap net l0 None;
  ignore (Netsim.send net a ~iface:0 (Bytes.make 10 'x'));
  Engine.run eng;
  check Alcotest.int "untapped" 3 (List.length !seen)

let () =
  Alcotest.run "netsim"
    [
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "timing" `Quick test_delivery_time;
          Alcotest.test_case "fifo serialization" `Quick test_fifo_and_serialization;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional;
          Alcotest.test_case "default handler" `Quick test_default_handler;
        ] );
      ( "limits",
        [
          Alcotest.test_case "mtu" `Quick test_mtu_enforced;
          Alcotest.test_case "queue overflow" `Quick test_queue_overflow;
          Alcotest.test_case "random loss" `Quick test_random_loss;
          Alcotest.test_case "priority preempts" `Quick test_priority_queue_preempts;
          Alcotest.test_case "jitter reorders" `Quick test_jitter_reorders;
        ] );
      ( "failures",
        [
          Alcotest.test_case "link down" `Quick test_link_down_drops;
          Alcotest.test_case "in-flight killed" `Quick test_link_down_kills_in_flight;
          Alcotest.test_case "flap delivery log" `Quick test_link_flap_log;
          Alcotest.test_case "node down rx" `Quick test_node_down;
          Alcotest.test_case "node down tx" `Quick test_down_sender;
        ] );
      ( "topology",
        [
          Alcotest.test_case "queries" `Quick test_topology_queries;
          Alcotest.test_case "self link" `Quick test_self_link_rejected;
          Alcotest.test_case "stats" `Quick test_stats_totals;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
        ] );
      ( "layout",
        [
          Alcotest.test_case "footprint" `Quick test_footprint;
          Alcotest.test_case "stream log" `Quick test_stream_log;
          Alcotest.test_case "tap across growth" `Quick test_tap_across_growth;
        ] );
    ]
