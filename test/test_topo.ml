(* The scale engine: hierarchical region generator + pooled host state.
   What matters is the forwarding-state *shape* (core tables hold one
   aggregated prefix per region, never per-host routes) and that the
   generated catenet actually delivers traffic in every direction. *)

open Catenet

let check = Alcotest.check

let small () =
  Topo.build
    { Topo.default_config with Topo.core = 4; chords = 2; regions = 6;
      hosts_per_region = 10 }

let test_aggregation () =
  let t = small () in
  let hosts = Topo.regions t * Topo.hosts_per_region t in
  check Alcotest.int "pool holds every host" hosts
    (Hostpool.size (Topo.pool t));
  (* A core gateway knows connected /30s plus one /20 per region — never
     a host route.  With 60 hosts its table must stay far below the host
     count, and entries below /20 must not exist in the core at all. *)
  check Alcotest.bool "core tables aggregated" true
    (Topo.core_table_max t < Topo.regions t + 2 * Topo.core_size t + 4);
  for c = 0 to Topo.core_size t - 1 do
    List.iter
      (fun (r : Ip.Route_table.route) ->
        check Alcotest.bool "no host routes in the core" true
          (Packet.Addr.Prefix.length r.Ip.Route_table.prefix <= 30))
      (Ip.Route_table.entries (Ip.Stack.table (Topo.core_gw t c)))
  done;
  (* Region gateways carry the per-host routes instead. *)
  check Alcotest.bool "region gw holds host routes" true
    (Ip.Route_table.length (Ip.Stack.table (Topo.region_gw t 0))
    >= Topo.hosts_per_region t)

let test_cross_region_delivery () =
  let t = small () in
  let pool = Topo.pool t in
  (* Far corners: regions attached to different core gateways. *)
  let s = Topo.host_slot t ~region:0 ~index:0 in
  let d = Topo.host_slot t ~region:5 ~index:9 in
  check Alcotest.bool "send accepted" true
    (Hostpool.send pool s ~dst:(Topo.host_addr t ~region:5 ~index:9)
       (Bytes.make 64 'x'));
  Engine.run (Topo.engine t);
  check Alcotest.int "delivered across the core" 1 (Hostpool.rx_count pool d);
  check Alcotest.int "nothing went astray" 0 (Hostpool.rx_stray pool)

let test_intra_region_delivery () =
  let t = small () in
  let pool = Topo.pool t in
  let d = Topo.host_slot t ~region:2 ~index:3 in
  check Alcotest.bool "send accepted" true
    (Hostpool.send pool
       (Topo.host_slot t ~region:2 ~index:7)
       ~dst:(Topo.host_addr t ~region:2 ~index:3)
       (Bytes.make 32 'y'));
  Engine.run (Topo.engine t);
  check Alcotest.int "hairpinned at the region gw" 1
    (Hostpool.rx_count pool d)

let test_all_pairs_regions () =
  (* Every region can reach every other region (and itself). *)
  let t = small () in
  let pool = Topo.pool t in
  let n = Topo.regions t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      ignore
        (Hostpool.send pool
           (Topo.host_slot t ~region:src ~index:src)
           ~dst:(Topo.host_addr t ~region:dst ~index:dst)
           (Bytes.make 16 'z'))
    done
  done;
  Engine.run (Topo.engine t);
  check Alcotest.int "every pair delivered" (n * n) (Hostpool.rx_total pool);
  check Alcotest.int "no strays" 0 (Hostpool.rx_stray pool)

let test_region_prefix_owns_hosts () =
  let t = small () in
  for r = 0 to Topo.regions t - 1 do
    let p = Topo.region_prefix r in
    for i = 0 to Topo.hosts_per_region t - 1 do
      check Alcotest.bool "host inside its region prefix" true
        (Packet.Addr.Prefix.mem (Topo.host_addr t ~region:r ~index:i) p)
    done
  done

(* A pooled host [d] on a one-link net, with or without a UDP sink, and
   a sender of one UDP datagram to it, intact or with its checksum
   corrupted. *)
let udp_pool ~sink =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:3 eng in
  let ns = Netsim.add_node net "s" in
  let nd = Netsim.add_node net "d" in
  ignore (Netsim.add_link net (Netsim.profile "l") ns nd);
  let pool = Hostpool.create net in
  let src = Packet.Addr.v 10 0 0 1 and dst = Packet.Addr.v 10 0 0 2 in
  let d = Hostpool.attach pool ~node:nd ~iface:0 ~addr:dst in
  let calls = ref 0 in
  if sink then
    Hostpool.set_udp_sink pool
      (Some (fun _slot ~src:_ ~src_port:_ ~dst_port:_ _ -> incr calls));
  let send ~corrupt =
    let udp =
      Packet.Udp_wire.encode ~src ~dst
        { Packet.Udp_wire.src_port = 53; dst_port = 5353;
          payload = Bytes.of_string "query" }
    in
    if corrupt then Bytes.set_uint8 udp 6 (Bytes.get_uint8 udp 6 lxor 0xff);
    let h =
      Packet.Ipv4.make_header ~proto:Packet.Ipv4.Proto.Udp ~src ~dst ()
    in
    ignore (Netsim.send net ns ~iface:0 (Packet.Ipv4.encode h ~payload:udp));
    Engine.run eng
  in
  (pool, d, calls, send)

let test_pool_udp_bad_checksum () =
  (* A pooled host with a UDP sink takes only datagrams that decode: one
     with a corrupted checksum is a stray, never a delivery. *)
  let pool, d, calls, send = udp_pool ~sink:true in
  send ~corrupt:false;
  check Alcotest.int "intact: sink called" 1 !calls;
  check Alcotest.int "intact: delivered" 1 (Hostpool.rx_count pool d);
  send ~corrupt:true;
  check Alcotest.int "corrupt: sink not called" 1 !calls;
  check Alcotest.int "corrupt: not delivered" 1 (Hostpool.rx_count pool d);
  check Alcotest.int "corrupt: not in the total" 1 (Hostpool.rx_total pool);
  check Alcotest.int "corrupt: counted as a stray" 1 (Hostpool.rx_stray pool)

let test_pool_udp_bad_checksum_no_sink () =
  (* The checksum guards the count, not only the sink: with no sink
     attached, a corrupted datagram is still a stray. *)
  let pool, d, _, send = udp_pool ~sink:false in
  send ~corrupt:false;
  check Alcotest.int "intact: delivered" 1 (Hostpool.rx_count pool d);
  send ~corrupt:true;
  check Alcotest.int "corrupt: not delivered" 1 (Hostpool.rx_count pool d);
  check Alcotest.int "corrupt: not in the total" 1 (Hostpool.rx_total pool);
  check Alcotest.int "corrupt: counted as a stray" 1 (Hostpool.rx_stray pool)

let test_pool_udp_no_sink_allocates_nothing () =
  (* A valid UDP datagram to a pooled host with no sink is counted in
     place: its link hop and the pool's check allocate nothing. *)
  let eng = Engine.create () in
  let net = Netsim.create ~seed:3 eng in
  let ns = Netsim.add_node net "s" in
  let nd = Netsim.add_node net "d" in
  ignore (Netsim.add_link net (Netsim.profile "l") ns nd);
  let pool = Hostpool.create net in
  let src = Packet.Addr.v 10 0 0 1 and dst = Packet.Addr.v 10 0 0 2 in
  let d = Hostpool.attach pool ~node:nd ~iface:0 ~addr:dst in
  let frame =
    Packet.Ipv4.encode
      (Packet.Ipv4.make_header ~proto:Packet.Ipv4.Proto.Udp ~src ~dst ())
      ~payload:
        (Packet.Udp_wire.encode ~src ~dst
           { Packet.Udp_wire.src_port = 53; dst_port = 5353;
             payload = Bytes.make 64 'q' })
  in
  (* Warm-up: grows netsim's frame slab. *)
  ignore (Netsim.send net ns ~iface:0 frame);
  Engine.run eng;
  for _ = 1 to 4 do
    let w0 = Gc.minor_words () in
    ignore (Netsim.send net ns ~iface:0 frame);
    Engine.run eng;
    let w1 = Gc.minor_words () in
    check Alcotest.int "words per datagram" 0 (int_of_float (w1 -. w0))
  done;
  check Alcotest.int "all delivered" 5 (Hostpool.rx_count pool d);
  check Alcotest.int "no strays" 0 (Hostpool.rx_stray pool)

let () =
  Alcotest.run "topo"
    [
      ( "shape",
        [
          Alcotest.test_case "aggregation" `Quick test_aggregation;
          Alcotest.test_case "addressing" `Quick test_region_prefix_owns_hosts;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "cross-region" `Quick test_cross_region_delivery;
          Alcotest.test_case "intra-region" `Quick test_intra_region_delivery;
          Alcotest.test_case "all region pairs" `Quick test_all_pairs_regions;
          Alcotest.test_case "pool udp bad checksum" `Quick
            test_pool_udp_bad_checksum;
          Alcotest.test_case "pool udp without sink allocates nothing" `Quick
            test_pool_udp_no_sink_allocates_nothing;
          Alcotest.test_case "pool udp bad checksum, no sink" `Quick
            test_pool_udp_bad_checksum_no_sink;
        ] );
    ]
