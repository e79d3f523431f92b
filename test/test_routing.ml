(* Tests for the routing protocols: message formats, distance-vector and
   link-state convergence, and rerouting around failures — the mechanism
   behind the survivability goal. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Internet = Catenet.Internet
module Addr = Packet.Addr
module Prefix = Packet.Addr.Prefix
module Rt_msg = Routing.Rt_msg

(* --- Message formats ------------------------------------------------------- *)

let test_dv_update_roundtrip () =
  let entries =
    [
      { Rt_msg.prefix = Prefix.of_string "10.0.1.0/24"; metric = 2 };
      { Rt_msg.prefix = Prefix.of_string "10.0.2.0/24"; metric = 16 };
      { Rt_msg.prefix = Prefix.of_string "0.0.0.0/0"; metric = 1 };
    ]
  in
  match Rt_msg.decode (Rt_msg.encode (Rt_msg.Dv_update entries)) with
  | Ok (Rt_msg.Dv_update e') -> check Alcotest.bool "equal" true (entries = e')
  | Ok _ | Error _ -> Alcotest.fail "roundtrip failed"

let test_hello_roundtrip () =
  match Rt_msg.decode (Rt_msg.encode (Rt_msg.Hello 0xDEADBEEFl)) with
  | Ok (Rt_msg.Hello id) -> check Alcotest.int32 "id" 0xDEADBEEFl id
  | Ok _ | Error _ -> Alcotest.fail "roundtrip failed"

let test_lsa_roundtrip () =
  let lsa =
    {
      Rt_msg.origin = 42l;
      seq = 17;
      neighbors =
        [
          { Rt_msg.neighbor_id = 1l; cost = 1 };
          { Rt_msg.neighbor_id = 2l; cost = 5 };
        ];
      prefixes = [ { Rt_msg.prefix = Prefix.of_string "10.9.0.0/16"; cost = 0 } ];
    }
  in
  match Rt_msg.decode (Rt_msg.encode (Rt_msg.Lsa lsa)) with
  | Ok (Rt_msg.Lsa l) -> check Alcotest.bool "equal" true (lsa = l)
  | Ok _ | Error _ -> Alcotest.fail "roundtrip failed"

let test_garbage_rejected () =
  (match Rt_msg.decode (Bytes.of_string "\x09rubbish") with
  | Error (`Bad_header _) -> ()
  | Error `Truncated | Ok _ -> Alcotest.fail "expected Bad_header");
  match Rt_msg.decode (Bytes.of_string "\x01\x00\x05") with
  | Error `Truncated -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Truncated"

let prop_dv_roundtrip =
  QCheck.Test.make ~name:"dv update roundtrip" ~count:200
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_bound 0xFFFFFF) (int_bound 16)))
    (fun raw ->
      let entries =
        List.map
          (fun (net, metric) ->
            {
              Rt_msg.prefix = Prefix.make (Addr.of_int (net * 256)) 24;
              metric;
            })
          raw
      in
      match Rt_msg.decode (Rt_msg.encode (Rt_msg.Dv_update entries)) with
      | Ok (Rt_msg.Dv_update e') -> entries = e'
      | Ok _ | Error _ -> false)

(* --- Convergence fixtures --------------------------------------------------- *)

(* A square of gateways with a host on opposite corners:

     h1 - g1 --l12-- g2
           |          |
          l14        l23
           |          |
          g4 --l34-- g3 - h3
*)
type square = {
  t : Internet.t;
  h1 : Internet.host;
  h3 : Internet.host;
  g1 : Internet.gateway;
  g2 : Internet.gateway;
  g3 : Internet.gateway;
  g4 : Internet.gateway;
  l12 : Netsim.link_id;
  l23 : Netsim.link_id;
  l34 : Netsim.link_id;
  l14 : Netsim.link_id;
}

let square routing =
  (* Fast protocol timers so tests converge in seconds of sim time. *)
  let dv_config =
    {
      Routing.Dv.default_config with
      Routing.Dv.period_us = 1_000_000;
      timeout_us = 3_500_000;
      gc_us = 2_000_000;
      carrier_poll_us = 200_000;
    }
  in
  let ls_config =
    {
      Routing.Ls.default_config with
      Routing.Ls.hello_us = 300_000;
      refresh_us = 5_000_000;
      max_age_us = 20_000_000;
    }
  in
  let t = Internet.create ~routing ~dv_config ~ls_config () in
  let g1 = Internet.add_gateway t "g1" in
  let g2 = Internet.add_gateway t "g2" in
  let g3 = Internet.add_gateway t "g3" in
  let g4 = Internet.add_gateway t "g4" in
  let h1 = Internet.add_host t "h1" in
  let h3 = Internet.add_host t "h3" in
  let p = Netsim.profile "core" ~delay_us:2_000 in
  let l12 = Internet.connect t p g1.Internet.g_node g2.Internet.g_node in
  let l23 = Internet.connect t p g2.Internet.g_node g3.Internet.g_node in
  let l34 = Internet.connect t p g3.Internet.g_node g4.Internet.g_node in
  let l14 = Internet.connect t p g1.Internet.g_node g4.Internet.g_node in
  ignore (Internet.connect t p h1.Internet.h_node g1.Internet.g_node);
  ignore (Internet.connect t p h3.Internet.h_node g3.Internet.g_node);
  Internet.start t;
  { t; h1; h3; g1; g2; g3; g4; l12; l23; l34; l14 }

let ping_works s =
  let before =
    let samples =
      Internet.ping s.t ~from:s.h1
        (Internet.addr_of s.t s.h3.Internet.h_node)
        ~count:5 ~interval_us:100_000
    in
    Internet.run_for s.t 3.0;
    Stdext.Stats.Samples.count samples
  in
  before = 5

let test_dv_converges () =
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 8.0;
  check Alcotest.bool "h1 can reach h3" true (ping_works s)

let test_dv_reroutes_after_failure () =
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 8.0;
  check Alcotest.bool "initially reachable" true (ping_works s);
  (* Cut both links of one of the two paths; the other must take over. *)
  Internet.fail_link s.t s.l12;
  Internet.run_for s.t 8.0;
  check Alcotest.bool "reachable after l12 cut" true (ping_works s);
  (* Heal and cut the other side. *)
  Internet.heal_link s.t s.l12;
  Internet.run_for s.t 8.0;
  Internet.fail_link s.t s.l34;
  Internet.fail_link s.t s.l14;
  Internet.run_for s.t 8.0;
  check Alcotest.bool "reachable via g2 only" true (ping_works s)

let test_dv_partition_is_unreachable () =
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 8.0;
  (* Isolate g3/h3 completely. *)
  Internet.fail_link s.t s.l23;
  Internet.fail_link s.t s.l34;
  Internet.run_for s.t 12.0;
  check Alcotest.bool "partition unreachable" false (ping_works s);
  (* Heal: reachability returns (the network "survives" the repair too). *)
  Internet.heal_link s.t s.l23;
  Internet.run_for s.t 12.0;
  check Alcotest.bool "healed" true (ping_works s)

let test_dv_stats_move () =
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 5.0;
  match s.g1.Internet.g_dv with
  | None -> Alcotest.fail "dv not running"
  | Some dv ->
      let st = Routing.Dv.stats dv in
      check Alcotest.bool "updates sent" true (st.Routing.Dv.updates_sent > 0);
      check Alcotest.bool "updates received" true
        (st.Routing.Dv.updates_received > 0);
      (* g1 should know h3's subnet at distance 3 hops (g1->g2->g3 plus
         the stub link) or equivalent. *)
      check Alcotest.bool "rib populated" true (Routing.Dv.rib_size dv >= 6)

let test_ls_converges () =
  let s = square Internet.Link_state in
  Internet.run_for s.t 8.0;
  check Alcotest.bool "h1 can reach h3" true (ping_works s)

let test_ls_reroutes_after_failure () =
  let s = square Internet.Link_state in
  Internet.run_for s.t 8.0;
  check Alcotest.bool "initially reachable" true (ping_works s);
  Internet.fail_link s.t s.l12;
  Internet.run_for s.t 8.0;
  check Alcotest.bool "reachable after cut" true (ping_works s)

let test_ls_lsdb_and_reachability () =
  let s = square Internet.Link_state in
  Internet.run_for s.t 8.0;
  match (s.g1.Internet.g_ls, s.g3.Internet.g_ls) with
  | Some ls1, Some ls3 ->
      check Alcotest.int "full lsdb" 4 (Routing.Ls.lsdb_size ls1);
      check Alcotest.bool "g1 sees g3" true
        (Routing.Ls.reachable ls1 (Routing.Ls.router_id ls3));
      let st = Routing.Ls.stats ls1 in
      check Alcotest.bool "hellos" true (st.Routing.Ls.hellos_sent > 0);
      check Alcotest.bool "floods" true (st.Routing.Ls.lsas_flooded > 0);
      check Alcotest.bool "spf ran" true (st.Routing.Ls.spf_runs > 0)
  | _ -> Alcotest.fail "ls not running"

let test_ls_adjacency_death_detected () =
  let s = square Internet.Link_state in
  Internet.run_for s.t 8.0;
  (match s.g1.Internet.g_ls with
  | Some ls1 ->
      check Alcotest.bool "g2 reachable" true
        (match s.g2.Internet.g_ls with
        | Some ls2 -> Routing.Ls.reachable ls1 (Routing.Ls.router_id ls2)
        | None -> false)
  | None -> Alcotest.fail "no ls");
  (* Kill g2 entirely: g1 must eventually drop it from the tree. *)
  Internet.crash_node s.t s.g2.Internet.g_node;
  Internet.run_for s.t 10.0;
  match (s.g1.Internet.g_ls, s.g2.Internet.g_ls) with
  | Some ls1, Some ls2 ->
      check Alcotest.bool "dead neighbor dropped" false
        (Routing.Ls.reachable ls1 (Routing.Ls.router_id ls2))
  | _ -> Alcotest.fail "no ls"

let test_static_mode_baseline () =
  (* The same square with god-view routes must work immediately. *)
  let s = square Internet.Static in
  check Alcotest.bool "static reachable" true (ping_works s)

let test_static_recompute_after_failure () =
  let s = square Internet.Static in
  Internet.fail_link s.t s.l12;
  Internet.recompute_static s.t;
  check Alcotest.bool "rerouted by recompute" true (ping_works s)


(* --- Redistribution: DV domain <-> LS domain -------------------------------- *)

let test_redistribution_bridges_protocols () =
  (* hA - a1 ==DV== border ==LS== b2 - hB : domain A runs distance-vector,
     domain B runs link-state, and the border gateway runs both plus the
     redistributor.  Hosts in either domain must reach each other. *)
  let eng = Engine.create () in
  let net = Netsim.create ~seed:91 eng in
  let mk = Netsim.add_node net in
  let ha = mk "hA" and a1 = mk "a1" and border = mk "border" in
  let b2 = mk "b2" and hb = mk "hB" in
  let p = Netsim.profile "leg" ~delay_us:2_000 in
  let link = Netsim.add_link net p in
  let l_ha = link ha a1 in
  let l_a1b = link a1 border in
  let l_bb2 = link border b2 in
  let l_hb = link b2 hb in
  let stacks = Hashtbl.create 8 in
  let stack node ~forwarding =
    match Hashtbl.find_opt stacks node with
    | Some s -> s
    | None ->
        let s = Ip.Stack.create ~forwarding net node in
        Hashtbl.add stacks node s;
        s
  in
  let addr_of_link l side = Addr.v 10 9 (l + 1) (side + 1) in
  let configure l ~fwd_a ~fwd_b =
    let (na, ia), (nb, ib) = Netsim.endpoints net l in
    Ip.Stack.configure_iface (stack na ~forwarding:fwd_a) ia
      ~addr:(addr_of_link l 0) ~prefix_len:24;
    Ip.Stack.configure_iface (stack nb ~forwarding:fwd_b) ib
      ~addr:(addr_of_link l 1) ~prefix_len:24
  in
  configure l_ha ~fwd_a:false ~fwd_b:true;
  configure l_a1b ~fwd_a:true ~fwd_b:true;
  configure l_bb2 ~fwd_a:true ~fwd_b:true;
  configure l_hb ~fwd_a:true ~fwd_b:false;
  (* Host default routes. *)
  Ip.Route_table.add
    (Ip.Stack.table (stack ha ~forwarding:false))
    { Ip.Route_table.prefix = Prefix.default; iface = 0;
      next_hop = Some (addr_of_link l_ha 1); metric = 1 };
  Ip.Route_table.add
    (Ip.Stack.table (stack hb ~forwarding:false))
    { Ip.Route_table.prefix = Prefix.default; iface = 0;
      next_hop = Some (addr_of_link l_hb 0); metric = 1 };
  let fast_dv =
    { Routing.Dv.default_config with Routing.Dv.period_us = 500_000;
      timeout_us = 2_000_000; gc_us = 1_000_000; carrier_poll_us = 200_000 }
  in
  let fast_ls =
    { Routing.Ls.default_config with Routing.Ls.hello_us = 200_000;
      refresh_us = 2_000_000 }
  in
  (* a1: DV only, neighbor = border. *)
  let a1_dv = Routing.Dv.create ~config:fast_dv (Udp.create (stack a1 ~forwarding:true)) in
  Routing.Dv.add_neighbor a1_dv 1 (addr_of_link l_a1b 1);
  Routing.Dv.start a1_dv;
  (* b2: LS only, neighbor = border. *)
  let b2_ls = Routing.Ls.create ~config:fast_ls (Udp.create (stack b2 ~forwarding:true)) in
  Routing.Ls.add_neighbor b2_ls 0 (addr_of_link l_bb2 0) ~cost:1;
  Routing.Ls.start b2_ls;
  (* border: both protocols plus the redistributor. *)
  let border_udp = Udp.create (stack border ~forwarding:true) in
  let border_dv = Routing.Dv.create ~config:fast_dv border_udp in
  Routing.Dv.add_neighbor border_dv 0 (addr_of_link l_a1b 0);
  Routing.Dv.start border_dv;
  let border_ls = Routing.Ls.create ~config:fast_ls border_udp in
  Routing.Ls.add_neighbor border_ls 1 (addr_of_link l_bb2 1) ~cost:1;
  Routing.Ls.start border_ls;
  let redist =
    Routing.Redistribute.create ~period_us:500_000 eng ~dv:border_dv
      ~ls:border_ls
  in
  (* Let everything converge, then ping across the protocol boundary. *)
  Engine.run ~until:(Engine.sec 8.0) eng;
  check Alcotest.bool "redistribution ran" true
    (Routing.Redistribute.exchanges redist > 2);
  let got = ref 0 in
  Ip.Stack.set_echo_reply_handler
    (stack ha ~forwarding:false)
    (fun ~id:_ ~seq:_ ~payload:_ -> incr got);
  for i = 0 to 4 do
    Engine.after eng (i * 100_000) (fun () ->
        Ip.Stack.send_echo_request
          (stack ha ~forwarding:false)
          ~dst:(addr_of_link l_hb 1) ~id:2 ~seq:i
          ~payload:(Bytes.make 8 'x'))
  done;
  Engine.run ~until:(Engine.sec 12.0) eng;
  check Alcotest.int "cross-protocol pings answered" 5 !got


let test_dv_inject_withdraw () =
  (* Injected externals are advertised to neighbors but never displace or
     expire like learned routes; withdraw removes them. *)
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 4.0;
  let dv1 = Option.get s.g1.Internet.g_dv in
  let dv3 = Option.get s.g3.Internet.g_dv in
  let external_prefix = Prefix.of_string "192.168.77.0/24" in
  Routing.Dv.inject dv1 external_prefix ~metric:2;
  Internet.run_for s.t 5.0;
  (* g3, two hops away, must have learned it. *)
  (match Routing.Dv.metric_of dv3 external_prefix with
  | Some m -> check Alcotest.bool "propagated with distance" true (m > 2 && m < 16)
  | None -> Alcotest.fail "external not propagated");
  check Alcotest.bool "installed at g3" true
    (Ip.Route_table.lookup (Ip.Stack.table s.g3.Internet.g_ip)
       (Addr.of_string "192.168.77.9")
    <> None);
  (* Externals are excluded from the exportable set. *)
  check Alcotest.bool "not re-exported" true
    (not
       (List.exists
          (fun (p, _) -> Prefix.equal p external_prefix)
          (Routing.Dv.routes dv1)));
  Routing.Dv.withdraw dv1 external_prefix;
  Internet.run_for s.t 10.0;
  check Alcotest.bool "withdrawn everywhere" true
    (match Routing.Dv.metric_of dv3 external_prefix with
    | None -> true
    | Some m -> m >= 16)

(* --- failure-path regressions (the E16 gauntlet's bug harvest) ------------- *)

let test_dv_withdraw_advertises_poison () =
  (* Withdrawing an injected external must *advertise* the loss (poison +
     triggered update), not silently drop it: neighbors would otherwise
     serve the dead route until their own timeout (3.5 s here, 17.5 s at
     default timers) expired it. *)
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 4.0;
  let dv1 = Option.get s.g1.Internet.g_dv in
  let dv3 = Option.get s.g3.Internet.g_dv in
  let p = Prefix.of_string "192.168.88.0/24" in
  Routing.Dv.inject dv1 p ~metric:2;
  Internet.run_for s.t 5.0;
  (match Routing.Dv.metric_of dv3 p with
  | Some m when m < 16 -> ()
  | Some _ | None -> Alcotest.fail "external not propagated");
  Routing.Dv.withdraw dv1 p;
  (* One second is a couple of triggered-update round trips — far less
     than g3's route timeout, so only the poison can explain the loss
     arriving this fast. *)
  Internet.run_for s.t 1.0;
  check Alcotest.bool "poison reached g3 before any timeout could" true
    (match Routing.Dv.metric_of dv3 p with
    | None -> true
    | Some m -> m >= 16);
  (* The GC path then reclaims the poisoned entry at the origin. *)
  Internet.run_for s.t 4.0;
  check Alcotest.bool "gc removed the withdrawn entry" true
    (Routing.Dv.metric_of dv1 p = None)

let test_dv_parallel_links_no_alias () =
  (* Two routers joined by two parallel links, and r2 presents the same
     source address on both (think: updates sourced from a router id).
     r1's adjacencies differ only by interface, so identifying the next
     hop by address alone aliases both onto one neighbor — after the
     first link dies, updates arriving on the second keep being credited
     to (and installed out of) the dead interface. *)
  let eng = Engine.create () in
  let net = Netsim.create ~seed:23 eng in
  let r1 = Netsim.add_node net "r1" and r2 = Netsim.add_node net "r2" in
  let p = Netsim.profile "pair" ~delay_us:2_000 in
  let link_a = Netsim.add_link net p r1 r2 in
  let _link_b = Netsim.add_link net p r1 r2 in
  let s1 = Ip.Stack.create ~forwarding:true net r1 in
  let s2 = Ip.Stack.create ~forwarding:true net r2 in
  (* Link A: 10.1.1.0/24.  Link B: 10.1.2.0/24 on r1's side, while r2
     reuses its link-A address there (so updates from either interface
     carry the same source). *)
  Ip.Stack.configure_iface s1 0 ~addr:(Addr.v 10 1 1 1) ~prefix_len:24;
  Ip.Stack.configure_iface s1 1 ~addr:(Addr.v 10 1 2 1) ~prefix_len:24;
  Ip.Stack.configure_iface s2 0 ~addr:(Addr.v 10 1 1 2) ~prefix_len:24;
  Ip.Stack.configure_iface s2 1 ~addr:(Addr.v 10 1 1 2) ~prefix_len:32;
  Ip.Route_table.add (Ip.Stack.table s2)
    { Ip.Route_table.prefix = Prefix.of_string "10.1.2.0/24"; iface = 1;
      next_hop = None; metric = 0 };
  let fast =
    { Routing.Dv.default_config with Routing.Dv.period_us = 500_000;
      timeout_us = 2_000_000; gc_us = 1_000_000; carrier_poll_us = 200_000 }
  in
  let dv1 = Routing.Dv.create ~config:fast (Udp.create s1) in
  (* Declaration order makes the link-A adjacency the preferred match
     while both links are up. *)
  Routing.Dv.add_neighbor dv1 1 (Addr.v 10 1 1 2);
  Routing.Dv.add_neighbor dv1 0 (Addr.v 10 1 1 2);
  let dv2 = Routing.Dv.create ~config:fast (Udp.create s2) in
  Routing.Dv.add_neighbor dv2 0 (Addr.v 10 1 1 1);
  Routing.Dv.add_neighbor dv2 1 (Addr.v 10 1 2 1);
  Routing.Dv.start dv1;
  Routing.Dv.start dv2;
  (* A stub prefix only r2 can reach. *)
  let stub = Prefix.of_string "10.9.9.0/24" in
  Routing.Dv.inject dv2 stub ~metric:1;
  Engine.run ~until:(Engine.sec 3.0) eng;
  (match Ip.Route_table.lookup (Ip.Stack.table s1) (Addr.v 10 9 9 1) with
  | Some r -> check Alcotest.int "initially via link A" 0 r.Ip.Route_table.iface
  | None -> Alcotest.fail "stub not learned");
  (* Kill link A.  Updates keep arriving over link B; they must be
     credited to the (iface 1, addr) adjacency and the route re-homed
     there — not bounced forever between carrier-poison and
     reinstallation on the dead interface. *)
  Netsim.set_link_up net link_a false;
  Engine.run ~until:(Engine.sec 6.0) eng;
  (match Ip.Route_table.lookup (Ip.Stack.table s1) (Addr.v 10 9 9 1) with
  | Some r -> check Alcotest.int "re-homed to link B" 1 r.Ip.Route_table.iface
  | None -> Alcotest.fail "stub lost after parallel-link failover");
  check Alcotest.bool "metric stays finite" true
    (match Routing.Dv.metric_of dv1 stub with
    | Some m -> m < 16
    | None -> false)

let test_dv_late_interface_advertised () =
  (* A subnet attached after [start] must still be advertised: connected
     prefixes are re-synced every periodic tick, not seeded once. *)
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 4.0;
  let hn = Internet.add_host s.t "hN" in
  let p = Netsim.profile "core" ~delay_us:2_000 in
  ignore (Internet.connect s.t p hn.Internet.h_node s.g4.Internet.g_node);
  Internet.run_for s.t 4.0;
  let prefix =
    Prefix.make (Internet.addr_of s.t hn.Internet.h_node) 24
  in
  let dv1 = Option.get s.g1.Internet.g_dv in
  (match Routing.Dv.metric_of dv1 prefix with
  | Some m when m < 16 -> ()
  | Some _ | None -> Alcotest.fail "late subnet never advertised");
  (* And the loss of a connected prefix is advertised as a poison, not
     left for neighbors to time out. *)
  Ip.Route_table.remove (Ip.Stack.table s.g4.Internet.g_ip) prefix;
  Internet.run_for s.t 3.0;
  check Alcotest.bool "vanished connected prefix poisoned" true
    (match Routing.Dv.metric_of dv1 prefix with
    | None -> true
    | Some m -> m >= 16)

let test_dv_carrier_poisons_have_own_stat () =
  (* Carrier-driven poisons are a different failure mode from expiry and
     must not inflate [routes_expired]; nor may the 200 ms poll re-count
     the same dead routes every tick. *)
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 8.0;
  let st = Routing.Dv.stats (Option.get s.g1.Internet.g_dv) in
  check Alcotest.int "no carrier poisons while healthy" 0
    st.Routing.Dv.routes_carrier_poisoned;
  let expired_before = st.Routing.Dv.routes_expired in
  Internet.fail_link s.t s.l12;
  Internet.run_for s.t 1.0;
  let after_cut = st.Routing.Dv.routes_carrier_poisoned in
  check Alcotest.bool "carrier loss counted in its own stat" true
    (after_cut > 0);
  check Alcotest.int "expiry stat untouched by carrier loss" expired_before
    st.Routing.Dv.routes_expired;
  (* The link stays down for 15 more polls: the count must not move. *)
  Internet.run_for s.t 3.0;
  check Alcotest.int "poison idempotent across polls" after_cut
    st.Routing.Dv.routes_carrier_poisoned

let test_dv_count_to_infinity_bounded () =
  (* Isolate h3's gateway completely.  Split horizon with poisoned
     reverse must drive the dead prefix to infinity in a few triggered
     updates; counting up one hop per 1 s period would need well over
     ten seconds to hit 16. *)
  let s = square Internet.Distance_vector in
  Internet.run_for s.t 8.0;
  let dv1 = Option.get s.g1.Internet.g_dv in
  let h3_prefix =
    Prefix.make (Internet.addr_of s.t s.h3.Internet.h_node) 24
  in
  (match Routing.Dv.metric_of dv1 h3_prefix with
  | Some m when m < 16 -> ()
  | Some _ | None -> Alcotest.fail "not converged before the cut");
  Internet.fail_link s.t s.l23;
  Internet.fail_link s.t s.l34;
  Internet.run_for s.t 5.0;
  check Alcotest.bool "unreachability learned in bounded time" true
    (match Routing.Dv.metric_of dv1 h3_prefix with
    | None -> true
    | Some m -> m >= 16)

let () =
  Alcotest.run "routing"
    [
      ( "messages",
        [
          Alcotest.test_case "dv roundtrip" `Quick test_dv_update_roundtrip;
          Alcotest.test_case "hello roundtrip" `Quick test_hello_roundtrip;
          Alcotest.test_case "lsa roundtrip" `Quick test_lsa_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
          qcheck prop_dv_roundtrip;
        ] );
      ( "distance-vector",
        [
          Alcotest.test_case "converges" `Quick test_dv_converges;
          Alcotest.test_case "reroutes" `Quick test_dv_reroutes_after_failure;
          Alcotest.test_case "partition" `Quick test_dv_partition_is_unreachable;
          Alcotest.test_case "stats" `Quick test_dv_stats_move;
          Alcotest.test_case "withdraw poisons" `Quick
            test_dv_withdraw_advertises_poison;
          Alcotest.test_case "parallel links" `Quick
            test_dv_parallel_links_no_alias;
          Alcotest.test_case "late interface" `Quick
            test_dv_late_interface_advertised;
          Alcotest.test_case "carrier stat" `Quick
            test_dv_carrier_poisons_have_own_stat;
          Alcotest.test_case "count to infinity" `Quick
            test_dv_count_to_infinity_bounded;
        ] );
      ( "link-state",
        [
          Alcotest.test_case "converges" `Quick test_ls_converges;
          Alcotest.test_case "reroutes" `Quick test_ls_reroutes_after_failure;
          Alcotest.test_case "lsdb" `Quick test_ls_lsdb_and_reachability;
          Alcotest.test_case "adjacency death" `Quick test_ls_adjacency_death_detected;
        ] );
      ( "redistribution",
        [
          Alcotest.test_case "dv<->ls bridge" `Quick
            test_redistribution_bridges_protocols;
          Alcotest.test_case "inject/withdraw" `Quick test_dv_inject_withdraw;
        ] );
      ( "static",
        [
          Alcotest.test_case "baseline" `Quick test_static_mode_baseline;
          Alcotest.test_case "recompute" `Quick test_static_recompute_after_failure;
        ] );
    ]
