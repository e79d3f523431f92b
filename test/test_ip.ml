(* Tests for the internet layer: longest-prefix-match routing, forwarding
   with TTL and ICMP errors, fragmentation/reassembly, accounting. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Addr = Packet.Addr
module Prefix = Packet.Addr.Prefix
module Ipv4 = Packet.Ipv4
module Icmpw = Packet.Icmp_wire

(* --- Route table --------------------------------------------------------- *)

let route prefix iface metric =
  {
    Ip.Route_table.prefix = Prefix.of_string prefix;
    iface;
    next_hop = None;
    metric;
  }

let test_lpm_prefers_longer () =
  let t = Ip.Route_table.create () in
  Ip.Route_table.add t (route "10.0.0.0/8" 1 1);
  Ip.Route_table.add t (route "10.1.0.0/16" 2 1);
  Ip.Route_table.add t (route "10.1.2.0/24" 3 1);
  let iface a =
    match Ip.Route_table.lookup t (Addr.of_string a) with
    | Some r -> r.Ip.Route_table.iface
    | None -> -1
  in
  check Alcotest.int "most specific" 3 (iface "10.1.2.99");
  check Alcotest.int "middle" 2 (iface "10.1.3.1");
  check Alcotest.int "broad" 1 (iface "10.200.0.1");
  check Alcotest.int "no match" (-1) (iface "11.0.0.1")

let test_lpm_metric_tiebreak () =
  let t = Ip.Route_table.create () in
  Ip.Route_table.add t { (route "10.0.0.0/8" 1 5) with Ip.Route_table.prefix = Prefix.of_string "10.0.0.0/8" };
  (* Same length, lower metric on another prefix value cannot exist;
     tiebreak applies between equal-length matching prefixes. *)
  Ip.Route_table.add t (route "0.0.0.0/0" 7 3);
  (match Ip.Route_table.lookup t (Addr.of_string "10.1.1.1") with
  | Some r -> check Alcotest.int "longer wins over metric" 1 r.Ip.Route_table.iface
  | None -> Alcotest.fail "no route")

let test_default_route () =
  let t = Ip.Route_table.create () in
  Ip.Route_table.add t (route "0.0.0.0/0" 9 1);
  match Ip.Route_table.lookup t (Addr.of_string "203.0.113.7") with
  | Some r -> check Alcotest.int "default" 9 r.Ip.Route_table.iface
  | None -> Alcotest.fail "default not matched"

let test_add_replaces_same_prefix () =
  let t = Ip.Route_table.create () in
  Ip.Route_table.add t (route "10.0.0.0/8" 1 1);
  Ip.Route_table.add t (route "10.0.0.0/8" 2 1);
  check Alcotest.int "one entry" 1 (Ip.Route_table.length t);
  match Ip.Route_table.lookup t (Addr.of_string "10.1.1.1") with
  | Some r -> check Alcotest.int "replaced" 2 r.Ip.Route_table.iface
  | None -> Alcotest.fail "no route"

let test_remove () =
  let t = Ip.Route_table.create () in
  Ip.Route_table.add t (route "10.0.0.0/8" 1 1);
  Ip.Route_table.remove t (Prefix.of_string "10.0.0.0/8");
  check Alcotest.int "empty" 0 (Ip.Route_table.length t);
  check Alcotest.bool "gone" true
    (Ip.Route_table.lookup t (Addr.of_string "10.1.1.1") = None);
  (* Removing a non-existent prefix is a no-op. *)
  Ip.Route_table.remove t (Prefix.of_string "10.0.0.0/8")

let prop_lpm_matches_bruteforce =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair
          (list_size (1 -- 20)
             (pair (pair (0 -- 255) (0 -- 255)) (0 -- 32)))
          (pair (0 -- 255) (0 -- 255)))
  in
  QCheck.Test.make ~name:"LPM lookup equals brute force" ~count:300 arb
    (fun (routes, (qa, qb)) ->
      let t = Ip.Route_table.create () in
      let entries =
        List.mapi
          (fun i ((a, b), len) ->
            let r =
              {
                Ip.Route_table.prefix = Prefix.make (Addr.v 10 a b 0) len;
                iface = i;
                next_hop = None;
                metric = 1;
              }
            in
            Ip.Route_table.add t r;
            r)
          routes
      in
      (* Deduplicate by prefix the same way add does (last wins). *)
      let dedup =
        List.fold_left
          (fun acc (r : Ip.Route_table.route) ->
            List.filter
              (fun (r' : Ip.Route_table.route) ->
                not (Prefix.equal r'.prefix r.prefix))
              acc
            @ [ r ])
          [] entries
      in
      let q = Addr.v 10 qa qb 1 in
      let best_brute =
        List.fold_left
          (fun best (r : Ip.Route_table.route) ->
            if not (Prefix.mem q r.prefix) then best
            else
              match best with
              | Some (b : Ip.Route_table.route)
                when Prefix.length b.prefix >= Prefix.length r.prefix ->
                  best
              | Some _ | None -> Some r)
          None dedup
      in
      let got = Ip.Route_table.lookup t q in
      match (best_brute, got) with
      | None, None -> true
      | Some b, Some g -> Prefix.length b.prefix = Prefix.length g.prefix
      | _ -> false)

(* --- Fixtures ------------------------------------------------------------ *)

(* host A -- gateway G -- host B, with configurable profiles. *)
type triple = {
  eng : Engine.t;
  net : Netsim.t;
  a : Ip.Stack.t;
  g : Ip.Stack.t;
  b : Ip.Stack.t;
  a_addr : Addr.t;
  b_addr : Addr.t;
  g_left : Addr.t;
  link_ab : Netsim.link_id;
  link_gb : Netsim.link_id;
}

let triple ?(left = Netsim.profile "l") ?(right = Netsim.profile "r") () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:3 eng in
  let na = Netsim.add_node net "a" in
  let ng = Netsim.add_node net "g" in
  let nb = Netsim.add_node net "b" in
  let l1 = Netsim.add_link net left na ng in
  let l2 = Netsim.add_link net right ng nb in
  let a = Ip.Stack.create net na in
  let g = Ip.Stack.create ~forwarding:true net ng in
  let b = Ip.Stack.create net nb in
  let a_addr = Addr.v 10 0 1 1 and g_left = Addr.v 10 0 1 2 in
  let g_right = Addr.v 10 0 2 1 and b_addr = Addr.v 10 0 2 2 in
  Ip.Stack.configure_iface a 0 ~addr:a_addr ~prefix_len:24;
  Ip.Stack.configure_iface g 0 ~addr:g_left ~prefix_len:24;
  Ip.Stack.configure_iface g 1 ~addr:g_right ~prefix_len:24;
  Ip.Stack.configure_iface b 0 ~addr:b_addr ~prefix_len:24;
  (* Hosts default via the gateway. *)
  Ip.Route_table.add (Ip.Stack.table a)
    { Ip.Route_table.prefix = Prefix.default; iface = 0;
      next_hop = Some g_left; metric = 1 };
  Ip.Route_table.add (Ip.Stack.table b)
    { Ip.Route_table.prefix = Prefix.default; iface = 0;
      next_hop = Some g_right; metric = 1 };
  { eng; net; a; g; b; a_addr; b_addr; g_left; link_ab = l1; link_gb = l2 }

let register_sink stack =
  let got = ref [] in
  Ip.Stack.register_proto stack (Ipv4.Proto.Other 99) (fun h payload ->
      got := (h, payload) :: !got);
  got

(* --- Forwarding ----------------------------------------------------------- *)

let test_forward_across_gateway () =
  let t = triple () in
  let got = register_sink t.b in
  (match
     Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:t.b_addr
       (Bytes.of_string "through the gateway")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send failed");
  Engine.run t.eng;
  match !got with
  | [ (h, payload) ] ->
      check Alcotest.string "payload" "through the gateway"
        (Bytes.to_string payload);
      check Alcotest.string "src" (Addr.to_string t.a_addr)
        (Addr.to_string h.Ipv4.src);
      check Alcotest.int "ttl decremented once" 63 h.Ipv4.ttl;
      check Alcotest.int "gateway forwarded" 1
        (Ip.Stack.counters t.g).Ip.Stack.forwarded
  | l -> Alcotest.failf "expected 1 datagram, got %d" (List.length l)

let test_local_delivery_loopback () =
  let t = triple () in
  let got = register_sink t.a in
  (match
     Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:t.a_addr
       (Bytes.of_string "self")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send failed");
  Engine.run t.eng;
  check Alcotest.int "delivered locally" 1 (List.length !got)

let test_no_route_error () =
  let t = triple () in
  (* Strip the default route so the destination is genuinely unroutable. *)
  Ip.Route_table.remove (Ip.Stack.table t.a) Prefix.default;
  match
    Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:(Addr.v 192 168 1 1)
      Bytes.empty
  with
  | Error `No_route -> ()
  | Error `Too_big | Ok () -> Alcotest.fail "expected No_route"

let test_host_does_not_forward () =
  (* B sends to a bogus address via its default route; A (a host) would be
     the wrong place anyway, but check the gateway drops unroutable. *)
  let t = triple () in
  ignore
    (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:(Addr.v 10 0 3 9)
       Bytes.empty);
  Engine.run t.eng;
  check Alcotest.int "gateway had no route" 1
    (Ip.Stack.counters t.g).Ip.Stack.dropped_no_route

let test_ttl_expiry_generates_icmp () =
  let t = triple () in
  let errors = ref [] in
  Ip.Stack.add_error_handler t.a (fun ~from:_ msg -> errors := msg :: !errors);
  ignore
    (Ip.Stack.send t.a ~ttl:1 ~proto:(Ipv4.Proto.Other 99) ~dst:t.b_addr
       (Bytes.make 16 'x'));
  Engine.run t.eng;
  (match !errors with
  | [ Icmpw.Time_exceeded _ ] -> ()
  | l -> Alcotest.failf "expected time-exceeded, got %d msgs" (List.length l));
  check Alcotest.int "counted" 1 (Ip.Stack.counters t.g).Ip.Stack.dropped_ttl

let test_net_unreachable_icmp () =
  let t = triple () in
  let errors = ref [] in
  Ip.Stack.add_error_handler t.a (fun ~from:_ msg -> errors := msg :: !errors);
  ignore
    (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:(Addr.v 10 0 9 9)
       Bytes.empty);
  Engine.run t.eng;
  match !errors with
  | [ Icmpw.Dest_unreachable { code = Icmpw.Net_unreachable; _ } ] -> ()
  | l -> Alcotest.failf "expected net-unreachable, got %d" (List.length l)

let test_protocol_unreachable () =
  let t = triple () in
  let errors = ref [] in
  Ip.Stack.add_error_handler t.a (fun ~from:_ msg -> errors := msg :: !errors);
  (* Nothing registered for protocol 77 on B. *)
  ignore
    (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 77) ~dst:t.b_addr
       (Bytes.make 4 'p'));
  Engine.run t.eng;
  match !errors with
  | [ Icmpw.Dest_unreachable { code = Icmpw.Protocol_unreachable; _ } ] -> ()
  | l -> Alcotest.failf "expected protocol-unreachable, got %d" (List.length l)

let test_ping_echo () =
  let t = triple () in
  let replies = ref [] in
  Ip.Stack.set_echo_reply_handler t.a (fun ~id ~seq ~payload:_ ->
      replies := (id, seq) :: !replies);
  Ip.Stack.send_echo_request t.a ~dst:t.b_addr ~id:9 ~seq:1
    ~payload:(Bytes.make 8 'p');
  Engine.run t.eng;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "echo reply" [ (9, 1) ] !replies

(* --- Fast path ------------------------------------------------------------ *)

(* a — g1 — g2 — b chain with a spy wrapped around every receiving node's
   frame handler, recording each frame reference before handing it to the
   stack.  The netsim delivers frames by reference, so physical equality
   across hops proves the fast path never copied the transit datagram. *)
let test_transit_frame_identity () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:3 eng in
  let na = Netsim.add_node net "a" in
  let n1 = Netsim.add_node net "g1" in
  let n2 = Netsim.add_node net "g2" in
  let nb = Netsim.add_node net "b" in
  ignore (Netsim.add_link net (Netsim.profile "l1") na n1);
  ignore (Netsim.add_link net (Netsim.profile "l2") n1 n2);
  ignore (Netsim.add_link net (Netsim.profile "l3") n2 nb);
  let a = Ip.Stack.create net na in
  let g1 = Ip.Stack.create ~forwarding:true net n1 in
  let g2 = Ip.Stack.create ~forwarding:true net n2 in
  let b = Ip.Stack.create net nb in
  Ip.Stack.configure_iface a 0 ~addr:(Addr.v 10 0 1 1) ~prefix_len:24;
  Ip.Stack.configure_iface g1 0 ~addr:(Addr.v 10 0 1 2) ~prefix_len:24;
  Ip.Stack.configure_iface g1 1 ~addr:(Addr.v 10 0 2 1) ~prefix_len:24;
  Ip.Stack.configure_iface g2 0 ~addr:(Addr.v 10 0 2 2) ~prefix_len:24;
  Ip.Stack.configure_iface g2 1 ~addr:(Addr.v 10 0 3 1) ~prefix_len:24;
  Ip.Stack.configure_iface b 0 ~addr:(Addr.v 10 0 3 2) ~prefix_len:24;
  Ip.Route_table.add (Ip.Stack.table a)
    { Ip.Route_table.prefix = Prefix.default; iface = 0;
      next_hop = Some (Addr.v 10 0 1 2); metric = 1 };
  Ip.Route_table.add (Ip.Stack.table g1)
    { Ip.Route_table.prefix = Prefix.of_string "10.0.3.0/24"; iface = 1;
      next_hop = Some (Addr.v 10 0 2 2); metric = 1 };
  let hops = ref [] in
  let spy stack node =
    Netsim.set_handler net node (fun ~iface frame ->
        hops := frame :: !hops;
        Ip.Stack.receive stack ~iface frame)
  in
  spy g1 n1;
  spy g2 n2;
  spy b nb;
  let got = register_sink b in
  let payload = Bytes.of_string "patched in place, never copied" in
  (match
     Ip.Stack.send a ~proto:(Ipv4.Proto.Other 99) ~dst:(Addr.v 10 0 3 2)
       payload
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send failed");
  (* Every hop's frame must stay wire-valid the instant it arrives. *)
  let seen_ttls = ref [] in
  let observe () =
    List.iter
      (fun frame ->
        match Ipv4.decode frame with
        | Ok (h, _) ->
            if not (List.mem h.Ipv4.ttl !seen_ttls) then
              seen_ttls := h.Ipv4.ttl :: !seen_ttls
        | Error e -> Alcotest.failf "hop frame invalid: %a" Ipv4.pp_error e)
      !hops
  in
  while Engine.step eng do observe () done;
  (match !got with
  | [ (h, p) ] ->
      check Alcotest.bool "payload intact" true (Bytes.equal p payload);
      check Alcotest.int "ttl decremented twice" 62 h.Ipv4.ttl
  | l -> Alcotest.failf "expected 1 datagram, got %d" (List.length l));
  (match !hops with
  | [ f3; f2; f1 ] ->
      check Alcotest.bool "g1->g2 same frame" true (f1 == f2);
      check Alcotest.bool "g2->b same frame" true (f2 == f3)
  | l -> Alcotest.failf "expected 3 hop frames, got %d" (List.length l));
  List.iter
    (fun ttl ->
      check Alcotest.bool "hop ttl in 64..62" true (ttl <= 64 && ttl >= 62))
    !seen_ttls

(* Disabled tracing costs a datagram nothing, and forwarding costs it
   nothing more: on a warmed a — g1 — g2 — b chain, every event after
   the origin send (three transmissions done, three deliveries, two
   gateway receives with their route lookups and transmits) allocates 0
   words, and [Ip.Stack.send] allocates exactly its frame.  b's handler
   only counts, so host delivery is not measured. *)
let test_datagram_path_allocates_nothing () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:3 eng in
  let na = Netsim.add_node net "a" in
  let n1 = Netsim.add_node net "g1" in
  let n2 = Netsim.add_node net "g2" in
  let nb = Netsim.add_node net "b" in
  ignore (Netsim.add_link net (Netsim.profile "l1") na n1);
  ignore (Netsim.add_link net (Netsim.profile "l2") n1 n2);
  ignore (Netsim.add_link net (Netsim.profile "l3") n2 nb);
  let a = Ip.Stack.create net na in
  let g1 = Ip.Stack.create ~forwarding:true net n1 in
  let g2 = Ip.Stack.create ~forwarding:true net n2 in
  Ip.Stack.configure_iface a 0 ~addr:(Addr.v 10 0 1 1) ~prefix_len:24;
  Ip.Stack.configure_iface g1 0 ~addr:(Addr.v 10 0 1 2) ~prefix_len:24;
  Ip.Stack.configure_iface g1 1 ~addr:(Addr.v 10 0 2 1) ~prefix_len:24;
  Ip.Stack.configure_iface g2 0 ~addr:(Addr.v 10 0 2 2) ~prefix_len:24;
  Ip.Stack.configure_iface g2 1 ~addr:(Addr.v 10 0 3 1) ~prefix_len:24;
  Ip.Route_table.add (Ip.Stack.table a)
    { Ip.Route_table.prefix = Prefix.default; iface = 0;
      next_hop = Some (Addr.v 10 0 1 2); metric = 1 };
  Ip.Route_table.add (Ip.Stack.table g1)
    { Ip.Route_table.prefix = Prefix.of_string "10.0.3.0/24"; iface = 1;
      next_hop = Some (Addr.v 10 0 2 2); metric = 1 };
  let b = Ip.Stack.create net nb in
  Ip.Stack.configure_iface b 0 ~addr:(Addr.v 10 0 3 2) ~prefix_len:24;
  let delivered = ref 0 in
  Ip.Stack.register_proto_frame b (Ipv4.Proto.Other 99) (fun _ ->
      incr delivered);
  let payload = Bytes.make 64 'z' in
  let dst = Addr.v 10 0 3 2 and proto = Ipv4.Proto.Other 99 in
  let send () =
    match Ip.Stack.send a ~proto ~dst payload with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "send failed"
  in
  (* Warm-up: grows netsim's frame slab. *)
  for _ = 1 to 4 do send () done;
  Engine.run eng;
  (* A [bytes] of n bytes is n / 8 + 1 words plus its header. *)
  let frame_words = ((Ipv4.header_size + Bytes.length payload) / 8) + 2 in
  for _ = 1 to 8 do
    let w0 = Gc.minor_words () in
    send ();
    let w1 = Gc.minor_words () in
    while Engine.step eng do () done;
    let w2 = Gc.minor_words () in
    check Alcotest.int "send: the frame" frame_words
      (int_of_float (w1 -. w0));
    check Alcotest.int "forwarding and delivery" 0 (int_of_float (w2 -. w1))
  done;
  check Alcotest.int "all delivered" 12 !delivered;
  check Alcotest.int "g2 forwarded" 12 (Ip.Stack.counters g2).forwarded;
  check Alcotest.int "b delivered" 12 (Ip.Stack.counters b).delivered

let test_forwarding_sees_table_changes () =
  (* Forward through the gateway, then yank the route: the next datagram
     must get net-unreachable, not a stale forward. *)
  let t = triple () in
  let got = register_sink t.b in
  ignore
    (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:t.b_addr
       (Bytes.of_string "first through"));
  Engine.run t.eng;
  check Alcotest.int "first delivered" 1 (List.length !got);
  let errors = ref [] in
  Ip.Stack.add_error_handler t.a (fun ~from:_ msg -> errors := msg :: !errors);
  Ip.Route_table.remove (Ip.Stack.table t.g) (Prefix.of_string "10.0.2.0/24");
  ignore
    (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:t.b_addr
       (Bytes.of_string "route is gone now"));
  Engine.run t.eng;
  check Alcotest.int "no further delivery" 1 (List.length !got);
  match !errors with
  | [ Icmpw.Dest_unreachable { code = Icmpw.Net_unreachable; _ } ] -> ()
  | l -> Alcotest.failf "expected net-unreachable, got %d msgs" (List.length l)

let test_stack_footprint () =
  (* A stack is its table plus a few records: it keeps nothing sized
     for traffic it has not seen, so what it adds to a node grows with
     its routes alone.  The netsim reaches the stack through the node's
     frame handler. *)
  let eng = Engine.create () in
  let net = Netsim.create ~seed:3 eng in
  let na = Netsim.add_node net "a" in
  let ng = Netsim.add_node net "g" in
  ignore (Netsim.add_link net (Netsim.profile "l") na ng);
  let words () = Obj.reachable_words (Obj.repr net) in
  let w0 = words () in
  let g = Ip.Stack.create ~forwarding:true net ng in
  Ip.Stack.configure_iface g 0 ~addr:(Addr.v 10 0 1 2) ~prefix_len:24;
  let w1 = words () in
  check Alcotest.bool
    (Printf.sprintf "a configured stack adds %d words" (w1 - w0))
    true
    (w1 - w0 < 1024);
  let routes = 256 in
  for i = 0 to routes - 1 do
    Ip.Route_table.add (Ip.Stack.table g)
      { Ip.Route_table.prefix = Prefix.make (Addr.v 172 16 i 0) 24; iface = 0;
        next_hop = Some (Addr.v 10 0 1 1); metric = 1 }
  done;
  let per_route = (words () - w1) / routes in
  check Alcotest.bool
    (Printf.sprintf "%d words per route" per_route)
    true (per_route <= 48);
  (* Nor does forwarding to ever more distinct destinations grow it. *)
  let t = triple () in
  Ip.Route_table.add (Ip.Stack.table t.g)
    { Ip.Route_table.prefix = Prefix.default; iface = 1;
      next_hop = Some t.b_addr; metric = 1 };
  let distinct n base =
    for i = 0 to n - 1 do
      ignore
        (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99)
           ~dst:(Addr.v 172 ((base + (i / 250)) land 0xff) ((i mod 250) + 1) 9)
           (Bytes.of_string "x"));
      Engine.run t.eng
    done
  in
  distinct 1000 0;
  let w0 = Obj.reachable_words (Obj.repr t.g) in
  distinct 1000 64;
  let grown = Obj.reachable_words (Obj.repr t.g) - w0 in
  check Alcotest.bool
    (Printf.sprintf "1000 more destinations add %d words" grown)
    true (grown < 256);
  check Alcotest.int "all forwarded" 2000 (Ip.Stack.counters t.g).forwarded

let test_slow_path_still_forwards () =
  (* The legacy decode/re-encode path stays behind the flag for the E13
     comparison; it must keep working end to end. *)
  let t = triple () in
  List.iter (fun s -> Ip.Stack.set_fast_path s false) [ t.a; t.g; t.b ];
  check Alcotest.bool "flag off" false (Ip.Stack.fast_path t.g);
  let got = register_sink t.b in
  ignore
    (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:t.b_addr
       (Bytes.of_string "the long way round"));
  Engine.run t.eng;
  match !got with
  | [ (h, p) ] ->
      check Alcotest.string "payload" "the long way round" (Bytes.to_string p);
      check Alcotest.int "ttl decremented" 63 h.Ipv4.ttl
  | l -> Alcotest.failf "expected 1 datagram, got %d" (List.length l)

let test_loopback_src_defaults_to_primary () =
  (* A multihomed node sending to one of its own addresses: the defaulted
     source must be the node's primary address, not a copy of the
     destination. *)
  let t = triple () in
  let got = register_sink t.g in
  let g_right = Addr.v 10 0 2 1 in
  ignore (Ip.Stack.send t.g ~proto:(Ipv4.Proto.Other 99) ~dst:g_right Bytes.empty);
  Engine.run t.eng;
  match !got with
  | [ (h, _) ] ->
      check Alcotest.string "src is primary" (Addr.to_string t.g_left)
        (Addr.to_string h.Ipv4.src);
      check Alcotest.string "dst preserved" (Addr.to_string g_right)
        (Addr.to_string h.Ipv4.dst)
  | l -> Alcotest.failf "expected 1 datagram, got %d" (List.length l)

(* --- Fragmentation -------------------------------------------------------- *)

let test_fragmentation_across_small_mtu () =
  (* Left MTU 1500, right MTU 576: the gateway must fragment; B must
     reassemble the full payload. *)
  let t =
    triple
      ~left:(Netsim.profile "l" ~mtu:1500)
      ~right:(Netsim.profile "r" ~mtu:576)
      ()
  in
  let got = register_sink t.b in
  let payload = Bytes.init 1400 (fun i -> Char.chr (i land 0xff)) in
  ignore (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:t.b_addr payload);
  Engine.run t.eng;
  (match !got with
  | [ (_, p) ] ->
      check Alcotest.int "length preserved" 1400 (Bytes.length p);
      check Alcotest.bool "content preserved" true (Bytes.equal p payload)
  | l -> Alcotest.failf "expected 1 reassembled datagram, got %d" (List.length l));
  check Alcotest.bool "gateway fragmented" true
    ((Ip.Stack.counters t.g).Ip.Stack.fragments_made >= 3)

let test_source_fragmentation () =
  (* Sender's own link has the small MTU: the origin fragments. *)
  let t = triple ~left:(Netsim.profile "l" ~mtu:300) () in
  let got = register_sink t.b in
  let payload = Bytes.init 1000 (fun i -> Char.chr (i * 7 land 0xff)) in
  ignore (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:t.b_addr payload);
  Engine.run t.eng;
  (match !got with
  | [ (_, p) ] -> check Alcotest.bool "reassembled" true (Bytes.equal p payload)
  | l -> Alcotest.failf "expected 1, got %d" (List.length l));
  check Alcotest.bool "origin fragmented" true
    ((Ip.Stack.counters t.a).Ip.Stack.fragments_made >= 4)

let test_df_generates_frag_needed () =
  let t = triple ~right:(Netsim.profile "r" ~mtu:576) () in
  let errors = ref [] in
  Ip.Stack.add_error_handler t.a (fun ~from:_ msg -> errors := msg :: !errors);
  ignore
    (Ip.Stack.send t.a ~dont_fragment:true ~proto:(Ipv4.Proto.Other 99)
       ~dst:t.b_addr (Bytes.make 1400 'x'));
  Engine.run t.eng;
  match !errors with
  | [ Icmpw.Dest_unreachable { code = Icmpw.Fragmentation_needed; _ } ] -> ()
  | l -> Alcotest.failf "expected fragmentation-needed, got %d" (List.length l)

let test_oversized_fragments_dropped () =
  (* RFC 791 caps a datagram at 65,535 bytes.  A fragment that would end
     past the cap is malformed: counted and dropped before reassembly,
     while a datagram of exactly the cap still reassembles. *)
  let t = triple () in
  let got = register_sink t.b in
  let piece ~id off n ~mf =
    let h =
      Ipv4.make_header ~id ~more_fragments:mf ~frag_offset:off
        ~proto:(Ipv4.Proto.Other 99) ~src:t.a_addr ~dst:t.b_addr ()
    in
    Ip.Stack.receive t.b ~iface:0 (Ipv4.encode h ~payload:(Bytes.make n 'f'))
  in
  let malformed () = (Ip.Stack.counters t.b).Ip.Stack.dropped_malformed in
  (* 65,515 payload bytes: 44 pieces of 1480, then 395. *)
  for k = 0 to 43 do piece ~id:1 (k * 1480) 1480 ~mf:true done;
  piece ~id:1 65120 395 ~mf:false;
  check (Alcotest.list Alcotest.int) "a datagram at the cap reassembles"
    [ 65515 ] (List.map (fun (_, p) -> Bytes.length p) !got);
  check Alcotest.int "nothing malformed" 0 (malformed ());
  (* 67,008 payload bytes: the piece at 65,120 and the last one, at the
     largest offset the field holds, each end past the cap. *)
  for k = 0 to 44 do piece ~id:2 (k * 1480) 1480 ~mf:true done;
  piece ~id:2 65528 1480 ~mf:false;
  check Alcotest.int "nothing more delivered" 1 (List.length !got);
  check Alcotest.int "both counted malformed" 2 (malformed ());
  check Alcotest.int "the rest still waits" 1 (Ip.Stack.reassembly_pending t.b)

let test_oversized_send_refused () =
  (* The length field caps a datagram at 65,535 bytes on every road out:
     routed (where fragment offsets would overflow their 13 bits) and
     looped back. *)
  let t = triple () in
  let got = register_sink t.a in
  let send dst n =
    Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst (Bytes.make n 'o')
  in
  let refused = function Error `Too_big -> true | Ok () | Error _ -> false in
  check Alcotest.bool "routed" true (refused (send t.b_addr 70_000));
  check Alcotest.bool "looped back" true (refused (send t.a_addr 70_000));
  check Alcotest.bool "at the cap" true (send t.a_addr 65_515 = Ok ());
  Engine.run t.eng;
  check (Alcotest.list Alcotest.int) "only the datagram at the cap arrives"
    [ 65_515 ] (List.map (fun (_, p) -> Bytes.length p) !got)

let test_reassembly_timeout_counts () =
  (* Drop one fragment by cutting the link mid-stream, then check the
     reassembly buffer at B expires. *)
  let eng = Engine.create () in
  let reasm = Ip.Reassembly.create ~timeout_us:1_000_000 eng in
  let h =
    Ipv4.make_header ~id:5 ~more_fragments:true ~proto:(Ipv4.Proto.Other 99)
      ~src:(Addr.v 1 1 1 1) ~dst:(Addr.v 2 2 2 2) ()
  in
  (match
     Ip.Reassembly.push reasm (Ipv4.encode h ~payload:(Bytes.make 8 'a'))
   with
  | Ip.Reassembly.Incomplete -> ()
  | Ip.Reassembly.Complete _ -> Alcotest.fail "should be incomplete");
  check Alcotest.int "pending" 1 (Ip.Reassembly.pending reasm);
  Engine.run eng;
  check Alcotest.int "expired" 1 (Ip.Reassembly.expired reasm);
  check Alcotest.int "none pending" 0 (Ip.Reassembly.pending reasm)

let test_reassembly_out_of_order_and_overlap () =
  let eng = Engine.create () in
  let reasm = Ip.Reassembly.create eng in
  let mk ~off ~mf payload =
    Ipv4.encode
      (Ipv4.make_header ~id:9 ~more_fragments:mf ~frag_offset:off
         ~proto:(Ipv4.Proto.Other 99) ~src:(Addr.v 1 1 1 1)
         ~dst:(Addr.v 2 2 2 2) ())
      ~payload:(Bytes.of_string payload)
  in
  (* Total message: 24 bytes in three 8-byte fragments, delivered 2,0,1
     with fragment 1 duplicated. *)
  let f2 = mk ~off:16 ~mf:false "CCCCCCCC" in
  let f0 = mk ~off:0 ~mf:true "AAAAAAAA" in
  let f1 = mk ~off:8 ~mf:true "BBBBBBBB" in
  (match Ip.Reassembly.push reasm f2 with
  | Ip.Reassembly.Incomplete -> ()
  | _ -> Alcotest.fail "incomplete expected");
  (match Ip.Reassembly.push reasm f0 with
  | Ip.Reassembly.Incomplete -> ()
  | _ -> Alcotest.fail "incomplete expected");
  (match Ip.Reassembly.push reasm f1 with
  | Ip.Reassembly.Complete whole ->
      check Alcotest.bool "one valid frame" true (Ipv4.valid whole);
      check Alcotest.bool "unfragmented" false
        (Ipv4.peek_more_fragments whole || Ipv4.peek_frag_offset whole <> 0);
      check Alcotest.string "assembled" "AAAAAAAABBBBBBBBCCCCCCCC"
        (Bytes.to_string (Ipv4.payload_of whole))
  | Ip.Reassembly.Incomplete -> Alcotest.fail "should complete");
  (* A duplicate fragment after completion starts a new buffer. *)
  match Ip.Reassembly.push reasm f1 with
  | Ip.Reassembly.Incomplete -> ()
  | _ -> Alcotest.fail "fresh buffer expected"

let prop_fragment_reassemble_identity =
  QCheck.Test.make ~name:"fragment then reassemble is the identity" ~count:100
    QCheck.(pair (256 -- 4000) (1 -- 100))
    (fun (size, seed) ->
      let eng = Engine.create () in
      let reasm = Ip.Reassembly.create eng in
      let payload = Bytes.init size (fun i -> Char.chr ((i * seed) land 0xff)) in
      let mtu = 256 + (seed mod 200) in
      let max_data = (mtu - 20) / 8 * 8 in
      (* Cut manually the way the stack does. *)
      let rec frags off acc =
        if off >= size then List.rev acc
        else begin
          let n = min max_data (size - off) in
          let mf = off + n < size in
          let h =
            Ipv4.make_header ~id:3 ~more_fragments:mf ~frag_offset:off
              ~proto:(Ipv4.Proto.Other 99) ~src:(Addr.v 1 1 1 1)
              ~dst:(Addr.v 2 2 2 2) ()
          in
          frags (off + n)
            (Ipv4.encode h ~payload:(Bytes.sub payload off n) :: acc)
        end
      in
      let pieces = Array.of_list (frags 0 []) in
      (* Shuffle deterministically. *)
      let rng = Stdext.Rng.create seed in
      Stdext.Rng.shuffle rng pieces;
      let result = ref None in
      Array.iter
        (fun frag ->
          match Ip.Reassembly.push reasm frag with
          | Ip.Reassembly.Complete whole ->
              result := Some (Ipv4.payload_of whole)
          | Ip.Reassembly.Incomplete -> ())
        pieces;
      match !result with
      | Some data -> Bytes.equal data payload
      | None -> false)

(* --- Accounting ------------------------------------------------------------ *)

let test_accounting_ledger () =
  let t = triple () in
  let acc = Ip.Stack.enable_accounting t.g in
  ignore (register_sink t.b);
  for _ = 1 to 5 do
    ignore
      (Ip.Stack.send t.a ~proto:(Ipv4.Proto.Other 99) ~dst:t.b_addr
         (Bytes.make 100 'x'))
  done;
  Engine.run t.eng;
  let flows = Ip.Accounting.flows acc in
  check Alcotest.int "one flow" 1 (List.length flows);
  let _, usage = List.hd flows in
  check Alcotest.int "packets" 5 usage.Ip.Accounting.packets;
  check Alcotest.int "bytes include headers" (5 * 120) usage.Ip.Accounting.bytes;
  let total = Ip.Accounting.total acc in
  check Alcotest.int "total packets" 5 total.Ip.Accounting.packets

let test_accounting_separates_flows () =
  let t = triple () in
  let acc = Ip.Stack.enable_accounting t.g in
  ignore (register_sink t.b);
  (* Two distinct UDP flows by port. *)
  let udp_a = Udp.create t.a in
  let udp_b = Udp.create t.b in
  ignore (Udp.bind udp_b ~port:1000 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ());
  ignore (Udp.bind udp_b ~port:2000 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ());
  let s1 = Udp.bind udp_a ~port:5001 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  let s2 = Udp.bind udp_a ~port:5002 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  ignore (Udp.sendto s1 ~dst:t.b_addr ~dst_port:1000 (Bytes.make 10 'a'));
  ignore (Udp.sendto s2 ~dst:t.b_addr ~dst_port:2000 (Bytes.make 10 'b'));
  ignore (Udp.sendto s1 ~dst:t.b_addr ~dst_port:1000 (Bytes.make 10 'c'));
  Engine.run t.eng;
  let flows = Ip.Accounting.flows acc in
  check Alcotest.int "two flows" 2 (List.length flows);
  let f1, u1 = List.hd flows in
  check Alcotest.int "heavier flow has 2 packets" 2 u1.Ip.Accounting.packets;
  check Alcotest.int "ports recovered" 1000 f1.Ip.Accounting.dst_port

let () =
  Alcotest.run "ip"
    [
      ( "route-table",
        [
          Alcotest.test_case "lpm longer wins" `Quick test_lpm_prefers_longer;
          Alcotest.test_case "metric tiebreak" `Quick test_lpm_metric_tiebreak;
          Alcotest.test_case "default route" `Quick test_default_route;
          Alcotest.test_case "replace" `Quick test_add_replaces_same_prefix;
          Alcotest.test_case "remove" `Quick test_remove;
          qcheck prop_lpm_matches_bruteforce;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "across gateway" `Quick test_forward_across_gateway;
          Alcotest.test_case "loopback" `Quick test_local_delivery_loopback;
          Alcotest.test_case "no route" `Quick test_no_route_error;
          Alcotest.test_case "unroutable dropped" `Quick test_host_does_not_forward;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry_generates_icmp;
          Alcotest.test_case "net unreachable" `Quick test_net_unreachable_icmp;
          Alcotest.test_case "protocol unreachable" `Quick test_protocol_unreachable;
          Alcotest.test_case "ping" `Quick test_ping_echo;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "transit frame identity" `Quick
            test_transit_frame_identity;
          Alcotest.test_case "datagram path allocates nothing" `Quick
            test_datagram_path_allocates_nothing;
          Alcotest.test_case "forwarding sees table changes" `Quick
            test_forwarding_sees_table_changes;
          Alcotest.test_case "stack footprint" `Quick test_stack_footprint;
          Alcotest.test_case "slow path still forwards" `Quick
            test_slow_path_still_forwards;
          Alcotest.test_case "loopback src" `Quick
            test_loopback_src_defaults_to_primary;
        ] );
      ( "fragmentation",
        [
          Alcotest.test_case "gateway fragments" `Quick
            test_fragmentation_across_small_mtu;
          Alcotest.test_case "source fragments" `Quick test_source_fragmentation;
          Alcotest.test_case "DF refused" `Quick test_df_generates_frag_needed;
          Alcotest.test_case "timeout" `Quick test_reassembly_timeout_counts;
          Alcotest.test_case "oversized fragments dropped" `Quick
            test_oversized_fragments_dropped;
          Alcotest.test_case "oversized send refused" `Quick
            test_oversized_send_refused;
          Alcotest.test_case "out of order + dup" `Quick
            test_reassembly_out_of_order_and_overlap;
          qcheck prop_fragment_reassemble_identity;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "ledger" `Quick test_accounting_ledger;
          Alcotest.test_case "flow separation" `Quick test_accounting_separates_flows;
        ] );
    ]
