(* Tests for the UDP transport: sockets, demux, ephemeral ports, checksums
   on the wire, port-unreachable generation. *)

let check = Alcotest.check

module Addr = Packet.Addr
module Prefix = Packet.Addr.Prefix
module Icmpw = Packet.Icmp_wire

(* Two hosts A and B joined by one link, each with a UDP instance. *)
type world = {
  eng : Engine.t;
  a : Udp.t;
  b : Udp.t;
  a_addr : Addr.t;
  b_addr : Addr.t;
  a_ip : Ip.Stack.t;
  b_ip : Ip.Stack.t;
}

let world ?(profile = Netsim.profile "link") () =
  let eng = Engine.create () in
  let net = Netsim.create ~seed:5 eng in
  let na = Netsim.add_node net "a" in
  let nb = Netsim.add_node net "b" in
  ignore (Netsim.add_link net profile na nb);
  let a_ip = Ip.Stack.create net na in
  let b_ip = Ip.Stack.create net nb in
  let a_addr = Addr.v 10 0 1 1 and b_addr = Addr.v 10 0 1 2 in
  Ip.Stack.configure_iface a_ip 0 ~addr:a_addr ~prefix_len:24;
  Ip.Stack.configure_iface b_ip 0 ~addr:b_addr ~prefix_len:24;
  { eng; a = Udp.create a_ip; b = Udp.create b_ip; a_addr; b_addr; a_ip; b_ip }

let test_send_receive () =
  let w = world () in
  let got = ref [] in
  ignore
    (Udp.bind w.b ~port:5000
       ~recv:(fun ~src ~src_port payload ->
         got := (src, src_port, Bytes.to_string payload) :: !got)
       ());
  let sock = Udp.bind w.a ~port:6000 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  (match Udp.sendto sock ~dst:w.b_addr ~dst_port:5000 (Bytes.of_string "hi") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "sendto failed");
  Engine.run w.eng;
  match !got with
  | [ (src, 6000, "hi") ] ->
      check Alcotest.string "src addr" (Addr.to_string w.a_addr)
        (Addr.to_string src)
  | l -> Alcotest.failf "expected 1 datagram, got %d" (List.length l)

let test_reply_path () =
  let w = world () in
  let answered = ref false in
  ignore
    (Udp.bind w.b ~port:7
       ~recv:(fun ~src ~src_port payload ->
         (* Echo service: reply to whoever asked. *)
         let sock =
           Udp.bind w.b ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ()
         in
         ignore (Udp.sendto sock ~dst:src ~dst_port:src_port payload))
       ());
  let client =
    Udp.bind w.a
      ~recv:(fun ~src:_ ~src_port:_ payload ->
        answered := Bytes.to_string payload = "echo me")
      ()
  in
  ignore (Udp.sendto client ~dst:w.b_addr ~dst_port:7 (Bytes.of_string "echo me"));
  Engine.run w.eng;
  check Alcotest.bool "round trip" true !answered

let test_port_demux () =
  let w = world () in
  let got1 = ref 0 and got2 = ref 0 in
  ignore (Udp.bind w.b ~port:1001 ~recv:(fun ~src:_ ~src_port:_ _ -> incr got1) ());
  ignore (Udp.bind w.b ~port:1002 ~recv:(fun ~src:_ ~src_port:_ _ -> incr got2) ());
  let s = Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  ignore (Udp.sendto s ~dst:w.b_addr ~dst_port:1001 (Bytes.make 1 'x'));
  ignore (Udp.sendto s ~dst:w.b_addr ~dst_port:1002 (Bytes.make 1 'x'));
  ignore (Udp.sendto s ~dst:w.b_addr ~dst_port:1001 (Bytes.make 1 'x'));
  Engine.run w.eng;
  check Alcotest.int "port 1001" 2 !got1;
  check Alcotest.int "port 1002" 1 !got2

let test_ephemeral_ports_distinct () =
  let w = world () in
  let s1 = Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  let s2 = Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  check Alcotest.bool "distinct" true (Udp.port s1 <> Udp.port s2);
  check Alcotest.bool "in ephemeral range" true
    (Udp.port s1 >= 49152 && Udp.port s1 <= 65535)

let test_bind_conflict () =
  let w = world () in
  ignore (Udp.bind w.a ~port:9999 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ());
  try
    ignore (Udp.bind w.a ~port:9999 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ());
    Alcotest.fail "expected Bind_error"
  with Udp.Bind_error (Udp.Port_in_use 9999) -> ()

let test_bind_bad_port () =
  let w = world () in
  try
    ignore (Udp.bind w.a ~port:70000 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ());
    Alcotest.fail "expected Bind_error"
  with Udp.Bind_error (Udp.Bad_port 70000) -> ()

(* Regression: with every ephemeral port bound, the allocator's scan used
   to wrap past its starting point without ever meeting its termination
   test and spin forever.  It must instead raise [No_free_ports] — and
   keep handing out ports again once one is released. *)
let test_ephemeral_exhaustion () =
  let w = world () in
  let socks = ref [] in
  for p = 49152 to 65535 do
    socks :=
      Udp.bind w.a ~port:p ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () :: !socks
  done;
  (try
     ignore (Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ());
     Alcotest.fail "expected No_free_ports"
   with Udp.Bind_error Udp.No_free_ports -> ());
  (* Free one port; allocation works again and picks exactly that one. *)
  (match !socks with [] -> assert false | s :: _ -> Udp.close s);
  let s = Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  check Alcotest.int "reuses the freed port" 65535 (Udp.port s)

let test_sendto_closed () =
  let w = world () in
  let s = Udp.bind w.a ~port:4000 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  Udp.close s;
  match Udp.sendto s ~dst:w.b_addr ~dst_port:5000 (Bytes.of_string "x") with
  | Error `Closed -> ()
  | Ok () -> Alcotest.fail "sendto on closed socket succeeded"
  | Error _ -> Alcotest.fail "wrong error for closed socket"

let test_close_releases_port () =
  let w = world () in
  let s = Udp.bind w.a ~port:4242 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  Udp.close s;
  (* Rebinding succeeds after close. *)
  ignore (Udp.bind w.a ~port:4242 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ())

let test_no_port_generates_unreachable () =
  let w = world () in
  let errors = ref [] in
  Ip.Stack.add_error_handler w.a_ip (fun ~from:_ msg -> errors := msg :: !errors);
  let s = Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  ignore (Udp.sendto s ~dst:w.b_addr ~dst_port:1234 (Bytes.make 4 'x'));
  Engine.run w.eng;
  (match !errors with
  | [ Icmpw.Dest_unreachable { code = Icmpw.Port_unreachable; _ } ] -> ()
  | l -> Alcotest.failf "expected port-unreachable, got %d" (List.length l));
  check Alcotest.int "counted" 1 (Udp.stats w.b).Udp.no_port

let test_stats () =
  let w = world () in
  ignore (Udp.bind w.b ~port:1 ~recv:(fun ~src:_ ~src_port:_ _ -> ()) ());
  let s = Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  for _ = 1 to 3 do
    ignore (Udp.sendto s ~dst:w.b_addr ~dst_port:1 (Bytes.make 8 'x'))
  done;
  Engine.run w.eng;
  check Alcotest.int "out" 3 (Udp.stats w.a).Udp.datagrams_out;
  check Alcotest.int "in" 3 (Udp.stats w.b).Udp.datagrams_in

let test_large_datagram_fragments () =
  (* A UDP datagram bigger than the MTU goes through IP fragmentation and
     arrives whole. *)
  let w = world ~profile:(Netsim.profile "small" ~mtu:576) () in
  let got = ref None in
  ignore
    (Udp.bind w.b ~port:9
       ~recv:(fun ~src:_ ~src_port:_ payload -> got := Some payload)
       ());
  let s = Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  let payload = Bytes.init 4000 (fun i -> Char.chr (i land 0xff)) in
  (match Udp.sendto s ~dst:w.b_addr ~dst_port:9 payload with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "sendto failed");
  Engine.run w.eng;
  match !got with
  | Some p -> check Alcotest.bool "intact" true (Bytes.equal p payload)
  | None -> Alcotest.fail "not delivered"

let test_loopback_to_self () =
  let w = world () in
  let got = ref 0 in
  ignore (Udp.bind w.a ~port:5 ~recv:(fun ~src:_ ~src_port:_ _ -> incr got) ());
  let s = Udp.bind w.a ~recv:(fun ~src:_ ~src_port:_ _ -> ()) () in
  ignore (Udp.sendto s ~dst:w.a_addr ~dst_port:5 (Bytes.make 1 'x'));
  Engine.run w.eng;
  check Alcotest.int "self delivery" 1 !got

let test_receive_allocates_payload_only () =
  (* A valid datagram to a bound socket costs its payload copy and
     nothing else: no result box from the check, no option from the
     port lookup. *)
  let w = world () in
  let last = ref Bytes.empty in
  ignore (Udp.bind w.b ~port:5000 ~recv:(fun ~src:_ ~src_port:_ p -> last := p) ());
  let payload = Bytes.make 100 'u' in
  let frame =
    Packet.Ipv4.encode
      (Packet.Ipv4.make_header ~proto:Packet.Ipv4.Proto.Udp ~src:w.a_addr
         ~dst:w.b_addr ())
      ~payload:
        (Packet.Udp_wire.encode ~src:w.a_addr ~dst:w.b_addr
           { Packet.Udp_wire.src_port = 6000; dst_port = 5000; payload })
  in
  Ip.Stack.receive w.b_ip ~iface:0 frame;
  (* A [bytes] of n bytes is n / 8 + 1 words plus its header. *)
  let payload_words = (Bytes.length payload / 8) + 2 in
  for _ = 1 to 4 do
    let w0 = Gc.minor_words () in
    Ip.Stack.receive w.b_ip ~iface:0 frame;
    let w1 = Gc.minor_words () in
    check Alcotest.int "the payload copy" payload_words (int_of_float (w1 -. w0))
  done;
  check Alcotest.bool "delivered" true (Bytes.equal !last payload);
  check Alcotest.int "datagrams in" 5 (Udp.stats w.b).Udp.datagrams_in

let () =
  Alcotest.run "udp"
    [
      ( "sockets",
        [
          Alcotest.test_case "send/receive" `Quick test_send_receive;
          Alcotest.test_case "reply path" `Quick test_reply_path;
          Alcotest.test_case "port demux" `Quick test_port_demux;
          Alcotest.test_case "ephemeral ports" `Quick test_ephemeral_ports_distinct;
          Alcotest.test_case "bind conflict" `Quick test_bind_conflict;
          Alcotest.test_case "bind bad port" `Quick test_bind_bad_port;
          Alcotest.test_case "ephemeral exhaustion" `Quick
            test_ephemeral_exhaustion;
          Alcotest.test_case "sendto closed" `Quick test_sendto_closed;
          Alcotest.test_case "close releases" `Quick test_close_releases_port;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "port unreachable" `Quick
            test_no_port_generates_unreachable;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "fragmented datagram" `Quick
            test_large_datagram_fragments;
          Alcotest.test_case "loopback" `Quick test_loopback_to_self;
          Alcotest.test_case "receive allocates the payload only" `Quick
            test_receive_allocates_payload_only;
        ] );
    ]
