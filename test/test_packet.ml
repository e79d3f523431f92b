(* Tests for wire formats: checksum algebra, addresses/prefixes, IPv4, TCP,
   UDP and ICMP encode/decode with corruption detection. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Checksum = Packet.Checksum
module Addr = Packet.Addr
module Prefix = Packet.Addr.Prefix
module Ipv4 = Packet.Ipv4
module Tcpw = Packet.Tcp_wire
module Udpw = Packet.Udp_wire
module Icmp = Packet.Icmp_wire

let bytes_gen =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:printable (0 -- 200)))

let arb_bytes = QCheck.make ~print:(fun b -> Bytes.to_string b) bytes_gen

(* --- Checksum ------------------------------------------------------------ *)

let test_checksum_rfc1071_example () =
  (* The classic example from RFC 1071 §3: words 0001 f203 f4f5 f6f7. *)
  let b = Bytes.create 8 in
  Bytes.set_uint16_be b 0 0x0001;
  Bytes.set_uint16_be b 2 0xf203;
  Bytes.set_uint16_be b 4 0xf4f5;
  Bytes.set_uint16_be b 6 0xf6f7;
  check Alcotest.int "checksum" (lnot 0xddf2 land 0xffff)
    (Checksum.of_bytes b ~pos:0 ~len:8)

let test_checksum_zero_buffer () =
  let b = Bytes.make 10 '\000' in
  check Alcotest.int "all zero" 0xffff (Checksum.of_bytes b ~pos:0 ~len:10)

let test_checksum_odd_length () =
  (* A trailing odd byte is padded with zero on the right. *)
  let b = Bytes.of_string "\x12\x34\x56" in
  let expected = lnot (0x1234 + 0x5600) land 0xffff in
  check Alcotest.int "odd pad" expected (Checksum.of_bytes b ~pos:0 ~len:3)

let prop_checksum_verifies =
  QCheck.Test.make ~name:"buffer including own checksum sums to 0xFFFF"
    ~count:300 arb_bytes (fun payload ->
      (* Append the checksum (even offset) and verify. *)
      let n = Bytes.length payload in
      let padded = if n mod 2 = 0 then n else n + 1 in
      let buf = Bytes.make (padded + 2) '\000' in
      Bytes.blit payload 0 buf 0 n;
      let c = Checksum.of_bytes buf ~pos:0 ~len:padded in
      Bytes.set_uint16_be buf padded c;
      Checksum.valid buf ~pos:0 ~len:(padded + 2))

let prop_checksum_detects_single_flip =
  QCheck.Test.make ~name:"single-byte corruption detected" ~count:300
    QCheck.(pair arb_bytes small_nat)
    (fun (payload, idx) ->
      let n = Bytes.length payload in
      QCheck.assume (n > 0 && n mod 2 = 0);
      let buf = Bytes.make (n + 2) '\000' in
      Bytes.blit payload 0 buf 0 n;
      Bytes.set_uint16_be buf n (Checksum.of_bytes buf ~pos:0 ~len:n);
      let i = idx mod n in
      Bytes.set_uint8 buf i (Bytes.get_uint8 buf i lxor 0x5a);
      not (Checksum.valid buf ~pos:0 ~len:(n + 2)))

let prop_checksum_chunking =
  QCheck.Test.make ~name:"accumulation is chunk-invariant (even splits)"
    ~count:300
    QCheck.(pair arb_bytes small_nat)
    (fun (b, k) ->
      let n = Bytes.length b in
      QCheck.assume (n >= 4);
      let cut = max 2 (k mod n) in
      let cut = if cut mod 2 = 1 then cut - 1 else cut in
      QCheck.assume (cut > 0 && cut < n);
      let whole = Checksum.of_bytes b ~pos:0 ~len:n in
      let acc = Checksum.add_bytes Checksum.zero b ~pos:0 ~len:cut in
      let split =
        Checksum.finish (Checksum.add_bytes acc b ~pos:cut ~len:(n - cut))
      in
      whole = split)

(* The byte-at-a-time RFC 1071 reference the kernel must equal: big-endian
   16-bit words counted from [pos], a trailing odd byte padded right, the
   carries folded at the end. *)
let ref_sum start b ~pos ~len =
  let s = ref start in
  for i = pos to pos + len - 1 do
    let v = Bytes.get_uint8 b i in
    s := !s + if (i - pos) land 1 = 0 then v lsl 8 else v
  done;
  !s

let rec ref_fold s =
  if s > 0xffff then ref_fold ((s land 0xffff) + (s lsr 16)) else s

let ref_checksum start b ~pos ~len =
  lnot (ref_fold (ref_sum start b ~pos ~len)) land 0xffff

(* The pseudo-header's words, summed by hand. *)
let ref_pseudo ~src ~dst ~proto ~len =
  let src = Addr.to_int src and dst = Addr.to_int dst in
  (src lsr 16) + (src land 0xffff) + (dst lsr 16) + (dst land 0xffff)
  + proto + len

(* Every start offset 0-7 and every length 0-700 over one buffer: each
   alignment of every tail (32-, 8-, 2- and 1-byte) runs, from a zero and
   from a pseudo-header accumulator.  Bytes lean to 0xFF for long carries. *)
let prop_checksum_matches_reference =
  let gen =
    QCheck.Gen.(
      let addr = map2 (fun hi lo -> Addr.of_int ((hi lsl 16) lor lo))
          (int_bound 0xffff) (int_bound 0xffff) in
      let byte = frequency [ (3, char); (1, return '\xff') ] in
      pair (string_size ~gen:byte (return 708))
        (quad addr addr (int_bound 255) (int_bound 0xffff)))
  in
  QCheck.Test.make ~name:"kernel equals the byte-at-a-time reference" ~count:8
    (QCheck.make gen) (fun (data, (src, dst, proto, len)) ->
      let b = Bytes.of_string data in
      let ph = Checksum.pseudo_header ~src ~dst ~proto ~len in
      let ph_ref = ref_pseudo ~src ~dst ~proto ~len in
      let ok = ref true in
      for pos = 0 to 7 do
        for n = 0 to 700 do
          let expect = ref_checksum 0 b ~pos ~len:n in
          if
            Checksum.of_bytes b ~pos ~len:n <> expect
            || Checksum.valid b ~pos ~len:n
               <> (ref_fold (ref_sum 0 b ~pos ~len:n) = 0xffff)
            || Checksum.finish (Checksum.add_bytes ph b ~pos ~len:n)
               <> ref_checksum ph_ref b ~pos ~len:n
          then ok := false
        done
      done;
      !ok)

let test_checksum_1480 () =
  let b = Bytes.init 1480 (fun i -> Char.chr (((i * 7) + (i lsr 8)) land 0xff)) in
  check Alcotest.int "1480 B" (ref_checksum 0 b ~pos:0 ~len:1480)
    (Checksum.of_bytes b ~pos:0 ~len:1480)

let test_checksum_max_carries () =
  (* 32,767 words of 0xFFFF fold to 0xFFFF; the odd 0xFF pads to 0xFF00. *)
  let b = Bytes.make 65_535 '\xff' in
  check Alcotest.int "65,535 x 0xFF" 0x00ff
    (Checksum.of_bytes b ~pos:0 ~len:65_535);
  check Alcotest.int "reference agrees" 0x00ff
    (ref_checksum 0 b ~pos:0 ~len:65_535)

let test_checksum_pseudo_header_start () =
  let src = Addr.v 10 0 0 1 and dst = Addr.v 192 168 7 200 in
  let b = Bytes.init 1480 (fun i -> Char.chr (255 - (i land 0xff))) in
  let ph = Checksum.pseudo_header ~src ~dst ~proto:6 ~len:1480 in
  check Alcotest.int "pseudo-header start"
    (ref_checksum (ref_pseudo ~src ~dst ~proto:6 ~len:1480) b ~pos:0 ~len:1480)
    (Checksum.finish (Checksum.add_bytes ph b ~pos:0 ~len:1480))

let test_checksum_range_check () =
  (* The loads after the one range check are unchecked, so the check must
     refuse every range that leaves the buffer, overflowing sums included. *)
  let b = Bytes.make 64 'x' in
  List.iter
    (fun (pos, len) ->
      match Checksum.add_bytes Checksum.zero b ~pos ~len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "pos %d len %d accepted" pos len)
    [ (-1, 4); (0, -1); (0, 65); (61, 4); (64, 1); (1, max_int); (max_int, 1) ];
  ignore (Checksum.add_bytes Checksum.zero b ~pos:64 ~len:0 : Checksum.acc)

let test_checksum_allocates_nothing () =
  let b = Bytes.make 1480 'z' in
  ignore (Sys.opaque_identity (Checksum.of_bytes b ~pos:0 ~len:1480));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Checksum.of_bytes b ~pos:0 ~len:1480));
  let w1 = Gc.minor_words () in
  check Alcotest.int "minor words" 0 (int_of_float (w1 -. w0))

(* --- Addr ---------------------------------------------------------------- *)

let test_addr_parse_print () =
  check Alcotest.string "roundtrip" "10.1.2.3"
    (Addr.to_string (Addr.of_string "10.1.2.3"));
  check Alcotest.string "zeros" "0.0.0.0" (Addr.to_string Addr.any);
  check Alcotest.string "max" "255.255.255.255"
    (Addr.to_string (Addr.v 255 255 255 255))

let test_addr_invalid () =
  List.iter
    (fun s ->
      match Addr.of_string_opt s with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted %S" s)
    [ "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "1.2.3.x"; ""; "-1.2.3.4" ]

let test_addr_compare_unsigned () =
  (* 200.0.0.0 must compare greater than 100.0.0.0 despite the sign bit. *)
  check Alcotest.bool "unsigned order" true
    (Addr.compare (Addr.v 200 0 0 0) (Addr.v 100 0 0 0) > 0)

let test_prefix_membership () =
  let p = Prefix.of_string "10.1.0.0/16" in
  check Alcotest.bool "inside" true (Prefix.mem (Addr.of_string "10.1.200.3") p);
  check Alcotest.bool "outside" false (Prefix.mem (Addr.of_string "10.2.0.1") p);
  check Alcotest.bool "default matches all" true
    (Prefix.mem (Addr.v 1 2 3 4) Prefix.default);
  let host = Prefix.host (Addr.v 9 9 9 9) in
  check Alcotest.bool "host route self" true (Prefix.mem (Addr.v 9 9 9 9) host);
  check Alcotest.bool "host route other" false
    (Prefix.mem (Addr.v 9 9 9 8) host)

let test_prefix_normalizes_host_bits () =
  let p = Prefix.make (Addr.of_string "10.1.2.3") 16 in
  check Alcotest.string "network" "10.1.0.0" (Addr.to_string (Prefix.network p));
  check Alcotest.string "print" "10.1.0.0/16" (Prefix.to_string p)

let arb_addr =
  QCheck.make
    ~print:(fun a -> Addr.to_string a)
    QCheck.Gen.(map (fun i -> Addr.of_int i) (0 -- 0xFFFFFF))

let prop_addr_string_roundtrip =
  QCheck.Test.make ~name:"addr to_string/of_string roundtrip" ~count:300
    arb_addr (fun a -> Addr.equal a (Addr.of_string (Addr.to_string a)))

let prop_prefix_mem_matches_mask =
  QCheck.Test.make ~name:"prefix membership equals mask arithmetic" ~count:500
    QCheck.(triple arb_addr arb_addr (int_bound 32))
    (fun (a, b, len) ->
      let p = Prefix.make a len in
      let mask = if len = 0 then 0 else (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF in
      let expected = Addr.to_int b land mask = Addr.to_int a land mask in
      Prefix.mem b p = expected)

(* --- IPv4 ---------------------------------------------------------------- *)

let mk_header ?(tos = Ipv4.Tos.Routine) ?(id = 77) ?(ttl = 64) ?(df = false)
    ?(mf = false) ?(off = 0) () =
  Ipv4.make_header ~tos ~id ~dont_fragment:df ~more_fragments:mf
    ~frag_offset:off ~ttl ~proto:Ipv4.Proto.Udp ~src:(Addr.v 10 0 0 1)
    ~dst:(Addr.v 10 0 0 2) ()

let test_ipv4_roundtrip () =
  let h =
    mk_header ~tos:Ipv4.Tos.Low_delay ~id:4242 ~ttl:17 ~mf:true ~off:1480 ()
  in
  let payload = Bytes.of_string "some payload" in
  match Ipv4.decode (Ipv4.encode h ~payload) with
  | Error e -> Alcotest.failf "decode: %a" Ipv4.pp_error e
  | Ok (h', p') ->
      check Alcotest.bool "header equal" true (h = h');
      check Alcotest.string "payload" "some payload" (Bytes.to_string p')

let test_ipv4_checksum_detects_corruption () =
  let buf = Ipv4.encode (mk_header ()) ~payload:(Bytes.make 8 'x') in
  Bytes.set_uint8 buf 8 (Bytes.get_uint8 buf 8 lxor 0xff);
  match Ipv4.decode buf with
  | Error `Bad_checksum -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Ipv4.pp_error e
  | Ok _ -> Alcotest.fail "accepted corrupt header"

let test_ipv4_truncated () =
  match Ipv4.decode (Bytes.make 10 '\000') with
  | Error `Truncated -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Truncated"

let test_ipv4_bad_version () =
  let buf = Ipv4.encode (mk_header ()) ~payload:Bytes.empty in
  Bytes.set_uint8 buf 0 ((6 lsl 4) lor 5);
  (* Fix the checksum so only the version is wrong. *)
  Bytes.set_uint16_be buf 10 0;
  let c = Checksum.of_bytes buf ~pos:0 ~len:20 in
  Bytes.set_uint16_be buf 10 c;
  match Ipv4.decode buf with
  | Error (`Bad_version 6) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Ipv4.pp_error e
  | Ok _ -> Alcotest.fail "accepted v6"

let test_ipv4_rejects_bad_fields () =
  let fails f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "oversize payload" true
    (fails (fun () ->
         Ipv4.encode (mk_header ()) ~payload:(Bytes.make 65530 'x')));
  check Alcotest.bool "odd frag offset" true
    (fails (fun () -> Ipv4.encode (mk_header ~off:7 ()) ~payload:Bytes.empty));
  check Alcotest.bool "ttl range" true
    (fails (fun () -> Ipv4.encode (mk_header ~ttl:300 ()) ~payload:Bytes.empty))

(* The offset travels in 8-byte units in a 13-bit field: 65,528 is the
   largest, and a larger one must not spill into the flag bits. *)
let test_ipv4_frag_offset_bound () =
  check Alcotest.bool "offset 65536 rejected" true
    (try
       ignore (Ipv4.encode (mk_header ~off:65_536 ()) ~payload:Bytes.empty);
       false
     with Invalid_argument _ -> true);
  let frame = Ipv4.encode (mk_header ~off:65_528 ()) ~payload:Bytes.empty in
  check Alcotest.int "offset 65528 read back" 65_528
    (Ipv4.peek_frag_offset frame);
  check Alcotest.bool "MF clear" false (Ipv4.peek_more_fragments frame)

let test_ipv4_tos_coding () =
  List.iter
    (fun tos ->
      check Alcotest.bool "tos roundtrip" true
        (Ipv4.Tos.of_int (Ipv4.Tos.to_int tos) = tos))
    [
      Ipv4.Tos.Routine;
      Ipv4.Tos.Low_delay;
      Ipv4.Tos.High_throughput;
      Ipv4.Tos.High_reliability;
    ]

let test_proto_coding () =
  check Alcotest.int "icmp" 1 (Ipv4.Proto.to_int Ipv4.Proto.Icmp);
  check Alcotest.int "tcp" 6 (Ipv4.Proto.to_int Ipv4.Proto.Tcp);
  check Alcotest.int "udp" 17 (Ipv4.Proto.to_int Ipv4.Proto.Udp);
  check Alcotest.bool "other" true (Ipv4.Proto.of_int 89 = Ipv4.Proto.Other 89)

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 encode/decode roundtrip" ~count:300
    QCheck.(quad (int_bound 0xffff) (int_bound 255) (int_bound 8000) arb_bytes)
    (fun (id, ttl, off8, payload) ->
      let h =
        Ipv4.make_header ~id ~ttl ~frag_offset:(off8 * 8)
          ~more_fragments:(off8 mod 2 = 0) ~proto:Ipv4.Proto.Tcp
          ~src:(Addr.v 1 2 3 4) ~dst:(Addr.v 5 6 7 8) ()
      in
      match Ipv4.decode (Ipv4.encode h ~payload) with
      | Ok (h', p') -> h = h' && Bytes.equal p' payload
      | Error _ -> false)

let prop_ipv4_peek_matches_decode =
  QCheck.Test.make ~name:"peek agrees with decode" ~count:300
    QCheck.(pair (int_bound 255) arb_bytes)
    (fun (ttl, payload) ->
      let h = mk_header ~ttl () in
      let buf = Ipv4.encode h ~payload in
      match (Ipv4.peek buf, Ipv4.decode buf) with
      | Ok ph, Ok (dh, dp) ->
          ph = dh && Bytes.equal (Ipv4.payload_of buf) dp
          && Bytes.equal dp payload
      | _ -> false)

let prop_patch_ttl_matches_recompute =
  (* The gateway fast path patches TTL and checksum in place (RFC 1624);
     the result must be byte-identical to a full re-encode with the
     decremented TTL — checksum included. *)
  QCheck.Test.make ~name:"patch_ttl equals full recompute" ~count:500
    QCheck.(quad (int_bound 0xffff) (int_range 1 255) (int_bound 255) arb_bytes)
    (fun (id, ttl, tos_bits, payload) ->
      let h =
        Ipv4.make_header ~tos:(Ipv4.Tos.of_int tos_bits) ~id ~ttl
          ~proto:Ipv4.Proto.Udp ~src:(Addr.v 10 0 0 1) ~dst:(Addr.v 10 9 8 7)
          ()
      in
      let patched = Ipv4.encode h ~payload in
      Ipv4.patch_ttl patched;
      let reencoded = Ipv4.encode { h with Ipv4.ttl = ttl - 1 } ~payload in
      Bytes.equal patched reencoded
      && Checksum.valid patched ~pos:0 ~len:Ipv4.header_size)

let test_patch_ttl_rejects_zero () =
  let buf = Ipv4.encode (mk_header ~ttl:0 ()) ~payload:Bytes.empty in
  check Alcotest.bool "raises" true
    (match Ipv4.patch_ttl buf with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- TCP wire ------------------------------------------------------------ *)

let src = Addr.v 10 0 0 1
let dst = Addr.v 10 0 0 2

let test_tcp_roundtrip () =
  let seg =
    Tcpw.make ~seq:123456 ~ack_n:654321
      ~flags:(Tcpw.flags ~ack:true ~psh:true ())
      ~window:8192 ~mss:(Some 1460)
      ~payload:(Bytes.of_string "data!") ~src_port:1000 ~dst_port:80 ()
  in
  match Tcpw.decode ~src ~dst (Tcpw.encode ~src ~dst seg) with
  | Error e -> Alcotest.failf "decode: %a" Tcpw.pp_error e
  | Ok seg' ->
      check Alcotest.bool "equal" true
        (seg.Tcpw.seq = seg'.Tcpw.seq
        && seg.Tcpw.ack_n = seg'.Tcpw.ack_n
        && seg.Tcpw.flags = seg'.Tcpw.flags
        && seg.Tcpw.window = seg'.Tcpw.window
        && seg.Tcpw.mss = seg'.Tcpw.mss
        && Bytes.equal seg.Tcpw.payload seg'.Tcpw.payload)

let test_tcp_checksum_covers_addresses () =
  (* A segment carried to the wrong address must fail its checksum: this
     is the pseudo-header protecting against misdelivery. *)
  let seg = Tcpw.make ~src_port:1 ~dst_port:2 () in
  let buf = Tcpw.encode ~src ~dst seg in
  match Tcpw.decode ~src ~dst:(Addr.v 10 0 0 9) buf with
  | Error `Bad_checksum -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Bad_checksum"

let test_tcp_corruption_detected () =
  let seg = Tcpw.make ~payload:(Bytes.make 100 'd') ~src_port:5 ~dst_port:6 () in
  let buf = Tcpw.encode ~src ~dst seg in
  Bytes.set_uint8 buf 50 (Bytes.get_uint8 buf 50 lxor 1);
  match Tcpw.decode ~src ~dst buf with
  | Error `Bad_checksum -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Bad_checksum"

let test_tcp_header_sizes () =
  let seg = Tcpw.make ~src_port:1 ~dst_port:2 () in
  check Alcotest.int "bare header" 20 (Bytes.length (Tcpw.encode ~src ~dst seg));
  let seg' = Tcpw.make ~mss:(Some 536) ~src_port:1 ~dst_port:2 () in
  check Alcotest.int "with MSS option" 24
    (Bytes.length (Tcpw.encode ~src ~dst seg'))

let test_tcp_flags_pp () =
  let s f = Format.asprintf "%a" Tcpw.pp_flags f in
  check Alcotest.string "syn" "S" (s (Tcpw.flags ~syn:true ()));
  check Alcotest.string "synack" "SA" (s (Tcpw.flags ~syn:true ~ack:true ()));
  check Alcotest.string "none" "." (s Tcpw.no_flags)

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp segment roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xffff) arb_bytes)
    (fun (seq_lo, ack_lo, window, payload) ->
      let seq = seq_lo * 65521 land 0xFFFFFFFF in
      let ack_n = ack_lo * 65519 land 0xFFFFFFFF in
      let seg =
        Tcpw.make ~seq ~ack_n
          ~flags:(Tcpw.flags ~ack:(ack_lo mod 2 = 0) ~fin:(seq_lo mod 3 = 0) ())
          ~window ~payload ~src_port:1234 ~dst_port:4321 ()
      in
      match Tcpw.decode ~src ~dst (Tcpw.encode ~src ~dst seg) with
      | Ok s ->
          s.Tcpw.seq = seq && s.Tcpw.ack_n = ack_n && s.Tcpw.window = window
          && Bytes.equal s.Tcpw.payload payload
      | Error _ -> false)

let prop_tcp_encode_into_matches_encode =
  (* The allocation-free emitter must be byte-for-byte the reference
     encoder, including the checksum and the surrounding buffer bytes. *)
  QCheck.Test.make ~name:"tcp encode_into equals encode" ~count:300
    QCheck.(
      quad (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xffff) arb_bytes)
    (fun (seq_lo, ack_lo, window, payload) ->
      let seq = seq_lo * 65521 land 0xFFFFFFFF in
      let ack_n = ack_lo * 65519 land 0xFFFFFFFF in
      let flags = Tcpw.flags ~ack:(ack_lo mod 2 = 0) ~psh:(seq_lo mod 2 = 0) () in
      let mss = if seq_lo mod 5 = 0 then Some 1460 else None in
      let reference =
        Tcpw.encode ~src ~dst
          (Tcpw.make ~seq ~ack_n ~flags ~window ~mss ~payload ~src_port:1234
             ~dst_port:4321 ())
      in
      let pos = 11 (* deliberately unaligned prefix *) in
      let hsize =
        Tcpw.header_bytes ~mss ~wscale:None ~sack_permitted:false ~sack:[]
      in
      let plen = Bytes.length payload in
      let buf = Bytes.make (pos + hsize + plen + 7) '\xee' in
      Bytes.blit payload 0 buf (pos + hsize) plen;
      let total =
        Tcpw.encode_into ~src ~dst ~src_port:1234 ~dst_port:4321 ~seq ~ack_n
          ~flags ~window ~urgent:0 ~mss ~wscale:None ~sack_permitted:false
          ~sack:[] ~payload_len:plen buf ~pos
      in
      total = Bytes.length reference
      && Bytes.equal reference (Bytes.sub buf pos total)
      && (* bytes outside the segment untouched *)
      Bytes.sub buf 0 pos = Bytes.make pos '\xee'
      && Bytes.sub buf (pos + total) 7 = Bytes.make 7 '\xee')

let prop_tcp_syn_options_roundtrip =
  (* SYN option block (MSS + wscale + SACK-permitted): any combination
     survives encode/decode, and the header length is exactly 24 (MSS
     alone) or 32 (full block with NOP padding). *)
  QCheck.Test.make ~name:"tcp syn options roundtrip" ~count:300
    QCheck.(quad (int_range 1 0xFFFF) (int_bound 29) bool arb_bytes)
    (fun (mss_v, ws_raw, sackp, payload) ->
      let mss = Some mss_v in
      let wscale = if ws_raw <= 14 then Some ws_raw else None in
      let seg =
        Tcpw.make ~seq:5 ~flags:(Tcpw.flags ~syn:true ()) ~window:1000 ~mss
          ~wscale ~sack_permitted:sackp ~payload ~src_port:1 ~dst_port:2 ()
      in
      let expected_hsize = if wscale <> None || sackp then 32 else 24 in
      Tcpw.header_size seg = expected_hsize
      &&
      match Tcpw.decode ~src ~dst (Tcpw.encode ~src ~dst seg) with
      | Ok s ->
          s.Tcpw.mss = mss && s.Tcpw.wscale = wscale
          && s.Tcpw.sack_permitted = sackp
          && Bytes.equal s.Tcpw.payload payload
      | Error _ -> false)

let prop_tcp_sack_roundtrip =
  (* SACK blocks survive encode/decode in order, any count up to 4. *)
  QCheck.Test.make ~name:"tcp sack blocks roundtrip" ~count:300
    QCheck.(
      pair
        (list_of_size
           Gen.(1 -- Tcpw.max_sack_blocks)
           (pair (int_bound 0xFFFF) (int_bound 0xFFFF)))
        arb_bytes)
    (fun (raw, payload) ->
      let sack =
        List.map
          (fun (a, b) ->
            (a * 65521 land 0xFFFFFFFF, b * 65519 land 0xFFFFFFFF))
          raw
      in
      let seg =
        Tcpw.make ~seq:9 ~ack_n:4
          ~flags:(Tcpw.flags ~ack:true ())
          ~window:512 ~sack ~payload ~src_port:1 ~dst_port:2 ()
      in
      Tcpw.header_size seg = 24 + (8 * List.length sack)
      &&
      match Tcpw.decode ~src ~dst (Tcpw.encode ~src ~dst seg) with
      | Ok s -> s.Tcpw.sack = sack && Bytes.equal s.Tcpw.payload payload
      | Error _ -> false)

let prop_tcp_encode_into_matches_encode_options =
  (* The allocation-free emitter with option blocks — SYN options on one
     branch, SACK blocks on the other — against the reference encoder. *)
  QCheck.Test.make ~name:"tcp encode_into equals encode (options)" ~count:300
    QCheck.(quad (int_bound 0xFFFF) (int_bound 14) bool arb_bytes)
    (fun (seq_lo, shift, syn_case, payload) ->
      let seq = seq_lo * 65521 land 0xFFFFFFFF in
      let flags, mss, wscale, sackp, sack =
        if syn_case then
          ( Tcpw.flags ~syn:true (),
            Some 1460,
            Some shift,
            shift mod 2 = 0,
            [] )
        else
          ( Tcpw.flags ~ack:true (),
            None,
            None,
            false,
            [
              ((seq + 100) land 0xFFFFFFFF, (seq + 200) land 0xFFFFFFFF);
              ((seq + 400) land 0xFFFFFFFF, (seq + 900) land 0xFFFFFFFF);
            ] )
      in
      let reference =
        Tcpw.encode ~src ~dst
          (Tcpw.make ~seq ~ack_n:77 ~flags ~window:3000 ~mss ~wscale
             ~sack_permitted:sackp ~sack ~payload ~src_port:5 ~dst_port:6 ())
      in
      let pos = 3 in
      let hsize =
        Tcpw.header_bytes ~mss ~wscale ~sack_permitted:sackp ~sack
      in
      let plen = Bytes.length payload in
      let buf = Bytes.make (pos + hsize + plen + 5) '\xc3' in
      Bytes.blit payload 0 buf (pos + hsize) plen;
      let total =
        Tcpw.encode_into ~src ~dst ~src_port:5 ~dst_port:6 ~seq ~ack_n:77
          ~flags ~window:3000 ~urgent:0 ~mss ~wscale ~sack_permitted:sackp
          ~sack ~payload_len:plen buf ~pos
      in
      total = Bytes.length reference
      && Bytes.equal reference (Bytes.sub buf pos total)
      && Bytes.sub buf 0 pos = Bytes.make pos '\xc3'
      && Bytes.sub buf (pos + total) 5 = Bytes.make 5 '\xc3')

let prop_tcp_peek_matches_decode =
  QCheck.Test.make ~name:"tcp peek accessors equal decode" ~count:300
    QCheck.(pair (int_bound 0xFFFF) arb_bytes)
    (fun (seq_lo, payload) ->
      let seq = seq_lo * 65521 land 0xFFFFFFFF in
      let seg =
        Tcpw.make ~seq ~ack_n:(seq_lo lxor 0xABCD)
          ~flags:(Tcpw.flags ~ack:true ~psh:(seq_lo mod 2 = 0) ())
          ~window:(seq_lo land 0xffff) ~payload ~src_port:86 ~dst_port:6502 ()
      in
      let buf = Tcpw.encode ~src ~dst seg in
      let len = Bytes.length buf in
      match
        (Tcpw.peek ~src ~dst buf ~pos:0 ~len, Tcpw.decode ~src ~dst buf)
      with
      | data_offset, Ok d ->
          data_offset = 20
          && Tcpw.peek_src_port buf ~pos:0 = d.Tcpw.src_port
          && Tcpw.peek_dst_port buf ~pos:0 = d.Tcpw.dst_port
          && Tcpw.peek_seq buf ~pos:0 = d.Tcpw.seq
          && Tcpw.peek_ack_n buf ~pos:0 = d.Tcpw.ack_n
          && Tcpw.peek_window buf ~pos:0 = d.Tcpw.window
          && Tcpw.peek_flag_bits buf ~pos:0
             = (if seq_lo mod 2 = 0 then 0x18 else 0x10)
          && (match Tcpw.of_peeked buf ~pos:0 ~len ~data_offset with
             | Ok d' -> d' = d
             | Error _ -> false)
      | _, Error _ -> false)

let prop_tcp_of_peeked_in_place =
  (* A segment read where it lies in a larger frame, with bytes before it
     and link padding after, equals the decode of the segment alone. *)
  QCheck.Test.make ~name:"tcp of_peeked in a frame equals decode of the slice"
    ~count:300
    QCheck.(quad (int_bound 64) (int_bound 3) bool arb_bytes)
    (fun (pos, blocks, syn, payload) ->
      let seg =
        if syn then
          Tcpw.make ~seq:7 ~flags:(Tcpw.flags ~syn:true ()) ~window:900
            ~mss:(Some 1400) ~wscale:(Some blocks) ~sack_permitted:true
            ~payload ~src_port:9 ~dst_port:10 ()
        else
          Tcpw.make ~seq:7 ~ack_n:8
            ~flags:(Tcpw.flags ~ack:true ~psh:true ())
            ~window:900
            ~sack:(List.init blocks (fun i -> (100 * i, (100 * i) + 50)))
            ~payload ~src_port:9 ~dst_port:10 ()
      in
      let wire = Tcpw.encode ~src ~dst seg in
      let len = Bytes.length wire in
      let frame = Bytes.make (pos + len + 5) '\x5a' in
      Bytes.blit wire 0 frame pos len;
      let data_offset = Tcpw.peek ~src ~dst frame ~pos ~len in
      match
        (Tcpw.of_peeked frame ~pos ~len ~data_offset, Tcpw.decode ~src ~dst wire)
      with
      | Ok in_place, Ok sliced -> data_offset > 0 && in_place = sliced
      | _ -> false)

let prop_ipv4_encode_into_matches_encode =
  QCheck.Test.make ~name:"ipv4 encode_into equals encode" ~count:300
    QCheck.(pair (int_bound 0xffff) arb_bytes)
    (fun (id, payload) ->
      let h =
        Ipv4.make_header ~tos:Ipv4.Tos.Low_delay ~id ~ttl:((id mod 255) + 1)
          ~proto:Ipv4.Proto.Tcp ~src:(Addr.v 10 0 0 1) ~dst:(Addr.v 10 9 9 9)
          ()
      in
      let reference = Ipv4.encode h ~payload in
      let frame = Bytes.create (Ipv4.header_size + Bytes.length payload) in
      Bytes.blit payload 0 frame Ipv4.header_size (Bytes.length payload);
      Ipv4.encode_into h frame;
      Bytes.equal reference frame)

(* --- UDP wire ------------------------------------------------------------ *)

let test_udp_roundtrip () =
  let d = { Udpw.src_port = 53; dst_port = 5353; payload = Bytes.of_string "q" } in
  match Udpw.decode ~src ~dst (Udpw.encode ~src ~dst d) with
  | Error e -> Alcotest.failf "decode: %a" Udpw.pp_error e
  | Ok d' ->
      check Alcotest.int "sport" 53 d'.Udpw.src_port;
      check Alcotest.int "dport" 5353 d'.Udpw.dst_port;
      check Alcotest.string "payload" "q" (Bytes.to_string d'.Udpw.payload)

let test_udp_checksum () =
  let d = { Udpw.src_port = 1; dst_port = 2; payload = Bytes.make 33 'u' } in
  let buf = Udpw.encode ~src ~dst d in
  Bytes.set_uint8 buf 20 (Bytes.get_uint8 buf 20 lxor 4);
  (match Udpw.decode ~src ~dst buf with
  | Error `Bad_checksum -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Bad_checksum");
  (* Wrong pseudo-header also rejected. *)
  let good = Udpw.encode ~src ~dst d in
  match Udpw.decode ~src:(Addr.v 9 9 9 9) ~dst good with
  | Error `Bad_checksum -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected pseudo-header failure"

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp datagram roundtrip" ~count:300
    QCheck.(triple (1 -- 0xffff) (1 -- 0xffff) arb_bytes)
    (fun (sp, dp, payload) ->
      let d = { Udpw.src_port = sp; dst_port = dp; payload } in
      match Udpw.decode ~src ~dst (Udpw.encode ~src ~dst d) with
      | Ok d' ->
          d'.Udpw.src_port = sp && d'.Udpw.dst_port = dp
          && Bytes.equal d'.Udpw.payload payload
      | Error _ -> false)

let prop_udp_decode_pos_matches_slice =
  (* A datagram at an offset in a larger frame, intact or with one bit
     flipped anywhere (ports, length, checksum or payload). *)
  QCheck.Test.make ~name:"udp decode ~pos equals decode on the slice"
    ~count:300
    QCheck.(quad (0 -- 40) (1 -- 0xffff) arb_bytes (option (0 -- 0xffff)))
    (fun (pos, sp, payload, flip) ->
      let d = Udpw.encode ~src ~dst { Udpw.src_port = sp; dst_port = 9; payload } in
      (match flip with
      | Some k ->
          let i = k mod Bytes.length d in
          Bytes.set_uint8 d i (Bytes.get_uint8 d i lxor (1 lsl (k mod 8)))
      | None -> ());
      let frame = Bytes.make (pos + Bytes.length d) '\xee' in
      Bytes.blit d 0 frame pos (Bytes.length d);
      Udpw.decode ~pos ~src ~dst frame = Udpw.decode ~src ~dst d)

let prop_udp_encode_into_matches_encode =
  QCheck.Test.make ~name:"udp encode_into equals encode" ~count:300
    QCheck.(triple (1 -- 0xffff) (1 -- 0xffff) arb_bytes)
    (fun (sp, dp, payload) ->
      let reference =
        Udpw.encode ~src ~dst { Udpw.src_port = sp; dst_port = dp; payload }
      in
      let pos = 20 in
      let plen = Bytes.length payload in
      let buf = Bytes.create (pos + Udpw.header_size + plen) in
      Bytes.blit payload 0 buf (pos + Udpw.header_size) plen;
      let total =
        Udpw.encode_into ~src ~dst ~src_port:sp ~dst_port:dp ~payload_len:plen
          buf ~pos
      in
      total = Bytes.length reference
      && Bytes.equal reference (Bytes.sub buf pos total))

(* --- ICMP ---------------------------------------------------------------- *)

let test_icmp_echo_roundtrip () =
  let msg = Icmp.Echo_request { id = 7; seq = 3; payload = Bytes.of_string "ping" } in
  match Icmp.decode (Icmp.encode msg) with
  | Ok (Icmp.Echo_request { id = 7; seq = 3; payload }) ->
      check Alcotest.string "payload" "ping" (Bytes.to_string payload)
  | Ok m -> Alcotest.failf "wrong message: %a" Icmp.pp m
  | Error e -> Alcotest.failf "decode: %a" Icmp.pp_error e

let test_icmp_unreachable_roundtrip () =
  let original = Bytes.make 28 '\001' in
  let msg = Icmp.Dest_unreachable { code = Icmp.Port_unreachable; original } in
  match Icmp.decode (Icmp.encode msg) with
  | Ok (Icmp.Dest_unreachable { code = Icmp.Port_unreachable; original = o }) ->
      check Alcotest.int "original kept" 28 (Bytes.length o)
  | Ok m -> Alcotest.failf "wrong message: %a" Icmp.pp m
  | Error e -> Alcotest.failf "decode: %a" Icmp.pp_error e

let test_icmp_time_exceeded () =
  let msg = Icmp.Time_exceeded { original = Bytes.make 28 'o' } in
  match Icmp.decode (Icmp.encode msg) with
  | Ok (Icmp.Time_exceeded _) -> ()
  | Ok m -> Alcotest.failf "wrong message: %a" Icmp.pp m
  | Error e -> Alcotest.failf "decode: %a" Icmp.pp_error e

let test_icmp_corruption () =
  let buf =
    Icmp.encode (Icmp.Echo_reply { id = 1; seq = 2; payload = Bytes.make 4 'x' })
  in
  Bytes.set_uint8 buf 5 (Bytes.get_uint8 buf 5 lxor 0x80);
  match Icmp.decode buf with
  | Error `Bad_checksum -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Bad_checksum"

let test_icmp_original_clip () =
  let big = Bytes.make 100 'z' in
  check Alcotest.int "clipped to header+8" 28
    (Bytes.length (Icmp.original_of ~ip_header:big));
  let small = Bytes.make 10 'z' in
  check Alcotest.int "small kept whole" 10
    (Bytes.length (Icmp.original_of ~ip_header:small))

let () =
  Alcotest.run "packet"
    [
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071_example;
          Alcotest.test_case "zero buffer" `Quick test_checksum_zero_buffer;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
          qcheck prop_checksum_verifies;
          qcheck prop_checksum_detects_single_flip;
          qcheck prop_checksum_chunking;
          qcheck prop_checksum_matches_reference;
          Alcotest.test_case "1480 bytes" `Quick test_checksum_1480;
          Alcotest.test_case "maximal carries" `Quick test_checksum_max_carries;
          Alcotest.test_case "pseudo-header start" `Quick
            test_checksum_pseudo_header_start;
          Alcotest.test_case "range check" `Quick test_checksum_range_check;
          Alcotest.test_case "allocates nothing" `Quick
            test_checksum_allocates_nothing;
        ] );
      ( "addr",
        [
          Alcotest.test_case "parse/print" `Quick test_addr_parse_print;
          Alcotest.test_case "invalid rejected" `Quick test_addr_invalid;
          Alcotest.test_case "unsigned compare" `Quick test_addr_compare_unsigned;
          Alcotest.test_case "prefix membership" `Quick test_prefix_membership;
          Alcotest.test_case "prefix normalization" `Quick
            test_prefix_normalizes_host_bits;
          qcheck prop_addr_string_roundtrip;
          qcheck prop_prefix_mem_matches_mask;
        ] );
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "corruption" `Quick test_ipv4_checksum_detects_corruption;
          Alcotest.test_case "truncated" `Quick test_ipv4_truncated;
          Alcotest.test_case "bad version" `Quick test_ipv4_bad_version;
          Alcotest.test_case "field validation" `Quick test_ipv4_rejects_bad_fields;
          Alcotest.test_case "frag offset bound" `Quick
            test_ipv4_frag_offset_bound;
          Alcotest.test_case "tos coding" `Quick test_ipv4_tos_coding;
          Alcotest.test_case "proto coding" `Quick test_proto_coding;
          qcheck prop_ipv4_roundtrip;
          qcheck prop_ipv4_peek_matches_decode;
          qcheck prop_ipv4_encode_into_matches_encode;
          qcheck prop_patch_ttl_matches_recompute;
          Alcotest.test_case "patch_ttl rejects ttl=0" `Quick
            test_patch_ttl_rejects_zero;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "pseudo-header" `Quick test_tcp_checksum_covers_addresses;
          Alcotest.test_case "corruption" `Quick test_tcp_corruption_detected;
          Alcotest.test_case "header sizes" `Quick test_tcp_header_sizes;
          Alcotest.test_case "flags pp" `Quick test_tcp_flags_pp;
          qcheck prop_tcp_roundtrip;
          qcheck prop_tcp_encode_into_matches_encode;
          qcheck prop_tcp_syn_options_roundtrip;
          qcheck prop_tcp_sack_roundtrip;
          qcheck prop_tcp_encode_into_matches_encode_options;
          qcheck prop_tcp_peek_matches_decode;
          qcheck prop_tcp_of_peeked_in_place;
        ] );
      ( "udp",
        [
          Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "checksum" `Quick test_udp_checksum;
          qcheck prop_udp_roundtrip;
          qcheck prop_udp_decode_pos_matches_slice;
          qcheck prop_udp_encode_into_matches_encode;
        ] );
      ( "icmp",
        [
          Alcotest.test_case "echo roundtrip" `Quick test_icmp_echo_roundtrip;
          Alcotest.test_case "unreachable roundtrip" `Quick
            test_icmp_unreachable_roundtrip;
          Alcotest.test_case "time exceeded" `Quick test_icmp_time_exceeded;
          Alcotest.test_case "corruption" `Quick test_icmp_corruption;
          Alcotest.test_case "original clip" `Quick test_icmp_original_clip;
        ] );
    ]
