(* E12 — Micro-costs of the mechanism (supporting data for E6).

   Bechamel microbenchmarks of the per-packet work a host or gateway
   performs: checksums, a payload copy, header encode/decode, routing
   lookups, event-queue operations.  These are the constants behind every
   experiment above. *)

open Catenet
open Bechamel
open Toolkit

module Addr = Packet.Addr

let payload_1460 = Bytes.make 1460 'x'

let ip_header =
  Packet.Ipv4.make_header ~proto:Packet.Ipv4.Proto.Tcp ~src:(Addr.v 10 0 0 1)
    ~dst:(Addr.v 10 0 0 2) ()

let encoded_ip = Packet.Ipv4.encode ip_header ~payload:payload_1460

let tcp_seg =
  Packet.Tcp_wire.make ~seq:12345 ~ack_n:54321
    ~flags:(Packet.Tcp_wire.flags ~ack:true ())
    ~window:65535 ~payload:payload_1460 ~src_port:1000 ~dst_port:2000 ()

let encoded_tcp =
  Packet.Tcp_wire.encode ~src:(Addr.v 10 0 0 1) ~dst:(Addr.v 10 0 0 2) tcp_seg

(* A populated routing table: 128 /24s plus a default. *)
let big_table =
  let t = Ip.Route_table.create () in
  for i = 0 to 127 do
    Ip.Route_table.add t
      {
        Ip.Route_table.prefix = Addr.Prefix.make (Addr.v 10 (i / 8) (i mod 8 * 32) 0) 24;
        iface = i mod 4;
        next_hop = None;
        metric = 1;
      }
  done;
  Ip.Route_table.add t
    {
      Ip.Route_table.prefix = Addr.Prefix.default;
      iface = 0;
      next_hop = None;
      metric = 1;
    };
  t

(* Engine.after + Engine.step with [depth] far-future entries standing
   in the queue, each re-arming a second later when it fires, as
   client timeouts do; 2, 1200 and 20 000 are the standing depths of
   perf/'s fwd_chain, tcp_bulk and names_storm. *)
let engine_after_step depth =
  let eng = Engine.create () in
  let rec stand () = Engine.after eng 1_000_000 stand in
  for i = 1 to depth do
    Engine.after eng (i * 1_000_000 / depth) stand
  done;
  let ran = ref false in
  let mark () = ran := true in
  Test.make ~name:(Printf.sprintf "engine-after-step-%d" depth)
    (Staged.stage (fun () ->
         ran := false;
         Engine.after eng 1 mark;
         while not !ran do
           ignore (Engine.step eng : bool)
         done))

(* A function, so the engines above are built only when E12 runs. *)
let tests () =
  [
    Test.make ~name:"checksum-20B" (Staged.stage (fun () ->
        Packet.Checksum.of_bytes encoded_ip ~pos:0 ~len:Packet.Ipv4.header_size));
    Test.make ~name:"checksum-1460B" (Staged.stage (fun () ->
        Packet.Checksum.of_bytes payload_1460 ~pos:0 ~len:1460));
    (* One of a data segment's three payload copies (send buffer, frame,
       application), beside the two sums. *)
    Test.make ~name:"copy-1460B" (Staged.stage (let dst = Bytes.create 1460 in
        fun () -> Bytes.blit payload_1460 0 dst 0 1460));
    Test.make ~name:"ipv4-encode-1460B" (Staged.stage (fun () ->
        Packet.Ipv4.encode ip_header ~payload:payload_1460));
    Test.make ~name:"ipv4-decode-1460B" (Staged.stage (fun () ->
        Packet.Ipv4.decode encoded_ip));
    Test.make ~name:"tcp-encode-1460B" (Staged.stage (fun () ->
        Packet.Tcp_wire.encode ~src:(Addr.v 10 0 0 1) ~dst:(Addr.v 10 0 0 2)
          tcp_seg));
    Test.make ~name:"tcp-decode-1460B" (Staged.stage (fun () ->
        Packet.Tcp_wire.decode ~src:(Addr.v 10 0 0 1) ~dst:(Addr.v 10 0 0 2)
          encoded_tcp));
    Test.make ~name:"lpm-lookup-129-routes" (Staged.stage (fun () ->
        Ip.Route_table.lookup big_table (Addr.v 10 3 77 9)));
    Test.make ~name:"heap-push-pop-64" (Staged.stage (fun () ->
        let h = Stdext.Heap.create () in
        for i = 0 to 63 do
          Stdext.Heap.push h ~key:(i * 37 mod 64) ~seq:i i
        done;
        let rec drain () = match Stdext.Heap.pop h with Some _ -> drain () | None -> () in
        drain ()));
    engine_after_step 2;
    engine_after_step 1200;
    engine_after_step 20_000;
    Test.make ~name:"rng-bits64" (Staged.stage (let r = Stdext.Rng.create 1 in
        fun () -> Stdext.Rng.bits64 r));
  ]

let run () =
  Util.banner "E12" "Micro-costs of the wire formats and core structures"
    "the per-packet constants behind the architecture's cost story (E6)";
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let analyzed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name ols_result acc ->
            match Analyze.OLS.estimates ols_result with
            | Some [ ns ] ->
                [ name; Printf.sprintf "%.1f" ns ] :: acc
            | Some _ | None -> [ name; "-" ] :: acc)
          analyzed []
        |> List.concat)
      (tests ())
  in
  Util.table [ "operation"; "ns/run" ] rows;
  Util.note
    "a 1460-byte sum costs a few copies of the same bytes and under half \
     of a TCP encode or decode: checksums no longer dominate a segment's \
     per-packet work, though a data segment still pays two sums and three \
     copies of its payload"
