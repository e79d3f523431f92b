(* Golden serialization (replay determinism): the JSON artifacts the
   bench harness diffs across runs must be byte-identical however the
   underlying hash tables were populated.  Metrics sources and keys come
   out sorted; accounting flow lists break byte-count ties on the flow
   identity, never on ledger iteration order. *)

open Catenet
module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Acct = Ip.Accounting
module Metrics = Trace.Metrics
module Json = Trace.Json

let check = Alcotest.check

let golden_metrics =
  {|{
  "alpha": {
    "m_gauge": 0.5000
  },
  "zebra": {
    "a_count": 2,
    "z_count": 1
  }
}|}

let test_metrics () =
  let mk order =
    let m = Metrics.create () in
    List.iter
      (fun (name, items) -> Metrics.register m name (fun () -> items))
      order;
    Json.to_string (Metrics.to_json m)
  in
  let zebra =
    ("zebra", [ ("z_count", Metrics.Int 1); ("a_count", Metrics.Int 2) ])
  and alpha = ("alpha", [ ("m_gauge", Metrics.Float 0.5) ]) in
  let j = mk [ zebra; alpha ] in
  check Alcotest.string "registration order is invisible"
    (mk [ alpha; zebra ]) j;
  check Alcotest.string "golden snapshot" golden_metrics j

let golden_ledger =
  {|{
  "mode": "exact",
  "epoch": 0,
  "flow_count": 3,
  "total_packets": 3,
  "total_bytes": 560,
  "flows": [
    {
      "flow": "10.0.0.5:1002 -> 10.0.0.6:80 udp",
      "packets": 1,
      "bytes": 320
    },
    {
      "flow": "10.0.0.1:1000 -> 10.0.0.2:80 udp",
      "packets": 1,
      "bytes": 120
    },
    {
      "flow": "10.0.0.3:1001 -> 10.0.0.4:80 udp",
      "packets": 1,
      "bytes": 120
    }
  ],
  "history": []
}|}

let record_one t (s, d, sp, dp, len) =
  let h =
    Ipv4.make_header ~proto:Ipv4.Proto.Udp
      ~src:(Addr.of_int s)
      ~dst:(Addr.of_int d)
      ()
  in
  let payload = Bytes.make len '\000' in
  Bytes.set_uint16_be payload 0 sp;
  Bytes.set_uint16_be payload 2 dp;
  Acct.record t ~frame:(Ipv4.encode h ~payload)

let test_accounting () =
  (* The first two flows tie on bytes: only the flow-identity tie-break
     keeps their report order independent of ledger iteration order. *)
  let pkts =
    [ (0x0A000001, 0x0A000002, 1000, 80, 100);
      (0x0A000003, 0x0A000004, 1001, 80, 100);
      (0x0A000005, 0x0A000006, 1002, 80, 300) ]
  in
  let run order =
    let t = Acct.create () in
    List.iter (record_one t) order;
    Json.to_string (Acct.to_json t)
  in
  let j = run pkts in
  check Alcotest.string "insertion order is invisible" (run (List.rev pkts)) j;
  check Alcotest.string "golden ledger" golden_ledger j

let () =
  Alcotest.run "golden_json"
    [ ( "golden",
        [ Alcotest.test_case "metrics snapshot sorted" `Quick test_metrics;
          Alcotest.test_case "accounting ledger total order" `Quick
            test_accounting ] ) ]
