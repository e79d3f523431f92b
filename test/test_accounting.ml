(* Differential harness for sketch-based flow accounting (E20).

   The exact ledger is the oracle: every property drives the same trace
   through an [Exact] and a [Sketch] accounting instance (or through
   [Ip.Sketch] and a plain Hashtbl) and compares.  The count-min
   guarantee under test is one-sided — estimates may exceed the truth,
   never undercut it — and the heavy-hitter claim is quantitative:
   byte-weighted top-k error on a zipfian trace stays under 1%. *)

open Catenet
module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Acct = Ip.Accounting

let check = Alcotest.check

(* --- deterministic PRNG (splitmix over a counter) -------------------- *)

let rng seed =
  let st = ref seed in
  fun bound ->
    st := !st + 0x61C88647;
    let x = Ip.Sketch.mix !st in
    x mod bound

(* --- trace generation ------------------------------------------------ *)

type pkt = { src : int; dst : int; sp : int; dp : int; len : int }

let header_of p =
  Ipv4.make_header ~proto:Ipv4.Proto.Udp
    ~src:(Addr.of_int p.src)
    ~dst:(Addr.of_int p.dst)
    ()

(* UDP-shaped payload: ports in the first 4 bytes, [len] bytes total. *)
let payload_of p =
  let b = Bytes.make (max 8 p.len) '\000' in
  Bytes.set_uint16_be b 0 p.sp;
  Bytes.set_uint16_be b 2 p.dp;
  b

let frame_of p = Ipv4.encode (header_of p) ~payload:(payload_of p)

let feed acc p = Acct.record acc ~frame:(frame_of p)

(* A zipf-ish flow population: flow k of [flows] is picked with weight
   ~ 1/(k+1), so a handful of head flows carry most packets while the
   tail is long and thin. *)
let zipf_trace ~seed ~flows ~packets =
  let next = rng seed in
  let pick () =
    (* inverse-ish sampling: repeatedly halve the candidate range *)
    let rec go lo hi =
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if next 3 < 2 then go lo mid else go mid hi
      end
    in
    go 0 flows
  in
  List.init packets (fun _ ->
      let k = pick () in
      { src = 0x0A000001 + (k mod 251);
        dst = 0x0A010001 + (k mod 241);
        sp = 1024 + (k mod 60_000);
        dp = 2048 + (k / 60_000);
        len = 40 + (k mod 7 * 100) })

let sketch_mode = Acct.Sketch { width = 4096; depth = 4; top_k = 64 }

(* --- qcheck properties ----------------------------------------------- *)

let trace_arb =
  QCheck.make
    ~print:(fun (seed, flows, packets) ->
      Printf.sprintf "seed=%d flows=%d packets=%d" seed flows packets)
    QCheck.Gen.(
      triple (int_bound 1_000_000) (int_range 1 400) (int_range 1 4000))

let prop_never_underestimates =
  QCheck.Test.make ~count:40 ~name:"count-min never underestimates"
    trace_arb
    (fun (seed, flows, packets) ->
      let trace = zipf_trace ~seed ~flows ~packets in
      let exact = Acct.create ~mode:Acct.Exact () in
      let sketch = Acct.create ~mode:sketch_mode () in
      List.iter (feed exact) trace;
      List.iter (feed sketch) trace;
      List.for_all
        (fun (f, (u : Acct.usage)) ->
          match Acct.lookup sketch f with
          | None -> false
          | Some e -> e.Acct.packets >= u.packets && e.Acct.bytes >= u.bytes)
        (Acct.flows exact))

let prop_topk_error =
  QCheck.Test.make ~count:25 ~name:"top-k byte error <= 1% on zipf traces"
    trace_arb
    (fun (seed, flows, packets) ->
      let trace = zipf_trace ~seed ~flows ~packets in
      let exact = Acct.create ~mode:Acct.Exact () in
      let sketch = Acct.create ~mode:sketch_mode () in
      List.iter (feed exact) trace;
      List.iter (feed sketch) trace;
      let top = Acct.flows ~limit:20 exact in
      let num, den =
        List.fold_left
          (fun (num, den) (f, (u : Acct.usage)) ->
            let est =
              match Acct.lookup sketch f with
              | Some e -> e.Acct.bytes
              | None -> 0
            in
            (num + abs (est - u.bytes), den + u.bytes))
          (0, 0) top
      in
      float_of_int num <= 0.01 *. float_of_int den)

let prop_totals_exact =
  QCheck.Test.make ~count:40 ~name:"sketch-mode totals are exact"
    trace_arb
    (fun (seed, flows, packets) ->
      let trace = zipf_trace ~seed ~flows ~packets in
      let exact = Acct.create ~mode:Acct.Exact () in
      let sketch = Acct.create ~mode:sketch_mode () in
      List.iter (feed exact) trace;
      List.iter (feed sketch) trace;
      let te = Acct.total exact and ts = Acct.total sketch in
      te.Acct.packets = ts.Acct.packets && te.Acct.bytes = ts.Acct.bytes)

(* --- directed tests -------------------------------------------------- *)

let test_rotation_resets () =
  let acc = Acct.create ~mode:sketch_mode () in
  let trace = zipf_trace ~seed:7 ~flows:50 ~packets:500 in
  List.iter (feed acc) trace;
  check Alcotest.bool "counted something" true ((Acct.total acc).Acct.packets > 0);
  check Alcotest.bool "tracking flows" true (Acct.tracked_count acc > 0);
  Acct.rotate acc;
  check Alcotest.int "epoch advanced" 1 (Acct.epoch acc);
  check Alcotest.int "totals reset" 0 (Acct.total acc).Acct.packets;
  check Alcotest.int "cardinality reset" 0 (Acct.flow_count acc);
  check Alcotest.int "tracker reset" 0 (Acct.tracked_count acc);
  (* the next epoch accumulates from scratch, unpolluted *)
  let p = { src = 0x0A000001; dst = 0x0A010001; sp = 1024; dp = 2048; len = 40 } in
  feed acc p;
  (match Acct.flows acc with
  | [ (_, u) ] -> check Alcotest.int "fresh flow has 1 packet" 1 u.Acct.packets
  | l -> Alcotest.failf "expected 1 flow after rotation, got %d" (List.length l));
  (* exact mode rotates too *)
  let ex = Acct.create () in
  feed ex p;
  Acct.rotate ex;
  check Alcotest.int "exact ledger reset" 0 (Acct.flow_count ex);
  check Alcotest.int "exact epoch advanced" 1 (Acct.epoch ex)

(* Rotation must not amnesia the billing record: each closed epoch's
   totals and top flows survive as a bounded snapshot history. *)
let test_rotation_history () =
  let acc = Acct.create ~mode:sketch_mode ~history:2 () in
  let trace = zipf_trace ~seed:11 ~flows:40 ~packets:400 in
  List.iter (feed acc) trace;
  let before = Acct.total acc in
  Acct.rotate acc;
  (match Acct.history acc with
  | [ s ] ->
      check Alcotest.int "snapshot names its epoch" 0 s.Acct.snap_epoch;
      check Alcotest.int "snapshot keeps the epoch's packets"
        before.Acct.packets s.Acct.snap_packets;
      check Alcotest.int "snapshot keeps the epoch's bytes" before.Acct.bytes
        s.Acct.snap_bytes;
      check Alcotest.bool "snapshot carries top flows" true
        (s.Acct.snap_top <> []);
      (match s.Acct.snap_top with
      | (_, a) :: (_, b) :: _ ->
          check Alcotest.bool "top flows sorted by bytes" true
            (a.Acct.bytes >= b.Acct.bytes)
      | _ -> ())
  | l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l));
  (* the bound holds: rotating past [history] drops the oldest *)
  feed acc { src = 1; dst = 2; sp = 3; dp = 4; len = 99 };
  Acct.rotate acc;
  Acct.rotate acc;
  Acct.rotate acc;
  (match Acct.history acc with
  | [ a; b ] ->
      check Alcotest.int "newest first" 3 a.Acct.snap_epoch;
      check Alcotest.int "oldest retained" 2 b.Acct.snap_epoch
  | l -> Alcotest.failf "expected 2 snapshots, got %d" (List.length l));
  (* history reaches the observability surface *)
  (match Acct.to_json acc with
  | Trace.Json.Obj kvs -> (
      match List.assoc_opt "history" kvs with
      | Some (Trace.Json.List l) ->
          check Alcotest.int "json history bounded" 2 (List.length l)
      | _ -> Alcotest.fail "to_json lacks history")
  | _ -> Alcotest.fail "to_json not an object");
  (* history:0 disables retention entirely *)
  let off = Acct.create ~history:0 () in
  feed off { src = 1; dst = 2; sp = 3; dp = 4; len = 10 };
  Acct.rotate off;
  check Alcotest.int "history 0 retains nothing" 0
    (List.length (Acct.history off))

(* Sketch-mode [record] must not allocate: it is what lets
   accounting ride [forward_fast].  Same Gc discipline as the
   route-cache and trie lookup tests. *)
let test_record_fast_allocation_free () =
  let acc = Acct.create ~mode:sketch_mode () in
  let p = { src = 0x0A000001; dst = 0x0A010001; sp = 5555; dp = 80; len = 64 } in
  let frame = frame_of p in
  Acct.record acc ~frame;
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to 1000 do
    Acct.record acc ~frame
  done;
  let per = (Gc.allocated_bytes () -. a0) /. 1000.0 in
  check Alcotest.bool
    (Printf.sprintf "record allocates nothing (%.1f B/op)" per)
    true (per < 1.0)

(* [flows] orders by bytes, then packets, then the rendered flow; most
   of an exact ledger ties on the first two.  The order must be the one
   the comparator defines, and rendering must not be paid per
   comparison: that cost 1.3 s for the top 100 of 20,000 equal flows. *)
let test_flows_tie_order () =
  let acc = Acct.create () in
  let n = 3_000 in
  for i = 0 to n - 1 do
    let j = i * 7919 mod n in
    let p =
      { src = 0x0A000000 + (j mod 97); dst = 0x0A010001; sp = j; dp = 80;
        len = 64 * (1 + (j mod 3)) }
    in
    feed acc p;
    if j mod 5 = 0 then feed acc p
  done;
  let reference =
    List.sort
      (fun (f1, (a : Acct.usage)) (f2, (b : Acct.usage)) ->
        match Int.compare b.bytes a.bytes with
        | 0 -> (
            match Int.compare b.packets a.packets with
            | 0 ->
                String.compare (Acct.flow_to_string f1) (Acct.flow_to_string f2)
            | c -> c)
        | c -> c)
      (Acct.flows acc)
  in
  let rec take k = function
    | x :: tl when k > 0 -> x :: take (k - 1) tl
    | _ -> []
  in
  let same = List.equal (fun (f1, _) (f2, _) -> f1 = f2) in
  List.iter
    (fun limit ->
      check Alcotest.bool
        (Printf.sprintf "flows ~limit:%d is the comparator's first %d" limit
           limit)
        true
        (same (Acct.flows ~limit acc) (take limit reference)))
    [ 1; 100; n ];
  let w0 = Gc.minor_words () in
  ignore (Acct.flows ~limit:100 acc : (Acct.flow * Acct.usage) list);
  let per_flow = (Gc.minor_words () -. w0) /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "each flow rendered at most once (%.0f words/flow)"
       per_flow)
    true (per_flow < 2_000.0)

(* Portless flows must not alias: ICMP, unknown protocols and non-first
   fragments have no recoverable ports, but each keeps its own flow
   identity (proto and the portless mark are part of it). *)
let test_portless_no_aliasing () =
  let acc = Acct.create () in
  let mk ~src ~proto ?(frag_offset = 0) () =
    Ipv4.encode
      (Ipv4.make_header ~proto
         ~src:(Addr.of_int src)
         ~dst:(Addr.of_int 0x0A010001)
         ~frag_offset ())
      ~payload:(Bytes.make 32 'x')
  in
  (* two concurrent proto-225 (hostpool) flows from different sources *)
  let pool = Ipv4.Proto.Other Hostpool.proto in
  Acct.record acc ~frame:(mk ~src:0x0A000001 ~proto:pool ());
  Acct.record acc ~frame:(mk ~src:0x0A000002 ~proto:pool ());
  Acct.record acc ~frame:(mk ~src:0x0A000001 ~proto:pool ());
  (* same src pair: ICMP and a TCP fragment tail must stay distinct
     from the pool flow and from each other *)
  Acct.record acc ~frame:(mk ~src:0x0A000001 ~proto:Ipv4.Proto.Icmp ());
  Acct.record acc
    ~frame:(mk ~src:0x0A000001 ~proto:Ipv4.Proto.Tcp ~frag_offset:64 ());
  check Alcotest.int "four distinct flows" 4 (Acct.flow_count acc);
  let find_pool src =
    List.find_opt
      (fun ((f : Acct.flow), _) ->
        f.Acct.proto = pool && Addr.to_int f.Acct.src = src)
      (Acct.flows acc)
  in
  (match find_pool 0x0A000001 with
  | Some (f, u) ->
      check Alcotest.bool "pool flow is portless" true f.Acct.portless;
      check Alcotest.int "pool flow a has 2 packets" 2 u.Acct.packets
  | None -> Alcotest.fail "pool flow from .1 missing");
  (match find_pool 0x0A000002 with
  | Some (_, u) -> check Alcotest.int "pool flow b has 1 packet" 1 u.Acct.packets
  | None -> Alcotest.fail "pool flow from .2 missing");
  (* fragment tail of a real TCP flow is marked portless with ports 0,
     and a genuine first-fragment flow with ports is not *)
  let tcp_frag =
    List.find
      (fun ((f : Acct.flow), _) -> f.Acct.proto = Ipv4.Proto.Tcp)
      (Acct.flows acc)
  in
  check Alcotest.bool "fragment tail portless" true (fst tcp_frag).Acct.portless

let test_to_json_bounded () =
  let acc = Acct.create () in
  List.iter (feed acc) (zipf_trace ~seed:3 ~flows:300 ~packets:2000);
  let count_flows = function
    | Trace.Json.Obj fields -> (
        match List.assoc "flows" fields with
        | Trace.Json.List l -> List.length l
        | _ -> -1)
    | _ -> -1
  in
  check Alcotest.bool "ledger has more than 100 flows" true
    (Acct.flow_count acc > 100);
  check Alcotest.int "default limit 100" 100 (count_flows (Acct.to_json acc));
  check Alcotest.int "explicit limit 7" 7
    (count_flows (Acct.to_json ~limit:7 acc));
  (* the bounded list keeps the heaviest flows: top of the list matches
     the ledger's heaviest flow *)
  match (Acct.flows ~limit:1 acc, Acct.to_json ~limit:1 acc) with
  | [ (f, _) ], Trace.Json.Obj fields -> (
      match List.assoc "flows" fields with
      | Trace.Json.List [ Trace.Json.Obj ff ] -> (
          match List.assoc "flow" ff with
          | Trace.Json.Str s ->
              check Alcotest.string "heaviest flow serialized first"
                (Acct.flow_to_string f) s
          | _ -> Alcotest.fail "flow field not a string")
      | _ -> Alcotest.fail "flows field shape")
  | _ -> Alcotest.fail "limit 1 shape"

(* Sketch building blocks directly: estimates after clear start over. *)
let test_sketch_clear () =
  let sk = Ip.Sketch.create ~width:64 ~depth:3 () in
  Ip.Sketch.update sk 42 ~bytes:100;
  Ip.Sketch.update sk 42 ~bytes:100;
  check Alcotest.int "estimate" 2 (Ip.Sketch.estimate_packets sk 42);
  check Alcotest.bool "cardinality positive" true (Ip.Sketch.cardinality sk > 0);
  Ip.Sketch.clear sk;
  check Alcotest.int "cleared estimate" 0 (Ip.Sketch.estimate_packets sk 42);
  check Alcotest.int "cleared cardinality" 0 (Ip.Sketch.cardinality sk);
  check Alcotest.int "cleared updates" 0 (Ip.Sketch.updates sk)

let test_heavy_hitters_basic () =
  let hh = Ip.Heavy_hitters.create ~capacity:2 in
  let rec feed fp bytes n =
    if n > 0 then begin
      Ip.Heavy_hitters.record hh ~fp ~src:fp ~dst:0 ~meta:0 ~est_pkts:1
        ~est_bytes:bytes ~wire_bytes:bytes;
      feed fp bytes (n - 1)
    end
  in
  feed 1 100 5;
  feed 2 10 1;
  (* challenger with a bigger estimate evicts the min (fp 2) *)
  Ip.Heavy_hitters.record hh ~fp:3 ~src:3 ~dst:0 ~meta:0 ~est_pkts:2
    ~est_bytes:50 ~wire_bytes:25;
  check Alcotest.int "still 2 tracked" 2 (Ip.Heavy_hitters.size hh);
  let fps = ref [] in
  Ip.Heavy_hitters.iter hh (fun i -> fps := Ip.Heavy_hitters.fp_of hh i :: !fps);
  check Alcotest.bool "heavy flow kept" true (List.mem 1 !fps);
  check Alcotest.bool "challenger admitted" true (List.mem 3 !fps);
  check Alcotest.bool "min evicted" false (List.mem 2 !fps);
  (* a small challenger does not displace anyone *)
  Ip.Heavy_hitters.record hh ~fp:4 ~src:4 ~dst:0 ~meta:0 ~est_pkts:1
    ~est_bytes:1 ~wire_bytes:1;
  let fps' = ref [] in
  Ip.Heavy_hitters.iter hh (fun i ->
      fps' := Ip.Heavy_hitters.fp_of hh i :: !fps');
  check Alcotest.bool "small challenger rejected" false (List.mem 4 !fps')

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "accounting"
    [
      ( "differential",
        [ qt prop_never_underestimates; qt prop_topk_error; qt prop_totals_exact ] );
      ( "directed",
        [
          Alcotest.test_case "epoch rotation resets" `Quick test_rotation_resets;
          Alcotest.test_case "rotation snapshots history" `Quick
            test_rotation_history;
          Alcotest.test_case "record_fast allocation-free" `Quick
            test_record_fast_allocation_free;
          Alcotest.test_case "flows orders ties once" `Quick
            test_flows_tie_order;
          Alcotest.test_case "portless flows do not alias" `Quick
            test_portless_no_aliasing;
          Alcotest.test_case "to_json bounded" `Quick test_to_json_bounded;
          Alcotest.test_case "sketch clear" `Quick test_sketch_clear;
          Alcotest.test_case "heavy hitters admission" `Quick
            test_heavy_hitters_basic;
        ] );
    ]
