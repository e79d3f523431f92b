(* E13 — Gateway forwarding fast path.

   A 6-gateway transit chain (a — g1 … g6 — b) carries ~50k large UDP-ish
   datagrams.  We run the workload twice: once on the legacy path (every
   gateway decodes the datagram, copies the payload out, re-encodes a
   fresh frame, and walks the routing table per packet) and once on the
   fast path (header peeked in place, TTL and checksum patched via the
   RFC 1624 incremental update, the *same* frame retransmitted).  Both
   roads look every route up in the same LPM trie, so what separates
   them is the frame handling alone.  The paper's gateways lived and
   died by exactly this per-packet budget.

   Results go to stdout and, machine-readably, to BENCH_forwarding.json
   in the current directory (the repo root under `dune exec bench/main.exe`).
   The record holds the exact figures, words per packet; datagrams/s and
   the speedup are one wall-clock sample each, printed only. *)

open Catenet

module Addr = Packet.Addr

let hops = 6
let full_datagrams = 50_000
let payload_size = 1_400
let pace_us = 15 (* > tx time of a 1420B frame at 1 Gb/s, so queues stay shallow *)
let proto = Packet.Ipv4.Proto.Other 99

let fast_profile =
  Netsim.profile ~bandwidth_bps:1_000_000_000 ~delay_us:1 ~mtu:1500
    ~queue_capacity:4096 "e13-gigabit"

(* Realistic gateway tables: beyond the connected /24s and the static
   routes, each gateway carries 64 filler prefixes, the way a period
   gateway carried routes for every network its routing protocol had
   heard of.  Both roads walk the trie per packet, at a cost set by
   prefix depth, not table size. *)
let add_filler_routes table =
  for j = 0 to 63 do
    Ip.Route_table.add table
      {
        Ip.Route_table.prefix = Addr.Prefix.make (Addr.v 172 16 j 0) 24;
        iface = 0;
        next_hop = None;
        metric = 1;
      }
  done

type outcome = { dps : float; words_per_pkt : float }

let run_once ~fast ~datagrams =
  let t = Internet.create ~seed:42 () in
  let a = Internet.add_host t "a" in
  let b = Internet.add_host t "b" in
  let gws =
    List.init hops (fun i -> Internet.add_gateway t (Printf.sprintf "g%d" (i + 1)))
  in
  let chain =
    [ a.Internet.h_node ]
    @ List.map (fun g -> g.Internet.g_node) gws
    @ [ b.Internet.h_node ]
  in
  let rec wire = function
    | x :: (y :: _ as rest) ->
        ignore (Internet.connect t fast_profile x y);
        wire rest
    | _ -> ()
  in
  wire chain;
  Internet.start t;
  List.iter (fun g -> add_filler_routes (Ip.Stack.table g.Internet.g_ip)) gws;
  let stacks =
    a.Internet.h_ip :: b.Internet.h_ip
    :: List.map (fun g -> g.Internet.g_ip) gws
  in
  List.iter (fun s -> Ip.Stack.set_fast_path s fast) stacks;
  let delivered = ref 0 in
  Ip.Stack.register_proto b.Internet.h_ip proto (fun _h _payload ->
      incr delivered);
  let eng = Internet.engine t in
  let dst = Internet.addr_of t b.Internet.h_node in
  let payload = Bytes.make payload_size 'e' in
  let rec send_next i =
    if i < datagrams then begin
      (match Ip.Stack.send a.Internet.h_ip ~proto ~dst payload with
      | Ok () -> ()
      | Error _ -> failwith "E13: send failed");
      Engine.after eng pace_us (fun () -> send_next (i + 1))
    end
  in
  Engine.after eng 1 (fun () -> send_next 0);
  let wall, words = Util.wall_and_words (fun () -> Internet.run_until_idle t) in
  if !delivered <> datagrams then
    failwith
      (Printf.sprintf "E13: delivered %d of %d datagrams" !delivered datagrams);
  List.iter
    (fun g ->
      let c = Ip.Stack.counters g.Internet.g_ip in
      if c.Ip.Stack.forwarded <> datagrams then
        failwith
          (Printf.sprintf "E13: %s forwarded %d of %d"
             (Netsim.node_name (Internet.net t) g.Internet.g_node)
             c.Ip.Stack.forwarded datagrams))
    gws;
  {
    dps = float_of_int datagrams /. wall;
    words_per_pkt = words /. float_of_int datagrams;
  }

let write_json ~slow ~fast ~datagrams =
  let open Trace.Json in
  Util.write_json "BENCH_forwarding.json"
    (Obj
       [ ("experiment", Str "E13");
         ("topology", Str (Printf.sprintf "a - g1..g%d - b" hops));
         ("datagrams", Int datagrams);
         ("payload_bytes", Int payload_size);
         ("fast_words_per_packet", Float fast.words_per_pkt);
         ("slow_words_per_packet", Float slow.words_per_pkt) ])

let run () =
  Util.banner "E13" "gateway forwarding fast path"
    "in-place TTL/checksum patching beats decode/re-encode forwarding \
     well clear on a transit chain (~1.4x: both roads share the LPM \
     trie and allocation-free links, so the edge is the copy-free \
     frame)";
  let datagrams = Util.scaled full_datagrams in
  let slow = run_once ~fast:false ~datagrams in
  let fast = run_once ~fast:true ~datagrams in
  let speedup = fast.dps /. slow.dps in
  Util.table
    [ "path"; "datagrams/s"; "words/packet" ]
    [
      [ "slow (decode/re-encode)"; Printf.sprintf "%.0f" slow.dps;
        Printf.sprintf "%.1f" slow.words_per_pkt ];
      [ "fast (patch in place)"; Printf.sprintf "%.0f" fast.dps;
        Printf.sprintf "%.1f" fast.words_per_pkt ];
    ];
  Util.note "speedup %.2fx over %d datagrams crossing %d gateways" speedup
    datagrams hops;
  write_json ~slow ~fast ~datagrams
