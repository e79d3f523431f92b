(* E15 — Observability overhead (the flight-recorder contract).

   The trace subsystem promises that instrumentation is effectively free
   until switched on: with every event class disabled, each instrumented
   call site costs one mask load and a branch.  This experiment runs one
   workload (the E13 transit chain, four gateways) three ways:

   - disabled: recorder off — what every other bench and experiment pays;
   - metrics: recorder off, an [Internet.metrics] registry wired over
     every stack, link and transport and snapshotted at the end — the
     registry is pull-based, so the hot path should not notice it;
   - recorder: every event class enabled, 64Ki-entry ring — the full
     cost of constructing and recording events on the forwarding path.

   BENCH_trace.json holds the exact figures: words per datagram and the
   events each mode held and emitted.  Datagrams/s and the overhead
   against the disabled mode are one wall-clock sample each, printed
   only.  The disabled-cost contract itself is exact elsewhere:
   test_ip's "datagram path allocates nothing" and catenet-lint's rule
   that a fast path builds trace events only behind [Trace.want]. *)

open Catenet

let full_datagrams = 20_000

type mode = Disabled | Metrics_only | Recorder

let mode_name = function
  | Disabled -> "disabled"
  | Metrics_only -> "metrics"
  | Recorder -> "recorder"

type outcome = {
  dps : float;
  words_per_pkt : float;
  events : int; (* recorded, after ring overwrites *)
  emitted : int; (* recorded including overwritten *)
  snapshot_sources : int;
}

(* The E13 chain workload under one observability mode.  The topology and
   traffic are E13's (via its [run_once] building blocks would hide the
   metrics registry, so the chain is rebuilt here with the registry
   wired); the measurement matches E13: words and wall clock over the
   drain of a paced stream of max-size datagrams. *)
let run_mode mode ~datagrams =
  (match mode with
  | Recorder -> Trace.enable ~mask:Trace.Cls.all ()
  | Disabled | Metrics_only -> Trace.disable ());
  let t = Internet.create ~seed:42 () in
  let a = Internet.add_host t "a" in
  let b = Internet.add_host t "b" in
  let gws = List.init 4 (fun i -> Internet.add_gateway t (Printf.sprintf "g%d" (i + 1))) in
  let chain =
    [ a.Internet.h_node ]
    @ List.map (fun g -> g.Internet.g_node) gws
    @ [ b.Internet.h_node ]
  in
  let prof =
    Netsim.profile ~bandwidth_bps:1_000_000_000 ~delay_us:1 ~mtu:1500
      ~queue_capacity:4096 "e15-gigabit"
  in
  let rec wire = function
    | x :: (y :: _ as rest) ->
        ignore (Internet.connect t prof x y);
        wire rest
    | _ -> ()
  in
  wire chain;
  Internet.start t;
  let registry =
    match mode with
    | Metrics_only | Recorder -> Some (Internet.metrics t)
    | Disabled -> None
  in
  let proto = Packet.Ipv4.Proto.Other 99 in
  let delivered = ref 0 in
  Ip.Stack.register_proto b.Internet.h_ip proto (fun _ _ -> incr delivered);
  let eng = Internet.engine t in
  let dst = Internet.addr_of t b.Internet.h_node in
  let payload = Bytes.make 1_400 'o' in
  let rec send_next i =
    if i < datagrams then begin
      (match Ip.Stack.send a.Internet.h_ip ~proto ~dst payload with
      | Ok () -> ()
      | Error _ -> failwith "E15: send failed");
      Engine.after eng 15 (fun () -> send_next (i + 1))
    end
  in
  Engine.after eng 1 (fun () -> send_next 0);
  let wall, words = Util.wall_and_words (fun () -> Internet.run_until_idle t) in
  if !delivered <> datagrams then
    failwith
      (Printf.sprintf "E15: delivered %d of %d" !delivered datagrams);
  let snapshot_sources =
    match registry with
    | Some m -> List.length (Trace.Metrics.snapshot m)
    | None -> 0
  in
  let events = Trace.length () and emitted = Trace.emitted () in
  Trace.disable ();
  Trace.clear ();
  {
    dps = float_of_int datagrams /. wall;
    words_per_pkt = words /. float_of_int datagrams;
    events;
    emitted;
    snapshot_sources;
  }

let run () =
  Util.banner "E15" "observability overhead"
    "with tracing disabled no event is built: the forwarding chain \
     allocates the same words per datagram with or without a wired \
     metrics registry; the full recorder's cost is reported, not promised";
  Trace.disable ();
  Trace.clear ();
  let datagrams = Util.scaled full_datagrams in
  let disabled = run_mode Disabled ~datagrams in
  let metrics = run_mode Metrics_only ~datagrams in
  let recorder = run_mode Recorder ~datagrams in
  let pct_of base x = (base -. x) /. base *. 100.0 in
  let modes =
    [ (Disabled, disabled); (Metrics_only, metrics); (Recorder, recorder) ]
  in
  Util.table
    [ "mode"; "datagrams/s"; "overhead"; "words/packet"; "events held";
      "events emitted" ]
    (List.map
       (fun (m, o) ->
         [ mode_name m; Printf.sprintf "%.0f" o.dps;
           Printf.sprintf "%.1f%%" (pct_of disabled.dps o.dps);
           Printf.sprintf "%.1f" o.words_per_pkt;
           string_of_int o.events; string_of_int o.emitted ])
       modes);
  Util.note "metrics snapshot covered %d sources" metrics.snapshot_sources;
  let open Trace.Json in
  Util.write_json "BENCH_trace.json"
    (Obj
       ([ ("experiment", Str "E15");
          ("topology", Str "a - g1..g4 - b");
          ("datagrams", Int datagrams) ]
       @ List.map
           (fun (m, o) ->
             ( mode_name m,
               Obj
                 [ ("words_per_packet", Float o.words_per_pkt);
                   ("events_held", Int o.events);
                   ("events_emitted", Int o.emitted) ] ))
           modes
       @ [ ("metrics_sources", Int metrics.snapshot_sources) ]))
