(* E16 — The survivability gauntlet (Clark §3, goal 1, end to end).

   E1 cuts links; E2 crashes one gateway.  This experiment runs the full
   chaos repertoire against one catenet — a scheduled flap, a gateway
   crash/reboot with soft-state amnesia, a clean partition and heal, and
   a seeded storm of randomized flaps — while two TCP conversations
   cross the mesh in opposite directions, and measures what the
   architecture promises:

   - the control plane re-converges after every fault (time-to-
     reconvergence per fault, via the Chaos.Observer god's-eye walk);
   - the datagrams black-holed while it does are bounded and visible;
   - the conversations survive everything (fate-sharing: the crash
     erases the gateway's RIB, route cache and reassembly buffers, and
     the transfer still completes intact);
   - the whole gauntlet is deterministic: the same seed produces the
     same schedule, the same fault event trace and the same fault
     records, bit for bit — checked here by running it twice in one
     process and comparing digests (state a gauntlet leaves behind
     would show), and across processes by the record, which a fresh
     run under `dune runtest` must reproduce exactly.

   Results go to stdout and BENCH_survivability.json. *)

open Catenet

let full_bytes = 3_000_000
let storm_seed = 1988

(* E1's ring-plus-chords: six gateways, chords (0,3) (1,4) (2,5); h1 on
   g0, h2 on g3.  Connected even under any single cut in the gauntlet's
   scripted phase. *)
let edges =
  [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (0, 3); (1, 4); (2, 5) ]

let profile = Netsim.profile "trunk" ~bandwidth_bps:1_536_000 ~delay_us:5_000

let dv_config =
  {
    Routing.Dv.default_config with
    Routing.Dv.period_us = 1_000_000;
    timeout_us = 3_500_000;
    gc_us = 2_000_000;
    carrier_poll_us = 200_000;
  }

type outcome = {
  o_schedule_digest : string;
  o_run_digest : string;
  o_records : Chaos.Observer.record list;
  o_survived : int;
  o_transfers : int;
  o_goodputs : float option list;
  o_blackholed : int;
  o_fault_events : int;
  o_soft_resets : int;
}

let sec = Engine.sec

let run_gauntlet ~total =
  (* Fault events only: the digest must cover exactly the gauntlet's
     footprint, not the (much larger) data-plane event stream. *)
  Trace.clear ();
  Trace.enable ~capacity:8192 ~mask:Trace.Cls.fault ();
  let t = Internet.create ~seed:7 ~routing:Internet.Distance_vector ~dv_config () in
  let gws =
    Array.init 6 (fun i -> Internet.add_gateway t (Printf.sprintf "g%d" i))
  in
  let h1 = Internet.add_host t "h1" in
  let h2 = Internet.add_host t "h2" in
  let links =
    List.map
      (fun (a, b) ->
        ( (a, b),
          Internet.connect t profile gws.(a).Internet.g_node
            gws.(b).Internet.g_node ))
      edges
  in
  ignore (Internet.connect t profile h1.Internet.h_node gws.(0).Internet.g_node);
  ignore (Internet.connect t profile h2.Internet.h_node gws.(3).Internet.g_node);
  Internet.start t;
  (* Let DV converge before the shaking starts. *)
  Internet.run_for t 6.0;

  let link e = List.assoc e links in
  let schedule =
    Chaos.Schedule.merge
      [
        (* One clean flap of the h1-side chord. *)
        Chaos.Schedule.link_flap ~link:(link (0, 3)) ~at_us:(sec 8.0)
          ~down_us:(sec 3.0);
        (* Crash h2's own first-hop gateway: its RIB, route cache and
           reassembly buffers are erased; reboot four seconds later.
           The TCP conversations must not notice beyond a stall. *)
        Chaos.Schedule.node_outage ~node:gws.(3).Internet.g_node
          ~at_us:(sec 14.0) ~down_us:(sec 4.0);
        (* Sever every edge into g3: a true partition until the heal. *)
        Chaos.Schedule.partition
          ~links:[ link (2, 3); link (3, 4); link (0, 3) ]
          ~at_us:(sec 21.0) ~heal_after_us:(sec 3.0);
        (* Seeded storm of randomized flaps across the whole mesh. *)
        Chaos.Schedule.flap_storm ~seed:storm_seed
          ~links:(List.map snd links) ~start_us:(sec 27.0)
          ~duration_us:(sec 6.0) ~mean_gap_us:600_000
          ~max_down_us:1_000_000;
      ]
  in
  let stacks =
    h1.Internet.h_ip :: h2.Internet.h_ip
    :: Array.to_list (Array.map (fun g -> g.Internet.g_ip) gws)
  in
  let stack_of node =
    List.find_opt (fun s -> Ip.Stack.node_id s = node) stacks
  in
  let observer =
    Chaos.Observer.create ~net:(Internet.net t) ~stacks ~stack_of
      ~probes:
        [ (h1.Internet.h_ip, Internet.addr_of t h2.Internet.h_node);
          (h2.Internet.h_ip, Internet.addr_of t h1.Internet.h_node) ]
      ()
  in
  Chaos.Observer.start observer;
  Chaos.inject ~observer (Internet.chaos_env t) schedule;

  (* Two conversations crossing the gauntlet in opposite directions. *)
  let pairs = [ (h1, h2, 4001); (h2, h1, 4002) ] in
  let runs =
    List.map
      (fun (src, dst, port) ->
        let server = Apps.Bulk.serve dst.Internet.h_tcp ~port ~seed:17 in
        let sender =
          Apps.Bulk.start src.Internet.h_tcp
            ~dst:(Internet.addr_of t dst.Internet.h_node)
            ~dst_port:port ~seed:17 ~total ()
        in
        (server, sender))
      pairs
  in
  (* Ride out the whole schedule, then run until both transfers finish
     (bounded: RTO backoff after the partition can stall for a while). *)
  Internet.run_for t 45.0;
  let deadline = sec 240.0 in
  while
    (not (List.for_all (fun (_, s) -> Apps.Bulk.finished s) runs))
    && Engine.now (Internet.engine t) < deadline
  do
    Internet.run_for t 5.0
  done;
  Chaos.Observer.stop observer;

  let records = Chaos.Observer.records observer in
  let survived =
    List.length
      (List.filter
         (fun (server, sender) ->
           Apps.Bulk.finished sender
           && Apps.Bulk.failed sender = None
           &&
           match Apps.Bulk.transfers server with
           | [ tr ] -> tr.Apps.Bulk.intact && tr.Apps.Bulk.received = total
           | _ -> false)
         runs)
  in
  let goodputs = List.map (fun (_, s) -> Apps.Bulk.goodput_bps s) runs in
  let fault_events = ref 0 and soft_resets = ref 0 in
  let trace_lines =
    List.map
      (fun (e : Trace.entry) ->
        incr fault_events;
        (match e.event with
        | Trace.Event.Fault_soft_reset _ -> incr soft_resets
        | _ -> ());
        Printf.sprintf "%d %s" e.t_us
          (Format.asprintf "%a" Trace.Event.pp e.event))
      (Trace.entries ())
  in
  Trace.disable ();
  Trace.clear ();
  let record_lines =
    List.map
      (fun (r : Chaos.Observer.record) ->
        Printf.sprintf "%s@%d conv=%s bh=%d"
          (Chaos.Fault.to_string r.fault)
          r.at_us
          (match r.reconverged_at_us with
          | Some v -> string_of_int v
          | None -> "never")
          r.blackholed)
      records
  in
  let run_digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            ((Chaos.Schedule.to_string schedule :: trace_lines)
            @ record_lines)))
  in
  {
    o_schedule_digest = Chaos.Schedule.digest schedule;
    o_run_digest = run_digest;
    o_records = records;
    o_survived = survived;
    o_transfers = List.length runs;
    o_goodputs = goodputs;
    o_blackholed =
      List.fold_left
        (fun acc (r : Chaos.Observer.record) -> acc + r.blackholed)
        0 records;
    o_fault_events = !fault_events;
    o_soft_resets = !soft_resets;
  }

let run () =
  Util.banner "E16" "survivability gauntlet"
    "every TCP conversation survives flaps, a gateway crash (with soft-state \
     amnesia), a partition and a flap storm; routing re-converges within \
     budget; same seed, same gauntlet, bit for bit";
  let total = Util.scaled full_bytes in
  let a = run_gauntlet ~total in
  let b = run_gauntlet ~total in
  let replay_identical =
    a.o_schedule_digest = b.o_schedule_digest
    && a.o_run_digest = b.o_run_digest
  in
  let reconv_s (r : Chaos.Observer.record) =
    Option.map (fun v -> float_of_int (v - r.at_us) /. 1e6) r.reconverged_at_us
  in
  let worst_reconvergence_s =
    List.fold_left
      (fun acc r ->
        match reconv_s r with
        | Some s -> max acc s
        | None -> infinity (* never re-converged: fail the budget *))
      0.0 a.o_records
  in
  let survival_pct =
    100.0 *. float_of_int a.o_survived /. float_of_int a.o_transfers
  in
  Util.table
    [ "fault"; "at (s)"; "reconverged (s)"; "blackholed" ]
    (List.map
       (fun (r : Chaos.Observer.record) ->
         [ Chaos.Fault.to_string r.fault;
           Printf.sprintf "%.2f" (float_of_int r.at_us /. 1e6);
           (match reconv_s r with
           | Some s -> Printf.sprintf "%.2f" s
           | None -> "never");
           string_of_int r.blackholed ])
       a.o_records);
  Util.note "%d faults injected, %d soft-state resets traced"
    a.o_fault_events a.o_soft_resets;
  Util.note "digests: schedule %s, run %s" a.o_schedule_digest
    (String.sub a.o_run_digest 0 12);
  Util.gate "survival_pct" survival_pct (Util.At_least 100.0);
  Util.gate "worst_reconvergence_s" worst_reconvergence_s (Util.At_most 12.0);
  Util.gate "replay_identical" (if replay_identical then 1.0 else 0.0)
    (Util.At_least 1.0);

  let open Trace.Json in
  Util.write_json "BENCH_survivability.json"
    (Obj
       [ ("experiment", Str "E16");
         ("topology", Str "ring+chords, h1@g0, h2@g3, DV routing");
         ("bytes_per_transfer", Int total);
         ("storm_seed", Int storm_seed);
         ("faults", List (List.map Chaos.Observer.record_to_json a.o_records));
         ("fault_events_traced", Int a.o_fault_events);
         ("soft_state_resets", Int a.o_soft_resets);
         ("blackholed_total", Int a.o_blackholed);
         ( "goodputs_bytes_per_s",
           List
             (List.map
                (function Some g -> Float g | None -> Null)
                a.o_goodputs) );
         ("tcp_survived", Int a.o_survived);
         ("tcp_transfers", Int a.o_transfers);
         ("survival_pct", Float survival_pct);
         ( "worst_reconvergence_s",
           if Float.is_finite worst_reconvergence_s then
             Float worst_reconvergence_s
           else Null );
         ("schedule_digest", Str a.o_schedule_digest);
         ("run_digest", Str a.o_run_digest) ])
