(* E9 — Realizations and resource control (Clark §9, plus the 1988 context:
   Jacobson's congestion control shipped the same year).

   "The architecture tried very hard not to constrain the range of
   services which the Internet could be engineered to provide" — the same
   architecture admits realizations with wildly different behaviour.  Four
   concurrent TCP flows share one bottleneck under three host realizations:
   pre-1988 TCP with no congestion control, Tahoe, and Reno.  The wire
   format is identical in all three; only host policy differs. *)

open Catenet

let flows = 4
let per_flow_bytes = 250_000

let run_variant cc =
  let tcp_config = { Tcp.default_config with Tcp.cc } in
  let t = Internet.create ~routing:Internet.Static ~tcp_config () in
  let g1 = Internet.add_gateway t "g1" in
  let g2 = Internet.add_gateway t "g2" in
  let bottleneck =
    Internet.connect t
      (Netsim.profile "bottleneck" ~bandwidth_bps:1_536_000 ~delay_us:10_000
         ~queue_capacity:20)
      g1.Internet.g_node g2.Internet.g_node
  in
  let senders =
    List.init flows (fun i ->
        let h = Internet.add_host t (Printf.sprintf "s%d" i) in
        ignore
          (Internet.connect t Netsim.Profiles.ethernet h.Internet.h_node
             g1.Internet.g_node);
        h)
  in
  let receivers =
    List.init flows (fun i ->
        let h = Internet.add_host t (Printf.sprintf "r%d" i) in
        ignore
          (Internet.connect t Netsim.Profiles.ethernet g2.Internet.g_node
             h.Internet.h_node);
        h)
  in
  Internet.start t;
  let seed = 13 in
  let runs =
    List.map2
      (fun (s : Internet.host) (r : Internet.host) ->
        ignore (Apps.Bulk.serve r.Internet.h_tcp ~port:20 ~seed);
        Apps.Bulk.start s.Internet.h_tcp
          ~dst:(Internet.addr_of t r.Internet.h_node)
          ~dst_port:20 ~seed ~total:per_flow_bytes ())
      senders receivers
  in
  Internet.run_for t 300.0;
  let goodputs =
    List.filter_map Apps.Bulk.goodput_bps runs
  in
  let finished = List.length (List.filter Apps.Bulk.finished runs) in
  (* Bytes delivered over the makespan.  The flows start and finish at
     different times, so the sum of their goodputs would exceed what the
     bottleneck can carry. *)
  let aggregate =
    match List.filter_map Apps.Bulk.completed_at_us runs with
    | [] -> 0.0
    | done_at ->
        let first =
          List.fold_left (fun a r -> min a (Apps.Bulk.started_at_us r)) max_int runs
        in
        let last = List.fold_left max 0 done_at in
        float_of_int (finished * per_flow_bytes) /. Engine.to_sec (last - first)
  in
  let fairness =
    (* Jain's index over per-flow goodputs. *)
    match goodputs with
    | [] -> 0.0
    | gs ->
        let n = float_of_int (List.length gs) in
        let s = List.fold_left ( +. ) 0.0 gs in
        let s2 = List.fold_left (fun a g -> a +. (g *. g)) 0.0 gs in
        s *. s /. (n *. s2)
  in
  let retrans_bytes, first_bytes =
    List.fold_left
      (fun (r, f) run ->
        let st = Tcp.stats (Apps.Bulk.conn run) in
        (r + st.Tcp.bytes_retransmitted, f + st.Tcp.bytes_out))
      (0, 0) runs
  in
  let drops = (Netsim.link_stats (Internet.net t) bottleneck).Netsim.drops_queue in
  ( finished,
    aggregate,
    fairness,
    float_of_int retrans_bytes /. float_of_int (max 1 (first_bytes + retrans_bytes)),
    drops )

let run () =
  Util.banner "E9"
    "Realizations: host resource-control policy changes everything"
    "the architecture fixes the wire format, not the behaviour; congestion \
     control is a host realization choice";
  let rows =
    List.map
      (fun cc ->
        let finished, aggregate, fairness, waste, drops = run_variant cc in
        [
          Format.asprintf "%a" Tcp.pp_cc cc;
          Printf.sprintf "%d/%d" finished flows;
          Util.fkb aggregate;
          Printf.sprintf "%.3f" fairness;
          Util.fpct waste;
          string_of_int drops;
        ])
      [ Tcp.No_cc; Tcp.Tahoe; Tcp.Reno ]
  in
  Util.table
    [
      "realization"; "flows done"; "aggregate kB/s"; "jain fairness";
      "rexmit waste"; "bottleneck drops";
    ]
    rows;
  Util.note
    "no-cc hammers the bottleneck queue (drops, waste) — the congestion \
     collapse the late-80s Internet actually suffered; Tahoe/Reno trade a \
     little peak rate for order"
