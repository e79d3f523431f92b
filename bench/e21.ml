(* E21 — the name/service layer at scale: production-shaped traffic.

   The 1988 architecture identifies hosts by address alone; E21 measures
   the layer that had to be bolted on to make that usable.  Over the E17
   region topology (10^4 pooled hosts, aggregated core) we stand up the
   whole name system: a root authority + anycast service directory on a
   full-stack host, a region authority and a caching resolver on every
   region gateway, and health probing over the replicas.

   The workload is open-loop and production-shaped: >= 10^5 client
   endpoints (pooled host x ephemeral port), each doing one
   resolve-then-request/response session against an anycast service (90%)
   or a popular host name (10%), paced uniformly over a fixed window.
   Mid-run, one replica crashes silently (probing must notice and fail
   over), it later recovers, and a block of region gateways takes an E16
   crash-amnesia hit — routes restored as reconvergence would, resolver
   caches NOT, because they are the soft state under test.

   Reported in BENCH_names.json and gated below: steady-state cache hit
   ratio >= 95%, p99 resolve latency within budget, failover within the
   E16 reconvergence budget, and zero lost sessions outside the declared
   crash windows.  Lookups/s is one wall-clock sample, printed only. *)

open Catenet
module W = Names.Wire
module Addr = Packet.Addr

let sessions_full = 120_000
let cfg_regions = 100
let cfg_hosts = 100
let services = 4
let replicas_per_service = 8
let svc_port = 9_000
let client_port_base = 20_000
let popular_hosts = 16
let host_ttl_s = 10
let deleg_ttl_s = 30

(* Virtual-time script (microseconds). *)
let launch_window_us = 6_000_000
let crash_at_us = 3_000_000
let recover_at_us = 5_000_000
let flush_at_us = 4_500_000
let run_until_us = 9_000_000
let probe_interval_us = 500_000
let flushed_regions = [ 50; 51; 52; 53 ]

type sess = {
  mutable s_query_us : int;
  mutable s_resolve_us : int;  (* -1 until the resolver answered *)
  mutable s_done_us : int;  (* -1 until the session completed *)
  mutable s_rcode : int;
  s_kind : int;  (* 0 = anycast service, 1 = host name *)
  s_target : int;  (* service id / popular-name id *)
  s_region : int;  (* the client's region (its resolver) *)
}

let percentile sorted p =
  if Array.length sorted = 0 then 0.0
  else
    sorted.(min (Array.length sorted - 1)
              (int_of_float (p *. float_of_int (Array.length sorted))))
    |> float_of_int

let run () =
  Util.banner "E21" "name/service layer at scale"
    "resolver caches absorb >=95% of an open-loop 10^5-client lookup \
     storm; anycast failover beats the E16 reconvergence budget";
  let sessions = Util.scaled sessions_full in
  let topo =
    Topo.build
      { Topo.default_config with
        Topo.seed = 21; core = 8; chords = 4; regions = cfg_regions;
        hosts_per_region = cfg_hosts }
  in
  let eng = Topo.engine topo in
  let pool = Topo.pool topo in
  let nregions = Topo.regions topo in

  (* -- control plane: root + directory, per-region authorities and
     resolvers ------------------------------------------------------- *)
  let root_stack, root_addr = Topo.add_full_host topo ~region:0 in
  let root_udp = Udp.create root_stack in
  let dir =
    Names.Service.create ~udp:root_udp ~eng ~src:root_addr
      ~service_port:svc_port ()
  in
  Names.Service.set_distance dir (Topo.region_hops topo);
  let _root_server =
    Names.Server.create ~udp:root_udp ~src:root_addr
      ~authority:
        (Names.Server.root_authority ~regions:nregions
           ~region_server_bits:(fun r -> W.addr_bits (Topo.region_gw_addr r))
           ~deleg_ttl_s
           ~svc:(fun ~src q -> Names.Service.answer_for dir ~src q))
      ()
  in
  let gw_udp =
    Array.init nregions (fun r -> Udp.create (Topo.region_gw topo r))
  in
  let resolvers =
    Array.init nregions (fun r ->
        let gw = Topo.region_gw topo r in
        let udp = gw_udp.(r) in
        ignore
          (Names.Server.create ~udp ~src:(Topo.region_gw_addr r)
             ~authority:
               (Names.Server.region_authority ~region:r ~hosts:cfg_hosts
                  ~host_addr_bits:(fun i ->
                    W.addr_bits (Topo.host_addr topo ~region:r ~index:i))
                  ~ttl_s:host_ttl_s)
             ()
            : Names.Server.t);
        Names.Resolver.create ~udp ~eng ~node:(Ip.Stack.node_id gw)
          ~src:(Topo.region_gw_addr r) ~root:root_addr ())
  in

  (* -- anycast replicas: pooled hosts spread across regions ---------- *)
  let replica_slot = Array.make (services * replicas_per_service) 0 in
  for s = 0 to services - 1 do
    Names.Service.register dir ~service:s
      (List.init replicas_per_service (fun j ->
           let region = ((j * 12) + (s * 3)) mod nregions in
           replica_slot.((s * replicas_per_service) + j) <-
             Topo.host_slot topo ~region ~index:s;
           (region, Topo.host_addr topo ~region ~index:s)))
  done;
  Names.Service.start_probing dir ~interval_us:probe_interval_us;

  (* -- client population: every pooled host that is not a replica ---- *)
  let is_replica = Array.make (Hostpool.size pool) false in
  Array.iter (fun s -> is_replica.(s) <- true) replica_slot;
  let clients =
    let l = ref [] in
    for r = nregions - 1 downto 0 do
      for i = cfg_hosts - 1 downto 0 do
        let slot = Topo.host_slot topo ~region:r ~index:i in
        if not is_replica.(slot) then l := (slot, r) :: !l
      done
    done;
    Array.of_list !l
  in
  let nclients = Array.length clients in
  let client_ix = Array.make (Hostpool.size pool) (-1) in
  Array.iteri (fun ix (slot, _) -> client_ix.(slot) <- ix) clients;

  (* Session i runs on client (i mod nclients) from source port
     [client_port_base + i / nclients] — the (host, port) pair is the
     client endpoint, so 10^4 pooled hosts present >= 10^5 distinct
     clients to the resolvers, exactly the churn E21 is after. *)
  let sess =
    Array.init sessions (fun i ->
        let _, region = clients.(i mod nclients) in
        let kind = if i mod 10 = 9 then 1 else 0 in
        let target =
          if kind = 0 then i mod services else i mod popular_hosts
        in
        { s_query_us = -1; s_resolve_us = -1; s_done_us = -1; s_rcode = -1;
          s_kind = kind; s_target = target; s_region = region })
  in
  let popular_region p = ((p * 7) + 3) mod nregions in
  let request_payload = Bytes.make 32 'r' in

  (* -- data plane: one shared closure gives every pooled host its
     behavior (replica echo, client resolve -> request -> response) --- *)
  let dead = Array.make (Hostpool.size pool) false in
  Hostpool.set_udp_sink pool
    (Some
       (fun slot ~src ~src_port ~dst_port payload ->
         if dst_port = svc_port then begin
           (* replica: echo requests and probes, unless crashed *)
           if is_replica.(slot) && not dead.(slot) then
             ignore
               (Hostpool.send_udp pool slot ~dst:src ~src_port:svc_port
                  ~dst_port:src_port payload
                 : bool)
         end
         else if client_ix.(slot) >= 0 && dst_port >= client_port_base then begin
           let i =
             ((dst_port - client_port_base) * nclients) + client_ix.(slot)
           in
           if i < sessions then
             let s = sess.(i) in
             if src_port = Names.Resolver.well_known_port then begin
               (* resolver answered: fire the request (service sessions)
                  or finish (host sessions) *)
               match W.decode payload with
               | Error _ -> ()
               | Ok m ->
                   if s.s_resolve_us < 0 then begin
                     s.s_resolve_us <- Engine.now eng;
                     s.s_rcode <- m.W.rcode;
                     if m.W.rcode = W.rcode_ok then
                       if s.s_kind = 1 then s.s_done_us <- s.s_resolve_us
                       else
                         ignore
                           (Hostpool.send_udp pool slot
                              ~dst:(W.answer_addr m) ~src_port:dst_port
                              ~dst_port:svc_port request_payload
                             : bool)
                   end
             end
             else if src_port = svc_port then begin
               (* the replica's response: session complete *)
               if s.s_resolve_us >= 0 && s.s_done_us < 0 then
                 s.s_done_us <- Engine.now eng
             end
         end))
    ;

  (* -- workload script ----------------------------------------------- *)
  let total_lookups () =
    Array.fold_left
      (fun a r -> a + (Names.Resolver.stats r).Names.Resolver.lookups)
      0 resolvers
  in
  let total_hits () =
    Array.fold_left
      (fun a r -> a + (Names.Resolver.stats r).Names.Resolver.cache_hits)
      0 resolvers
  in
  let warm_i = sessions / 10 in
  let warm_lookups = ref 0 and warm_hits = ref 0 in
  let pace_us = max 1 (launch_window_us / sessions) in
  let launch i =
    if i = warm_i then begin
      warm_lookups := total_lookups ();
      warm_hits := total_hits ()
    end;
    let slot, region = clients.(i mod nclients) in
    let port = client_port_base + (i / nclients) in
    let s = sess.(i) in
    let q =
      if s.s_kind = 0 then
        W.query ~id:(i land 0xffff) ~rd:true ~qtype:W.qtype_svc
          ~l0:s.s_target ~l1:0 ~l2:0
      else
        W.query ~id:(i land 0xffff) ~rd:true ~qtype:W.qtype_host
          ~l0:(popular_region s.s_target) ~l1:s.s_target ~l2:0
    in
    s.s_query_us <- Engine.now eng;
    ignore
      (Hostpool.send_udp pool slot ~dst:(Topo.region_gw_addr region)
         ~src_port:port ~dst_port:Names.Resolver.well_known_port
         (W.encode q)
        : bool)
  in
  let rec launch_from i =
    if i < sessions then begin
      launch i;
      Engine.after eng pace_us (fun () -> launch_from (i + 1))
    end
  in
  Engine.after eng 1 (fun () -> launch_from 0);

  (* The crash script.  The replica dies silently; detection and
     recovery timestamps come from watching the directory's counters. *)
  let victim = replica_slot.(0) (* service 0, replica 0 *) in
  let t_crash = ref (-1) and t_detect = ref (-1) in
  let t_recover = ref (-1) and t_redetect = ref (-1) in
  Engine.after eng crash_at_us (fun () ->
      dead.(victim) <- true;
      t_crash := Engine.now eng);
  Engine.after eng recover_at_us (fun () ->
      dead.(victim) <- false;
      t_recover := Engine.now eng);
  let rec watch () =
    let st = Names.Service.stats dir in
    if !t_detect < 0 && st.Names.Service.failovers_down > 0 then
      t_detect := Engine.now eng;
    if !t_redetect < 0 && st.Names.Service.failovers_up > 0 then
      t_redetect := Engine.now eng;
    if Engine.now eng < run_until_us then Engine.after eng 50_000 watch
  in
  Engine.after eng 50_000 watch;

  (* E16-style crash amnesia at a block of region gateways: the reboot
     keeps configuration and lets routing reconverge (we restore the
     learned routes in place, zero downtime), but the resolver cache and
     every in-flight walk are gone — that loss is the experiment. *)
  Engine.after eng flush_at_us (fun () ->
      List.iter
        (fun r ->
          let gw = Topo.region_gw topo r in
          let learned =
            List.filter
              (fun (rt : Ip.Route_table.route) ->
                rt.Ip.Route_table.metric > 0
                || rt.Ip.Route_table.next_hop <> None)
              (Ip.Route_table.entries (Ip.Stack.table gw))
          in
          Ip.Stack.flush_soft_state gw;
          List.iter (Ip.Route_table.add (Ip.Stack.table gw)) learned)
        flushed_regions);

  (* -- run ------------------------------------------------------------ *)
  let wall0 = Unix.gettimeofday () in
  Engine.run ~until:run_until_us eng;
  let wall = Unix.gettimeofday () -. wall0 in

  (* -- harvest -------------------------------------------------------- *)
  let lookups = total_lookups () and hits = total_hits () in
  let steady_lookups = lookups - !warm_lookups in
  let steady_hits = hits - !warm_hits in
  let steady_hit_pct =
    if steady_lookups = 0 then 0.0
    else 100.0 *. float_of_int steady_hits /. float_of_int steady_lookups
  in
  let resolve_lat =
    let l = ref [] in
    Array.iter
      (fun s ->
        if s.s_resolve_us >= 0 then
          l := (s.s_resolve_us - s.s_query_us) :: !l)
      sess;
    let a = Array.of_list !l in
    Array.sort compare a;
    a
  in
  let p99_resolve_ms = percentile resolve_lat 0.99 /. 1_000.0 in
  let p50_resolve_ms = percentile resolve_lat 0.50 /. 1_000.0 in
  let failover_s =
    if !t_detect < 0 || !t_crash < 0 then -1.0
    else float_of_int (!t_detect - !t_crash) /. 1e6
  in
  let recovery_s =
    if !t_redetect < 0 || !t_recover < 0 then -1.0
    else float_of_int (!t_redetect - !t_recover) /. 1e6
  in
  (* Loss accounting: a session is lost if it never completed.  Losses
     are excusable inside the two declared windows — service-0 sessions
     while the crashed replica could still be handed out (directory
     detection lag + resolver cache TTL), and sessions from the flushed
     regions whose walk the amnesia aborted. *)
  let sec = 1_000_000 in
  let crash_lo = crash_at_us - sec
  and crash_hi = (if !t_detect >= 0 then !t_detect else crash_at_us) + 2 * sec
  in
  let flush_lo = flush_at_us - sec and flush_hi = flush_at_us + sec in
  let completed = ref 0 and lost_in_windows = ref 0 in
  let lost_outside = ref 0 and servfails = ref 0 in
  let crash_launched = ref 0 and crash_completed = ref 0 in
  Array.iter
    (fun s ->
      let in_crash_window =
        s.s_kind = 0 && s.s_target = 0 && s.s_query_us >= crash_lo
        && s.s_query_us <= crash_hi
      in
      if in_crash_window then begin
        incr crash_launched;
        if s.s_done_us >= 0 then incr crash_completed
      end;
      if s.s_done_us >= 0 then incr completed
      else if s.s_rcode = W.rcode_servfail then incr servfails
      else if
        in_crash_window
        || (List.mem s.s_region flushed_regions
           && s.s_query_us >= flush_lo && s.s_query_us <= flush_hi)
      then incr lost_in_windows
      else incr lost_outside)
    sess;
  let goodput_in_crash_pct =
    if !crash_launched = 0 then 100.0
    else 100.0 *. float_of_int !crash_completed /. float_of_int !crash_launched
  in
  let resolver_flushes =
    Array.fold_left
      (fun a r -> a + (Names.Resolver.stats r).Names.Resolver.flushes)
      0 resolvers
  in
  let cache_agg f =
    Array.fold_left
      (fun a r -> a + f (Names.Cache.stats (Names.Resolver.cache r)))
      0 resolvers
  in
  let eph_allocs = ref 0 and eph_reuses = ref 0 and eph_exhausted = ref 0 in
  Array.iter
    (fun udp ->
      let u = Udp.stats udp in
      eph_allocs := !eph_allocs + u.Udp.eph_allocs;
      eph_reuses := !eph_reuses + u.Udp.eph_reuses;
      eph_exhausted := !eph_exhausted + u.Udp.eph_exhausted)
    gw_udp;

  Util.table
    [ "metric"; "value" ]
    [
      [ "client endpoints"; string_of_int sessions ];
      [ "hosts"; string_of_int (nregions * cfg_hosts) ];
      [ "lookups"; string_of_int lookups ];
      [ "lookups/s (wall)"; Printf.sprintf "%.0f" (float_of_int lookups /. wall) ];
      [ "steady-state cache hit"; Printf.sprintf "%.2f%%" steady_hit_pct ];
      [ "resolve p50 / p99"; Printf.sprintf "%.2f / %.2f ms" p50_resolve_ms p99_resolve_ms ];
      [ "failover detect"; Printf.sprintf "%.2f s" failover_s ];
      [ "recovery detect"; Printf.sprintf "%.2f s" recovery_s ];
      [ "goodput in crash window"; Printf.sprintf "%.1f%%" goodput_in_crash_pct ];
      [ "completed"; string_of_int !completed ];
      [ "lost (in windows)"; string_of_int !lost_in_windows ];
      [ "lost (outside)"; string_of_int !lost_outside ];
      [ "servfail sessions"; string_of_int !servfails ];
      [ "resolver amnesia flushes"; string_of_int resolver_flushes ];
      [ "ephemeral ports alloc/reuse"; Printf.sprintf "%d / %d" !eph_allocs !eph_reuses ];
    ];
  Util.gate "clients" (float_of_int sessions) (Util.At_least 100_000.0);
  Util.gate "steady_hit_pct" steady_hit_pct (Util.At_least 95.0);
  Util.gate "p99_resolve_ms" p99_resolve_ms (Util.At_most 20.0);
  (* -1 when the directory never noticed the crash. *)
  Util.gate "failover_s" failover_s (Util.At_least 0.0);
  Util.gate "failover_s" failover_s (Util.At_most 12.0);
  Util.gate "lost_outside_crash" (float_of_int !lost_outside)
    (Util.At_most 0.0);

  let open Trace.Json in
  Util.write_json "BENCH_names.json"
    (Obj
       [ ("experiment", Str "E21");
         ("clients", Int sessions);
         ("hosts", Int (nregions * cfg_hosts));
         ("regions", Int nregions);
         ("services", Int services);
         ("replicas_per_service", Int replicas_per_service);
         ("lookups", Int lookups);
         ("steady_hit_pct", Float steady_hit_pct);
         ("p50_resolve_ms", Float p50_resolve_ms);
         ("p99_resolve_ms", Float p99_resolve_ms);
         ("failover_s", Float failover_s);
         ("recovery_s", Float recovery_s);
         ("goodput_in_crash_pct", Float goodput_in_crash_pct);
         ("completed", Int !completed);
         ("servfail_sessions", Int !servfails);
         ("lost_in_windows", Int !lost_in_windows);
         ("lost_outside_crash", Int !lost_outside);
         ("resolver_flushes", Int resolver_flushes);
         ("cache",
          Obj
            [ ("hits", Int (cache_agg (fun s -> s.Names.Cache.hits)));
              ("misses", Int (cache_agg (fun s -> s.Names.Cache.misses)));
              ("expired", Int (cache_agg (fun s -> s.Names.Cache.expired)));
              ("evictions", Int (cache_agg (fun s -> s.Names.Cache.evictions)));
              ("flushes", Int (cache_agg (fun s -> s.Names.Cache.flushes))) ]);
         ("ephemeral_ports",
          Obj
            [ ("allocs", Int !eph_allocs);
              ("reuses", Int !eph_reuses);
              ("exhausted", Int !eph_exhausted) ]) ])
