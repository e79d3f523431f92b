module Addr = Packet.Addr
module Wire = Names_wire

(* The caching, recursing resolver.  One per region gateway in the E21
   deployment: pooled clients in the region send it RD queries at port
   53; it answers from its LRU+TTL cache or walks the hierarchy
   iteratively (root, then the referred region authority), coalescing
   concurrent identical queries into one upstream walk (single-flight).

   Everything it holds is soft state.  [flush] — wired to
   [Ip.Stack.on_soft_flush], so a chaos crash triggers it — forgets the
   cache and aborts every in-flight walk; clients retry, authorities
   still know, the system re-warms.  That is fate-sharing applied to
   the naming layer. *)

let well_known_port = 53

type waiter =
  | Remote of { w_src : Addr.t; w_port : int; w_id : int }
  | Local of (rcode:int -> answer:int -> ttl_s:int -> unit)

type flight = {
  f_key : int;
  f_qtype : int;
  f_l0 : int;
  f_l1 : int;
  f_l2 : int;
  mutable f_id : int;  (* current upstream query id *)
  mutable f_server : Addr.t;
  mutable f_hops : int;  (* referrals followed *)
  mutable f_retry : int;  (* timeouts at the current server *)
  mutable f_sock : Udp.socket option;
  mutable f_timer : Engine.Timer.handle option;
  mutable f_waiters : waiter list;  (* newest first *)
  mutable f_done : bool;
}

type stats = {
  mutable lookups : int;
  mutable cache_hits : int;
  mutable coalesced : int;  (* joined an existing flight (single-flight) *)
  mutable upstream : int;  (* upstream queries sent, retries included *)
  mutable retries : int;
  mutable answers : int;  (* terminal answers delivered (any rcode) *)
  mutable servfails : int;
  mutable bad : int;  (* undecodable or unexpected datagrams *)
  mutable flushes : int;
}

type t = {
  udp : Udp.t;
  eng : Engine.t;
  node : int;
  src : Addr.t option;
  root : Addr.t;
  authority_port : int;
  timeout_us : int;
  retries : int;
  max_hops : int;
  cache : Cache.t;
  inflight : (int, flight) Hashtbl.t;  (* key -> flight *)
  mutable sock : Udp.socket option;  (* client-facing, port 53 *)
  mutable next_id : int;
  stats : stats;
}

let cache t = t.cache
let stats t = t.stats

let fresh_id t =
  t.next_id <- (t.next_id + 1) land 0xffff;
  t.next_id

let deleg_key l0 = Cache.key ~qtype:Wire.qtype_deleg ~l0 ~l1:0 ~l2:0

(* -- delivering ------------------------------------------------------ *)

let deliver t fl ~rcode ~answer ~ttl_s =
  if rcode = Wire.rcode_servfail then
    t.stats.servfails <- t.stats.servfails + 1;
  t.stats.answers <- t.stats.answers + List.length fl.f_waiters;
  if Trace.want Trace.Cls.name then
    Trace.emit
      (Trace.Event.Name_answer { node = t.node; rcode; ttl = ttl_s });
  List.iter
    (fun w ->
      match w with
      | Local k -> k ~rcode ~answer ~ttl_s
      | Remote { w_src; w_port; w_id } -> (
          match t.sock with
          | None -> ()
          | Some sock ->
              let msg =
                { Wire.id = w_id; response = true; rd = false; aa = false;
                  rcode; qtype = fl.f_qtype; l0 = fl.f_l0; l1 = fl.f_l1;
                  l2 = fl.f_l2; ttl_s; answer }
              in
              ignore
                (Udp.sendto sock ?src:t.src ~dst:w_src ~dst_port:w_port
                   (Wire.encode msg)
                  : (unit, Udp.send_error) result)))
    (List.rev fl.f_waiters)

let finish t fl ~rcode ~answer ~ttl_s =
  if not fl.f_done then begin
    fl.f_done <- true;
    (match fl.f_timer with
    | Some h -> Engine.Timer.cancel h
    | None -> ());
    fl.f_timer <- None;
    (match fl.f_sock with Some s -> Udp.close s | None -> ());
    fl.f_sock <- None;
    Hashtbl.remove t.inflight fl.f_key;
    deliver t fl ~rcode ~answer ~ttl_s
  end

(* -- the iterative walk ---------------------------------------------- *)

let rec send_upstream t fl =
  let id = fresh_id t in
  fl.f_id <- id;
  let sock =
    match fl.f_sock with
    | Some s -> s
    | None ->
        (* A fresh ephemeral socket per walk: response demux by port,
           and exactly the churn the E21 workload is built to stress. *)
        let s =
          Udp.bind t.udp
            ~recv:(fun ~src ~src_port:_ buf -> upstream_recv t fl ~src buf)
            ()
        in
        fl.f_sock <- Some s;
        s
  in
  t.stats.upstream <- t.stats.upstream + 1;
  if Trace.want Trace.Cls.name then
    Trace.emit
      (Trace.Event.Name_upstream
         { node = t.node; qtype = fl.f_qtype; retry = fl.f_retry });
  let q =
    Wire.query ~id ~rd:false ~qtype:fl.f_qtype ~l0:fl.f_l0 ~l1:fl.f_l1
      ~l2:fl.f_l2
  in
  (* A send error (no route yet, link down) is handled exactly like a
     lost datagram: the timer retries, then SERVFAIL. *)
  ignore
    (Udp.sendto sock ?src:t.src ~dst:fl.f_server
       ~dst_port:t.authority_port (Wire.encode q)
      : (unit, Udp.send_error) result);
  fl.f_timer <-
    Some (Engine.Timer.start t.eng ~after:t.timeout_us (fun () ->
        on_timeout t fl))

and on_timeout t fl =
  if not fl.f_done then begin
    fl.f_timer <- None;
    fl.f_retry <- fl.f_retry + 1;
    if fl.f_retry > t.retries then
      finish t fl ~rcode:Wire.rcode_servfail ~answer:0 ~ttl_s:0
    else begin
      t.stats.retries <- t.stats.retries + 1;
      send_upstream t fl
    end
  end

and upstream_recv t fl ~src buf =
  if not fl.f_done then
    match Wire.decode buf with
    | Error _ -> t.stats.bad <- t.stats.bad + 1
    | Ok m when (not m.Wire.response) || m.Wire.id <> fl.f_id ->
        t.stats.bad <- t.stats.bad + 1
    | Ok m ->
        ignore src;
        (match fl.f_timer with
        | Some h -> Engine.Timer.cancel h
        | None -> ());
        fl.f_timer <- None;
        if m.Wire.rcode = Wire.rcode_referral then begin
          (* Cache the delegation, then walk down. *)
          Cache.insert t.cache ~now_us:(Engine.now t.eng)
            ~key:(deleg_key fl.f_l0) ~rcode:Wire.rcode_ok
            ~answer:m.Wire.answer ~ttl_s:m.Wire.ttl_s;
          fl.f_hops <- fl.f_hops + 1;
          if fl.f_hops > t.max_hops then
            finish t fl ~rcode:Wire.rcode_servfail ~answer:0 ~ttl_s:0
          else begin
            fl.f_server <- Wire.answer_addr m;
            fl.f_retry <- 0;
            send_upstream t fl
          end
        end
        else if
          m.Wire.rcode = Wire.rcode_ok || m.Wire.rcode = Wire.rcode_nxname
        then begin
          (* Terminal, cacheable (positive or negative). *)
          Cache.insert t.cache ~now_us:(Engine.now t.eng) ~key:fl.f_key
            ~rcode:m.Wire.rcode ~answer:m.Wire.answer ~ttl_s:m.Wire.ttl_s;
          finish t fl ~rcode:m.Wire.rcode ~answer:m.Wire.answer
            ~ttl_s:m.Wire.ttl_s
        end
        else
          (* SERVFAIL / Refused upstream: terminal, never cached. *)
          finish t fl ~rcode:Wire.rcode_servfail ~answer:0 ~ttl_s:0

(* -- query admission ------------------------------------------------- *)

let enqueue t ~qtype ~l0 ~l1 ~l2 waiter =
  let key = Cache.key ~qtype ~l0 ~l1 ~l2 in
  match Hashtbl.find_opt t.inflight key with
  | Some fl ->
      (* Single-flight: one walk serves every concurrent asker. *)
      t.stats.coalesced <- t.stats.coalesced + 1;
      fl.f_waiters <- waiter :: fl.f_waiters
  | None ->
      let server =
        if qtype = Wire.qtype_host then
          match Cache.find t.cache ~now_us:(Engine.now t.eng) (deleg_key l0)
          with
          | Some (_, bits, _) -> Addr.of_int bits
          | None -> t.root
        else t.root
      in
      let fl =
        { f_key = key; f_qtype = qtype; f_l0 = l0; f_l1 = l1; f_l2 = l2;
          f_id = 0; f_server = server; f_hops = 0; f_retry = 0;
          f_sock = None; f_timer = None; f_waiters = [ waiter ];
          f_done = false }
      in
      Hashtbl.add t.inflight key fl;
      send_upstream t fl

let lookup t ~qtype ~l0 ~l1 ~l2 waiter =
  t.stats.lookups <- t.stats.lookups + 1;
  let key = Cache.key ~qtype ~l0 ~l1 ~l2 in
  match Cache.find t.cache ~now_us:(Engine.now t.eng) key with
  | Some (rcode, answer, ttl_s) ->
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      if Trace.want Trace.Cls.name then
        Trace.emit
          (Trace.Event.Name_lookup { node = t.node; qtype; hit = true });
      (match waiter with
      | Local k -> k ~rcode ~answer ~ttl_s
      | Remote { w_src; w_port; w_id } -> (
          match t.sock with
          | None -> ()
          | Some sock ->
              let msg =
                { Wire.id = w_id; response = true; rd = false; aa = false;
                  rcode; qtype; l0; l1; l2; ttl_s; answer }
              in
              ignore
                (Udp.sendto sock ?src:t.src ~dst:w_src ~dst_port:w_port
                   (Wire.encode msg)
                  : (unit, Udp.send_error) result)))
  | None ->
      if Trace.want Trace.Cls.name then
        Trace.emit
          (Trace.Event.Name_lookup { node = t.node; qtype; hit = false });
      enqueue t ~qtype ~l0 ~l1 ~l2 waiter

let resolve t ~qtype ~l0 ~l1 ~l2 k = lookup t ~qtype ~l0 ~l1 ~l2 (Local k)

let client_recv t ~src ~src_port buf =
  match Wire.decode buf with
  | Error _ -> t.stats.bad <- t.stats.bad + 1
  | Ok m when m.Wire.response || not m.Wire.rd ->
      (* Responses don't belong here, and a non-RD query at a resolver
         is a config error; drop rather than answer wrong. *)
      t.stats.bad <- t.stats.bad + 1
  | Ok m ->
      lookup t ~qtype:m.Wire.qtype ~l0:m.Wire.l0 ~l1:m.Wire.l1 ~l2:m.Wire.l2
        (Remote { w_src = src; w_port = src_port; w_id = m.Wire.id })

(* -- crash amnesia --------------------------------------------------- *)

let flush t =
  Cache.flush t.cache;
  t.stats.flushes <- t.stats.flushes + 1;
  (* In key order: the Local continuations run caller code that can
     schedule events, so the teardown order must be canonical. *)
  Stdext.Det.sorted_iter ~compare:Int.compare
    (fun _ fl ->
      fl.f_done <- true;
      (match fl.f_timer with
      | Some h -> Engine.Timer.cancel h
      | None -> ());
      fl.f_timer <- None;
      (match fl.f_sock with Some s -> Udp.close s | None -> ());
      fl.f_sock <- None;
      (* Remote waiters get nothing — a crashed resolver cannot answer;
         clients time out and retry.  Local waiters (in-process callers)
         hear SERVFAIL so they are never stuck. *)
      List.iter
        (fun w ->
          match w with
          | Local k ->
              k ~rcode:Wire.rcode_servfail ~answer:0 ~ttl_s:0
          | Remote _ -> ())
        (List.rev fl.f_waiters))
    t.inflight;
  Hashtbl.reset t.inflight

let create ~udp ~eng ~node ?src ~root ?(port = well_known_port)
    ?(authority_port = Server.well_known_port) ?(cache_capacity = 4096)
    ?(timeout_us = 250_000) ?(retries = 2) ?(max_hops = 4) () =
  let t =
    { udp; eng; node; src; root; authority_port; timeout_us; retries;
      max_hops;
      cache = Cache.create ~capacity:cache_capacity;
      inflight = Hashtbl.create 64;
      sock = None;
      next_id = 0;
      stats =
        { lookups = 0; cache_hits = 0; coalesced = 0; upstream = 0;
          retries = 0; answers = 0; servfails = 0; bad = 0; flushes = 0 } }
  in
  t.sock <-
    Some
      (Udp.bind udp ~port
         ~recv:(fun ~src ~src_port buf -> client_recv t ~src ~src_port buf)
         ());
  (* Crash amnesia reaches the naming layer through the stack's flush
     hook: when chaos crashes this node, the cache and every in-flight
     walk vanish with it. *)
  Ip.Stack.on_soft_flush (Udp.stack udp) (fun () -> flush t);
  t

let metrics_items t () =
  let c = Cache.stats t.cache in
  [ ("lookups", Trace.Metrics.Int t.stats.lookups);
    ("cache_hits", Trace.Metrics.Int t.stats.cache_hits);
    ("coalesced", Trace.Metrics.Int t.stats.coalesced);
    ("upstream", Trace.Metrics.Int t.stats.upstream);
    ("retries", Trace.Metrics.Int t.stats.retries);
    ("answers", Trace.Metrics.Int t.stats.answers);
    ("servfails", Trace.Metrics.Int t.stats.servfails);
    ("bad", Trace.Metrics.Int t.stats.bad);
    ("flushes", Trace.Metrics.Int t.stats.flushes);
    ("cache_len", Trace.Metrics.Int (Cache.len t.cache));
    ("cache_expired", Trace.Metrics.Int c.Cache.expired);
    ("cache_evictions", Trace.Metrics.Int c.Cache.evictions) ]
