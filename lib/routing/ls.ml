module Addr = Packet.Addr
module Prefix = Addr.Prefix

type config = {
  hello_us : int;
  dead_count : int;
  refresh_us : int;
  max_age_us : int;
  port : int;
}

let default_config =
  {
    hello_us = 1_000_000;
    dead_count = 3;
    refresh_us = 15_000_000;
    max_age_us = 60_000_000;
    port = 521;
  }

type stats = {
  mutable hellos_sent : int;
  mutable lsas_originated : int;
  mutable lsas_flooded : int;
  mutable lsas_received : int;
  mutable spf_runs : int;
  mutable bad_messages : int;
}

type adjacency = {
  a_iface : Netsim.iface;
  a_addr : Addr.t;
  a_cost : int;
  mutable a_router_id : int32 option; (* learned from hellos *)
  mutable a_last_hello : int;
  mutable a_alive : bool;
}

type lsdb_entry = { lsa : Rt_msg.lsa; mutable received_at : int }

type t = {
  udp : Udp.t;
  ip : Ip.Stack.t;
  eng : Engine.t;
  config : config;
  id : int32;
  mutable adjacencies : adjacency list;
  lsdb : (int32, lsdb_entry) Hashtbl.t;
  mutable seq : int;
  mutable installed : Prefix.t list;
  mutable installed_metrics : (Prefix.t * int) list;
  mutable externals : (Prefix.t * int) list;
  stats : stats;
  mutable sock : Udp.socket option;
  mutable started : bool;
}

let stats t = t.stats
let lsdb_size t = Hashtbl.length t.lsdb
let router_id t = Addr.of_int (Int32.to_int t.id)

let create ?(config = default_config) udp =
  let ip = Udp.stack udp in
  {
    udp;
    ip;
    eng = Ip.Stack.engine ip;
    config;
    id = Int32.of_int (Addr.to_int (Ip.Stack.primary_addr ip));
    adjacencies = [];
    lsdb = Hashtbl.create 32;
    seq = 0;
    installed = [];
    installed_metrics = [];
    externals = [];
    stats =
      {
        hellos_sent = 0;
        lsas_originated = 0;
        lsas_flooded = 0;
        lsas_received = 0;
        spf_runs = 0;
        bad_messages = 0;
      };
    sock = None;
    started = false;
  }

let add_neighbor t iface addr ~cost =
  t.adjacencies <-
    {
      a_iface = iface;
      a_addr = addr;
      a_cost = cost;
      a_router_id = None;
      a_last_hello = min_int / 2;
      a_alive = false;
    }
    :: t.adjacencies

let alive_adjacencies t = List.filter (fun a -> a.a_alive) t.adjacencies

let send_to t (a : adjacency) msg =
  match t.sock with
  | None -> ()
  | Some sock ->
      ignore
        (Udp.sendto sock ~ttl:1 ~dst:a.a_addr ~dst_port:t.config.port
           (Rt_msg.encode msg))

(* Own connected prefixes, advertised as stubs. *)
let own_prefixes t =
  List.filter_map
    (fun (r : Ip.Route_table.route) ->
      if r.next_hop = None && r.metric = 0 then
        Some { Rt_msg.prefix = r.prefix; cost = 0 }
      else None)
    (Ip.Route_table.entries (Ip.Stack.table t.ip))
  @ List.map
      (fun (prefix, cost) -> { Rt_msg.prefix; cost })
      t.externals

let flood t ?except lsa =
  List.iter
    (fun a ->
      let skip = match except with Some i -> a.a_iface = i | None -> false in
      if not skip then begin
        t.stats.lsas_flooded <- t.stats.lsas_flooded + 1;
        send_to t a (Rt_msg.Lsa lsa)
      end)
    (alive_adjacencies t)

(* Dijkstra over the LSDB.  Edges require agreement: u->v is usable only
   if v's LSA also lists u (standard two-way connectivity check). *)
let spf t =
  t.stats.spf_runs <- t.stats.spf_runs + 1;
  let lists_back v u =
    match Hashtbl.find_opt t.lsdb v with
    | None -> false
    | Some e ->
        List.exists
          (fun (n : Rt_msg.ls_neighbor) -> Int32.equal n.neighbor_id u)
          e.lsa.Rt_msg.neighbors
  in
  let dist : (int32, int) Hashtbl.t = Hashtbl.create 16 in
  let first_hop : (int32, adjacency) Hashtbl.t = Hashtbl.create 16 in
  let pq = Stdext.Heap.create () in
  let seq = ref 0 in
  let push d node hop =
    Stdext.Heap.push pq ~key:d ~seq:!seq (node, hop);
    incr seq
  in
  Hashtbl.replace dist t.id 0;
  (* Seed with our alive adjacencies whose router id we know. *)
  List.iter
    (fun a ->
      match a.a_router_id with
      | Some rid when lists_back rid t.id || Hashtbl.mem t.lsdb rid ->
          push a.a_cost rid (Some a)
      | Some _ | None -> ())
    (alive_adjacencies t);
  let rec drain () =
    match Stdext.Heap.pop pq with
    | None -> ()
    | Some (d, _, (node, hop)) ->
        if not (Hashtbl.mem dist node) then begin
          Hashtbl.replace dist node d;
          (match hop with
          | Some a -> Hashtbl.replace first_hop node a
          | None -> ());
          (match Hashtbl.find_opt t.lsdb node with
          | None -> ()
          | Some e ->
              List.iter
                (fun (n : Rt_msg.ls_neighbor) ->
                  if
                    (not (Hashtbl.mem dist n.neighbor_id))
                    && lists_back n.neighbor_id node
                  then push (d + n.cost) n.neighbor_id hop)
                e.lsa.Rt_msg.neighbors)
        end;
        drain ()
  in
  drain ();
  (dist, first_hop)

(* Recompute routes and install the diff into the stack table. *)
let recompute t =
  let dist, first_hop = spf t in
  let table = Ip.Stack.table t.ip in
  (* Gather best (metric, adjacency) per prefix across all origins.
     Ties on metric break on the lower origin id — equal-cost prefixes
     advertised by two routers used to keep whichever origin the hash
     table happened to visit first, a replay hazard.  With the total
     (metric, origin) order the gathering is iteration-order
     independent. *)
  let best : (Prefix.t, int * Int32.t * adjacency) Hashtbl.t =
    Hashtbl.create 32
  in
  (Hashtbl.iter
     (fun origin e ->
       if not (Int32.equal origin t.id) then
         match (Hashtbl.find_opt dist origin, Hashtbl.find_opt first_hop origin)
         with
         | Some d, Some hop ->
             List.iter
               (fun (p : Rt_msg.ls_prefix) ->
                 let metric = d + p.cost in
                 match Hashtbl.find_opt best p.prefix with
                 | Some (m, o, _)
                   when m < metric
                        || (m = metric && Int32.compare o origin <= 0) ->
                     ()
                 | Some _ | None ->
                     Hashtbl.replace best p.prefix (metric, origin, hop))
               e.lsa.Rt_msg.prefixes
         | _ -> ())
     t.lsdb [@determinism.commutative]);
  (* Remove routes we installed that are no longer computed. *)
  List.iter
    (fun p -> if not (Hashtbl.mem best p) then Ip.Route_table.remove table p)
    t.installed;
  (* Install in prefix order, never displacing connected routes: the
     install order and the [installed]/[installed_metrics] lists (the
     latter is public via [routes]) stay canonical. *)
  let installed = ref [] in
  let installed_metrics = ref [] in
  List.iter
    (fun (prefix, (metric, _origin, hop)) ->
      let is_connected =
        match Ip.Route_table.find table prefix with
        | Some r -> r.next_hop = None && r.metric = 0
        | None -> false
      in
      let is_own_external =
        List.exists (fun (p, _) -> Prefix.equal p prefix) t.externals
      in
      if (not is_connected) && not is_own_external then begin
        Ip.Route_table.add table
          {
            Ip.Route_table.prefix;
            iface = hop.a_iface;
            next_hop = Some hop.a_addr;
            metric;
          };
        installed := prefix :: !installed;
        installed_metrics := (prefix, metric) :: !installed_metrics
      end)
    (Stdext.Det.sorted_bindings ~compare:Prefix.compare best);
  t.installed <- List.rev !installed;
  t.installed_metrics <- List.rev !installed_metrics

let originate t =
  t.seq <- t.seq + 1;
  t.stats.lsas_originated <- t.stats.lsas_originated + 1;
  let neighbors =
    List.filter_map
      (fun a ->
        match a.a_router_id with
        | Some rid when a.a_alive ->
            Some { Rt_msg.neighbor_id = rid; cost = a.a_cost }
        | Some _ | None -> None)
      t.adjacencies
  in
  let lsa =
    { Rt_msg.origin = t.id; seq = t.seq; neighbors; prefixes = own_prefixes t }
  in
  Hashtbl.replace t.lsdb t.id
    { lsa; received_at = Engine.now t.eng };
  flood t lsa;
  recompute t

let handle_hello t ~src rid =
  match
    List.find_opt (fun a -> Addr.equal a.a_addr src) t.adjacencies
  with
  | None -> t.stats.bad_messages <- t.stats.bad_messages + 1
  | Some a ->
      a.a_last_hello <- Engine.now t.eng;
      let newly_up = not a.a_alive in
      let id_changed =
        match a.a_router_id with
        | Some old -> not (Int32.equal old rid)
        | None -> true
      in
      a.a_router_id <- Some rid;
      a.a_alive <- true;
      if newly_up || id_changed then begin
        originate t;
        (* Give the new neighbor our view of the world, in origin order:
           these become wire messages, so their order must be canonical. *)
        Stdext.Det.sorted_iter ~compare:Int32.compare
          (fun _ e -> send_to t a (Rt_msg.Lsa e.lsa))
          t.lsdb
      end

let handle_lsa t ~iface (lsa : Rt_msg.lsa) =
  t.stats.lsas_received <- t.stats.lsas_received + 1;
  if not (Int32.equal lsa.origin t.id) then begin
    let fresher =
      match Hashtbl.find_opt t.lsdb lsa.origin with
      | None -> true
      | Some e -> lsa.seq > e.lsa.Rt_msg.seq
    in
    if fresher then begin
      Hashtbl.replace t.lsdb lsa.origin
        { lsa; received_at = Engine.now t.eng };
      flood t ~except:iface lsa;
      recompute t
    end
  end

(* Map a datagram source address back to the arrival adjacency's iface. *)
let iface_of_src t src =
  Option.map (fun a -> a.a_iface)
    (List.find_opt (fun a -> Addr.equal a.a_addr src) t.adjacencies)

let handle_message t ~src buf =
  match Rt_msg.decode buf with
  | Ok (Rt_msg.Hello rid) -> handle_hello t ~src rid
  | Ok (Rt_msg.Lsa lsa) -> (
      match iface_of_src t src with
      | Some iface -> handle_lsa t ~iface lsa
      | None -> t.stats.bad_messages <- t.stats.bad_messages + 1)
  | Ok (Rt_msg.Dv_update _) | Error _ ->
      t.stats.bad_messages <- t.stats.bad_messages + 1

let hello_tick t =
  let now = Engine.now t.eng in
  let deadline = t.config.dead_count * t.config.hello_us in
  let changed = ref false in
  List.iter
    (fun a ->
      if a.a_alive && now - a.a_last_hello > deadline then begin
        a.a_alive <- false;
        changed := true
      end)
    t.adjacencies;
  (* Age out stale LSAs.  Order-independent: collect, then remove. *)
  let stale = ref [] in
  (Hashtbl.iter
     (fun origin e ->
       if
         (not (Int32.equal origin t.id))
         && now - e.received_at > t.config.max_age_us
       then stale := origin :: !stale)
     t.lsdb [@determinism.commutative]);
  if !stale <> [] then begin
    List.iter (Hashtbl.remove t.lsdb) !stale;
    changed := true
  end;
  List.iter
    (fun a ->
      t.stats.hellos_sent <- t.stats.hellos_sent + 1;
      send_to t a (Rt_msg.Hello t.id))
    t.adjacencies;
  if !changed then originate t

let reachable t addr =
  let dist, _ = spf t in
  Hashtbl.mem dist (Int32.of_int (Addr.to_int addr))

let set_external_prefixes t externals =
  if externals <> t.externals then begin
    t.externals <- externals;
    if t.started then originate t
  end

(* Crash simulation: the LSDB, adjacency liveness and installed-route
   bookkeeping are all soft state and die with the gateway.  [t.seq]
   deliberately survives — a rebooted router re-originating from a
   higher sequence number is what lets neighbors accept its fresh LSA
   over the stale pre-crash copy still flooding around. *)
let reset t =
  Hashtbl.reset t.lsdb;
  List.iter
    (fun a ->
      a.a_alive <- false;
      a.a_router_id <- None)
    t.adjacencies;
  t.installed <- [];
  t.installed_metrics <- []

let routes t =
  t.installed_metrics
  @ List.filter_map
      (fun (r : Ip.Route_table.route) ->
        if r.next_hop = None && r.metric = 0 then Some (r.prefix, 0) else None)
      (Ip.Route_table.entries (Ip.Stack.table t.ip))

let start t =
  if not t.started then begin
    t.started <- true;
    let sock =
      Udp.bind t.udp ~port:t.config.port
        ~recv:(fun ~src ~src_port:_ buf -> handle_message t ~src buf)
        ()
    in
    t.sock <- Some sock;
    originate t;
    let rec hello () =
      hello_tick t;
      Engine.after t.eng t.config.hello_us hello
    in
    let rec refresh () =
      originate t;
      Engine.after t.eng t.config.refresh_us refresh
    in
    Engine.after t.eng 1_000 hello;
    Engine.after t.eng t.config.refresh_us refresh
  end
