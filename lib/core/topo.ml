module Addr = Packet.Addr
module Prefix = Packet.Addr.Prefix

(* Hierarchical catenet generator: the "regions" architecture of the
   paper's §6 made concrete.

   A seeded transit core (ring plus random chords of point-to-point
   links) carries aggregated routes only: each stub region hangs off one
   core gateway and appears everywhere else in the core as a single /20
   prefix.  Inside a region, the region gateway holds one host route per
   leaf and a default pointing up its transit link.  Leaf hosts are
   pooled ({!Hostpool}): no per-host stack, no per-host closure.

   The resulting forwarding-state shape is the point of E17: a core
   gateway's table size is O(regions + core degree) no matter whether the
   catenet has 10^2 or 10^5 hosts, and with the LPM trie underneath, its
   per-packet lookup cost does not grow either. *)

type config = {
  seed : int;
  core : int;  (* transit gateways, ring-connected *)
  chords : int;  (* extra random core cross-links *)
  regions : int;
  hosts_per_region : int;
  core_profile : Netsim.profile;
  edge_profile : Netsim.profile;  (* region gateway <-> core uplinks *)
  host_profile : Netsim.profile;  (* leaf host <-> region gateway *)
}

let default_config =
  let gig name =
    Netsim.profile name ~bandwidth_bps:1_000_000_000 ~delay_us:1 ~mtu:1500
      ~queue_capacity:4096
  in
  {
    seed = 17;
    core = 8;
    chords = 4;
    regions = 16;
    hosts_per_region = 64;
    core_profile = gig "core";
    edge_profile = gig "edge";
    host_profile = gig "host";
  }

type t = {
  eng : Engine.t;
  net : Netsim.t;
  pool : Hostpool.t;
  core_gw : Ip.Stack.t array;
  region_gw : Ip.Stack.t array;
  host_slot : int array array;  (* region -> index -> pool slot *)
  core_dist : int array array;  (* core gw -> core gw -> hops *)
  extra : int array;  (* region -> full-stack hosts added past the pool *)
  cfg : config;
}

let engine t = t.eng
let net t = t.net
let pool t = t.pool
let core_size t = Array.length t.core_gw
let regions t = Array.length t.region_gw
let hosts_per_region t = t.cfg.hosts_per_region
let core_gw t i = t.core_gw.(i)
let region_gw t r = t.region_gw.(r)
let host_slot t ~region ~index = t.host_slot.(region).(index)
let host_addr t ~region ~index =
  Hostpool.addr t.pool t.host_slot.(region).(index)

(* Region r owns 10.0.0.0/8 carved into /20s: up to 4096 regions of up
   to 4093 hosts. *)
let region_prefix r =
  Prefix.make (Addr.of_int (0x0A000000 lor (r lsl 12))) 20

let region_host r i =
  Addr.of_int (0x0A000000 lor (r lsl 12) lor (2 + i))

(* The region gateway's in-region address, .1 of the region's /20: the
   one gateway address that is *globally routed* (via the region's
   aggregate), unlike its transit-link /30 addresses.  Services that
   must be reachable from everywhere — the per-region resolver lives
   here — bind to this. *)
let region_gw_addr r =
  Addr.of_int (0x0A000000 lor (r lsl 12) lor 1)

(* Transit p2p links draw /30s from 172.16.0.0/12. *)
let transit_net k = 0xAC100000 + (4 * k)

let route_entries_total t =
  let sum =
    Array.fold_left
      (fun acc s -> acc + Ip.Route_table.length (Ip.Stack.table s))
      0
  in
  sum t.core_gw + sum t.region_gw

let core_table_max t =
  Array.fold_left
    (fun acc s -> max acc (Ip.Route_table.length (Ip.Stack.table s)))
    0 t.core_gw

let build cfg =
  if cfg.core < 1 then invalid_arg "Topo.build: need at least one core gw";
  if cfg.regions < 1 || cfg.regions > 4096 then
    invalid_arg "Topo.build: regions out of range";
  if cfg.hosts_per_region < 1 || cfg.hosts_per_region > 4093 then
    invalid_arg "Topo.build: hosts_per_region out of range";
  let eng = Engine.create () in
  let net = Netsim.create ~seed:cfg.seed eng in
  let rng = Stdext.Rng.create cfg.seed in
  let next_transit = ref 0 in
  (* --- transit core ---------------------------------------------------- *)
  let core_node = Array.init cfg.core (fun i -> Netsim.add_node net (Printf.sprintf "c%d" i)) in
  let core_gw =
    Array.map (fun n -> Ip.Stack.create ~forwarding:true net n) core_node
  in
  (* adjacency: per core gw, (peer index, my iface, peer's link addr) *)
  let adj = Array.make cfg.core [] in
  let connect_core a b =
    let k = !next_transit in
    incr next_transit;
    let base = transit_net k in
    let a_addr = Addr.of_int (base + 1) in
    let b_addr = Addr.of_int (base + 2) in
    let l = Netsim.add_link net cfg.core_profile core_node.(a) core_node.(b) in
    let (_, ia), (_, ib) = Netsim.endpoints net l in
    Ip.Stack.configure_iface core_gw.(a) ia ~addr:a_addr ~prefix_len:30;
    Ip.Stack.configure_iface core_gw.(b) ib ~addr:b_addr ~prefix_len:30;
    adj.(a) <- (b, ia, b_addr) :: adj.(a);
    adj.(b) <- (a, ib, a_addr) :: adj.(b)
  in
  if cfg.core = 2 then connect_core 0 1
  else if cfg.core > 2 then
    for i = 0 to cfg.core - 1 do
      connect_core i ((i + 1) mod cfg.core)
    done;
  let linked a b =
    List.exists (fun (p, _, _) -> p = b) adj.(a)
  in
  let chords = ref cfg.chords in
  let attempts = ref (8 * cfg.chords) in
  while !chords > 0 && !attempts > 0 do
    decr attempts;
    let a = Stdext.Rng.int rng cfg.core in
    let b = Stdext.Rng.int rng cfg.core in
    if a <> b && not (linked a b) then begin
      connect_core a b;
      decr chords
    end
  done;
  (* first hop from every core gw toward [dst]: BFS over the core graph *)
  let next_hop_toward dst =
    let hop = Array.make cfg.core None in
    let seen = Array.make cfg.core false in
    let q = Queue.create () in
    seen.(dst) <- true;
    Queue.add dst q;
    while not (Queue.is_empty q) do
      let v = Queue.take q in
      List.iter
        (fun (p, _iface_of_v, _) ->
          if not seen.(p) then begin
            seen.(p) <- true;
            (* p's first hop toward dst is v, via p's own iface on the
               p--v link *)
            (match List.find_opt (fun (q', _, _) -> q' = v) adj.(p) with
            | Some (_, iface, via) -> hop.(p) <- Some (iface, via)
            | None -> ());
            Queue.add p q
          end)
        adj.(v)
    done;
    hop
  in
  (* core hop-count matrix (for nearest-replica selection and the like):
     one BFS per core gateway over the final core graph *)
  let core_dist =
    Array.init cfg.core (fun s ->
        let d = Array.make cfg.core max_int in
        let q = Queue.create () in
        d.(s) <- 0;
        Queue.add s q;
        while not (Queue.is_empty q) do
          let v = Queue.take q in
          List.iter
            (fun (p, _, _) ->
              if d.(p) = max_int then begin
                d.(p) <- d.(v) + 1;
                Queue.add p q
              end)
            adj.(v)
        done;
        d)
  in
  (* --- stub regions ---------------------------------------------------- *)
  let pool = Hostpool.create net in
  let region_gw = Array.make cfg.regions core_gw.(0) in
  let host_slot =
    Array.make_matrix cfg.regions cfg.hosts_per_region (-1)
  in
  for r = 0 to cfg.regions - 1 do
    let attach = r mod cfg.core in
    let gw_node = Netsim.add_node net (Printf.sprintf "r%d" r) in
    let gw = Ip.Stack.create ~forwarding:true net gw_node in
    region_gw.(r) <- gw;
    (* uplink /30 to the attach core gateway *)
    let k = !next_transit in
    incr next_transit;
    let base = transit_net k in
    let core_addr = Addr.of_int (base + 1) in
    let gw_addr = Addr.of_int (base + 2) in
    let l = Netsim.add_link net cfg.edge_profile core_node.(attach) gw_node in
    let (_, core_if), (_, gw_if) = Netsim.endpoints net l in
    Ip.Stack.configure_iface core_gw.(attach) core_if ~addr:core_addr
      ~prefix_len:30;
    Ip.Stack.configure_iface gw gw_if ~addr:gw_addr ~prefix_len:30;
    Ip.Route_table.add (Ip.Stack.table gw)
      { Ip.Route_table.prefix = Prefix.default; iface = gw_if;
        next_hop = Some core_addr; metric = 1 };
    (* the region appears in the core as ONE aggregated /20: directly at
       the attach gateway, via BFS next hops everywhere else *)
    let prefix = region_prefix r in
    Ip.Route_table.add (Ip.Stack.table core_gw.(attach))
      { Ip.Route_table.prefix; iface = core_if; next_hop = Some gw_addr;
        metric = 1 };
    let hops = next_hop_toward attach in
    for c = 0 to cfg.core - 1 do
      if c <> attach then
        match hops.(c) with
        | Some (iface, via) ->
            Ip.Route_table.add (Ip.Stack.table core_gw.(c))
              { Ip.Route_table.prefix; iface; next_hop = Some via;
                metric = 2 }
        | None -> invalid_arg "Topo.build: core graph is disconnected"
    done;
    (* leaf hosts: pooled state, one host route each at the region gw *)
    for i = 0 to cfg.hosts_per_region - 1 do
      let a = region_host r i in
      let hn = Netsim.add_node net "h" in
      let hl = Netsim.add_link net cfg.host_profile gw_node hn in
      let (_, gw_host_if), (_, host_if) = Netsim.endpoints net hl in
      (* the gateway's routed in-region address (.1/32) rides the first
         leaf link's gateway-side interface — any in-region interface
         would do, the /32 connected route is what matters *)
      if i = 0 then
        Ip.Stack.configure_iface gw gw_host_if ~addr:(region_gw_addr r)
          ~prefix_len:32;
      Ip.Route_table.add (Ip.Stack.table gw)
        { Ip.Route_table.prefix = Prefix.host a; iface = gw_host_if;
          next_hop = None; metric = 0 };
      host_slot.(r).(i) <- Hostpool.attach pool ~node:hn ~iface:host_if ~addr:a
    done
  done;
  (* Renumber every gateway's trie depth first, now that it is built. *)
  Array.iter (fun s -> Ip.Route_table.relayout (Ip.Stack.table s)) core_gw;
  Array.iter (fun s -> Ip.Route_table.relayout (Ip.Stack.table s)) region_gw;
  { eng; net; pool; core_gw; region_gw; host_slot; core_dist;
    extra = Array.make cfg.regions 0; cfg }

let region_attach t r = r mod Array.length t.core_gw

(* Region-to-region distance in gateway hops: up the uplink, across the
   core, down the far uplink.  Only the ordering matters to anycast
   selection, but the numbers are true hop counts. *)
let region_hops t ra rb =
  if ra = rb then 0
  else 2 + t.core_dist.(region_attach t ra).(region_attach t rb)

(* A full-stack host inside a region, for infrastructure endpoints (name
   servers, service directories) that must speak real UDP: address drawn
   past the pooled range, /32 host route at the region gateway, default
   route up — reachable from everywhere via the region's aggregate. *)
let add_full_host t ~region =
  let r = region in
  if r < 0 || r >= Array.length t.region_gw then
    invalid_arg "Topo.add_full_host: region out of range";
  let idx = t.cfg.hosts_per_region + t.extra.(r) in
  if 2 + idx > 4094 then
    invalid_arg "Topo.add_full_host: region address space exhausted";
  t.extra.(r) <- t.extra.(r) + 1;
  let a = region_host r idx in
  let gw = t.region_gw.(r) in
  let hn = Netsim.add_node t.net "fh" in
  let hl =
    Netsim.add_link t.net t.cfg.host_profile (Ip.Stack.node_id gw) hn
  in
  let (_, gw_if), (_, host_if) = Netsim.endpoints t.net hl in
  let st = Ip.Stack.create t.net hn in
  Ip.Stack.configure_iface st host_if ~addr:a ~prefix_len:32;
  Ip.Route_table.add (Ip.Stack.table st)
    { Ip.Route_table.prefix = Prefix.default; iface = host_if;
      next_hop = None; metric = 0 };
  Ip.Route_table.add (Ip.Stack.table gw)
    { Ip.Route_table.prefix = Prefix.host a; iface = gw_if;
      next_hop = None; metric = 0 };
  (st, a)
