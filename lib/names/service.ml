module Addr = Packet.Addr
module Wire = Names_wire

(* The anycast service directory: one name, many replica hosts.
   Lives beside the root authority; answers service queries with the
   replica nearest (in region hops) to whoever asked, and keeps the
   health view that drives failover — an active UDP prober marks a
   replica down after [strike_limit] consecutive unanswered probes and
   up again on the first echo.

   Selection is "gateway-assisted" in the paper's spirit: the directory
   does not guess at geography, it is handed the topology's own
   region-distance function.  Health is soft state: it re-converges
   from probing after a crash, nothing needs to be told. *)

type replica = {
  r_service : int;
  r_index : int;
  r_region : int;
  r_bits : int;  (* replica address bits *)
  mutable r_up : bool;
  mutable r_strikes : int;  (* consecutive unanswered probes *)
}

type stats = {
  mutable probes : int;
  mutable probe_misses : int;
  mutable failovers_down : int;
  mutable failovers_up : int;
  mutable picks : int;
  mutable all_down : int;  (* service queries with no healthy replica *)
}

type t = {
  udp : Udp.t;
  eng : Engine.t;
  src : Addr.t option;
  service_port : int;  (* replicas answer requests (and probes) here *)
  svc_ttl_s : int;
  strike_limit : int;
  services : (int, replica array) Hashtbl.t;
  pending : (int, replica) Hashtbl.t;  (* probe seq -> awaited replica *)
  mutable probe_sock : Udp.socket option;
  mutable seq : int;
  mutable distance : int -> int -> int;
  stats : stats;
}

let create ~udp ~eng ?src ~service_port ?(svc_ttl_s = 1) ?(strike_limit = 2)
    () =
  { udp; eng; src; service_port; svc_ttl_s; strike_limit;
    services = Hashtbl.create 8;
    pending = Hashtbl.create 32;
    probe_sock = None;
    seq = 0;
    distance = (fun _ _ -> 0);
    stats =
      { probes = 0; probe_misses = 0; failovers_down = 0; failovers_up = 0;
        picks = 0; all_down = 0 } }

let set_distance t f = t.distance <- f
let stats t = t.stats

let register t ~service replicas =
  let arr =
    Array.of_list
      (List.mapi
         (fun i (region, addr) ->
           { r_service = service; r_index = i; r_region = region;
             r_bits = Wire.addr_bits addr; r_up = true; r_strikes = 0 })
         replicas)
  in
  Hashtbl.replace t.services service arr

let replica_up t ~service ~index =
  match Hashtbl.find_opt t.services service with
  | Some arr when index < Array.length arr -> arr.(index).r_up
  | Some _ | None -> false

(* Region of a querier, from its address: stub space encodes the region
   in bits 12..23 of 10/8; anything else (transit links, test rigs)
   counts as region 0. *)
let region_of_bits bits =
  if bits lsr 24 = 10 then (bits lsr 12) land 0xfff else 0

let pick t ~service ~client_region =
  match Hashtbl.find_opt t.services service with
  | None -> None
  | Some arr ->
      let best = ref None in
      Array.iter
        (fun r ->
          if r.r_up then
            let d = t.distance client_region r.r_region in
            match !best with
            | Some (d', _) when d' <= d -> ()
            | _ -> best := Some (d, r))
        arr;
      (match !best with
      | Some (_, r) ->
          t.stats.picks <- t.stats.picks + 1;
          Some r.r_bits
      | None ->
          t.stats.all_down <- t.stats.all_down + 1;
          None)

(* The service half of the root zone (plugs into
   [Server.root_authority]'s [svc]). *)
let answer_for t ~src (q : Wire.t) =
  if q.Wire.qtype <> Wire.qtype_svc then
    Server.Answer
      { aa = false; rcode = Wire.rcode_refused; ttl_s = 0; answer = 0 }
  else if not (Hashtbl.mem t.services q.Wire.l0) then
    Server.Answer
      { aa = true; rcode = Wire.rcode_nxname; ttl_s = t.svc_ttl_s;
        answer = 0 }
  else
    match
      pick t ~service:q.Wire.l0
        ~client_region:(region_of_bits (Wire.addr_bits src))
    with
    | Some bits ->
        Server.Answer
          { aa = true; rcode = Wire.rcode_ok; ttl_s = t.svc_ttl_s;
            answer = bits }
    | None ->
        (* Every replica looks dead: SERVFAIL, uncached, so clients
           retry as soon as probing notices a recovery. *)
        Server.Answer
          { aa = true; rcode = Wire.rcode_servfail; ttl_s = 0; answer = 0 }

(* -- health probing -------------------------------------------------- *)

(* Probe datagram: 4 bytes, a magic and a sequence number; replicas echo
   the payload verbatim (the same echo that serves client requests). *)
let probe_magic = 0xBE

let mark_down t r =
  if r.r_up then begin
    r.r_up <- false;
    t.stats.failovers_down <- t.stats.failovers_down + 1;
    if Trace.want Trace.Cls.name then
      Trace.emit
        (Trace.Event.Name_failover
           { service = r.r_service; replica = r.r_index; up = false })
  end

let mark_up t r =
  r.r_strikes <- 0;
  if not r.r_up then begin
    r.r_up <- true;
    t.stats.failovers_up <- t.stats.failovers_up + 1;
    if Trace.want Trace.Cls.name then
      Trace.emit
        (Trace.Event.Name_failover
           { service = r.r_service; replica = r.r_index; up = true })
  end

let on_probe_reply t buf =
  if Bytes.length buf >= 4 && Bytes.get_uint8 buf 0 = probe_magic then begin
    let seq = Bytes.get_uint16_be buf 2 in
    match Hashtbl.find_opt t.pending seq with
    | Some r ->
        Hashtbl.remove t.pending seq;
        mark_up t r
    | None -> ()
  end

let probe_round t =
  (* Last round's unanswered probes are this round's strikes.  In seq
     order: [mark_down] emits a trace event and flips failover state
     the next lookup observes, so the strike order must be canonical. *)
  Stdext.Det.sorted_iter ~compare:Int.compare
    (fun _ r ->
      t.stats.probe_misses <- t.stats.probe_misses + 1;
      r.r_strikes <- r.r_strikes + 1;
      if r.r_strikes >= t.strike_limit then mark_down t r)
    t.pending;
  Hashtbl.reset t.pending;
  match t.probe_sock with
  | None -> ()
  | Some sock ->
      (* In service order: probe emission allocates [t.seq] numbers and
         sends datagrams, both of which reach the wire. *)
      Stdext.Det.sorted_iter ~compare:Int.compare
        (fun _ arr ->
          Array.iter
            (fun r ->
              t.seq <- (t.seq + 1) land 0xffff;
              let seq = t.seq in
              let payload = Bytes.create 4 in
              Bytes.set_uint8 payload 0 probe_magic;
              Bytes.set_uint8 payload 1 0;
              Bytes.set_uint16_be payload 2 seq;
              Hashtbl.replace t.pending seq r;
              t.stats.probes <- t.stats.probes + 1;
              ignore
                (Udp.sendto sock ?src:t.src
                   ~dst:(Addr.of_int r.r_bits)
                   ~dst_port:t.service_port payload
                  : (unit, Udp.send_error) result))
            arr)
        t.services

let start_probing t ~interval_us =
  (match t.probe_sock with
  | Some _ -> ()
  | None ->
      t.probe_sock <-
        Some
          (Udp.bind t.udp
             ~recv:(fun ~src:_ ~src_port:_ buf -> on_probe_reply t buf)
             ()));
  let rec tick () =
    probe_round t;
    Engine.after t.eng interval_us tick
  in
  Engine.after t.eng interval_us tick

let metrics_items t () =
  [ ("probes", Trace.Metrics.Int t.stats.probes);
    ("probe_misses", Trace.Metrics.Int t.stats.probe_misses);
    ("failovers_down", Trace.Metrics.Int t.stats.failovers_down);
    ("failovers_up", Trace.Metrics.Int t.stats.failovers_up);
    ("picks", Trace.Metrics.Int t.stats.picks);
    ("all_down", Trace.Metrics.Int t.stats.all_down) ]
