module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Wire = Packet.Udp_wire

type stats = {
  mutable datagrams_in : int;
  mutable datagrams_out : int;
  mutable bad : int;
  mutable no_port : int;
  mutable eph_allocs : int;
  mutable eph_reuses : int;
  mutable eph_exhausted : int;
}

type t = {
  ip : Ip.Stack.t;
  ports : (int, socket) Hashtbl.t;
  mutable next_ephemeral : int;
  eph_seen : Bytes.t;  (* one bit per ephemeral port: allocated before? *)
  stats : stats;
}

and socket = {
  udp : t;
  sock_port : int;
  recv : src:Addr.t -> src_port:int -> bytes -> unit;
  mutable open_ : bool;
}

let stack t = t.ip
let stats t = t.stats

(* Typed socket errors: matchable by callers and printable without
   string-parsing, replacing the bare [Failure _] this module used to
   raise. *)
type bind_error = Bad_port of int | Port_in_use of int | No_free_ports

exception Bind_error of bind_error

let bind_error_to_string = function
  | Bad_port p -> Printf.sprintf "bad port %d (want 1..65535)" p
  | Port_in_use p -> Printf.sprintf "port %d already bound" p
  | No_free_ports -> "no free ephemeral ports"

let () =
  Printexc.register_printer (function
    | Bind_error e -> Some ("Udp.bind: " ^ bind_error_to_string e)
    | _ -> None)

type send_error = [ Ip.Stack.send_error | `Closed ]

let metrics_items t () =
  [ ("datagrams_in", Trace.Metrics.Int t.stats.datagrams_in);
    ("datagrams_out", Trace.Metrics.Int t.stats.datagrams_out);
    ("bad", Trace.Metrics.Int t.stats.bad);
    ("no_port", Trace.Metrics.Int t.stats.no_port);
    ("eph_allocs", Trace.Metrics.Int t.stats.eph_allocs);
    ("eph_reuses", Trace.Metrics.Int t.stats.eph_reuses);
    ("eph_exhausted", Trace.Metrics.Int t.stats.eph_exhausted) ]
let port s = s.sock_port

(* IP upcall: the datagram is read in place from the frame, bounded by
   the IP total length; only a delivered payload is copied. *)
let handle t frame =
  let src = Ipv4.peek_src frame and pos = Ipv4.header_size in
  let len =
    Wire.peek ~src ~dst:(Ipv4.peek_dst frame) frame ~pos
      ~len:(Ipv4.peek_total_len frame - pos)
  in
  if len = 0 then t.stats.bad <- t.stats.bad + 1
  else
    match Hashtbl.find t.ports (Wire.peek_dst_port frame ~pos) with
    | sock when sock.open_ ->
        t.stats.datagrams_in <- t.stats.datagrams_in + 1;
        sock.recv ~src ~src_port:(Wire.peek_src_port frame ~pos)
          (Bytes.sub frame (pos + Wire.header_size) (len - Wire.header_size))
    | _ | (exception Not_found) ->
        t.stats.no_port <- t.stats.no_port + 1;
        Ip.Stack.icmp_unreachable t.ip frame Packet.Icmp_wire.Port_unreachable

let create ip =
  let t =
    {
      ip;
      ports = Hashtbl.create 8;
      next_ephemeral = 49152;
      eph_seen = Bytes.make 2048 '\000';
      stats =
        {
          datagrams_in = 0;
          datagrams_out = 0;
          bad = 0;
          no_port = 0;
          eph_allocs = 0;
          eph_reuses = 0;
          eph_exhausted = 0;
        };
    }
  in
  Ip.Stack.register_proto_frame ip Ipv4.Proto.Udp (handle t);
  t

let ephemeral_lo = 49152
let ephemeral_hi = 65535

(* Scan bounded by the range size, not by "wrapped back to start": the
   old termination test compared against the pre-wrap start and never
   fired when the scan began at the bottom of the range, looping forever
   once every ephemeral port was bound. *)
let alloc_ephemeral t =
  let range = ephemeral_hi - ephemeral_lo + 1 in
  let rec probe p tried =
    if tried >= range then begin
      t.stats.eph_exhausted <- t.stats.eph_exhausted + 1;
      raise (Bind_error No_free_ports)
    end
    else
      let p = if p > ephemeral_hi then ephemeral_lo else p in
      if not (Hashtbl.mem t.ports p) then p else probe (p + 1) (tried + 1)
  in
  let p = probe t.next_ephemeral 0 in
  t.next_ephemeral <- (if p + 1 > ephemeral_hi then ephemeral_lo else p + 1);
  (* Churn accounting for the open-loop workloads: an alloc of a port
     this instance handed out before is a reuse — the wrap has come back
     around, which is the signal ephemeral pressure is real. *)
  let bit = p - ephemeral_lo in
  let byte = Char.code (Bytes.get t.eph_seen (bit lsr 3)) in
  let mask = 1 lsl (bit land 7) in
  t.stats.eph_allocs <- t.stats.eph_allocs + 1;
  if byte land mask <> 0 then t.stats.eph_reuses <- t.stats.eph_reuses + 1
  else Bytes.set t.eph_seen (bit lsr 3) (Char.chr (byte lor mask));
  p

let bind t ?(port = 0) ~recv () =
  if port < 0 || port > 65535 then raise (Bind_error (Bad_port port));
  let port = if port = 0 then alloc_ephemeral t else port in
  if Hashtbl.mem t.ports port then raise (Bind_error (Port_in_use port));
  let sock = { udp = t; sock_port = port; recv; open_ = true } in
  Hashtbl.add t.ports port sock;
  sock

let close s =
  if s.open_ then begin
    s.open_ <- false;
    Hashtbl.remove s.udp.ports s.sock_port
  end

let sendto s ?src ?tos ?ttl ~dst ~dst_port payload :
    (unit, send_error) result =
  if not s.open_ then Error `Closed
  else begin
  let t = s.udp in
  (* The checksum needs the source address, which IP chooses from the
     route; resolve it the same way unless the caller pinned one (a
     resolver answering from its service address must not source from a
     transit link that is never globally routed). *)
  let src =
    match src with
    | Some a -> a
    | None -> (
        let routed =
          match Ip.Route_table.lookup (Ip.Stack.table t.ip) dst with
          | Some r -> (
              match Ip.Stack.iface_addr t.ip r.Ip.Route_table.iface with
              | Some a -> a
              | None -> Ip.Stack.primary_addr t.ip)
          | None -> Ip.Stack.primary_addr t.ip
        in
        if Ip.Stack.has_addr t.ip dst then dst else routed)
  in
  (* Assemble the whole frame once — reserved IP-header prefix, UDP header,
     payload — and hand it to the stack without further copying. *)
  let plen = Bytes.length payload in
  let frame = Bytes.create (Ipv4.header_size + Wire.header_size + plen) in
  Bytes.blit payload 0 frame (Ipv4.header_size + Wire.header_size) plen;
  ignore
    (Wire.encode_into ~src ~dst ~src_port:s.sock_port ~dst_port
       ~payload_len:plen frame ~pos:Ipv4.header_size);
  match
    Ip.Stack.send_frame t.ip
      ~tos:(Option.value tos ~default:Ipv4.Tos.Routine)
      ~ttl:(Option.value ttl ~default:Ipv4.default_ttl)
      ~dont_fragment:false ~src ~proto:Ipv4.Proto.Udp ~dst frame
  with
  | Ok () ->
      t.stats.datagrams_out <- t.stats.datagrams_out + 1;
      Ok ()
  | Error (#Ip.Stack.send_error as e) -> Error e
  end
