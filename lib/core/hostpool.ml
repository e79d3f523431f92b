module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4
module Udp_wire = Packet.Udp_wire

(* Pooled endpoint state.

   A full Ip.Stack per host is the right tool for a protocol experiment
   and the wrong one for an E17-scale population: each stack is a record
   of hashtables, a reassembly store, and a closure installed as the
   node's frame handler — a web of heap objects per endpoint, almost all
   of it never exercised by a host that only sources and sinks datagrams.

   The pool keeps every per-host datum in one int block per slot (node,
   iface, address, tx count, rx count, [sw] ints at [sw * slot]), so a
   send or a delivery reads one or two adjacent cache lines of it, and
   serves *all* pooled hosts' receive traffic with a single shared
   closure, installed as the netsim-wide default handler.  Attaching
   host number 10^5 costs five ints and one index entry; idle hosts cost
   nothing at all per tick. *)

let proto = 0xE1 (* pool datagrams ride proto 225 end to end *)

(* The slot block. *)
let s_node = 0
let s_iface = 1
let s_addr = 2
let s_tx = 3
let s_rx = 4
let sw = 5

type t = {
  net : Netsim.t;
  mutable slots : int array;  (* [sw] ints per slot *)
  mutable n : int;
  mutable slot_of_node : int array;  (* node -> slot, -1 = not pooled *)
  mutable tx_total : int;
  mutable rx_total : int;
  mutable rx_stray : int;
      (* frames reaching a pooled host that are not pool datagrams for
         its address: wrong dst, wrong proto, malformed, or UDP that
         fails its length or checksum check *)
  mutable udp_sink :
    (int ->
    src:Addr.t ->
    src_port:int ->
    dst_port:int ->
    bytes ->
    unit)
    option;
      (* one shared closure, like the receive handler: lets a workload
         give pooled hosts behavior (echo replicas, request/response
         clients) without per-host closures.  UDP only; pool datagrams
         stay count-only. *)
}

let count_rx t slot =
  let k = (sw * slot) + s_rx in
  Array.unsafe_set t.slots k (Array.unsafe_get t.slots k + 1);
  t.rx_total <- t.rx_total + 1

(* Everything is read in place from the frame: a datagram for a pooled
   host costs no header or address box on its way in, and a UDP datagram
   only its length-and-checksum check, plus its payload copy when a sink
   takes it. *)
let receive t ~node ~iface:_ frame =
  if node < Array.length t.slot_of_node then begin
    let slot = Array.unsafe_get t.slot_of_node node in
    if slot >= 0 then begin
      let p = if Ipv4.valid frame then Ipv4.peek_proto frame else -1 in
      if
        (p = proto || p = 17 (* UDP: see [send_udp] *))
        && (Ipv4.peek_dst frame :> int)
           = Array.unsafe_get t.slots ((sw * slot) + s_addr)
      then begin
        if p = proto then count_rx t slot
        else
          let src = Ipv4.peek_src frame and pos = Ipv4.header_size in
          let len =
            Udp_wire.peek ~src ~dst:(Ipv4.peek_dst frame) frame ~pos
              ~len:(Ipv4.peek_total_len frame - pos)
          in
          if len = 0 then t.rx_stray <- t.rx_stray + 1
          else begin
            count_rx t slot;
            match t.udp_sink with
            | Some sink ->
                sink slot ~src
                  ~src_port:(Udp_wire.peek_src_port frame ~pos)
                  ~dst_port:(Udp_wire.peek_dst_port frame ~pos)
                  (Bytes.sub frame (pos + Udp_wire.header_size)
                     (len - Udp_wire.header_size))
            | None -> ()
          end
      end
      else t.rx_stray <- t.rx_stray + 1
    end
  end

let create net =
  let t =
    {
      net;
      slots = Array.make (sw * 64) 0;
      n = 0;
      slot_of_node = Array.make 64 (-1);
      tx_total = 0;
      rx_total = 0;
      rx_stray = 0;
      udp_sink = None;
    }
  in
  Netsim.set_default_handler net
    (Some (fun ~node ~iface frame -> receive t ~node ~iface frame));
  t

let size t = t.n

let grow_to len arr fill =
  let cap = max (2 * Array.length arr) len in
  let arr' = Array.make cap fill in
  Array.blit arr 0 arr' 0 (Array.length arr);
  arr'

let attach t ~node ~iface ~addr =
  if sw * t.n = Array.length t.slots then t.slots <- grow_to 0 t.slots 0;
  if node >= Array.length t.slot_of_node then
    t.slot_of_node <- grow_to (node + 1) t.slot_of_node (-1);
  let slot = t.n in
  let b = sw * slot in
  t.slots.(b + s_node) <- node;
  t.slots.(b + s_iface) <- iface;
  t.slots.(b + s_addr) <- Addr.to_int addr;
  t.slot_of_node.(node) <- slot;
  t.n <- t.n + 1;
  slot

let set_udp_sink t sink = t.udp_sink <- sink
let field t slot f =
  if slot < 0 || slot >= t.n then invalid_arg "Hostpool: bad slot";
  t.slots.((sw * slot) + f)

let node t slot = field t slot s_node
let addr t slot = Addr.of_int (field t slot s_addr)
let tx_count t slot = field t slot s_tx
let rx_count t slot = field t slot s_rx
let tx_total t = t.tx_total
let rx_total t = t.rx_total
let rx_stray t = t.rx_stray

let pool_proto = Ipv4.Proto.Other proto

(* Write the IP header into [frame], whose payload is in place after it,
   and send it. *)
let transmit t slot ~proto ~dst frame =
  let b = sw * slot in
  Ipv4.encode_fields frame ~tos:Ipv4.Tos.Routine ~id:0 ~dont_fragment:false
    ~more_fragments:false ~frag_offset:0 ~ttl:64 ~proto
    ~src:(Addr.of_int t.slots.(b + s_addr)) ~dst;
  t.slots.(b + s_tx) <- t.slots.(b + s_tx) + 1;
  t.tx_total <- t.tx_total + 1;
  Netsim.send t.net t.slots.(b + s_node) ~iface:t.slots.(b + s_iface) frame

let send t slot ~dst payload =
  let len = Bytes.length payload in
  let frame = Bytes.create (Ipv4.header_size + len) in
  Bytes.blit payload 0 frame Ipv4.header_size len;
  transmit t slot ~proto:pool_proto ~dst frame

(* Real UDP off a pooled host — the port-churn generator flow-accounting
   benchmarks need (pool datagrams are portless, so a pool pair is one
   flow no matter how many it sends; UDP gives 2^32 flows per pair).
   The UDP header is written around the payload in the same frame. *)
let send_udp t slot ~dst ~src_port ~dst_port payload =
  let len = Bytes.length payload in
  let frame = Bytes.create (Ipv4.header_size + Udp_wire.header_size + len) in
  Bytes.blit payload 0 frame (Ipv4.header_size + Udp_wire.header_size) len;
  ignore
    (Udp_wire.encode_into ~src:(addr t slot) ~dst ~src_port ~dst_port
       ~payload_len:len frame ~pos:Ipv4.header_size
      : int);
  transmit t slot ~proto:Ipv4.Proto.Udp ~dst frame
