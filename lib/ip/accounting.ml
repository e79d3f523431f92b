module Addr = Packet.Addr
module Ipv4 = Packet.Ipv4

type flow = {
  src : Addr.t;
  dst : Addr.t;
  proto : Ipv4.Proto.t;
  src_port : int;
  dst_port : int;
  portless : bool;
}

(* Mutable fields: exact-mode [record] runs once per datagram, and
   bumping in place keeps it allocation-free after a flow's first packet
   (it used to rebuild the usage record every time). *)
type usage = { mutable packets : int; mutable bytes : int }

type mode = Exact | Sketch of { width : int; depth : int; top_k : int }

(* The two engines behind the facade.  [Exact_table] is the original
   unbounded ledger: every flow, exact counts, O(flows) memory — right
   for small tests and differential baselines.  [Sketched] is the scale
   engine: a count-min sketch carries estimates for *every* flow in
   fixed memory, and a space-saving tracker keeps exact-from-admission
   records for the current top-k only. *)
type engine =
  | Exact_table of (flow, usage) Hashtbl.t
  | Sketched of { sk : Sketch.t; hh : Heavy_hitters.t }

(* A closed epoch's headline record, taken at rotation so the heavy
   hitters of epoch [n] survive into epoch [n+1] instead of vanishing
   with the cleared engines (the E20 leftover: billing needs the ledger
   that *was*, not only the one that is). *)
type snapshot = {
  snap_epoch : int;
  snap_packets : int;
  snap_bytes : int;
  snap_top : (flow * usage) list;
}

type t = {
  mode : mode;
  engine : engine;
  mutable total_packets : int;
  mutable total_bytes : int;
  mutable epoch : int;
  history_limit : int;
  mutable history : snapshot list;  (* newest first, bounded *)
}

let create ?(mode = Exact) ?(history = 4) () =
  let engine =
    match mode with
    | Exact -> Exact_table (Hashtbl.create 32)
    | Sketch { width; depth; top_k } ->
        Sketched
          { sk = Sketch.create ~width ~depth ();
            hh = Heavy_hitters.create ~capacity:top_k }
  in
  { mode; engine; total_packets = 0; total_bytes = 0; epoch = 0;
    history_limit = max 0 history; history = [] }

let mode t = t.mode
let epoch t = t.epoch

(* -- flow identity -------------------------------------------------- *)

(* Everything that identifies a flow besides the two addresses, packed
   into one int: bit 40 = portless, bits 32..39 = protocol number,
   bits 16..31 = src port, bits 0..15 = dst port.  The portless bit
   keeps flows whose ports are unknowable (ICMP, unknown protocols,
   non-first fragments) distinct from a genuine port-(0,0) flow — the
   aliasing bug the old [ports_of] had. *)
let pack_meta ~portless ~pn ~sp ~dp =
  (portless lsl 40) lor (pn lsl 32) lor (sp lsl 16) lor dp
[@@fastpath]

let fingerprint ~src ~dst ~meta =
  Sketch.mix (src lxor Sketch.mix (dst lxor Sketch.mix meta))
[@@fastpath]

let proto_number (p : Ipv4.Proto.t) =
  match p with
  | Ipv4.Proto.Icmp -> 1
  | Ipv4.Proto.Tcp -> 6
  | Ipv4.Proto.Udp -> 17
  | Ipv4.Proto.Other n -> n land 0xff
[@@fastpath]

let meta_of_flow f =
  pack_meta
    ~portless:(if f.portless then 1 else 0)
    ~pn:(proto_number f.proto) ~sp:f.src_port ~dp:f.dst_port

let fingerprint_of_flow f =
  fingerprint ~src:(Addr.to_int f.src) ~dst:(Addr.to_int f.dst)
    ~meta:(meta_of_flow f)

let flow_of_parts ~src ~dst ~meta =
  let pn = (meta lsr 32) land 0xff in
  { src = Addr.of_int src;
    dst = Addr.of_int dst;
    proto =
      (match pn with
      | 1 -> Ipv4.Proto.Icmp
      | 6 -> Ipv4.Proto.Tcp
      | 17 -> Ipv4.Proto.Udp
      | n -> Ipv4.Proto.Other n);
    src_port = (meta lsr 16) land 0xffff;
    dst_port = meta land 0xffff;
    portless = (meta lsr 40) land 1 = 1 }

(* -- recording ------------------------------------------------------ *)

let bump_exact tbl f ~wire_bytes =
  match Hashtbl.find_opt tbl f with
  | Some u ->
      u.packets <- u.packets + 1;
      u.bytes <- u.bytes + wire_bytes
  | None -> Hashtbl.add tbl f { packets = 1; bytes = wire_bytes }

let bump_sketch sk hh ~src ~dst ~meta ~wire_bytes =
  let fp = fingerprint ~src ~dst ~meta in
  Sketch.update sk fp ~bytes:wire_bytes;
  Heavy_hitters.record hh ~fp ~src ~dst ~meta
    ~est_pkts:(Sketch.last_estimate_packets sk)
    ~est_bytes:(Sketch.last_estimate_bytes sk)
    ~wire_bytes
[@@fastpath]

(* Attribution straight off the frame: no payload copy, no header or
   record construction, nothing allocated in sketch mode, so accounting
   rides `forward_fast` and local delivery without leaving either.  Ports
   sit in the first 4 bytes of both TCP and UDP headers, but only in the
   first fragment of a fragmented datagram.  Anything else is a portless
   flow: it keeps ports (0,0) *and* the portless mark, so it can never
   alias a real port-(0,0) flow. *)
let record t ~frame =
  let wire_bytes = Ipv4.peek_total_len frame in
  t.total_packets <- t.total_packets + 1;
  t.total_bytes <- t.total_bytes + wire_bytes;
  let pn = Ipv4.peek_proto frame in
  let ported =
    (pn = 6 || pn = 17)
    && Ipv4.peek_frag_offset frame = 0
    && wire_bytes >= Ipv4.header_size + 4
  in
  let sp =
    if ported then Bytes.get_uint16_be frame Ipv4.header_size else 0
  in
  let dp =
    if ported then Bytes.get_uint16_be frame (Ipv4.header_size + 2) else 0
  in
  match t.engine with
  | Sketched e ->
      let meta =
        pack_meta ~portless:(if ported then 0 else 1) ~pn ~sp ~dp
      in
      bump_sketch e.sk e.hh
        ~src:(Addr.to_int (Ipv4.peek_src frame))
        ~dst:(Addr.to_int (Ipv4.peek_dst frame))
        ~meta ~wire_bytes
  | Exact_table tbl ->
      (* The exact ledger hashes a boxed record — inherently allocating,
         and exactly why it is not the mode for scale runs. *)
      (bump_exact tbl
         { src = Ipv4.peek_src frame; dst = Ipv4.peek_dst frame;
           proto = Ipv4.Proto.of_int pn; src_port = sp; dst_port = dp;
           portless = not ported }
         ~wire_bytes)
      [@fastpath.exempt]
[@@fastpath]

(* -- queries --------------------------------------------------------- *)

let pp_flow fmt f =
  Format.fprintf fmt "%a:%d -> %a:%d %a%s" Addr.pp f.src f.src_port Addr.pp
    f.dst f.dst_port Ipv4.Proto.pp f.proto
    (if f.portless then " (portless)" else "")

let flow_to_string f = Format.asprintf "%a" pp_flow f

(* The ledger hands out copies so callers cannot alias live counters. *)
let copy u = { packets = u.packets; bytes = u.bytes }

let take n l =
  let rec go n acc = function
    | x :: tl when n > 0 -> go (n - 1) (x :: acc) tl
    | _ -> List.rev acc
  in
  go n [] l

(* Refined sketch-mode estimate: the tracker count (estimate at
   admission plus exact increments) and the count-min estimate are both
   overestimates of the truth, so their min is too — and tighter than
   either alone. *)
let hh_usage sk hh i =
  { packets =
      min (Heavy_hitters.pkts_of hh i)
        (Sketch.estimate_packets sk (Heavy_hitters.fp_of hh i));
    bytes =
      min (Heavy_hitters.bytes_of hh i)
        (Sketch.estimate_bytes sk (Heavy_hitters.fp_of hh i)) }

let flows ?limit t =
  let all =
    match t.engine with
    | Exact_table tbl ->
        (* collect-then-sort below; the fold order never escapes *)
        (Hashtbl.fold (fun f u acc -> (f, copy u) :: acc) tbl []
        [@determinism.commutative])
    | Sketched e ->
        let acc = ref [] in
        Heavy_hitters.iter e.hh (fun i ->
            let f =
              flow_of_parts
                ~src:(Heavy_hitters.src_of e.hh i)
                ~dst:(Heavy_hitters.dst_of e.hh i)
                ~meta:(Heavy_hitters.meta_of e.hh i)
            in
            acc := (f, hh_usage e.sk e.hh i) :: !acc);
        !acc
  in
  (* Total order: bytes desc, then packets desc, then the rendered flow
     identity — equal-sized flows used to tie-break on hash-table
     iteration order, which leaked into to_json and the BENCH files.
     Rendering is a [Format] call, so a flow is rendered only once it
     ties, and then once, not at every comparison. *)
  let sorted =
    List.sort
      (fun (k1, (_, a)) (k2, (_, b)) ->
        match Int.compare b.bytes a.bytes with
        | 0 -> (
            match Int.compare b.packets a.packets with
            | 0 -> String.compare (Lazy.force k1) (Lazy.force k2)
            | c -> c)
        | c -> c)
      (List.map (fun ((f, _) as e) -> (lazy (flow_to_string f), e)) all)
  in
  List.map snd (match limit with None -> sorted | Some n -> take n sorted)

(* -- epoch rotation -------------------------------------------------- *)

(* Snapshot-then-clear: the top flows of the closing epoch are copied
   out before the engines reset, so rotation loses the long tail (which
   sketch mode never held exactly anyway) but never the heavy hitters.
   History is bounded and newest-first; a zero limit disables it. *)
let rotate t =
  if t.history_limit > 0 then begin
    let snap =
      { snap_epoch = t.epoch;
        snap_packets = t.total_packets;
        snap_bytes = t.total_bytes;
        snap_top = flows ~limit:100 t }
    in
    t.history <- take t.history_limit (snap :: t.history)
  end;
  (match t.engine with
  | Exact_table tbl -> Hashtbl.reset tbl
  | Sketched e ->
      Sketch.clear e.sk;
      Heavy_hitters.clear e.hh);
  t.total_packets <- 0;
  t.total_bytes <- 0;
  t.epoch <- t.epoch + 1

let history t = t.history

let lookup t flow =
  match t.engine with
  | Exact_table tbl -> Option.map copy (Hashtbl.find_opt tbl flow)
  | Sketched e ->
      let fp = fingerprint_of_flow flow in
      let packets = Sketch.estimate_packets e.sk fp in
      if packets = 0 || packets = max_int then None
      else Some { packets; bytes = Sketch.estimate_bytes e.sk fp }

let total t = { packets = t.total_packets; bytes = t.total_bytes }

(* Exact mode counts flows; sketch mode estimates them (linear counting
   over the sketch's occupancy bitmap). *)
let flow_count t =
  match t.engine with
  | Exact_table tbl -> Hashtbl.length tbl
  | Sketched e -> Sketch.cardinality e.sk

let tracked_count t =
  match t.engine with
  | Exact_table tbl -> Hashtbl.length tbl
  | Sketched e -> Heavy_hitters.size e.hh

let mode_to_string = function
  | Exact -> "exact"
  | Sketch { width; depth; top_k } ->
      Printf.sprintf "sketch/%dx%d/top%d" width depth top_k

let to_json ?(limit = 100) t =
  let open Trace.Json in
  let flow_list l =
    List
      (List.map
         (fun (f, u) ->
           Obj
             [ ("flow", Str (flow_to_string f));
               ("packets", Int u.packets); ("bytes", Int u.bytes) ])
         l)
  in
  Obj
    [ ("mode", Str (mode_to_string t.mode));
      ("epoch", Int t.epoch);
      ("flow_count", Int (flow_count t));
      ("total_packets", Int t.total_packets);
      ("total_bytes", Int t.total_bytes);
      ("flows", flow_list (flows ~limit t));
      ( "history",
        List
          (List.map
             (fun s ->
               Obj
                 [ ("epoch", Int s.snap_epoch);
                   ("packets", Int s.snap_packets);
                   ("bytes", Int s.snap_bytes);
                   ("top", flow_list (take limit s.snap_top)) ])
             t.history) ) ]

let metrics_items t () =
  [ ("flows", Trace.Metrics.Int (flow_count t));
    ("packets", Trace.Metrics.Int t.total_packets);
    ("bytes", Trace.Metrics.Int t.total_bytes);
    ("epoch", Trace.Metrics.Int t.epoch);
    ("history_epochs", Trace.Metrics.Int (List.length t.history)) ]
