module Ipv4 = Packet.Ipv4
module Addr = Packet.Addr

type key = { src : Addr.t; dst : Addr.t; proto : int; id : int }

type buffer = {
  mutable fragments : (int * bytes) list; (* offset, data; sorted *)
  mutable total_len : int option; (* known once the MF-clear fragment lands *)
  mutable timer : Engine.Timer.handle;
}

type t = {
  eng : Engine.t;
  timeout_us : int;
  node : int; (* owning node, for flight-recorder events *)
  buffers : (key, buffer) Hashtbl.t;
  mutable expired : int;
}

let create ?(timeout_us = 30_000_000) ?(node = -1) eng =
  { eng; timeout_us; node; buffers = Hashtbl.create 16; expired = 0 }

type result = Incomplete | Complete of bytes

let key_of (h : Ipv4.header) =
  { src = h.src; dst = h.dst; proto = Ipv4.Proto.to_int h.proto; id = h.id }

(* Insert keeping the list sorted by offset; earlier-arrived data wins on
   exact duplicates. *)
let insert fragments off data =
  let rec go = function
    | [] -> [ (off, data) ]
    | (o, d) :: rest when o < off -> (o, d) :: go rest
    | (o, _) :: _ as l when o > off -> (off, data) :: l
    | l -> l (* same offset already present: keep the first arrival *)
  in
  go fragments

(* Contiguity check: fragments must cover [0, total).  The datagram is
   written behind an [Ipv4.header_size] prefix, where [push] puts its
   header. *)
let try_assemble b =
  match b.total_len with
  | None -> None
  | Some total ->
      let rec covered upto = function
        | [] -> upto >= total
        | (off, data) :: rest ->
            if off > upto then false
            else covered (max upto (off + Bytes.length data)) rest
      in
      if not (covered 0 b.fragments) then None
      else begin
        let out = Bytes.make (Ipv4.header_size + total) '\000' in
        List.iter
          (fun (off, data) ->
            let len = min (Bytes.length data) (total - off) in
            if len > 0 then Bytes.blit data 0 out (Ipv4.header_size + off) len)
          b.fragments;
        Some out
      end

let push t frame =
  let h = Ipv4.peek_header frame in
  if h.frag_offset = 0 && not h.more_fragments then Complete frame
  else begin
    let payload = Ipv4.payload_of frame in
    let k = key_of h in
    let b =
      match Hashtbl.find_opt t.buffers k with
      | Some b -> b
      | None ->
          let timer =
            Engine.Timer.start t.eng ~after:t.timeout_us (fun () ->
                if Hashtbl.mem t.buffers k then begin
                  Hashtbl.remove t.buffers k;
                  t.expired <- t.expired + 1;
                  if Trace.want Trace.Cls.ip then
                    Trace.emit
                      (Trace.Event.Ip_drop
                         { node = t.node; src = k.src; dst = k.dst;
                           reason = Trace.Event.Reassembly_timeout })
                end)
          in
          let b = { fragments = []; total_len = None; timer } in
          Hashtbl.add t.buffers k b;
          b
    in
    b.fragments <- insert b.fragments h.frag_offset payload;
    if not h.more_fragments then
      b.total_len <- Some (h.frag_offset + Bytes.length payload);
    match try_assemble b with
    | None -> Incomplete
    | Some whole ->
        Engine.Timer.cancel b.timer;
        Hashtbl.remove t.buffers k;
        (* The completing fragment's header, as one unfragmented datagram. *)
        Ipv4.encode_into
          { h with Ipv4.more_fragments = false; frag_offset = 0 } whole;
        if Trace.want Trace.Cls.frag then
          Trace.emit
            (Trace.Event.Ip_reassembled
               { node = t.node; id = h.id;
                 len = Bytes.length whole - Ipv4.header_size });
        Complete whole
  end

let pending t = Hashtbl.length t.buffers

let expired t = t.expired

let flush t =
  (* Order-independent: cancelling independent timers commutes. *)
  (Hashtbl.iter (fun _ b -> Engine.Timer.cancel b.timer) t.buffers
  [@determinism.commutative]);
  Hashtbl.reset t.buffers
