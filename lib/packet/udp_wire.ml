type t = { src_port : int; dst_port : int; payload : bytes }

let header_size = 8

(* Machine-checked wire contract (see catenet-lint). *)
let layout : (string * int * int) list =
  [ ("src_port", 0, 2); ("dst_port", 2, 2); ("len", 4, 2); ("checksum", 6, 2) ]

type error = [ `Truncated | `Bad_checksum | `Bad_header of string ]

let pp_error fmt = function
  | `Truncated -> Format.pp_print_string fmt "truncated datagram"
  | `Bad_checksum -> Format.pp_print_string fmt "bad UDP checksum"
  | `Bad_header m -> Format.fprintf fmt "bad UDP header: %s" m

let encode ~src ~dst t =
  if t.src_port < 0 || t.src_port > 0xffff || t.dst_port < 0
     || t.dst_port > 0xffff
  then invalid_arg "Udp_wire.encode: port out of range";
  let total = header_size + Bytes.length t.payload in
  if total > 0xffff then invalid_arg "Udp_wire.encode: datagram too large";
  let module W = Stdext.Bytio.W in
  let w = W.create total in
  W.u16 w t.src_port;
  W.u16 w t.dst_port;
  W.u16 w total;
  W.u16 w 0 (* checksum placeholder *);
  W.bytes w t.payload;
  let buf = W.contents w in
  let acc =
    Checksum.pseudo_header ~src ~dst ~proto:17 ~len:total
  in
  let csum = Checksum.finish (Checksum.add_bytes acc buf ~pos:0 ~len:total) in
  (* RFC 768: a computed checksum of zero is transmitted as all ones. *)
  Bytes.set_uint16_be buf 6 (if csum = 0 then 0xffff else csum);
  buf

(* Allocation-free counterpart of {!encode}: the payload already sits at
   [pos + header_size] in [buf]; fill in the header and checksum in place.
   Byte-for-byte identical output to {!encode}. *)
let encode_into ~src ~dst ~src_port ~dst_port ~payload_len buf ~pos =
  if src_port < 0 || src_port > 0xffff || dst_port < 0 || dst_port > 0xffff
  then invalid_arg "Udp_wire.encode_into: port out of range";
  let total = header_size + payload_len in
  if total > 0xffff then invalid_arg "Udp_wire.encode_into: datagram too large";
  if pos < 0 || payload_len < 0 || pos + total > Bytes.length buf then
    invalid_arg "Udp_wire.encode_into: buffer too small";
  Bytes.set_uint16_be buf pos src_port;
  Bytes.set_uint16_be buf (pos + 2) dst_port;
  Bytes.set_uint16_be buf (pos + 4) total;
  Bytes.set_uint16_be buf (pos + 6) 0 (* checksum placeholder *);
  let acc =
    Checksum.pseudo_header ~src ~dst ~proto:17 ~len:total
  in
  let csum = Checksum.finish (Checksum.add_bytes acc buf ~pos ~len:total) in
  (* RFC 768: a computed checksum of zero is transmitted as all ones. *)
  Bytes.set_uint16_be buf (pos + 6) (if csum = 0 then 0xffff else csum);
  total

(* [pos] and [len] are plain labels: an optional argument is boxed at
   every call from another module.  The length comes back as a plain
   int, 0 for an invalid datagram (a valid one holds at least its
   header), so a datagram's check allocates nothing; [decode] re-checks
   a failure to name it. *)
let peek ~src ~dst buf ~pos ~len =
  if pos < 0 then invalid_arg "Udp_wire.peek: negative pos";
  if len < header_size then 0
  else begin
    let declared = Bytes.get_uint16_be buf (pos + 4) in
    if declared < header_size || declared > len then 0
    else begin
      let acc =
        Checksum.pseudo_header ~src ~dst ~proto:17 ~len:declared
      in
      if Checksum.finish (Checksum.add_bytes acc buf ~pos ~len:declared) <> 0
      then 0
      else declared
    end
  end

let peek_src_port buf ~pos = Bytes.get_uint16_be buf pos [@@fastpath]
let peek_dst_port buf ~pos = Bytes.get_uint16_be buf (pos + 2) [@@fastpath]

let decode ?(pos = 0) ~src ~dst buf =
  let len = Bytes.length buf - pos in
  let declared = peek ~src ~dst buf ~pos ~len in
  if declared = 0 then begin
    let d = if len < header_size then 0 else Bytes.get_uint16_be buf (pos + 4) in
    if d < header_size || d > len then Error `Truncated else Error `Bad_checksum
  end
  else
    Ok
      {
        src_port = peek_src_port buf ~pos;
        dst_port = peek_dst_port buf ~pos;
        payload = Bytes.sub buf (pos + header_size) (declared - header_size);
      }

let pp fmt t =
  Format.fprintf fmt "udp %d>%d len=%d" t.src_port t.dst_port
    (Bytes.length t.payload)
