module Proto = struct
  type t = Icmp | Tcp | Udp | Other of int

  let to_int t = match t with Icmp -> 1 | Tcp -> 6 | Udp -> 17 | Other v -> v
  [@@fastpath]

  (* The [Other] of every 8-bit protocol number, boxed once, so reading
     the protocol field off the wire allocates nothing. *)
  let others = Array.init 256 (fun v -> Other v)

  let of_int = function
    | 1 -> Icmp
    | 6 -> Tcp
    | 17 -> Udp
    | v -> if v land 0xff = v then others.(v) else Other v

  let pp fmt = function
    | Icmp -> Format.pp_print_string fmt "icmp"
    | Tcp -> Format.pp_print_string fmt "tcp"
    | Udp -> Format.pp_print_string fmt "udp"
    | Other v -> Format.fprintf fmt "proto-%d" v
end

module Tos = struct
  type t = Routine | Low_delay | High_throughput | High_reliability

  (* Classic RFC 791 ToS octet: D bit 0x10, T bit 0x08, R bit 0x04. *)
  let to_int t =
    match t with
    | Routine -> 0x00
    | Low_delay -> 0x10
    | High_throughput -> 0x08
    | High_reliability -> 0x04
  [@@fastpath]

  let of_int v =
    if v land 0x10 <> 0 then Low_delay
    else if v land 0x08 <> 0 then High_throughput
    else if v land 0x04 <> 0 then High_reliability
    else Routine
  [@@fastpath]

  let pp fmt = function
    | Routine -> Format.pp_print_string fmt "routine"
    | Low_delay -> Format.pp_print_string fmt "low-delay"
    | High_throughput -> Format.pp_print_string fmt "high-throughput"
    | High_reliability -> Format.pp_print_string fmt "high-reliability"
end

type header = {
  tos : Tos.t;
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;
  ttl : int;
  proto : Proto.t;
  src : Addr.t;
  dst : Addr.t;
}

let header_size = 20
let max_datagram = 65535
let default_ttl = 64

(* Machine-checked wire contract: catenet-lint verifies every constant
   byte access in encode_fields/peek*/patch_* lands on these field
   boundaries, that the table is gapless, and that encode and peek
   cover the same bytes. *)
let layout : (string * int * int) list =
  [ ("ver_ihl", 0, 1);
    ("tos", 1, 1);
    ("total_len", 2, 2);
    ("id", 4, 2);
    ("flags_frag", 6, 2);
    ("ttl", 8, 1);
    ("proto", 9, 1);
    ("checksum", 10, 2);
    ("src", 12, 4);
    ("dst", 16, 4) ]

let make_header ?(tos = Tos.Routine) ?(id = 0) ?(dont_fragment = false)
    ?(more_fragments = false) ?(frag_offset = 0) ?(ttl = default_ttl) ~proto
    ~src ~dst () =
  { tos; id; dont_fragment; more_fragments; frag_offset; ttl; proto; src; dst }

type error =
  [ `Truncated | `Bad_version of int | `Bad_checksum | `Bad_header of string ]

let pp_error fmt = function
  | `Truncated -> Format.pp_print_string fmt "truncated datagram"
  | `Bad_version v -> Format.fprintf fmt "bad IP version %d" v
  | `Bad_checksum -> Format.pp_print_string fmt "bad header checksum"
  | `Bad_header m -> Format.fprintf fmt "bad header: %s" m

(* Every header write goes through here: the frame's first [header_size]
   bytes get the header, and the frame's length is the total length.
   Taking the fields as arguments lets an origin write a header into its
   one frame without building a [header] first. *)
let encode_fields frame ~tos ~id ~dont_fragment ~more_fragments ~frag_offset
    ~ttl ~proto ~src ~dst =
  let total = Bytes.length frame in
  if total < header_size || total > max_datagram then
    invalid_arg "Ipv4.encode: bad datagram size";
  if id < 0 || id > 0xffff then invalid_arg "Ipv4.encode: bad id";
  if ttl < 0 || ttl > 255 then invalid_arg "Ipv4.encode: bad ttl";
  (* The offset travels in 8-byte units in a 13-bit field. *)
  if frag_offset < 0 || frag_offset > 0x1fff * 8 || frag_offset mod 8 <> 0
  then invalid_arg "Ipv4.encode: bad fragment offset";
  Bytes.set_uint8 frame 0 ((4 lsl 4) lor 5);
  Bytes.set_uint8 frame 1 (Tos.to_int tos);
  Bytes.set_uint16_be frame 2 total;
  Bytes.set_uint16_be frame 4 id;
  let flags =
    (if dont_fragment then 0x4000 else 0)
    lor (if more_fragments then 0x2000 else 0)
    lor (frag_offset / 8)
  in
  Bytes.set_uint16_be frame 6 flags;
  Bytes.set_uint8 frame 8 ttl;
  Bytes.set_uint8 frame 9 (Proto.to_int proto);
  Bytes.set_uint16_be frame 10 0 (* checksum placeholder *);
  Bytes.set_int32_be frame 12 (Int32.of_int (Addr.to_int src));
  Bytes.set_int32_be frame 16 (Int32.of_int (Addr.to_int dst));
  Bytes.set_uint16_be frame 10 (Checksum.of_bytes frame ~pos:0 ~len:header_size)
[@@fastpath]

let encode_into h frame =
  encode_fields frame ~tos:h.tos ~id:h.id ~dont_fragment:h.dont_fragment
    ~more_fragments:h.more_fragments ~frag_offset:h.frag_offset ~ttl:h.ttl
    ~proto:h.proto ~src:h.src ~dst:h.dst

let encode h ~payload =
  let len = Bytes.length payload in
  let frame = Bytes.create (header_size + len) in
  Bytes.blit payload 0 frame header_size len;
  encode_into h frame;
  frame

(* What [peek]'s checks find, in order.  Only a [Sound] frame may be read
   in place by the [peek_*] readers. *)
type fault = Sound | Short | Not_v4 | Has_options | Bad_sum

let peek_fault buf =
  let len = Bytes.length buf in
  if len < header_size then Short
  else begin
    let b0 = Bytes.get_uint8 buf 0 in
    if b0 lsr 4 <> 4 then Not_v4
    else if b0 land 0xf <> 5 then Has_options
    else if not (Checksum.valid buf ~pos:0 ~len:header_size) then Bad_sum
    else begin
      let total = Bytes.get_uint16_be buf 2 in
      if total < header_size || total > len then Short else Sound
    end
  end
[@@fastpath]

let valid buf =
  match peek_fault buf with
  | Sound -> true
  | Short | Not_v4 | Has_options | Bad_sum -> false
[@@fastpath]

let peek_tos buf = Tos.of_int (Bytes.get_uint8 buf 1) [@@fastpath]
let peek_total_len buf = Bytes.get_uint16_be buf 2 [@@fastpath]
let peek_id buf = Bytes.get_uint16_be buf 4 [@@fastpath]
let peek_flags buf = Bytes.get_uint16_be buf 6 [@@fastpath]
let peek_frag_offset buf = (peek_flags buf land 0x1fff) * 8 [@@fastpath]
let peek_more_fragments buf = peek_flags buf land 0x2000 <> 0 [@@fastpath]
let peek_ttl buf = Bytes.get_uint8 buf 8 [@@fastpath]
let peek_proto buf = Bytes.get_uint8 buf 9 [@@fastpath]

let peek_src buf =
  Addr.of_int (Int32.to_int (Bytes.get_int32_be buf 12))
[@@fastpath]

let peek_dst buf =
  Addr.of_int (Int32.to_int (Bytes.get_int32_be buf 16))
[@@fastpath]

let peek_header buf =
  {
    tos = peek_tos buf;
    id = peek_id buf;
    dont_fragment = peek_flags buf land 0x4000 <> 0;
    more_fragments = peek_more_fragments buf;
    frag_offset = peek_frag_offset buf;
    ttl = peek_ttl buf;
    proto = Proto.of_int (peek_proto buf);
    src = peek_src buf;
    dst = peek_dst buf;
  }

let peek buf =
  match peek_fault buf with
  | Sound -> Ok (peek_header buf)
  | Short -> Error `Truncated
  | Not_v4 -> Error (`Bad_version (Bytes.get_uint8 buf 0 lsr 4))
  | Has_options -> Error (`Bad_header "options unsupported (IHL<>5)")
  | Bad_sum -> Error `Bad_checksum

let payload_of buf =
  Bytes.sub buf header_size (peek_total_len buf - header_size)

let decode buf =
  match peek buf with
  | Error e -> Error e
  | Ok h -> Ok (h, payload_of buf)

let patch_ttl buf =
  let ttl = Bytes.get_uint8 buf 8 in
  if ttl = 0 then invalid_arg "Ipv4.patch_ttl: TTL already zero";
  (* TTL shares a 16-bit checksum word with the protocol byte. *)
  let old_word = Bytes.get_uint16_be buf 8 in
  let new_word = old_word - 0x100 in
  Bytes.set_uint16_be buf 8 new_word;
  let csum = Bytes.get_uint16_be buf 10 in
  Bytes.set_uint16_be buf 10 (Checksum.update_u16 csum ~old_word ~new_word)
[@@fastpath]

let pp_header fmt h =
  Format.fprintf fmt "%a -> %a %a ttl=%d id=%d%s%s off=%d tos=%a" Addr.pp
    h.src Addr.pp h.dst Proto.pp h.proto h.ttl h.id
    (if h.dont_fragment then " DF" else "")
    (if h.more_fragments then " MF" else "")
    h.frag_offset Tos.pp h.tos
