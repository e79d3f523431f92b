module Addr = Packet.Addr

(* The name protocol's single message shape: a 20-byte fixed header and
   nothing else.  Real DNS spends most of its parsing budget on
   variable-length labels and compression pointers; this protocol keeps
   the hierarchy (three label slots mirroring root -> region -> host)
   but makes every label a fixed-width integer, so one message is one
   bounded read and the whole format sits in a single lint-checked
   layout table. *)

let header_size = 20

(* Machine-checked wire contract (see catenet-lint). *)
let layout : (string * int * int) list =
  [ ("id", 0, 2); ("flags", 2, 2); ("rcode", 4, 1); ("qtype", 5, 1);
    ("label0", 6, 2); ("label1", 8, 2); ("label2", 10, 2); ("ttl", 12, 4);
    ("answer", 16, 4) ]

(* Query types.  [qtype_deleg] never crosses the wire in a query — it is
   the pseudo-type under which a resolver caches referral (delegation)
   records — but referral *responses* carry it so the answering server
   states what kind of record the answer field holds. *)
let qtype_deleg = 0
let qtype_host = 1
let qtype_svc = 2

(* Response codes.  [rcode_referral] marks a non-terminal answer: the
   answer field names the next server to ask, not the queried name's
   address. *)
let rcode_ok = 0
let rcode_nxname = 1
let rcode_servfail = 2
let rcode_refused = 3
let rcode_referral = 4

type t = {
  id : int;  (** Query/response correlation, 16 bits. *)
  response : bool;
  rd : bool;  (** Recursion desired: client -> resolver queries only. *)
  aa : bool;  (** Authoritative answer. *)
  rcode : int;
  qtype : int;
  l0 : int;  (** First label: region (host names) or service id. *)
  l1 : int;  (** Second label: host index within the region. *)
  l2 : int;  (** Third label: spare (always 0 today). *)
  ttl_s : int;  (** Seconds the answer may be cached; 0 on queries. *)
  answer : int;  (** Address bits (or referral server bits); 0 on queries. *)
}

type error = [ `Truncated | `Bad_header of string ]

let pp_error fmt = function
  | `Truncated -> Format.pp_print_string fmt "truncated name message"
  | `Bad_header m -> Format.fprintf fmt "bad name header: %s" m

let flag_response = 1
let flag_rd = 2
let flag_aa = 4

let query ~id ~rd ~qtype ~l0 ~l1 ~l2 =
  { id; response = false; rd; aa = false; rcode = rcode_ok; qtype; l0; l1;
    l2; ttl_s = 0; answer = 0 }

let response ~of_:q ~aa ~rcode ~ttl_s ~answer =
  { q with response = true; rd = false; aa; rcode; ttl_s; answer }

let encode t =
  if t.id < 0 || t.id > 0xffff then
    invalid_arg "Names_wire.encode: id out of range";
  if t.l0 < 0 || t.l0 > 0xffff || t.l1 < 0 || t.l1 > 0xffff || t.l2 < 0
     || t.l2 > 0xffff
  then invalid_arg "Names_wire.encode: label out of range";
  if t.rcode < 0 || t.rcode > 0xff || t.qtype < 0 || t.qtype > 0xff then
    invalid_arg "Names_wire.encode: rcode/qtype out of range";
  let buf = Bytes.create header_size in
  let flags =
    (if t.response then flag_response else 0)
    lor (if t.rd then flag_rd else 0)
    lor if t.aa then flag_aa else 0
  in
  Bytes.set_uint16_be buf 0 t.id;
  Bytes.set_uint16_be buf 2 flags;
  Bytes.set_uint8 buf 4 t.rcode;
  Bytes.set_uint8 buf 5 t.qtype;
  Bytes.set_uint16_be buf 6 t.l0;
  Bytes.set_uint16_be buf 8 t.l1;
  Bytes.set_uint16_be buf 10 t.l2;
  Bytes.set_int32_be buf 12 (Int32.of_int t.ttl_s);
  Bytes.set_int32_be buf 16 (Int32.of_int t.answer);
  buf

let decode buf =
  if Bytes.length buf < header_size then Error `Truncated
  else begin
    let flags = Bytes.get_uint16_be buf 2 in
    let rcode = Bytes.get_uint8 buf 4 in
    let qtype = Bytes.get_uint8 buf 5 in
    if flags land lnot (flag_response lor flag_rd lor flag_aa) <> 0 then
      Error (`Bad_header "unknown flag bits")
    else if rcode > rcode_referral then Error (`Bad_header "unknown rcode")
    else if qtype > qtype_svc then Error (`Bad_header "unknown qtype")
    else
      Ok
        {
          id = Bytes.get_uint16_be buf 0;
          response = flags land flag_response <> 0;
          rd = flags land flag_rd <> 0;
          aa = flags land flag_aa <> 0;
          rcode;
          qtype;
          l0 = Bytes.get_uint16_be buf 6;
          l1 = Bytes.get_uint16_be buf 8;
          l2 = Bytes.get_uint16_be buf 10;
          ttl_s = Int32.to_int (Bytes.get_int32_be buf 12) land 0xffffffff;
          answer = Int32.to_int (Bytes.get_int32_be buf 16) land 0xffffffff;
        }
  end

let answer_addr t = Addr.of_int t.answer
let addr_bits = Addr.to_int

let rcode_to_string = function
  | 0 -> "ok"
  | 1 -> "nxname"
  | 2 -> "servfail"
  | 3 -> "refused"
  | 4 -> "referral"
  | n -> Printf.sprintf "rcode%d" n

let pp fmt t =
  Format.fprintf fmt "%s id=%d qtype=%d (%d.%d.%d) %s ttl=%ds answer=%a"
    (if t.response then "resp" else "query")
    t.id t.qtype t.l0 t.l1 t.l2 (rcode_to_string t.rcode) t.ttl_s Addr.pp
    (answer_addr t)
