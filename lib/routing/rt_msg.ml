module Addr = Packet.Addr
module W = Stdext.Bytio.W
module R = Stdext.Bytio.R

type dv_entry = { prefix : Addr.Prefix.t; metric : int }

let infinity_metric = 16

type ls_neighbor = { neighbor_id : int32; cost : int }
type ls_prefix = { prefix : Addr.Prefix.t; cost : int }

type lsa = {
  origin : int32;
  seq : int;
  neighbors : ls_neighbor list;
  prefixes : ls_prefix list;
}

type t = Dv_update of dv_entry list | Hello of int32 | Lsa of lsa

type error = [ `Truncated | `Bad_header of string ]

let write_prefix w p =
  W.u32_of_int w (Addr.to_int (Addr.Prefix.network p));
  W.u8 w (Addr.Prefix.length p)

let read_prefix r =
  let network = Addr.of_int (R.u32_to_int r) in
  let len = R.u8 r in
  if len > 32 then invalid_arg "bad prefix length";
  Addr.Prefix.make network len

let encode = function
  | Dv_update entries ->
      let w = W.create (3 + (7 * List.length entries)) in
      W.u8 w 1;
      W.u16 w (List.length entries);
      List.iter
        (fun (e : dv_entry) ->
          write_prefix w e.prefix;
          W.u16 w e.metric)
        entries;
      W.contents w
  | Hello id ->
      let w = W.create 5 in
      W.u8 w 2;
      W.u32 w id;
      W.contents w
  | Lsa l ->
      let w =
        W.create
          (13 + (6 * List.length l.neighbors) + (7 * List.length l.prefixes))
      in
      W.u8 w 3;
      W.u32 w l.origin;
      W.u32_of_int w l.seq;
      W.u16 w (List.length l.neighbors);
      List.iter
        (fun n ->
          W.u32 w n.neighbor_id;
          W.u16 w n.cost)
        l.neighbors;
      W.u16 w (List.length l.prefixes);
      List.iter
        (fun p ->
          write_prefix w p.prefix;
          W.u16 w p.cost)
        l.prefixes;
      W.contents w

let decode buf =
  let r = R.of_bytes buf in
  try
    match R.u8 r with
    | 1 ->
        let n = R.u16 r in
        let entries =
          List.init n (fun _ ->
              let prefix = read_prefix r in
              let metric = R.u16 r in
              { prefix; metric })
        in
        Ok (Dv_update entries)
    | 2 -> Ok (Hello (R.u32 r))
    | 3 ->
        let origin = R.u32 r in
        let seq = R.u32_to_int r in
        let nn = R.u16 r in
        let neighbors =
          List.init nn (fun _ ->
              let neighbor_id = R.u32 r in
              let cost = R.u16 r in
              { neighbor_id; cost })
        in
        let np = R.u16 r in
        let prefixes =
          List.init np (fun _ ->
              let prefix = read_prefix r in
              let cost = R.u16 r in
              { prefix; cost })
        in
        Ok (Lsa { origin; seq; neighbors; prefixes })
    | ty -> Error (`Bad_header (Printf.sprintf "unknown message type %d" ty))
  with
  | Stdext.Bytio.Truncated -> Error `Truncated
  | Invalid_argument m -> Error (`Bad_header m)

let pp fmt = function
  | Dv_update entries ->
      Format.fprintf fmt "dv-update [%a]"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
           (fun f (e : dv_entry) ->
             Format.fprintf f "%a=%d" Addr.Prefix.pp e.prefix e.metric))
        entries
  | Hello id -> Format.fprintf fmt "hello %a" Addr.pp (Addr.of_int (Int32.to_int id))
  | Lsa l ->
      Format.fprintf fmt "lsa origin=%a seq=%d n=%d p=%d" Addr.pp
        (Addr.of_int (Int32.to_int l.origin)) l.seq (List.length l.neighbors)
        (List.length l.prefixes)
