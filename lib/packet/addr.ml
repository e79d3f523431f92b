type t = int

let of_int v = v land 0xFFFFFFFF [@@fastpath]
let to_int a = a [@@fastpath]

let v a b c d =
  let ok x = x >= 0 && x <= 255 in
  if not (ok a && ok b && ok c && ok d) then
    invalid_arg "Addr.v: octet out of range";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && x <> "" -> Some v
        | Some _ | None -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Some (v a b c d)
      | _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Addr.of_string: %S" s)

let to_string x =
  Printf.sprintf "%d.%d.%d.%d"
    ((x lsr 24) land 0xff)
    ((x lsr 16) land 0xff)
    ((x lsr 8) land 0xff)
    (x land 0xff)

let pp fmt a = Format.pp_print_string fmt (to_string a)

let compare = Int.compare
let equal = Int.equal [@@fastpath]

let any = 0

let succ a = (a + 1) land 0xFFFFFFFF

module Prefix = struct
  type nonrec addr = t
  type t = { network : addr; length : int }

  let mask_of_length len = (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF

  let make a len =
    if len < 0 || len > 32 then invalid_arg "Prefix.make: bad length";
    { network = a land mask_of_length len; length = len }

  let of_string s =
    match String.index_opt s '/' with
    | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)
    | Some i -> (
        let addr_s = String.sub s 0 i in
        let len_s = String.sub s (i + 1) (String.length s - i - 1) in
        match (of_string_opt addr_s, int_of_string_opt len_s) with
        | Some a, Some len when len >= 0 && len <= 32 -> make a len
        | _ -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s))

  let network t = t.network
  let length t = t.length

  let mem a t = a land mask_of_length t.length = t.network

  let to_string t = Printf.sprintf "%s/%d" (to_string t.network) t.length

  let pp fmt t = Format.pp_print_string fmt (to_string t)

  let compare a b =
    match Int.compare a.network b.network with
    | 0 -> Int.compare a.length b.length
    | c -> c

  let equal a b = compare a b = 0

  let default = make any 0

  let host a = make a 32
end
