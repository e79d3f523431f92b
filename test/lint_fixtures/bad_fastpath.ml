(* Fixture: allocation in functions claiming the fast-path contract. *)

let pair x = (x, x + 1) [@@fastpath]

let shout n = Printf.sprintf "%d" n [@@fastpath]

let cut b = Bytes.sub b 0 4 [@@fastpath]

let peek ?(pos = 0) b = Bytes.get_uint8 b pos [@@fastpath]

(* [~pos:i] is boxed at every call; a constant or an omitted argument
   is not. *)
let at b i = peek ~pos:i b + peek ~pos:4 b + peek b [@@fastpath]
