type acc = int

let zero = 0

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external int64_lsr : int64 -> int -> int64 = "%int64_lsr"
external int64_to_int : int64 -> int = "%int64_to_int"
external bswap16 : int -> int = "%bswap16"

let rec fold_carry s =
  if s > 0xffff then fold_carry ((s land 0xffff) + (s lsr 16)) else s
[@@fastpath]

(* RFC 1071 §2's fast summation.  Byte order independence: the
   one's-complement sum of byte-swapped words is the byte-swapped sum,
   so the range is summed as native-order words and the folded 16-bit
   total is swapped into network order once; the odd byte, padded right
   on the wire, is therefore the low byte of a little-endian word.
   Parallel summation and deferred carries: each 8-byte load adds as two
   32-bit halves, and since 2^32 = 1 (mod 0xffff) their carries wait for
   one fold at the end; halves are below 2^32, so the 63-bit sum cannot
   overflow below 4 GiB of input.  The loop is unwound to four loads a
   turn, then takes 8-, 2- and 1-byte tails.  The range check is the
   only one: the loads after it are unchecked. *)
let add_bytes acc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.add_bytes";
  let sum = ref 0 in
  let i = ref pos in
  let stop = pos + len in
  while !i + 32 <= stop do
    let w0 = get64u b !i and w1 = get64u b (!i + 8)
    and w2 = get64u b (!i + 16) and w3 = get64u b (!i + 24) in
    sum :=
      !sum
      + (int64_to_int w0 land 0xFFFFFFFF) + int64_to_int (int64_lsr w0 32)
      + (int64_to_int w1 land 0xFFFFFFFF) + int64_to_int (int64_lsr w1 32)
      + (int64_to_int w2 land 0xFFFFFFFF) + int64_to_int (int64_lsr w2 32)
      + (int64_to_int w3 land 0xFFFFFFFF) + int64_to_int (int64_lsr w3 32);
    i := !i + 32
  done;
  while !i + 8 <= stop do
    let w = get64u b !i in
    sum :=
      !sum + (int64_to_int w land 0xFFFFFFFF) + int64_to_int (int64_lsr w 32);
    i := !i + 8
  done;
  while !i + 2 <= stop do
    sum := !sum + get16u b !i;
    i := !i + 2
  done;
  if !i < stop then begin
    let odd = Char.code (Bytes.unsafe_get b !i) in
    sum := !sum + if Sys.big_endian then odd lsl 8 else odd
  end;
  let s = fold_carry !sum in
  acc + if Sys.big_endian then s else bswap16 s
[@@fastpath]

let finish acc = lnot (fold_carry acc) land 0xffff [@@fastpath]

let of_bytes b ~pos ~len = finish (add_bytes zero b ~pos ~len) [@@fastpath]

(* RFC 1624 (eqn. 3): HC' = ~(~HC + ~m + m').  Folding the carry keeps the
   result in one's-complement range, so updating a checksum for a one-word
   change agrees exactly with a recompute over the modified data. *)
let update_u16 csum ~old_word ~new_word =
  let sum =
    (lnot csum land 0xffff)
    + (lnot old_word land 0xffff)
    + (new_word land 0xffff)
  in
  lnot (fold_carry sum) land 0xffff
[@@fastpath]

let valid b ~pos ~len = fold_carry (add_bytes zero b ~pos ~len) = 0xffff
[@@fastpath]

(* Straight-line adds: the [Fun.flip] pipeline this replaces allocated a
   closure per field, which the fastpath rule (rightly) rejects. *)
let pseudo_header ~src ~dst ~proto ~len =
  let src = Addr.to_int src and dst = Addr.to_int dst in
  (src lsr 16) + (src land 0xffff) + (dst lsr 16) + (dst land 0xffff)
  + (proto land 0xffff) + (len land 0xffff)
[@@fastpath]
