type acc = int

let zero = 0

(* The inner loop sums 32-bit big-endian reads: each contributes its two
   16-bit columns as [hi·2^16 + lo], and the final carry fold collapses
   the deferred [hi] sums back into the 16-bit one's-complement total.
   With 63-bit native ints this cannot overflow for any 16-bit [len]
   (at most 2^14 addends of < 2^32).  Halving the reads matters: every
   TCP/UDP segment is summed twice (sender compute, receiver verify), so
   this loop is the per-segment cost floor of both transport paths. *)
let add_bytes acc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Checksum.add_bytes";
  let acc = ref acc in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    acc :=
      !acc
      + (Int32.to_int (Bytes.get_int32_be b !i) land 0xFFFFFFFF)
      + (Int32.to_int (Bytes.get_int32_be b (!i + 4)) land 0xFFFFFFFF);
    i := !i + 8
  done;
  while !i + 1 < stop do
    acc := !acc + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Bytes.get_uint8 b !i lsl 8);
  !acc
[@@fastpath]

let rec fold_carry s =
  if s > 0xffff then fold_carry ((s land 0xffff) + (s lsr 16)) else s
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
