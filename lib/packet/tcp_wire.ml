type flags = {
  urg : bool;
  ack : bool;
  psh : bool;
  rst : bool;
  syn : bool;
  fin : bool;
}

let no_flags =
  { urg = false; ack = false; psh = false; rst = false; syn = false; fin = false }

let flags ?(urg = false) ?(ack = false) ?(psh = false) ?(rst = false)
    ?(syn = false) ?(fin = false) () =
  { urg; ack; psh; rst; syn; fin }

let pp_flags fmt f =
  let s =
    String.concat ""
      [
        (if f.syn then "S" else "");
        (if f.fin then "F" else "");
        (if f.rst then "R" else "");
        (if f.psh then "P" else "");
        (if f.ack then "A" else "");
        (if f.urg then "U" else "");
      ]
  in
  Format.pp_print_string fmt (if s = "" then "." else s)

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_n : int;
  flags : flags;
  window : int;
  urgent : int;
  mss : int option;
  wscale : int option;
  sack_permitted : bool;
  sack : (int * int) list;
  payload : bytes;
}

let make ?(seq = 0) ?(ack_n = 0) ?(flags = no_flags) ?(window = 0)
    ?(urgent = 0) ?(mss = None) ?(wscale = None) ?(sack_permitted = false)
    ?(sack = []) ?(payload = Bytes.empty) ~src_port ~dst_port () =
  { src_port; dst_port; seq; ack_n; flags; window; urgent; mss; wscale;
    sack_permitted; sack; payload }

type error = [ `Truncated | `Bad_checksum | `Bad_header of string ]

let pp_error fmt = function
  | `Truncated -> Format.pp_print_string fmt "truncated segment"
  | `Bad_checksum -> Format.pp_print_string fmt "bad TCP checksum"
  | `Bad_header m -> Format.fprintf fmt "bad TCP header: %s" m

let max_sack_blocks = 4

(* Which of the three canonical option blocks a segment carries.  The
   encoder speaks exactly these shapes so that every option byte lands at
   a fixed, lint-checkable offset:
   - [O_mss]: the historical lone 4-byte MSS option (24-byte header);
   - [O_syn]: the 12-byte SYN block - MSS, window scale (or NOPs),
     SACK-permitted (or NOPs), NOP padding (32-byte header);
   - [O_sack]: NOP NOP SACK on established-connection ACKs
     (24..56-byte header). *)
type opt_block =
  | O_none
  | O_mss of int
  | O_syn of { o_mss : int; o_ws : int option; o_sackp : bool }
  | O_sack of (int * int) list

let opt_block ~mss ~wscale ~sack_permitted ~sack =
  if sack <> [] then begin
    if mss <> None || wscale <> None || sack_permitted then
      invalid_arg "Tcp_wire: SACK blocks cannot share a segment with SYN options";
    if List.length sack > max_sack_blocks then
      invalid_arg "Tcp_wire: more than 4 SACK blocks";
    O_sack sack
  end
  else if wscale <> None || sack_permitted then
    (* The SYN block always carries an MSS; RFC 1122's 536 default keeps
       the block shape fixed when the caller has no MSS to advertise. *)
    O_syn
      { o_mss = (match mss with Some m -> m | None -> 536);
        o_ws = wscale;
        o_sackp = sack_permitted }
  else match mss with Some m -> O_mss m | None -> O_none

let block_size = function
  | O_none -> 0
  | O_mss _ -> 4
  | O_syn _ -> 12
  | O_sack bs -> 4 + (8 * List.length bs)

let header_size t =
  20
  + block_size
      (opt_block ~mss:t.mss ~wscale:t.wscale ~sack_permitted:t.sack_permitted
         ~sack:t.sack)

(* [block_size (opt_block ...)] without building the block, for the
   in-place encoder: a segment's options arrive as plain arguments and
   cost nothing. *)
let opts_size ~mss ~wscale ~sack_permitted ~sack =
  match sack with
  | _ :: _ -> 4 + (8 * List.length sack)
  | [] ->
      if Option.is_some wscale || sack_permitted then 12
      else if Option.is_some mss then 4
      else 0

let header_bytes ~mss ~wscale ~sack_permitted ~sack =
  20 + opts_size ~mss ~wscale ~sack_permitted ~sack

(* Machine-checked wire contract (see catenet-lint): a fixed 20-byte
   header followed by one of three canonical option blocks, each with its
   own layout table so every constant-offset access in the writers below
   lands on declared field boundaries.  The option bytes are read back
   through the variable-offset option parser, which the linter cannot
   follow; with multiple tables the write/read symmetry rule does not
   apply, so no allowlist entry is needed. *)
let layout : (string * int * int) list =
  [ ("src_port", 0, 2);
    ("dst_port", 2, 2);
    ("seq", 4, 4);
    ("ack", 8, 4);
    ("off_flags", 12, 2);
    ("window", 14, 2);
    ("checksum", 16, 2);
    ("urgent", 18, 2);
    ("opt_kind", 20, 1);
    ("opt_len", 21, 1);
    ("opt_mss", 22, 2) ]

(* SYN option block: MSS, window scale (RFC 7323) or NOP padding,
   SACK-permitted (RFC 2018) or NOP padding, two closing NOPs. *)
let syn_opts_layout : (string * int * int) list =
  [ ("src_port", 0, 2);
    ("dst_port", 2, 2);
    ("seq", 4, 4);
    ("ack", 8, 4);
    ("off_flags", 12, 2);
    ("window", 14, 2);
    ("checksum", 16, 2);
    ("urgent", 18, 2);
    ("opt_mss_kind", 20, 1);
    ("opt_mss_len", 21, 1);
    ("opt_mss_val", 22, 2);
    ("opt_ws_kind", 24, 1);
    ("opt_ws_len", 25, 1);
    ("opt_ws_shift", 26, 1);
    ("opt_pad27", 27, 1);
    ("opt_sackp_kind", 28, 1);
    ("opt_sackp_len", 29, 1);
    ("opt_pad30", 30, 1);
    ("opt_pad31", 31, 1) ]

(* SACK block (RFC 2018) on established-connection segments: two NOPs
   align the kind/len pair so the up-to-four (left, right) edges sit on
   32-bit boundaries. *)
let sack_opts_layout : (string * int * int) list =
  [ ("src_port", 0, 2);
    ("dst_port", 2, 2);
    ("seq", 4, 4);
    ("ack", 8, 4);
    ("off_flags", 12, 2);
    ("window", 14, 2);
    ("checksum", 16, 2);
    ("urgent", 18, 2);
    ("opt_nop20", 20, 1);
    ("opt_nop21", 21, 1);
    ("opt_sack_kind", 22, 1);
    ("opt_sack_len", 23, 1);
    ("sack0_left", 24, 4);
    ("sack0_right", 28, 4);
    ("sack1_left", 32, 4);
    ("sack1_right", 36, 4);
    ("sack2_left", 40, 4);
    ("sack2_right", 44, 4);
    ("sack3_left", 48, 4);
    ("sack3_right", 52, 4) ]

let flags_bits f =
  (if f.urg then 0x20 else 0)
  lor (if f.ack then 0x10 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.syn then 0x02 else 0)
  lor if f.fin then 0x01 else 0

let check_range name v bound =
  if v < 0 || v > bound then
    invalid_arg (Printf.sprintf "Tcp_wire.encode: %s out of range" name)

let check_sack_edges sack =
  List.iter
    (fun (l, r) ->
      check_range "sack left edge" l 0xFFFFFFFF;
      check_range "sack right edge" r 0xFFFFFFFF)
    sack

let encode ~src ~dst t =
  check_range "src_port" t.src_port 0xffff;
  check_range "dst_port" t.dst_port 0xffff;
  check_range "seq" t.seq 0xFFFFFFFF;
  check_range "ack" t.ack_n 0xFFFFFFFF;
  check_range "window" t.window 0xffff;
  check_range "urgent" t.urgent 0xffff;
  let block =
    opt_block ~mss:t.mss ~wscale:t.wscale ~sack_permitted:t.sack_permitted
      ~sack:t.sack
  in
  let hsize = 20 + block_size block in
  let total = hsize + Bytes.length t.payload in
  let module W = Stdext.Bytio.W in
  let w = W.create total in
  W.u16 w t.src_port;
  W.u16 w t.dst_port;
  W.u32_of_int w t.seq;
  W.u32_of_int w t.ack_n;
  let data_offset = hsize / 4 in
  W.u16 w ((data_offset lsl 12) lor flags_bits t.flags);
  W.u16 w t.window;
  W.u16 w 0 (* checksum placeholder *);
  W.u16 w t.urgent;
  (match block with
  | O_none -> ()
  | O_mss mss ->
      check_range "mss" mss 0xffff;
      W.u8 w 2;
      W.u8 w 4;
      W.u16 w mss
  | O_syn { o_mss; o_ws; o_sackp } ->
      check_range "mss" o_mss 0xffff;
      W.u8 w 2;
      W.u8 w 4;
      W.u16 w o_mss;
      (match o_ws with
      | Some s ->
          check_range "wscale" s 14;
          W.u8 w 3;
          W.u8 w 3;
          W.u8 w s
      | None ->
          W.u8 w 1;
          W.u8 w 1;
          W.u8 w 1);
      W.u8 w 1;
      (if o_sackp then begin
         W.u8 w 4;
         W.u8 w 2
       end
       else begin
         W.u8 w 1;
         W.u8 w 1
       end);
      W.u16 w 0x0101
  | O_sack bs ->
      check_sack_edges bs;
      W.u16 w 0x0101;
      W.u8 w 5;
      W.u8 w (2 + (8 * List.length bs));
      List.iter
        (fun (l, r) ->
          W.u32_of_int w l;
          W.u32_of_int w r)
        bs);
  W.bytes w t.payload;
  let buf = W.contents w in
  let acc =
    Checksum.pseudo_header ~src ~dst ~proto:6 ~len:total
  in
  let csum = Checksum.finish (Checksum.add_bytes acc buf ~pos:0 ~len:total) in
  Bytes.set_uint16_be buf 16 csum;
  buf

(* The SACK edges, (left, right) pairs from offset [p] on. *)
let rec write_sack_edges buf p = function
  | [] -> ()
  | (l, r) :: rest ->
      check_range "sack left edge" l 0xFFFFFFFF;
      check_range "sack right edge" r 0xFFFFFFFF;
      Bytes.set_int32_be buf p (Int32.of_int l);
      Bytes.set_int32_be buf (p + 4) (Int32.of_int r);
      write_sack_edges buf (p + 8) rest

(* In-place counterpart of {!encode}: the caller has already placed the
   payload at [pos + header_bytes ...] in [buf]; the header is written
   around it and header and payload are checksummed in a single pass.
   Every option argument is a plain label and no option block is built,
   so a segment allocates nothing.  Byte-for-byte identical output to
   {!encode}, its reference. *)
let encode_into ~src ~dst ~src_port ~dst_port ~seq ~ack_n ~flags ~window
    ~urgent ~mss ~wscale ~sack_permitted ~sack ~payload_len buf ~pos =
  check_range "src_port" src_port 0xffff;
  check_range "dst_port" dst_port 0xffff;
  check_range "seq" seq 0xFFFFFFFF;
  check_range "ack" ack_n 0xFFFFFFFF;
  check_range "window" window 0xffff;
  check_range "urgent" urgent 0xffff;
  (match sack with
  | [] -> ()
  | _ :: _ ->
      if Option.is_some mss || Option.is_some wscale || sack_permitted then
        invalid_arg
          "Tcp_wire: SACK blocks cannot share a segment with SYN options";
      if List.length sack > max_sack_blocks then
        invalid_arg "Tcp_wire: more than 4 SACK blocks");
  let hsize = header_bytes ~mss ~wscale ~sack_permitted ~sack in
  let total = hsize + payload_len in
  if pos < 0 || payload_len < 0 || pos + total > Bytes.length buf then
    invalid_arg "Tcp_wire.encode_into: buffer too small";
  Bytes.set_uint16_be buf pos src_port;
  Bytes.set_uint16_be buf (pos + 2) dst_port;
  Bytes.set_int32_be buf (pos + 4) (Int32.of_int seq);
  Bytes.set_int32_be buf (pos + 8) (Int32.of_int ack_n);
  let data_offset = hsize / 4 in
  Bytes.set_uint16_be buf (pos + 12) ((data_offset lsl 12) lor flags_bits flags);
  Bytes.set_uint16_be buf (pos + 14) window;
  Bytes.set_uint16_be buf (pos + 16) 0 (* checksum placeholder *);
  Bytes.set_uint16_be buf (pos + 18) urgent;
  (match sack with
  | _ :: _ ->
      Bytes.set_uint16_be buf (pos + 20) 0x0101;
      Bytes.set_uint8 buf (pos + 22) 5;
      Bytes.set_uint8 buf (pos + 23) (2 + (8 * List.length sack));
      write_sack_edges buf (pos + 24) sack
  | [] ->
      if Option.is_some wscale || sack_permitted then begin
        (* The SYN block always carries an MSS; RFC 1122's 536 default
           keeps the block shape fixed when the caller has none to
           advertise. *)
        let m = match mss with Some m -> m | None -> 536 in
        check_range "mss" m 0xffff;
        Bytes.set_uint8 buf (pos + 20) 2;
        Bytes.set_uint8 buf (pos + 21) 4;
        Bytes.set_uint16_be buf (pos + 22) m;
        (match wscale with
        | Some s ->
            check_range "wscale" s 14;
            Bytes.set_uint8 buf (pos + 24) 3;
            Bytes.set_uint8 buf (pos + 25) 3;
            Bytes.set_uint8 buf (pos + 26) s
        | None ->
            Bytes.set_uint8 buf (pos + 24) 1;
            Bytes.set_uint8 buf (pos + 25) 1;
            Bytes.set_uint8 buf (pos + 26) 1);
        Bytes.set_uint8 buf (pos + 27) 1;
        (if sack_permitted then begin
           Bytes.set_uint8 buf (pos + 28) 4;
           Bytes.set_uint8 buf (pos + 29) 2
         end
         else begin
           Bytes.set_uint8 buf (pos + 28) 1;
           Bytes.set_uint8 buf (pos + 29) 1
         end);
        Bytes.set_uint16_be buf (pos + 30) 0x0101
      end
      else
        match mss with
        | Some m ->
            check_range "mss" m 0xffff;
            Bytes.set_uint8 buf (pos + 20) 2;
            Bytes.set_uint8 buf (pos + 21) 4;
            Bytes.set_uint16_be buf (pos + 22) m
        | None -> ());
  let acc = Checksum.pseudo_header ~src ~dst ~proto:6 ~len:total in
  let csum = Checksum.finish (Checksum.add_bytes acc buf ~pos ~len:total) in
  Bytes.set_uint16_be buf (pos + 16) csum;
  total

type opts = {
  o_mss : int option;
  o_wscale : int option;
  o_sack_permitted : bool;
  o_sack : (int * int) list;
}

let no_opts =
  { o_mss = None; o_wscale = None; o_sack_permitted = false; o_sack = [] }

(* Parse the option block, accepting MSS, window scale, SACK-permitted,
   SACK, NOP and end-of-options, and skipping unknown options by their
   declared length. *)
let parse_options buf ~pos ~len =
  let opts = ref no_opts in
  let i = ref pos in
  let stop = pos + len in
  let bad = ref None in
  while !i < stop && !bad = None do
    match Bytes.get_uint8 buf !i with
    | 0 -> i := stop (* end of option list *)
    | 1 -> incr i (* NOP *)
    | kind ->
        if !i + 1 >= stop then bad := Some "truncated option"
        else begin
          let olen = Bytes.get_uint8 buf (!i + 1) in
          if olen < 2 || !i + olen > stop then bad := Some "bad option length"
          else begin
            (match kind with
            | 2 ->
                if olen = 4 then
                  opts :=
                    { !opts with o_mss = Some (Bytes.get_uint16_be buf (!i + 2)) }
                else bad := Some "bad MSS option length"
            | 3 ->
                if olen = 3 then
                  opts :=
                    { !opts with o_wscale = Some (Bytes.get_uint8 buf (!i + 2)) }
                else bad := Some "bad window scale option length"
            | 4 ->
                if olen = 2 then opts := { !opts with o_sack_permitted = true }
                else bad := Some "bad SACK-permitted option length"
            | 5 ->
                if olen >= 10 && (olen - 2) mod 8 = 0 then begin
                  let n = (olen - 2) / 8 in
                  let bs = ref [] in
                  for b = n - 1 downto 0 do
                    let base = !i + 2 + (8 * b) in
                    let l =
                      Int32.to_int (Bytes.get_int32_be buf base) land 0xFFFFFFFF
                    in
                    let r =
                      Int32.to_int (Bytes.get_int32_be buf (base + 4))
                      land 0xFFFFFFFF
                    in
                    bs := (l, r) :: !bs
                  done;
                  opts := { !opts with o_sack = !bs }
                end
                else bad := Some "bad SACK option length"
            | _ -> ());
            i := !i + olen
          end
        end
  done;
  match !bad with Some m -> Error (`Bad_header m) | None -> Ok !opts

(* Validate the fixed header and checksum without building a [t]: the
   data offset, or a negative code naming what is wrong.  The receive
   fast path reads the few fields it needs straight from the buffer via
   the [peek_*] accessors below and only falls back to {!of_peeked} when
   full dispatch is required. *)
let bad_length = -1
let bad_offset = -2
let bad_checksum = -3

let check ~src ~dst buf ~pos ~len =
  if len < 20 then bad_length
  else begin
    let off_flags = Bytes.get_uint16_be buf (pos + 12) in
    let data_offset = (off_flags lsr 12) * 4 in
    if data_offset < 20 || data_offset > len then bad_offset
    else begin
      let acc = Checksum.pseudo_header ~src ~dst ~proto:6 ~len in
      if Checksum.finish (Checksum.add_bytes acc buf ~pos ~len) <> 0 then
        bad_checksum
      else data_offset
    end
  end

let peek ~src ~dst buf ~pos ~len =
  let r = check ~src ~dst buf ~pos ~len in
  if r < 0 then 0 else r

let peek_src_port buf ~pos = Bytes.get_uint16_be buf pos [@@fastpath]
let peek_dst_port buf ~pos = Bytes.get_uint16_be buf (pos + 2) [@@fastpath]

let peek_u32 buf p = Int32.to_int (Bytes.get_int32_be buf p) land 0xFFFFFFFF [@@fastpath]

let peek_seq buf ~pos = peek_u32 buf (pos + 4) [@@fastpath]
let peek_ack_n buf ~pos = peek_u32 buf (pos + 8) [@@fastpath]
let peek_flag_bits buf ~pos = Bytes.get_uint16_be buf (pos + 12) land 0x3f [@@fastpath]
let peek_window buf ~pos = Bytes.get_uint16_be buf (pos + 14) [@@fastpath]

let of_peeked buf ~pos ~len ~data_offset =
  match parse_options buf ~pos:(pos + 20) ~len:(data_offset - 20) with
  | Error _ as e -> e
  | Ok opts ->
      let bits = peek_flag_bits buf ~pos in
      let flags =
        {
          urg = bits land 0x20 <> 0;
          ack = bits land 0x10 <> 0;
          psh = bits land 0x08 <> 0;
          rst = bits land 0x04 <> 0;
          syn = bits land 0x02 <> 0;
          fin = bits land 0x01 <> 0;
        }
      in
      Ok
        {
          src_port = peek_src_port buf ~pos;
          dst_port = peek_dst_port buf ~pos;
          seq = peek_seq buf ~pos;
          ack_n = peek_ack_n buf ~pos;
          flags;
          window = peek_window buf ~pos;
          urgent = Bytes.get_uint16_be buf (pos + 18);
          mss = opts.o_mss;
          wscale = opts.o_wscale;
          sack_permitted = opts.o_sack_permitted;
          sack = opts.o_sack;
          payload = Bytes.sub buf (pos + data_offset) (len - data_offset);
        }

let decode ~src ~dst buf =
  let len = Bytes.length buf in
  let r = check ~src ~dst buf ~pos:0 ~len in
  if r = bad_length then Error `Truncated
  else if r = bad_offset then Error (`Bad_header "bad data offset")
  else if r = bad_checksum then Error `Bad_checksum
  else of_peeked buf ~pos:0 ~len ~data_offset:r

let pp fmt t =
  Format.fprintf fmt "%d>%d %a seq=%d ack=%d win=%d len=%d%s%s%s%s" t.src_port
    t.dst_port pp_flags t.flags t.seq t.ack_n t.window
    (Bytes.length t.payload)
    (match t.mss with None -> "" | Some m -> Printf.sprintf " mss=%d" m)
    (match t.wscale with None -> "" | Some s -> Printf.sprintf " ws=%d" s)
    (if t.sack_permitted then " sackOK" else "")
    (match t.sack with
    | [] -> ""
    | bs ->
        Printf.sprintf " sack=%s"
          (String.concat ","
             (List.map (fun (l, r) -> Printf.sprintf "%d-%d" l r) bs)))
