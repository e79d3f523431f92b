exception Truncated

module W = struct
  type t = { buf : bytes; mutable pos : int }

  let create n = { buf = Bytes.make n '\000'; pos = 0 }

  let pos t = t.pos

  let check t n = if t.pos + n > Bytes.length t.buf then raise Truncated

  let u8 t v =
    check t 1;
    Bytes.set_uint8 t.buf t.pos (v land 0xff);
    t.pos <- t.pos + 1

  let u16 t v =
    check t 2;
    Bytes.set_uint16_be t.buf t.pos (v land 0xffff);
    t.pos <- t.pos + 2

  let u32 t v =
    check t 4;
    Bytes.set_int32_be t.buf t.pos v;
    t.pos <- t.pos + 4

  let u32_of_int t v = u32 t (Int32.of_int v)

  let sub t b ~pos ~len =
    check t len;
    Bytes.blit b pos t.buf t.pos len;
    t.pos <- t.pos + len

  let bytes t b = sub t b ~pos:0 ~len:(Bytes.length b)

  let seek t p =
    if p < 0 || p > Bytes.length t.buf then raise Truncated;
    t.pos <- p

  (* A writer sized to its output is the common case (every encoder
     does it): hand over the buffer itself instead of copying it. *)
  let contents t =
    if t.pos = Bytes.length t.buf then t.buf else Bytes.sub t.buf 0 t.pos
end

module R = struct
  type t = { buf : bytes; off : int; len : int; mutable pos : int }

  let of_sub buf ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then raise Truncated;
    { buf; off = pos; len; pos = 0 }

  let of_bytes buf = { buf; off = 0; len = Bytes.length buf; pos = 0 }

  let pos t = t.pos

  let remaining t = t.len - t.pos

  let check t n = if t.pos + n > t.len then raise Truncated

  let u8 t =
    check t 1;
    let v = Bytes.get_uint8 t.buf (t.off + t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    check t 2;
    let v = Bytes.get_uint16_be t.buf (t.off + t.pos) in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    check t 4;
    let v = Bytes.get_int32_be t.buf (t.off + t.pos) in
    t.pos <- t.pos + 4;
    v

  let u32_to_int t =
    let v = u32 t in
    Int32.to_int v land 0xFFFFFFFF

  let bytes t n =
    check t n;
    let b = Bytes.sub t.buf (t.off + t.pos) n in
    t.pos <- t.pos + n;
    b

  let skip t n =
    check t n;
    t.pos <- t.pos + n
end
