type t = {
  min_rto : int;
  max_rto : int;
  mutable srtt : int; (* negative until the first sample *)
  mutable rttvar : int;
  mutable base_rto : int;
  mutable shift : int; (* backoff exponent *)
}

let create ?(initial_rto_us = 1_000_000) ?(min_rto_us = 200_000)
    ?(max_rto_us = 60_000_000) () =
  {
    min_rto = min_rto_us;
    max_rto = max_rto_us;
    srtt = -1;
    rttvar = 0;
    base_rto = initial_rto_us;
    shift = 0;
  }

let clamp t v = min t.max_rto (max t.min_rto v) [@@fastpath]

let sample t rtt =
  if t.srtt < 0 then begin
    (* First measurement (RFC 6298 2.2). *)
    t.srtt <- rtt;
    t.rttvar <- rtt / 2
  end
  else begin
    (* RTTVAR := 3/4 RTTVAR + 1/4 |SRTT - R|; SRTT := 7/8 SRTT + 1/8 R *)
    t.rttvar <- ((3 * t.rttvar) + abs (t.srtt - rtt)) / 4;
    t.srtt <- ((7 * t.srtt) + rtt) / 8
  end;
  t.base_rto <- clamp t (t.srtt + max 1 (4 * t.rttvar));
  t.shift <- 0
[@@fastpath]

let rto t = min t.max_rto (t.base_rto lsl t.shift) [@@fastpath]

let backoff t = if t.base_rto lsl t.shift < t.max_rto then t.shift <- t.shift + 1 [@@fastpath]

let reset_backoff t = t.shift <- 0 [@@fastpath]

let srtt t = if t.srtt < 0 then None else Some t.srtt

let rttvar t = if t.srtt < 0 then None else Some t.rttvar
