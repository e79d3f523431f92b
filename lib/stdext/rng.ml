(* The SplitMix64 state lives unboxed in 8 bytes, read and written with
   the raw primitives.  [next] and its helpers are [@inline], so every
   int64 of a draw stays in registers and a draw that returns an int or
   a bool allocates nothing.  (Libraries build with -opaque, so an int64
   crossing a module boundary would be boxed: keep the arithmetic
   here.) *)
type t = bytes

external get_state : bytes -> int -> int64 = "%caml_bytes_get64u"
external set_state : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let bits64 t = next t

(* Mix once more so a split stream does not share prefixes with the
   parent's subsequent outputs. *)
let split t = of_state (mix64 (next t))

(* [int] and [bool] serve netsim's per-frame loss and jitter draws.  The
   fast-path lint cannot see that the inlined int64 arithmetic stays
   unboxed, hence the exemptions; test_stdext checks that draws allocate
   nothing. *)
let int t bound =
  assert (bound > 0);
  (* Mask to 62 nonnegative bits: Int64.to_int truncates to the native
     63-bit int and could otherwise yield negatives. *)
  let v =
    (Int64.to_int (Int64.shift_right_logical (next t) 2) [@fastpath.exempt])
    land max_int
  in
  v mod bound
[@@fastpath]

(* 53 random bits, scaled into [0, bound). *)
let[@inline] unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11))
  /. 9007199254740992.0

let float t bound = unit_float t *. bound

let bool t p = (unit_float t [@fastpath.exempt]) < p [@@fastpath]

let exponential t mean =
  let u = unit_float t in
  (* Avoid log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
