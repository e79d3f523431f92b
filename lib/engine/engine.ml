(* The hierarchical timing wheel described in engine.mli.  Invariants:
   - the cursor [cur] is at most every entry's time, and between calls
     at most [clock];
   - an entry sits on the level of the highest byte in which its time
     differs from [cur], or on the overflow list past byte 3, so a
     level-0 slot holds one instant and an entry on level [l >= 1] lies
     in a slot strictly after [cur]'s own slot there;
   - all entries due at one instant share one list, in scheduling order.
   Entries live in a slab of parallel arrays indexed by int and recycled
   through a free list, so pushing and popping allocate nothing. *)

type handle = { mutable cancelled : bool; mutable fired : bool }

(* Plain events share this handle; only [Timer.start] makes another. *)
let plain = { cancelled = false; fired = false }

let nop () = ()
let nil = -1
let levels = 4
let overflow = levels * 256

type t = {
  mutable clock : int;
  mutable cur : int;
  mutable count : int;
  mutable timer_starts : int;
  (* Each slot, then the overflow list, is a circular FIFO named by its
     tail ([nil] when empty); the tail's [next] is the head. *)
  tails : int array;
  (* The slab: entry [e] is [time.(e)], [next.(e)], [fn.(e)], [timer.(e)].
     Free entries are chained through [next] from [free]. *)
  mutable time : int array;
  mutable next : int array;
  mutable fn : (unit -> unit) array;
  mutable timer : handle array;
  mutable free : int;
}

(* Free-list links for fresh slab entries [n, m). *)
let slab_chain n m =
  Array.init (m - n) (fun i -> if n + i + 1 < m then n + i + 1 else nil)

let create () =
  let t =
    {
      clock = 0;
      cur = 0;
      count = 0;
      timer_starts = 0;
      tails = Array.make (overflow + 1) nil;
      time = Array.make 64 0;
      next = slab_chain 0 64;
      fn = Array.make 64 nop;
      timer = Array.make 64 plain;
      free = 0;
    }
  in
  (* The most recently created engine stamps flight-recorder events; with
     one engine per simulation (the universal case) this is simply "the
     clock". *)
  Trace.set_now (fun () -> t.clock);
  t

let now t = t.clock [@@fastpath]

let us d = d
let ms d = d * 1_000
let sec s = int_of_float ((s *. 1e6) +. 0.5)
let to_sec us = float_of_int us /. 1e6

let timer_starts t = t.timer_starts
let pending t = t.count

let grow t =
  let n = Array.length t.time in
  let extend a fill = Array.append a (Array.make n fill) in
  t.time <- extend t.time 0;
  t.next <- Array.append t.next (slab_chain n (2 * n));
  t.fn <- extend t.fn nop;
  t.timer <- extend t.timer plain;
  t.free <- n

let append t i e =
  let tl = t.tails.(i) in
  if tl = nil then t.next.(e) <- e
  else begin
    t.next.(e) <- t.next.(tl);
    t.next.(tl) <- e
  end;
  t.tails.(i) <- e
[@@fastpath]

(* Unlink and return the head of the non-empty list [i]. *)
let take t i =
  let tl = t.tails.(i) in
  let hd = t.next.(tl) in
  if hd = tl then t.tails.(i) <- nil else t.next.(tl) <- t.next.(hd);
  hd
[@@fastpath]

let place t e =
  let at = t.time.(e) in
  let x = at lxor t.cur in
  append t
    (if x lsr 8 = 0 then at land 0xff
     else if x lsr 16 = 0 then 0x100 + ((at lsr 8) land 0xff)
     else if x lsr 24 = 0 then 0x200 + ((at lsr 16) land 0xff)
     else if x lsr 32 = 0 then 0x300 + ((at lsr 24) land 0xff)
     else overflow)
    e
[@@fastpath]

(* Re-place the detached list running from [e] to its tail [tl]. *)
let rec replace t e tl =
  let nx = t.next.(e) in
  place t e;
  if e <> tl then replace t nx tl
[@@fastpath]

(* Move the cursor to [c], at most every entry's time, and re-place every
   entry: for the overflow list once the levels drain, and for a clock
   that [run ~until] set back behind the cursor. *)
let reseat t c =
  t.cur <- c;
  for i = 0 to overflow do
    let tl = t.tails.(i) in
    if tl <> nil then begin
      t.tails.(i) <- nil;
      replace t t.next.(tl) tl
    end
  done
[@@fastpath]

let rec list_min t e tl m =
  let m = if t.time.(e) < m then t.time.(e) else m in
  if e = tl then m else list_min t t.next.(e) tl m
[@@fastpath]

(* First non-empty slot of the level at [base], from index [j]; 256 if none. *)
let rec first_slot t base j =
  if j > 255 || t.tails.(base + j) <> nil then j else first_slot t base (j + 1)
[@@fastpath]

let push t at fn h =
  if t.free = nil then (grow t [@fastpath.exempt]);
  let e = t.free in
  t.free <- t.next.(e);
  t.time.(e) <- at;
  t.fn.(e) <- fn;
  t.timer.(e) <- h;
  t.count <- t.count + 1;
  place t e
[@@fastpath]

(* Unlink the next entry if it is due at or before [bound]; else [nil].
   The cursor never moves past [bound]. *)
let rec pop t bound =
  if t.count = 0 then nil
  else
    let s = first_slot t 0 (t.cur land 0xff) in
    if s < 256 then begin
      let at = t.cur land lnot 0xff lor s in
      if at > bound then nil
      else begin
        t.cur <- at;
        t.count <- t.count - 1;
        take t s
      end
    end
    else if cascade t 1 bound then pop t bound
    else nil
[@@fastpath]

(* Every level below [lvl] is empty: move the cursor to the start of the
   first occupied slot at [lvl] or above (past the top level, to the
   earliest overflow entry) and re-place that slot's entries.  [false],
   moving nothing, if that start lies past [bound]. *)
and cascade t lvl bound =
  if lvl = levels then begin
    let tl = t.tails.(overflow) in
    let m = list_min t t.next.(tl) tl max_int in
    m <= bound && (reseat t m; true)
  end
  else
    let sh = 8 * lvl in
    let s = first_slot t (lvl * 256) (((t.cur lsr sh) land 0xff) + 1) in
    if s > 255 then cascade t (lvl + 1) bound
    else
      let start = (t.cur lsr (sh + 8)) lsl (sh + 8) lor (s lsl sh) in
      start <= bound
      && begin
           let i = (lvl * 256) + s in
           let tl = t.tails.(i) in
           t.cur <- start;
           t.tails.(i) <- nil;
           replace t t.next.(tl) tl;
           true
         end
[@@fastpath]

let schedule t ~at fn =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%d is before now=%d" at t.clock);
  push t at fn plain
[@@fastpath]

let after t d fn = schedule t ~at:(t.clock + d) fn [@@fastpath]

module Timer = struct
  type nonrec handle = handle

  let start t ~after fn =
    if after < 0 then
      invalid_arg (Printf.sprintf "Engine.Timer.start: after=%d" after);
    t.timer_starts <- t.timer_starts + 1;
    if Trace.want Trace.Cls.timer then
      Trace.emit (Trace.Event.Timer_arm { at = t.clock + after });
    let h = { cancelled = false; fired = false } in
    push t (t.clock + after) fn h;
    h

  let cancel (h : handle) = h.cancelled <- true [@@fastpath]

  let active (h : handle) = (not h.fired) && not h.cancelled
end

(* Free [e], advance the clock to it and run it unless it is a cancelled
   shell; [true] if it ran.  Shells — overwhelmingly protocol timers
   disarmed before firing — cost a pop, not a step, but the clock still
   advances over them: a run that drains the queue must end at the same
   instant whether or not its last events were cancelled. *)
let fire t e =
  let at = t.time.(e) and fn = t.fn.(e) and h = t.timer.(e) in
  t.fn.(e) <- nop;
  t.timer.(e) <- plain;
  t.next.(e) <- t.free;
  t.free <- e;
  t.clock <- at;
  (not h.cancelled)
  && begin
       if h != plain then begin
         h.fired <- true;
         if Trace.want Trace.Cls.timer then
           Trace.emit (Trace.Event.Timer_fire { at })
       end;
       fn ();
       true
     end

let rec step t =
  let e = pop t max_int in
  e <> nil && (fire t e || step t)

let run ?until ?max_events t =
  let bound = Option.value until ~default:max_int in
  let budget = Option.value max_events ~default:max_int in
  let executed = ref 0 in
  let continue = ref true in
  while !continue && !executed < budget do
    let e = pop t bound in
    if e = nil then begin
      (* Nothing due by [until]: park the clock there, unless the queue
         is empty. *)
      if t.count > 0 then begin
        t.clock <- bound;
        if bound < t.cur then reseat t bound
      end;
      continue := false
    end
    else if fire t e then incr executed
  done
