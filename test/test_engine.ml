(* Tests for the discrete-event engine: time ordering, determinism,
   cancellable timers, bounded runs. *)

let check = Alcotest.check


let test_time_starts_at_zero () =
  let e = Engine.create () in
  check Alcotest.int "t=0" 0 (Engine.now e)

let test_events_run_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule e ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule e ~at:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "order" [ 10; 20; 30 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:5 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:10 (fun () -> ());
  Engine.run e;
  try
    Engine.schedule e ~at:5 (fun () -> ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_after_relative () =
  let e = Engine.create () in
  let fired_at = ref (-1) in
  Engine.schedule e ~at:100 (fun () ->
      Engine.after e 50 (fun () -> fired_at := Engine.now e));
  Engine.run e;
  check Alcotest.int "at 150" 150 !fired_at

let test_run_until_stops_clock () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.after e 1000 (fun () -> fired := true);
  Engine.run ~until:500 e;
  check Alcotest.bool "not fired" false !fired;
  check Alcotest.int "clock clamped" 500 (Engine.now e);
  check Alcotest.int "still pending" 1 (Engine.pending e);
  Engine.run ~until:1000 e;
  check Alcotest.bool "fired at boundary" true !fired

let test_max_events_guard () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    Engine.after e 1 loop
  in
  Engine.after e 1 loop;
  Engine.run ~max_events:100 e;
  check Alcotest.int "bounded" 100 !count

let test_timer_fires () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.Timer.start e ~after:10 (fun () -> fired := true) in
  check Alcotest.bool "active before" true (Engine.Timer.active h);
  Engine.run e;
  check Alcotest.bool "fired" true !fired;
  check Alcotest.bool "inactive after" false (Engine.Timer.active h)

let test_timer_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.Timer.start e ~after:10 (fun () -> fired := true) in
  Engine.Timer.cancel h;
  check Alcotest.bool "inactive" false (Engine.Timer.active h);
  Engine.run e;
  check Alcotest.bool "not fired" false !fired

let test_timer_cancel_idempotent () =
  let e = Engine.create () in
  let h = Engine.Timer.start e ~after:10 (fun () -> ()) in
  Engine.Timer.cancel h;
  Engine.Timer.cancel h;
  Engine.run e

let test_step () =
  let e = Engine.create () in
  let n = ref 0 in
  Engine.after e 1 (fun () -> incr n);
  Engine.after e 2 (fun () -> incr n);
  check Alcotest.bool "step 1" true (Engine.step e);
  check Alcotest.int "one ran" 1 !n;
  check Alcotest.bool "step 2" true (Engine.step e);
  check Alcotest.bool "step empty" false (Engine.step e)

let test_step_purges_cancelled () =
  (* A queue holding only cancelled shells yields no step at all. *)
  let e = Engine.create () in
  let fired = ref false in
  let t1 = Engine.Timer.start e ~after:1 (fun () -> fired := true) in
  let t2 = Engine.Timer.start e ~after:2 (fun () -> fired := true) in
  Engine.Timer.cancel t1;
  Engine.Timer.cancel t2;
  check Alcotest.int "two shells queued" 2 (Engine.pending e);
  check Alcotest.bool "no live event" false (Engine.step e);
  check Alcotest.bool "nothing fired" false !fired;
  check Alcotest.int "queue drained" 0 (Engine.pending e)

let test_step_runs_live_past_cancelled () =
  let e = Engine.create () in
  let ran = ref 0 in
  let t = Engine.Timer.start e ~after:1 (fun () -> ran := 10) in
  Engine.after e 5 (fun () -> ran := !ran + 1);
  Engine.Timer.cancel t;
  check Alcotest.bool "one step" true (Engine.step e);
  check Alcotest.int "live ran, cancelled skipped" 1 !ran;
  check Alcotest.int "clock at live event" 5 (Engine.now e)

let test_run_until_purge_respects_boundary () =
  (* A cancelled shell inside the window must not drag an event beyond
     [until] into the run. *)
  let e = Engine.create () in
  let late = ref false in
  let t = Engine.Timer.start e ~after:10 (fun () -> ()) in
  Engine.after e 100 (fun () -> late := true);
  Engine.Timer.cancel t;
  Engine.run ~until:50 e;
  check Alcotest.bool "beyond-window event not run" false !late;
  check Alcotest.int "clock parked at until" 50 (Engine.now e);
  Engine.run e;
  check Alcotest.bool "runs once resumed" true !late

let test_nested_scheduling_determinism () =
  (* Two identical engines given the same program must agree exactly. *)
  let trace e =
    let log = Buffer.create 64 in
    let rec tick i =
      Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e));
      if i < 20 then begin
        Engine.after e ((i mod 3) + 1) (fun () -> tick (i + 1));
        Engine.after e 2 (fun () -> Buffer.add_string log "x;")
      end
    in
    Engine.after e 5 (fun () -> tick 0);
    Engine.run e;
    Buffer.contents log
  in
  check Alcotest.string "identical traces"
    (trace (Engine.create ()))
    (trace (Engine.create ()))

let test_until_then_schedule_next () =
  (* [run ~until] must not move the wheel's cursor past the clock while
     looking for the next event: an event scheduled just after [until]
     still comes before the far one it stopped short of. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.after e 1_000_000 (fun () -> log := "far" :: !log);
  Engine.run ~until:700_000 e;
  check Alcotest.int "clock parked" 700_000 (Engine.now e);
  Engine.schedule e ~at:700_001 (fun () -> log := "near" :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.string) "near first" [ "near"; "far" ]
    (List.rev !log)

(* Reference model: the simplest correct queue, a list kept sorted by
   (time, seq), driven by the same loops the engine documents. *)
module Ref = struct
  type ev = {
    at : int;
    seq : int;
    fn : unit -> unit;
    mutable cancelled : bool;
    mutable fired : bool;
  }

  type t = { mutable clock : int; mutable seq : int; mutable q : ev list }

  let create () = { clock = 0; seq = 0; q = [] }

  let schedule t ~at fn =
    if at < t.clock then invalid_arg "Ref.schedule";
    let ev = { at; seq = t.seq; fn; cancelled = false; fired = false } in
    t.seq <- t.seq + 1;
    let rec insert = function
      | e :: rest when compare (e.at, e.seq) (at, ev.seq) < 0 -> e :: insert rest
      | l -> ev :: l
    in
    t.q <- insert t.q;
    ev

  let pop t =
    match t.q with
    | [] -> None
    | ev :: rest ->
        t.q <- rest;
        t.clock <- ev.at;
        if ev.cancelled then Some false
        else begin
          ev.fired <- true;
          ev.fn ();
          Some true
        end

  let rec step t =
    match pop t with None -> false | Some true -> true | Some false -> step t

  let run ?until ?max_events t =
    let executed = ref 0 in
    let rec loop () =
      match (max_events, t.q, until) with
      | Some m, _, _ when !executed >= m -> ()
      | _, [], _ -> ()
      | _, ev :: _, Some u when ev.at > u -> t.clock <- u
      | _ ->
          if pop t = Some true then incr executed;
          loop ()
    in
    loop ()
end

(* A random program: arms (plain [after], absolute [schedule] and timers)
   whose handlers arm and cancel more, interleaved with [step],
   [run ~until] and [run ~max_events]. *)
type kind = After | At | Timer
type cmd = Arm of kind * int * cmd list | Cancel of int
type top = Do of cmd | Step | Until of int | Max of int

(* One queue under test, as the interpreter sees it. *)
type queue = {
  now : unit -> int;
  pending : unit -> int;
  after : int -> (unit -> unit) -> unit;
  schedule : int -> (unit -> unit) -> unit;
  start : int -> (unit -> unit) -> (unit -> unit) * (unit -> bool);
  step : unit -> bool;
  run : ?until:int -> ?max_events:int -> unit -> unit;
}

let engine_queue () =
  let e = Engine.create () in
  {
    now = (fun () -> Engine.now e);
    pending = (fun () -> Engine.pending e);
    after = (fun d fn -> Engine.after e d fn);
    schedule = (fun at fn -> Engine.schedule e ~at fn);
    start =
      (fun d fn ->
        let h = Engine.Timer.start e ~after:d fn in
        ((fun () -> Engine.Timer.cancel h), fun () -> Engine.Timer.active h));
    step = (fun () -> Engine.step e);
    run = (fun ?until ?max_events () -> Engine.run ?until ?max_events e);
  }

let ref_queue () =
  let r = Ref.create () in
  {
    now = (fun () -> r.Ref.clock);
    pending = (fun () -> List.length r.Ref.q);
    after = (fun d fn -> ignore (Ref.schedule r ~at:(r.Ref.clock + d) fn));
    schedule = (fun at fn -> ignore (Ref.schedule r ~at fn));
    start =
      (fun d fn ->
        let ev = Ref.schedule r ~at:(r.Ref.clock + d) fn in
        ( (fun () -> ev.Ref.cancelled <- true),
          fun () -> (not ev.Ref.fired) && not ev.Ref.cancelled ));
    step = (fun () -> Ref.step r);
    run = (fun ?until ?max_events () -> Ref.run ?until ?max_events r);
  }

(* Run [prog] on [q]; the observation after every top-level call is the
   firing log so far, [now] and [pending], then every timer's [active]. *)
let observe q prog =
  let log = Buffer.create 256 in
  let obs = ref [] in
  let timers = ref [] in
  let ids = ref 0 in
  let rec exec = function
    | Arm (kind, d, children) ->
        let id = !ids in
        incr ids;
        let fn () =
          Printf.bprintf log "%d@%d;" id (q.now ());
          List.iter exec children
        in
        (match kind with
        | After -> q.after d fn
        | At -> q.schedule (q.now () + d) fn
        | Timer -> timers := q.start d fn :: !timers)
    | Cancel k -> (
        match !timers with
        | [] -> ()
        | l -> fst (List.nth l (k mod List.length l)) ())
  in
  List.iter
    (fun top ->
      (match top with
      | Do c -> exec c
      | Step -> Printf.bprintf log "s%b;" (q.step ())
      | Until d -> q.run ~until:(q.now () + d) ()
      | Max n -> q.run ~max_events:n ());
      obs := (Buffer.contents log, q.now (), q.pending ()) :: !obs)
    prog;
  (List.rev !obs, List.map (fun (_, active) -> active ()) !timers)

let gen_delay =
  let edges =
    [ 255; 256; 257; 65_535; 65_536; 65_537; (1 lsl 24) - 1; 1 lsl 24;
      (1 lsl 24) + 1; (1 lsl 32) - 1; 1 lsl 32; (1 lsl 32) + 1 ]
  in
  QCheck.Gen.(
    frequency
      [ (4, int_range 0 300); (2, oneofl [ 0; 1; 5 ]); (2, oneofl edges);
        (1, int_range 0 70_000); (1, int_range 0 (1 lsl 33)) ])

let rec gen_cmd depth =
  QCheck.Gen.(
    frequency
      [ ( 5,
          map3
            (fun k d cs -> Arm (k, d, cs))
            (oneofl [ After; At; Timer ])
            gen_delay
            (if depth = 0 then return []
             else list_size (int_range 0 3) (gen_cmd (depth - 1))) );
        (2, map (fun k -> Cancel k) nat) ])

let gen_top =
  QCheck.Gen.(
    frequency
      [ (6, map (fun c -> Do c) (gen_cmd 2)); (2, return Step);
        (2, map (fun d -> Until d) (oneof [ gen_delay; int_range (-300) 0 ]));
        (1, map (fun n -> Max n) (int_range 0 5)) ])

let rec show_cmd = function
  | Arm (k, d, cs) ->
      Printf.sprintf "%s %d [%s]"
        (match k with After -> "after" | At -> "at" | Timer -> "timer")
        d
        (String.concat "; " (List.map show_cmd cs))
  | Cancel k -> Printf.sprintf "cancel %d" k

let show_top = function
  | Do c -> show_cmd c
  | Step -> "step"
  | Until d -> Printf.sprintf "until now+%d" d
  | Max n -> Printf.sprintf "max %d" n

let prop_matches_reference =
  QCheck.Test.make ~name:"engine matches a sorted reference queue" ~count:1000
    (QCheck.make
       ~print:(fun p -> String.concat "\n" (List.map show_top p))
       QCheck.Gen.(list_size (int_range 1 40) gen_top))
    (fun prog -> observe (engine_queue ()) prog = observe (ref_queue ()) prog)

let test_unit_conversions () =
  check Alcotest.int "ms" 2_000 (Engine.ms 2);
  check Alcotest.int "sec" 1_500_000 (Engine.sec 1.5);
  check (Alcotest.float 1e-9) "to_sec" 0.25 (Engine.to_sec 250_000)

let () =
  Alcotest.run "engine"
    [
      ( "clock",
        [
          Alcotest.test_case "starts at zero" `Quick test_time_starts_at_zero;
          Alcotest.test_case "time order" `Quick test_events_run_in_time_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "after relative" `Quick test_after_relative;
          Alcotest.test_case "run until" `Quick test_run_until_stops_clock;
          Alcotest.test_case "max events" `Quick test_max_events_guard;
          Alcotest.test_case "units" `Quick test_unit_conversions;
        ] );
      ( "timers",
        [
          Alcotest.test_case "fires" `Quick test_timer_fires;
          Alcotest.test_case "cancel" `Quick test_timer_cancel;
          Alcotest.test_case "cancel idempotent" `Quick test_timer_cancel_idempotent;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "purge cancelled" `Quick test_step_purges_cancelled;
          Alcotest.test_case "purge then live" `Quick
            test_step_runs_live_past_cancelled;
          Alcotest.test_case "purge respects until" `Quick
            test_run_until_purge_respects_boundary;
          Alcotest.test_case "determinism" `Quick test_nested_scheduling_determinism;
          Alcotest.test_case "until then schedule next" `Quick
            test_until_then_schedule_next;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
    ]
