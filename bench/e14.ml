(* E14 — Transport (end-host) fast path.

   E13 made the gateway's per-packet budget cheap; the paper's §7 puts
   the remaining cost of the full TCP service at the endpoints.  This
   experiment measures the two end-host optimisations together: Van
   Jacobson header prediction on receive and allocation-free segment
   emission on send.

   Phase 1 pushes a bulk TCP transfer through one gateway (a — g1 — b)
   twice — fast path on, then off — and reports segments/s of host CPU
   and allocated words per segment.  Phase 2 churns timers the way 200
   interactive connections do (periodic small writes arming
   retransmission and delayed-ACK timers constantly) and reports timer
   arms per second of wall clock on the engine's timing wheel.

   The two paths are behaviourally identical (test/test_tcp_fastpath.ml
   proves byte-identical delivery); only the cost differs.  Results go
   to stdout and BENCH_tcp.json, which holds the exact figures: words
   per segment and the churn's timer arms.  Segments/s, the speedup and
   arms/s are one wall-clock sample each, printed only. *)

open Catenet

let full_transfer_bytes = 64 * 1024 * 1024
let full_churn_conns = 200
let churn_write_bytes = 64
let churn_period_us = 5_000
let churn_duration_us = 4_000_000

let gigabit =
  Netsim.profile ~bandwidth_bps:1_000_000_000 ~delay_us:100 ~mtu:1500
    ~queue_capacity:4096 "e14-gigabit"

type outcome = { sps : float; words_per_seg : float }

(* Phase 1: one bulk transfer, host fast path on or off.  The
   gateway keeps its (PR-1) defaults in both runs, so the difference is
   purely the endpoints'.  The driver is deliberately leaner than
   Apps.Bulk: a reusable send chunk and a byte-counting sink, so the
   measurement is the protocol machinery, not the workload generator
   (equivalence of the two paths under real payloads is the fastpath
   test suite's job). *)
let run_transfer ~fast ~total =
  let t = Internet.create ~seed:42 () in
  let a = Internet.add_host t "a" in
  let g = Internet.add_gateway t "g1" in
  let b = Internet.add_host t "b" in
  ignore (Internet.connect t gigabit a.Internet.h_node g.Internet.g_node);
  ignore (Internet.connect t gigabit g.Internet.g_node b.Internet.h_node);
  Internet.start t;
  Tcp.set_fast_path a.Internet.h_tcp fast;
  Tcp.set_fast_path b.Internet.h_tcp fast;
  let eng = Internet.engine t in
  let received = ref 0 in
  ignore
    (Tcp.listen b.Internet.h_tcp ~port:80 ~accept:(fun c ->
         Tcp.on_receive c (fun data -> received := !received + Bytes.length data);
         Tcp.on_peer_fin c (fun () -> Tcp.close c)));
  let c =
    Tcp.connect a.Internet.h_tcp
      ~dst:(Internet.addr_of t b.Internet.h_node)
      ~dst_port:80 ()
  in
  let chunk = Bytes.make 16384 'd' in
  let sent = ref 0 in
  let rec pump () =
    if !sent < total then begin
      let space = Tcp.send_space c in
      if space > 0 then begin
        let n = min space (min (Bytes.length chunk) (total - !sent)) in
        let buf = if n = Bytes.length chunk then chunk else Bytes.sub chunk 0 n in
        sent := !sent + Tcp.send c buf
      end;
      if !sent >= total then Tcp.close c else Engine.after eng 2_000 pump
    end
  in
  Tcp.on_established c pump;
  let wall, words = Util.wall_and_words (fun () -> Internet.run_until_idle t) in
  if !received <> total then
    failwith (Printf.sprintf "E14: delivered %d of %d bytes" !received total);
  let st = Tcp.stats c in
  (* Segments the sending host processed: data out plus ACKs in.  The
     receiving host does the mirror-image work, so per-host cost is this
     count against half the measured allocation — the ratio fast/slow is
     what matters and is insensitive to the convention. *)
  let segments = st.Tcp.segs_out + st.Tcp.segs_in in
  {
    sps = float_of_int segments /. wall;
    words_per_seg = words /. float_of_int segments;
  }

(* Phase 2: timer churn.  Each connection writes a small burst every
   5 ms for four simulated seconds: every burst arms a retransmission
   timer at the sender and a delayed-ACK timer at the receiver, the
   steady-state load timing wheels were invented for. *)
let run_churn ~conns =
  let t = Internet.create ~seed:7 () in
  let a = Internet.add_host t "a" in
  let b = Internet.add_host t "b" in
  ignore (Internet.connect t gigabit a.Internet.h_node b.Internet.h_node);
  Internet.start t;
  let eng = Internet.engine t in
  ignore
    (Tcp.listen b.Internet.h_tcp ~port:9 ~accept:(fun c ->
         Tcp.on_receive c (fun _ -> ())));
  let payload = Bytes.make churn_write_bytes 'c' in
  let dst = Internet.addr_of t b.Internet.h_node in
  for _ = 1 to conns do
    let c = Tcp.connect a.Internet.h_tcp ~dst ~dst_port:9 () in
    Tcp.on_established c (fun () ->
        let rec tick () =
          if Engine.now eng < churn_duration_us then begin
            ignore (Tcp.send c payload);
            Engine.after eng churn_period_us tick
          end
          else Tcp.close c
        in
        tick ())
  done;
  let starts0 = Engine.timer_starts eng in
  let wall0 = Unix.gettimeofday () in
  Internet.run_until_idle t;
  let wall = Unix.gettimeofday () -. wall0 in
  let starts = Engine.timer_starts eng - starts0 in
  if starts = 0 then failwith "E14: churn armed no timers";
  (starts, wall)

let write_json ~total ~slow ~fast ~alloc_ratio ~conns ~arms =
  let open Trace.Json in
  Util.write_json "BENCH_tcp.json"
    (Obj
       [ ("experiment", Str "E14");
         ("topology", Str "a - g1 - b");
         ("transfer_bytes", Int total);
         ("fast_words_per_segment", Float fast.words_per_seg);
         ("slow_words_per_segment", Float slow.words_per_seg);
         ("alloc_ratio", Float alloc_ratio);
         ("churn_connections", Int conns);
         ("churn_timer_arms", Int arms) ])

let run () =
  Util.banner "E14" "transport (end-host) fast path"
    "header prediction + allocation-free emission beat the textbook \
     receive/send paths by >=1.5x segments/s and >=2x fewer words \
     allocated per segment";
  let total = Util.scaled full_transfer_bytes in
  let conns = Util.scaled full_churn_conns in
  let slow = run_transfer ~fast:false ~total in
  let fast = run_transfer ~fast:true ~total in
  let arms, churn_wall = run_churn ~conns in
  let speedup = fast.sps /. slow.sps in
  let alloc_ratio = slow.words_per_seg /. fast.words_per_seg in
  Util.table
    [ "path"; "segments/s"; "words/segment" ]
    [
      [ "slow (rfc793 dispatch)"; Printf.sprintf "%.0f" slow.sps;
        Printf.sprintf "%.1f" slow.words_per_seg ];
      [ "fast (prediction)"; Printf.sprintf "%.0f" fast.sps;
        Printf.sprintf "%.1f" fast.words_per_seg ];
    ];
  Util.note "speedup %.2fx, %.2fx fewer words/segment over a %d-byte transfer"
    speedup alloc_ratio total;
  Util.note "timer churn: %d connections, %d timer arms, %.0f arms/s" conns
    arms (float_of_int arms /. churn_wall);
  write_json ~total ~slow ~fast ~alloc_ratio ~conns ~arms
