(* Tests for the stdext foundation: RNG determinism, heap ordering, byte
   cursors and statistics. *)


let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Stdext.Rng.create 7 and b = Stdext.Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Stdext.Rng.bits64 a)
      (Stdext.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Stdext.Rng.create 1 and b = Stdext.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Stdext.Rng.bits64 a) (Stdext.Rng.bits64 b) then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_int_range () =
  let r = Stdext.Rng.create 99 in
  for _ = 1 to 10_000 do
    let v = Stdext.Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_range () =
  let r = Stdext.Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Stdext.Rng.float r 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.failf "out of range: %f" v
  done

let test_rng_bool_bias () =
  let r = Stdext.Rng.create 11 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Stdext.Rng.bool r 0.25 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "close to 0.25" true (abs_float (frac -. 0.25) < 0.02)

let test_rng_split_independent () =
  let parent = Stdext.Rng.create 42 in
  let child = Stdext.Rng.split parent in
  (* Child and parent produce different streams. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Stdext.Rng.bits64 parent) (Stdext.Rng.bits64 child) then
      incr same
  done;
  check Alcotest.bool "split independent" true (!same < 4)

let test_rng_exponential_mean () =
  let r = Stdext.Rng.create 3 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Stdext.Rng.exponential r 2.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 2.0" true (abs_float (mean -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let r = Stdext.Rng.create 8 in
  let a = Array.init 50 Fun.id in
  Stdext.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation"
    (Array.init 50 Fun.id) sorted

(* Literal streams, so a change of representation that altered every
   generator alike (and would pass the comparisons above) still fails:
   every run digest in the repo rests on these draws. *)
let test_rng_pinned_streams () =
  let r = Stdext.Rng.create 42 in
  List.iter
    (fun v -> check Alcotest.int64 "create 42" v (Stdext.Rng.bits64 r))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L ];
  let parent = Stdext.Rng.create 42 in
  let child = Stdext.Rng.split parent in
  List.iter
    (fun v -> check Alcotest.int64 "split child" v (Stdext.Rng.bits64 child))
    [ -4204815582636234286L; 7040222520599051659L; -5426180739752472406L ];
  check Alcotest.int64 "parent after split" 2949826092126892291L
    (Stdext.Rng.bits64 parent);
  let r = Stdext.Rng.create 7 in
  check (Alcotest.list Alcotest.int) "int 1000" [ 621; 951; 336; 50; 918; 76 ]
    (List.init 6 (fun _ -> Stdext.Rng.int r 1000));
  let r = Stdext.Rng.create 5 in
  check (Alcotest.list (Alcotest.float 0.0)) "float 1.0"
    [ 0x1.8c0cec328e27p-2; 0x1.812e629b272e6p-1; 0x1.dc969f80835ep-3 ]
    (List.init 3 (fun _ -> Stdext.Rng.float r 1.0));
  let r = Stdext.Rng.create 11 in
  check Alcotest.string "bool 0.5" "1100101010110001"
    (String.init 16 (fun _ -> if Stdext.Rng.bool r 0.5 then '1' else '0'))

let test_rng_draws_allocate_nothing () =
  let r = Stdext.Rng.create 3 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    if Stdext.Rng.bool r 0.5 then incr hits;
    hits := !hits + Stdext.Rng.int r 3
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.0) "words per 2000 draws" 0.0 words;
  check Alcotest.bool "drew" true (!hits > 0)

(* --- Heap --------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Stdext.Heap.create () in
  let r = Stdext.Rng.create 13 in
  for i = 0 to 999 do
    Stdext.Heap.push h ~key:(Stdext.Rng.int r 100) ~seq:i i
  done;
  let last = ref min_int in
  let count = ref 0 in
  let rec drain () =
    match Stdext.Heap.pop h with
    | None -> ()
    | Some (k, _, _) ->
        if k < !last then Alcotest.failf "heap order violated";
        last := k;
        incr count;
        drain ()
  in
  drain ();
  check Alcotest.int "all popped" 1000 !count

let test_heap_fifo_within_key () =
  let h = Stdext.Heap.create () in
  for i = 0 to 99 do
    Stdext.Heap.push h ~key:5 ~seq:i i
  done;
  for i = 0 to 99 do
    match Stdext.Heap.pop h with
    | Some (_, _, v) -> check Alcotest.int "fifo at equal keys" i v
    | None -> Alcotest.fail "heap empty early"
  done

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in key order" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let h = Stdext.Heap.create () in
      List.iteri (fun i (k, _) -> Stdext.Heap.push h ~key:k ~seq:i k) pairs;
      let rec drain acc =
        match Stdext.Heap.pop h with
        | None -> List.rev acc
        | Some (k, _, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort compare (List.map fst pairs))

(* --- Bytio -------------------------------------------------------------- *)

let test_bytio_roundtrip () =
  let module W = Stdext.Bytio.W in
  let module R = Stdext.Bytio.R in
  let w = W.create 64 in
  W.u8 w 0xAB;
  W.u16 w 0xCDEF;
  W.u32 w 0xDEADBEEFl;
  W.bytes w (Bytes.of_string "hello");
  let buf = W.contents w in
  check Alcotest.int "length" (1 + 2 + 4 + 5) (Bytes.length buf);
  let r = R.of_bytes buf in
  check Alcotest.int "u8" 0xAB (R.u8 r);
  check Alcotest.int "u16" 0xCDEF (R.u16 r);
  check Alcotest.int32 "u32" 0xDEADBEEFl (R.u32 r);
  check Alcotest.string "bytes" "hello" (Bytes.to_string (R.bytes r 5));
  check Alcotest.int "remaining" 0 (R.remaining r)

let test_bytio_overrun () =
  let module R = Stdext.Bytio.R in
  let r = R.of_bytes (Bytes.make 3 'x') in
  (try
     ignore (R.u32 r);
     Alcotest.fail "expected Truncated"
   with Stdext.Bytio.Truncated -> ());
  let module W = Stdext.Bytio.W in
  let w = W.create 2 in
  try
    W.u32 w 0l;
    Alcotest.fail "expected Truncated"
  with Stdext.Bytio.Truncated -> ()

let test_bytio_seek_backpatch () =
  let module W = Stdext.Bytio.W in
  let w = W.create 8 in
  W.u16 w 0;
  W.u16 w 42;
  let p = W.pos w in
  W.seek w 0;
  W.u16 w 7;
  W.seek w p;
  let buf = W.contents w in
  check Alcotest.int "patched" 7 (Bytes.get_uint16_be buf 0);
  check Alcotest.int "untouched" 42 (Bytes.get_uint16_be buf 2)

let test_bytio_sub_reader () =
  let module R = Stdext.Bytio.R in
  let buf = Bytes.of_string "abcdef" in
  let r = R.of_sub buf ~pos:2 ~len:3 in
  check Alcotest.int "c" (Char.code 'c') (R.u8 r);
  check Alcotest.int "remaining" 2 (R.remaining r)

let test_bytio_contents_exact () =
  let module W = Stdext.Bytio.W in
  let w = W.create 4 in
  W.u16 w 0xABCD;
  let prefix = W.contents w in
  check Alcotest.string "prefix" "\xAB\xCD" (Bytes.to_string prefix);
  W.u16 w 0x1234;
  check Alcotest.string "prefix copy untouched" "\xAB\xCD"
    (Bytes.to_string prefix);
  let full = W.contents w in
  check Alcotest.bool "full writer hands over its buffer" true
    (full == W.contents w);
  check Alcotest.string "bytes" "\xAB\xCD\x12\x34" (Bytes.to_string full)

let prop_bytio_u32_roundtrip =
  QCheck.Test.make ~name:"u32 write/read roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFF)
    (fun v ->
      let module W = Stdext.Bytio.W in
      let module R = Stdext.Bytio.R in
      let w = W.create 4 in
      W.u32_of_int w v;
      let r = R.of_bytes (W.contents w) in
      R.u32_to_int r = v)

(* --- Stats -------------------------------------------------------------- *)

let test_summary_moments () =
  let s = Stdext.Stats.Summary.create () in
  List.iter (Stdext.Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.int "count" 8 (Stdext.Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stdext.Stats.Summary.mean s);
  (* Sample variance of that classic data set is 32/7. *)
  check (Alcotest.float 1e-9) "variance" (32.0 /. 7.0)
    (Stdext.Stats.Summary.variance s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stdext.Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stdext.Stats.Summary.max s);
  check (Alcotest.float 1e-9) "total" 40.0 (Stdext.Stats.Summary.total s)

let test_summary_empty () =
  let s = Stdext.Stats.Summary.create () in
  check (Alcotest.float 0.0) "mean 0" 0.0 (Stdext.Stats.Summary.mean s);
  check (Alcotest.float 0.0) "variance 0" 0.0 (Stdext.Stats.Summary.variance s)

let test_samples_percentiles () =
  let s = Stdext.Stats.Samples.create () in
  for i = 1 to 100 do
    Stdext.Stats.Samples.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "median" 50.5 (Stdext.Stats.Samples.median s);
  check (Alcotest.float 1e-6) "p0" 1.0 (Stdext.Stats.Samples.percentile s 0.0);
  check (Alcotest.float 1e-6) "p100" 100.0
    (Stdext.Stats.Samples.percentile s 100.0);
  check Alcotest.bool "p95 in range" true
    (let p = Stdext.Stats.Samples.percentile s 95.0 in
     p >= 95.0 && p <= 96.0)

let test_samples_jitter () =
  let s = Stdext.Stats.Samples.create () in
  List.iter (Stdext.Stats.Samples.add s) [ 1.0; 3.0; 2.0; 4.0 ];
  (* |3-1| + |2-3| + |4-2| = 5, / 3. *)
  check (Alcotest.float 1e-9) "jitter" (5.0 /. 3.0)
    (Stdext.Stats.Samples.jitter s)

let prop_samples_percentile_bounds =
  QCheck.Test.make ~name:"percentiles stay within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
              (float_bound_inclusive 100.0))
    (fun (values, p) ->
      QCheck.assume (values <> []);
      let s = Stdext.Stats.Samples.create () in
      List.iter (Stdext.Stats.Samples.add s) values;
      let v = Stdext.Stats.Samples.percentile s p in
      let lo = List.fold_left min infinity values in
      let hi = List.fold_left max neg_infinity values in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let () =
  Alcotest.run "stdext"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bool bias" `Quick test_rng_bool_bias;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo within key" `Quick test_heap_fifo_within_key;
          qcheck prop_heap_sorts;
        ] );
      ( "bytio",
        [
          Alcotest.test_case "roundtrip" `Quick test_bytio_roundtrip;
          Alcotest.test_case "overrun" `Quick test_bytio_overrun;
          Alcotest.test_case "seek backpatch" `Quick test_bytio_seek_backpatch;
          Alcotest.test_case "sub reader" `Quick test_bytio_sub_reader;
          Alcotest.test_case "contents of a full writer" `Quick
            test_bytio_contents_exact;
          qcheck prop_bytio_u32_roundtrip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary moments" `Quick test_summary_moments;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
          Alcotest.test_case "jitter" `Quick test_samples_jitter;
          qcheck prop_samples_percentile_bounds;
        ] );
    ]
