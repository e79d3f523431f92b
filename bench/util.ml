(* Shared plumbing for the experiment harness: table rendering, record
   gates and a few topology/workload helpers reused across experiments. *)

open Catenet

(* --- run modes ------------------------------------------------------------ *)

(* Smoke mode (`--smoke`): every experiment runs at a fraction of its
   workload so the whole harness finishes in seconds — enough to prove
   the benches still build and run, not to produce meaningful numbers.
   Set before any experiment runs; consult it via [scaled] at use sites
   (not in module-level constants, which are evaluated before the flag
   is parsed). *)
let smoke = ref false

let scaled n = if !smoke then max 1 (n / 32) else n

(* `--out=DIR` redirects the machine-readable BENCH_*.json files; the
   default is the current directory (the historical filenames), so smoke
   runs can point their throwaway outputs somewhere gitignored. *)
let out_dir = ref "."

let out_path name =
  if !out_dir = "." then name
  else begin
    (try Unix.mkdir !out_dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Filename.concat !out_dir name
  end

(* Machine-readable artifacts all go through the shared JSON tree (one
   serializer for benches, metrics snapshots and trace dumps alike). *)
let write_json name json = Trace.Json.write_file (out_path name) json

(* --- measurement --------------------------------------------------------- *)

(* Run [f] once; return its wall-clock seconds and the words it
   allocated.  Words are [Gc.minor_words]: every block of at most 256
   words is born on the minor heap, so the count is exact and repeats
   across processes of one build and across GC settings (larger blocks
   go straight to the major heap and are not counted).
   [Gc.allocated_bytes] is not: E14's slow words/segment read 813.64
   and 815.92 in two processes of the same build. *)
let wall_and_words f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  (wall, Gc.minor_words () -. w0)

(* --- gates ---------------------------------------------------------------- *)

(* A bound on one exact record field, stated in the bench beside the
   value it bounds.  [gate] prints the verdict; a bound missed at full
   scale is remembered, and the harness exits non-zero after the run.
   Smoke-scale figures are too small to meet the bounds, so there a
   miss is printed but not enforced. *)
type bound = At_least of float | At_most of float | Above of float

let failed_gates = ref []

let gate name value bound =
  let num x =
    if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%g" x
  in
  let ok, rel =
    match bound with
    | At_least b -> (value >= b, ">= " ^ num b)
    | At_most b -> (value <= b, "<= " ^ num b)
    | Above b -> (value > b, "> " ^ num b)
  in
  let line = Printf.sprintf "%s = %s, bound %s" name (num value) rel in
  let verdict =
    if ok then "ok"
    else if !smoke then "missed (smoke: not enforced)"
    else "FAIL"
  in
  Printf.printf "  gate: %s: %s\n" line verdict;
  if not (ok || !smoke) then failed_gates := line :: !failed_gates

(* --- output -------------------------------------------------------------- *)

let banner id title claim =
  Printf.printf "\n";
  Printf.printf "==========================================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "   claim: %s\n" claim;
  Printf.printf "==========================================================================\n"

(* Render a table: header row + data rows, columns auto-sized. *)
let table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let line cells =
    let padded =
      List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths cells
    in
    Printf.printf "  %s\n" (String.concat "  " padded)
  in
  line headers;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter line rows

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  note: %s\n" s) fmt

let fkb bps = Printf.sprintf "%.1f" (bps /. 1e3)
let fms s = Printf.sprintf "%.1f" (s *. 1e3)
let fpct x = Printf.sprintf "%.1f%%" (x *. 100.0)

(* --- workload helpers ------------------------------------------------------ *)

(* Run one bulk TCP transfer between two hosts already wired into [t];
   returns (goodput_bps option, conn, intact). *)
let run_bulk t (src : Internet.host) (dst : Internet.host) ~port ~total
    ~seconds =
  let seed = 17 in
  let server = Apps.Bulk.serve dst.Internet.h_tcp ~port ~seed in
  let sender =
    Apps.Bulk.start src.Internet.h_tcp
      ~dst:(Internet.addr_of t dst.Internet.h_node)
      ~dst_port:port ~seed ~total ()
  in
  Internet.run_for t seconds;
  let intact =
    match Apps.Bulk.transfers server with
    | [ tr ] -> tr.Apps.Bulk.intact && tr.Apps.Bulk.received = total
    | _ -> false
  in
  (Apps.Bulk.goodput_bps sender, Apps.Bulk.conn sender, intact)

(* A reliable-ish bulk transfer over a VC circuit: pushes [count] cells of
   [size] bytes, respecting backpressure; the receiver counts bytes.
   Returns a function to query (delivered_bytes, finished, cleared). *)
let vc_bulk fabric eng ~src ~dst ~cell_size ~count =
  let delivered = ref 0 in
  let cleared = ref false in
  Vc.listen fabric dst (fun circuit ->
      Vc.on_data circuit (fun d -> delivered := !delivered + Bytes.length d));
  let sent = ref 0 in
  let finished = ref false in
  let circuit =
    Vc.call fabric ~src ~dst ~on_clear:(fun _ -> cleared := true) ()
  in
  let payload = Bytes.make cell_size 'v' in
  let rec pump () =
    if Vc.is_open circuit && !sent < count then begin
      if Vc.send circuit payload then incr sent;
      (* Cell pacing: try again immediately if accepted, else back off. *)
      Engine.after eng (if !sent < count then 500 else 1) pump
    end
    else if !sent >= count then finished := true
  in
  Engine.after eng 100_000 pump;
  fun () -> (!delivered, !finished, !cleared)
