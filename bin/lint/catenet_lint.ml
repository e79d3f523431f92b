(* catenet-lint: static analysis over the catenet tree.

   Usage:
     catenet-lint [--allow FILE] [--no-mli] <file.ml|file.cmt> ...

   .ml arguments are parsed (Parsetree rules: wire layout, fastpath
   allocation, observability totality, mli hygiene, replay determinism,
   state-machine conformance); .cmt arguments are read for the typed
   rules (polymorphic-comparison ban, match hygiene, partial
   application and boxed optional arguments in fastpath spans, wrap-safe
   sequence/time arithmetic).
   [--rng-only] restricts the run to the seeded-RNG determinism
   sub-rule, the contract for bench/ and examples/.  Findings print as

     file:line: [rule] message

   sorted by position; the exit status is non-zero iff any finding
   survives the allowlist.  Allowlist entries that suppress nothing are
   reported as stale so the list only ever shrinks. *)

let usage =
  "catenet-lint [--allow FILE] [--no-mli] [--rng-only] <file.ml|file.cmt> ..."

let () =
  let allow_file = ref None in
  let check_mli = ref true in
  let rng_only = ref false in
  let ml_files = ref [] in
  let cmt_files = ref [] in
  let anon path =
    if Filename.check_suffix path ".ml" then ml_files := path :: !ml_files
    else if Filename.check_suffix path ".cmt" then
      cmt_files := path :: !cmt_files
    else
      Lint_common.report ~file:path ~line:1 ~rule:"args"
        "argument is neither a .ml nor a .cmt file"
  in
  Arg.parse
    [ ("--allow", Arg.String (fun f -> allow_file := Some f),
       "FILE allowlist of deliberate exceptions");
      ("--no-mli", Arg.Clear check_mli,
       " skip the missing-interface rule (fixture runs)");
      ("--rng-only", Arg.Set rng_only,
       " run only the seeded-RNG determinism sub-rule (bench/ and examples/ \
        may read the wall clock, but must seed every simulated random draw)") ]
    anon usage;
  let ml_files = List.rev !ml_files and cmt_files = List.rev !cmt_files in
  if ml_files = [] && cmt_files = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let parsed =
    List.filter_map
      (fun path ->
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let lexbuf = Lexing.from_channel ic in
              Lexing.set_filename lexbuf path;
              Location.input_name := path;
              Parse.implementation lexbuf)
        with
        | structure -> Some (Lint_source.collect_file path structure)
        | exception Sys_error msg ->
            Lint_common.report ~file:path ~line:1 ~rule:"parse" msg;
            None
        | exception exn ->
            let msg =
              match Location.error_of_exn exn with
              | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
              | _ -> Printexc.to_string exn
            in
            Lint_common.report ~file:path ~line:1 ~rule:"parse"
              (String.map (function '\n' -> ' ' | c -> c) msg);
            None)
      ml_files
  in
  if !rng_only then
    List.iter
      (fun fi ->
        Lint_determinism.check_file ~rng_only:true fi.Lint_source.fi_path
          fi.Lint_source.fi_structure)
      parsed
  else begin
    let ctx = Lint_source.run ~check_mli_rule:!check_mli parsed in
    List.iter
      (fun fi ->
        Lint_determinism.check_file ~rng_only:false fi.Lint_source.fi_path
          fi.Lint_source.fi_structure;
        Lint_transitions.check_file fi.Lint_source.fi_path
          fi.Lint_source.fi_structure)
      parsed;
    List.iter
      (Lint_typed.check_cmt ~fastpath_spans:ctx.Lint_source.fastpath_spans)
      cmt_files;
    List.iter Lint_seqcmp.check_cmt cmt_files
  end;
  let entries =
    match !allow_file with
    | None -> []
    | Some f -> Lint_common.load_allowlist f
  in
  let kept = Lint_common.apply_allowlist entries !Lint_common.findings in
  (match !allow_file with
  | Some f -> Lint_common.stale_entries f entries
  | None -> ());
  (* stale-entry findings were appended to the global list *)
  let stale =
    List.filter
      (fun (f : Lint_common.finding) -> f.rule = "allowlist")
      !Lint_common.findings
  in
  let all =
    List.sort_uniq
      (fun (a : Lint_common.finding) b ->
        compare (a.file, a.line, a.rule, a.message)
          (b.file, b.line, b.rule, b.message))
      (kept @ stale)
  in
  List.iter
    (fun (f : Lint_common.finding) ->
      Printf.printf "%s:%d: [%s] %s\n" f.file f.line f.rule f.message)
    all;
  if all = [] then begin
    Printf.eprintf "catenet-lint: %d source file(s), %d cmt(s): clean\n"
      (List.length ml_files) (List.length cmt_files);
    exit 0
  end
  else begin
    Printf.eprintf "catenet-lint: %d finding(s)\n" (List.length all);
    exit 1
  end
