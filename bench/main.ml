(* The experiment harness: one entry per claim in the paper's evaluation
   (see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-
   measured).  Run all with `dune exec bench/main.exe`; a subset with
   `dune exec bench/main.exe -- --only E1,E5`; list with `--list`. *)

let experiments =
  [
    ("E1", "survivability under link failures", E01.run);
    ("E2", "fate-sharing across a gateway crash", E02.run);
    ("E3", "types of service: voice vs stream", E03.run);
    ("E4", "variety of networks: the catenet path", E04.run);
    ("E5", "end-to-end vs hop-by-hop reliability", E05.run);
    ("E6", "cost: headers and retransmitted bytes", E06.run);
    ("E7", "accountability: per-flow gateway ledger", E07.run);
    ("E8", "distributed management across domains", E08.run);
    ("E9", "realizations: congestion-control policies", E09.run);
    ("E10", "host attachment with low effort", E10.run);
    ("E11", "bursty multiplexing vs circuits", E11.run);
    ("E12", "micro-costs (bechamel)", E12.run);
    ("E13", "gateway forwarding fast path", E13.run);
    ("E14", "transport (end-host) fast path", E14.run);
    ("E15", "observability overhead", E15.run);
    ("E16", "survivability gauntlet", E16.run);
    ("E17", "internet-scale topology", E17.run);
    ("E18", "tcp under blind in-window attack", E18.run);
    ("E20", "sketch accounting at scale", E20.run);
    ("E21", "name/service layer at scale", E21.run);
    ("A1", "ablation: delayed acknowledgments", Abl.a1);
    ("A2", "ablation: Nagle on keystrokes", Abl.a2);
    ("A3", "ablation: DV vs LS convergence", Abl.a3);
    ("A4", "ablation: bottleneck buffer sizing", Abl.a4);
    ("A5", "ablation: fragmentation vs MTU-sized segments", Abl.a5);
  ]

let () =
  let args = Array.to_list Sys.argv in
  List.iter
    (fun a ->
      if a = "--smoke" then Util.smoke := true
      else if String.length a > 6 && String.sub a 0 6 = "--out=" then
        Util.out_dir := String.sub a 6 (String.length a - 6))
    args;
  if List.mem "--list" args then
    List.iter (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title) experiments
  else begin
    let only =
      match
        List.find_opt
          (fun a -> String.length a > 7 && String.sub a 0 7 = "--only=")
          args
      with
      | Some a ->
          Some (String.split_on_char ',' (String.sub a 7 (String.length a - 7)))
      | None -> (
          (* also accept "--only E1,E2" form *)
          let rec scan = function
            | "--only" :: v :: _ -> Some (String.split_on_char ',' v)
            | _ :: rest -> scan rest
            | [] -> None
          in
          scan args)
    in
    let known id = List.exists (fun (id', _, _) -> id' = id) experiments in
    (match
       List.filter (fun id -> not (known id)) (Option.value only ~default:[])
     with
    | [] -> ()
    | unknown ->
        Printf.eprintf "bench: unknown experiment id(s): %s (see --list)\n"
          (String.concat ", " unknown);
        exit 2);
    let wanted (id, _, _) =
      match only with None -> true | Some ids -> List.mem id ids
    in
    print_endline
      "catenet experiment harness - reproducing the claims of Clark, \"The\n\
       Design Philosophy of the DARPA Internet Protocols\" (SIGCOMM 1988).";
    List.iter (fun ((_, _, run) as e) -> if wanted e then run ()) experiments;
    print_endline "\ndone.";
    match List.rev !Util.failed_gates with
    | [] -> ()
    | missed ->
        List.iter (Printf.eprintf "bench: gate failed: %s\n") missed;
        exit 1
  end
