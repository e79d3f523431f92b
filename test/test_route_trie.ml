(* Differential testing of the LPM trie (lib/ip/route_table.ml) against
   the 33-bucket linear scan it replaced, kept here as a test-only
   reference implementation.  Any op sequence — adds with overlapping
   prefixes and metric replacements, removes of present and absent
   prefixes, churn — must leave both structures answering lookup / find /
   entries / length identically; remove/re-add churn must also reclaim
   trie nodes instead of leaking them. *)

open Catenet
module Addr = Packet.Addr
module Prefix = Addr.Prefix
module Rt = Ip.Route_table

(* --- reference: the pre-trie implementation ----------------------------- *)

module Ref_table = struct
  type t = Rt.route list array (* bucket per prefix length *)

  let create () : t = Array.make 33 []

  let add (t : t) (r : Rt.route) =
    let len = Prefix.length r.Rt.prefix in
    t.(len) <-
      r
      :: List.filter
           (fun (r' : Rt.route) -> not (Prefix.equal r'.Rt.prefix r.Rt.prefix))
           t.(len)

  let remove (t : t) prefix =
    let len = Prefix.length prefix in
    t.(len) <-
      List.filter
        (fun (r : Rt.route) -> not (Prefix.equal r.Rt.prefix prefix))
        t.(len)

  let lookup (t : t) addr =
    let best = ref None in
    let consider (r : Rt.route) =
      match !best with
      | Some (b : Rt.route) when b.Rt.metric <= r.Rt.metric -> ()
      | Some _ | None -> best := Some r
    in
    let rec scan len =
      if len < 0 then !best
      else begin
        List.iter
          (fun (r : Rt.route) ->
            if Prefix.mem addr r.Rt.prefix then consider r)
          t.(len);
        match !best with Some _ -> !best | None -> scan (len - 1)
      end
    in
    scan 32

  let find (t : t) prefix =
    List.find_opt
      (fun (r : Rt.route) -> Prefix.equal r.Rt.prefix prefix)
      t.((Prefix.length prefix))

  let entries (t : t) =
    let acc = ref [] in
    for len = 0 to 32 do
      acc := List.rev_append t.(len) !acc
    done;
    !acc

  let length (t : t) = Array.fold_left (fun n l -> n + List.length l) 0 t
end

(* --- generators --------------------------------------------------------- *)

(* A small address pool with heavy sharing of high bits, so prefixes of
   different lengths overlap and lookups regularly have several
   candidates. *)
let addr_of_seed seed =
  let bases = [| 0x0A000000; 0x0A000100; 0x0AC0FF00; 0xAC100000; 0xC0A80000 |] in
  let base = bases.(abs seed mod Array.length bases) in
  let low = (seed * 2654435761) land 0xFFFF in
  Addr.of_int ((base lor low) land 0xFFFFFFFF)

let prefix_of (seed, len) = Prefix.make (addr_of_seed seed) len

type op = Add of int * int * int * int | Remove of int * int
(* Add (addr_seed, len, iface, metric) | Remove (addr_seed, len) *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map
            (fun (s, l, i, m) -> Add (s, l, i, m))
            (quad (int_bound 1000) (int_bound 32) (int_bound 7) (int_bound 20))
        );
        (1, map (fun (s, l) -> Remove (s, l)) (pair (int_bound 1000) (int_bound 32)));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Add (s, l, i, m) ->
                 Printf.sprintf "add %s if%d m%d"
                   (Prefix.to_string (prefix_of (s, l)))
                   i m
             | Remove (s, l) ->
                 Printf.sprintf "remove %s" (Prefix.to_string (prefix_of (s, l))))
           ops))
    QCheck.Gen.(list_size (int_bound 120) op_gen)

let apply_ops trie refr ops =
  List.iter
    (fun op ->
      match op with
      | Add (s, l, iface, metric) ->
          let r =
            { Rt.prefix = prefix_of (s, l); iface; next_hop = None; metric }
          in
          Rt.add trie r;
          Ref_table.add refr r
      | Remove (s, l) ->
          Rt.remove trie (prefix_of (s, l));
          Ref_table.remove refr (prefix_of (s, l)))
    ops

let route_key (r : Rt.route) =
  (Prefix.to_string r.Rt.prefix, r.Rt.iface, r.Rt.metric)

let same_route a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> route_key a = route_key b
  | Some _, None | None, Some _ -> false

(* Probe addresses: pool members plus neighbours just outside prefix
   boundaries. *)
let probes =
  List.concat_map
    (fun s ->
      let a = addr_of_seed s in
      let x = Addr.to_int a in
      let mk v = Addr.of_int (v land 0xFFFFFFFF) in
      [ a; mk (x lxor 1); mk (x + 256); mk (x lxor 0x00010000) ])
    (List.init 40 (fun i -> i * 17))

let prop_lookup_matches =
  QCheck.Test.make ~count:300 ~name:"trie lookup = linear-scan lookup" ops_arb
    (fun ops ->
      let trie = Rt.create () and refr = Ref_table.create () in
      apply_ops trie refr ops;
      List.for_all
        (fun a -> same_route (Rt.lookup trie a) (Ref_table.lookup refr a))
        probes)

let prop_find_matches =
  QCheck.Test.make ~count:300 ~name:"trie find = linear-scan find" ops_arb
    (fun ops ->
      let trie = Rt.create () and refr = Ref_table.create () in
      apply_ops trie refr ops;
      List.for_all
        (fun s ->
          List.for_all
            (fun l ->
              let p = prefix_of (s, l) in
              same_route (Rt.find trie p) (Ref_table.find refr p))
            [ 0; 8; 12; 16; 20; 24; 30; 32 ])
        (List.init 20 (fun i -> i * 37)))

let prop_entries_match =
  QCheck.Test.make ~count:300 ~name:"trie entries = linear-scan entries"
    ops_arb (fun ops ->
      let trie = Rt.create () and refr = Ref_table.create () in
      apply_ops trie refr ops;
      let norm l = List.sort compare (List.map route_key l) in
      norm (Rt.entries trie) = norm (Ref_table.entries refr)
      && Rt.length trie = Ref_table.length refr)

let prop_entries_longest_first =
  QCheck.Test.make ~count:200 ~name:"entries ordered longest-prefix first"
    ops_arb (fun ops ->
      let trie = Rt.create () and refr = Ref_table.create () in
      apply_ops trie refr ops;
      let lens = List.map (fun (r : Rt.route) -> Prefix.length r.Rt.prefix)
          (Rt.entries trie)
      in
      List.sort (fun a b -> Int.compare b a) lens = lens)

(* [relayout] renumbers nodes and changes nothing a caller can ask: every
   answer before it equals the one after it, and later adds and removes
   keep agreeing with the reference. *)
let observe trie =
  ( List.map (fun a -> Option.map route_key (Rt.lookup trie a)) probes,
    List.concat_map
      (fun s ->
        List.map
          (fun l -> Option.map route_key (Rt.find trie (prefix_of (s, l))))
          [ 0; 8; 12; 16; 20; 24; 30; 32 ])
      (List.init 20 (fun i -> i * 37)),
    List.map route_key (Rt.entries trie),
    Rt.length trie,
    Rt.node_count trie )

let prop_relayout_preserves =
  QCheck.Test.make ~count:300 ~name:"relayout changes no answer"
    (QCheck.pair ops_arb ops_arb) (fun (ops, later) ->
      let trie = Rt.create () and refr = Ref_table.create () in
      apply_ops trie refr ops;
      let before = observe trie in
      Rt.relayout trie;
      before = observe trie
      && begin
           apply_ops trie refr later;
           List.for_all
             (fun a -> same_route (Rt.lookup trie a) (Ref_table.lookup refr a))
             probes
           && Rt.length trie = Ref_table.length refr
         end)

(* --- directed cases ----------------------------------------------------- *)

let route prefix iface metric =
  { Rt.prefix = Prefix.of_string prefix; iface; next_hop = None; metric }

let test_metric_replace () =
  let t = Rt.create () in
  Rt.add t (route "10.0.0.0/8" 1 5);
  Rt.add t (route "10.0.0.0/8" 2 3);
  (match Rt.lookup t (Addr.of_string "10.9.9.9") with
  | Some r ->
      Alcotest.(check int) "replacement wins" 2 r.Rt.iface;
      Alcotest.(check int) "replacement metric" 3 r.Rt.metric
  | None -> Alcotest.fail "no route");
  Alcotest.(check int) "still one entry" 1 (Rt.length t)

let test_overlapping_chain () =
  let t = Rt.create () in
  Rt.add t (route "0.0.0.0/0" 9 10);
  Rt.add t (route "10.0.0.0/8" 1 1);
  Rt.add t (route "10.32.0.0/11" 2 1);
  Rt.add t (route "10.32.0.0/16" 3 1);
  Rt.add t (route "10.32.7.0/24" 4 1);
  Rt.add t (route "10.32.7.42/32" 5 1);
  let iface_for a =
    match Rt.lookup t (Addr.of_string a) with
    | Some r -> r.Rt.iface
    | None -> -1
  in
  Alcotest.(check int) "/32 wins" 5 (iface_for "10.32.7.42");
  Alcotest.(check int) "/24 wins" 4 (iface_for "10.32.7.41");
  Alcotest.(check int) "/16 wins" 3 (iface_for "10.32.8.1");
  Alcotest.(check int) "/11 wins" 2 (iface_for "10.33.0.1");
  Alcotest.(check int) "/8 wins" 1 (iface_for "10.200.0.1");
  Alcotest.(check int) "default" 9 (iface_for "192.0.2.1");
  (* peel the chain back off, longest first *)
  Rt.remove t (Prefix.of_string "10.32.7.42/32");
  Alcotest.(check int) "falls to /24" 4 (iface_for "10.32.7.42");
  Rt.remove t (Prefix.of_string "10.32.7.0/24");
  Alcotest.(check int) "falls to /16" 3 (iface_for "10.32.7.42");
  Rt.remove t (Prefix.of_string "10.32.0.0/16");
  Rt.remove t (Prefix.of_string "10.32.0.0/11");
  Alcotest.(check int) "falls to /8" 1 (iface_for "10.32.7.42");
  Rt.remove t (Prefix.of_string "10.0.0.0/8");
  Alcotest.(check int) "falls to default" 9 (iface_for "10.32.7.42");
  Rt.remove t (Prefix.of_string "0.0.0.0/0");
  Alcotest.(check bool) "empty" true (Rt.lookup t (Addr.of_string "10.1.1.1") = None);
  Alcotest.(check int) "length zero" 0 (Rt.length t)

let test_churn_reclaims_nodes () =
  let t = Rt.create () in
  let prefixes =
    List.init 100 (fun i ->
        Prefix.make (Addr.v 10 (i mod 16) (i * 7 mod 256) 0) (20 + (i mod 13)))
  in
  let add_all () =
    List.iter
      (fun p -> Rt.add t { Rt.prefix = p; iface = 1; next_hop = None; metric = 1 })
      prefixes
  in
  add_all ();
  let nodes_once = Rt.node_count t in
  Alcotest.(check bool) "node bound" true (nodes_once <= (2 * Rt.length t) + 1);
  for _ = 1 to 50 do
    List.iter (fun p -> Rt.remove t p) prefixes;
    add_all ()
  done;
  Alcotest.(check int) "length stable" (Rt.length t) (List.length prefixes);
  Alcotest.(check int) "no node leak across churn" nodes_once (Rt.node_count t);
  List.iter (fun p -> Rt.remove t p) prefixes;
  Alcotest.(check int) "all routes gone" 0 (Rt.length t);
  Alcotest.(check int) "only the root remains" 1 (Rt.node_count t);
  add_all ();
  Rt.clear t;
  Alcotest.(check int) "clear empties" 0 (Rt.length t);
  Alcotest.(check int) "clear keeps only the root" 1 (Rt.node_count t);
  Alcotest.(check bool) "nothing matches after clear" true
    (Rt.lookup t (Addr.v 10 1 7 9) = None);
  add_all ();
  Alcotest.(check int) "refills after clear" nodes_once (Rt.node_count t)

let test_lookup_allocation_free () =
  let t = Rt.create () in
  Rt.add t (route "0.0.0.0/0" 9 10);
  for i = 0 to 199 do
    Rt.add t (route (Printf.sprintf "10.%d.%d.0/24" (i / 8) (i mod 8 * 32)) 1 1)
  done;
  let q = Addr.v 10 3 77 9 in
  ignore (Rt.lookup t q);
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to 1000 do
    ignore (Rt.lookup t q)
  done;
  let per = (Gc.allocated_bytes () -. a0) /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "lookup allocates nothing (%.1f B/op)" per)
    true (per < 1.0)

(* The packed node array and its high-water mark, the first and third
   fields of [Route_table.t]: the module exports no view of its layout,
   which is what these tests check. *)
let layout (t : Rt.t) : int array * int =
  let r = Obj.repr t in
  (Obj.obj (Obj.field r 0), Obj.obj (Obj.field r 2))

(* Depth-first preorder: the root is node 0, with the default prefix,
   every node below the mark is live, and each bit-0 child is the node
   right after its parent. *)
let preorder (t : Rt.t) =
  let nd, used = layout t in
  nd.(0) = 0 && nd.(1) lsr 1 = 0 && used = Rt.node_count t
  && List.for_all
       (fun i -> nd.((4 * i) + 2) = -1 || nd.((4 * i) + 2) = i + 1)
       (List.init used Fun.id)

let test_relayout_preorder () =
  (* Routes added broad to narrow and bit-1 halves first leave the trie
     in allocation order, which is not preorder; churn adds free-list
     reuse on top.  [relayout] renumbers it depth first. *)
  let t = Rt.create () in
  Rt.add t (route "0.0.0.0/0" 9 10);
  for i = 255 downto 0 do
    Rt.add t (route (Printf.sprintf "10.%d.0.0/16" i) 1 1)
  done;
  for i = 0 to 63 do
    Rt.add t (route (Printf.sprintf "10.%d.%d.0/24" (i * 4) i) 2 1);
    Rt.remove t (Prefix.of_string (Printf.sprintf "10.%d.0.0/16" (i * 2 + 1)))
  done;
  Alcotest.(check bool) "allocation order is not preorder" false (preorder t);
  let before = Rt.entries t and nodes = Rt.node_count t in
  Rt.relayout t;
  Alcotest.(check bool) "preorder after relayout" true (preorder t);
  Alcotest.(check int) "same nodes" nodes (Rt.node_count t);
  Alcotest.(check bool) "same routes" true
    (List.map route_key before = List.map route_key (Rt.entries t))

let test_topo_tables_preorder () =
  (* Topo.build lays out every gateway's table depth first. *)
  let topo =
    Topo.build { Topo.default_config with regions = 6; hosts_per_region = 40 }
  in
  for c = 0 to Topo.core_size topo - 1 do
    Alcotest.(check bool) (Printf.sprintf "core %d" c) true
      (preorder (Ip.Stack.table (Topo.core_gw topo c)))
  done;
  for r = 0 to Topo.regions topo - 1 do
    Alcotest.(check bool) (Printf.sprintf "region %d" r) true
      (preorder (Ip.Stack.table (Topo.region_gw topo r)))
  done

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "route_trie"
    [
      ( "differential",
        [
          qt prop_lookup_matches;
          qt prop_find_matches;
          qt prop_entries_match;
          qt prop_entries_longest_first;
          qt prop_relayout_preserves;
        ] );
      ( "directed",
        [
          Alcotest.test_case "metric replace" `Quick test_metric_replace;
          Alcotest.test_case "overlapping chain" `Quick test_overlapping_chain;
          Alcotest.test_case "churn reclaims nodes" `Quick
            test_churn_reclaims_nodes;
          Alcotest.test_case "lookup allocation-free" `Quick
            test_lookup_allocation_free;
          Alcotest.test_case "relayout is preorder" `Quick
            test_relayout_preorder;
          Alcotest.test_case "topo tables are preorder" `Quick
            test_topo_tables_preorder;
        ] );
    ]
