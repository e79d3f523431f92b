(* Typedtree (.cmt) rules of catenet-lint.

   These rules need type information, which dune's default -bin-annot
   output provides for free:

     polycmp   - no polymorphic comparison (=, <>, compare, <, ...) on
                 Addr.t, bytes, or wire header types: structural
                 comparison on those either lies (abstract equality) or
                 walks payload bytes on the hot path.
     match     - no catch-all [_] arms over Event.t, Fault.t or
                 drop_reason: adding a constructor must break every
                 dispatch site at compile time, not silently fall
                 through.
     partial   - no partial application inside [@@fastpath] spans (a
                 partial application allocates a closure the syntactic
                 rule cannot see).
     optional  - no boxed optional argument inside [@@fastpath] spans:
                 passing [~pos:e] to a [?pos] parameter makes the type
                 checker wrap [e] in a [Some] that is allocated at every
                 call unless [e] is a constant.

   Spans for the partial and optional rules come from the Parsetree pass
   ({!Lint_source.ctx.fastpath_spans}). *)

open Typedtree
open Lint_common

let poly_compare_names =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.=="; "Stdlib.!="; "Stdlib.<";
    "Stdlib.<="; "Stdlib.>"; "Stdlib.>="; "Stdlib.compare" ]

(* (module, type) suffixes banned under polymorphic comparison *)
let polycmp_banned parts =
  match List.rev parts with
  | "bytes" :: _ -> true
  | t :: m :: _ ->
      List.mem (m, t)
        [ ("Addr", "t"); ("Ipv4", "header"); ("Tcp_wire", "t");
          ("Tcp_wire", "flags"); ("Udp_wire", "t"); ("Icmp_wire", "t") ]
  | _ -> false

(* type suffixes that must never be dispatched through a wildcard *)
let match_banned parts =
  match List.rev parts with
  | "drop_reason" :: _ -> true
  | t :: m :: _ -> List.mem (m, t) [ ("Event", "t"); ("Fault", "t") ]
  | _ -> false

let head_type_parts ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (split_path_name (Path.name p))
  | _ -> None

let rec is_catch_all : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> is_catch_all p
  | Tpat_or (a, b, _) -> is_catch_all a || is_catch_all b
  | Tpat_value v -> is_catch_all (v :> pattern)
  | _ -> false

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let mentions_want_typed e =
  let found = ref false in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match List.rev (split_path_name (Path.name p)) with
              | ("want" | "enabled") :: _ -> found := true
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !found

let exempt attrs = Lint_common.has_attr "fastpath.exempt" attrs

(* The [Some] the type checker wraps around an argument given with [~l]
   to an optional parameter [?l]: it carries its argument's location,
   where a [Some] written in the source spans more than its argument. *)
let inserted_some e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ arg ])
    when arg.exp_loc = e.exp_loc ->
      Some arg
  | _ -> None

(* A constant is boxed once, statically. *)
let is_constant e =
  match e.exp_desc with
  | Texp_constant _ | Texp_construct (_, _, []) | Texp_variant (_, None) ->
      true
  | _ -> false

let type_label parts = String.concat "." parts

let check_cmt ~fastpath_spans path =
  match Cmt_format.read_cmt path with
  | exception _ ->
      report ~file:path ~line:1 ~rule:"cmt" "unreadable .cmt file"
  | infos -> (
      match infos.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let src =
            Option.value ~default:path infos.Cmt_format.cmt_sourcefile
          in
          let base = Filename.basename src in
          let spans =
            Option.value ~default:[] (Hashtbl.find_opt fastpath_spans base)
          in
          let in_span (loc : Location.t) =
            let l = loc.loc_start.pos_lnum in
            List.exists (fun (a, b) -> l >= a && l <= b) spans
          in
          let report_at (loc : Location.t) rule msg =
            report ~file:src ~line:loc.loc_start.pos_lnum ~rule msg
          in
          let rec iter =
            { Tast_iterator.default_iterator with expr = check_expr }
          and check_expr sub e =
            if exempt e.exp_attributes then ()
            else begin
              (match e.exp_desc with
              | Texp_apply
                  ({ exp_desc = Texp_ident (p, _, _); _ },
                   (_, Some arg1) :: _)
                when List.mem (Path.name p) poly_compare_names -> (
                  match head_type_parts arg1.exp_type with
                  | Some parts when polycmp_banned parts ->
                      report_at e.exp_loc "polycmp"
                        (Printf.sprintf
                           "polymorphic %s on %s (use the module's equal/compare)"
                           (last_exn (split_path_name (Path.name p)))
                           (type_label parts))
                  | _ -> ())
              | Texp_match (scrut, cases, _) -> (
                  match head_type_parts scrut.exp_type with
                  | Some parts when match_banned parts ->
                      List.iter
                        (fun c ->
                          if is_catch_all c.c_lhs then
                            report_at c.c_lhs.pat_loc "match"
                              (Printf.sprintf
                                 "catch-all pattern over %s (enumerate the constructors)"
                                 (type_label parts)))
                        cases
                  | _ -> ())
              | Texp_function { cases; _ } when List.length cases >= 2 ->
                  List.iter
                    (fun c ->
                      match head_type_parts c.c_lhs.pat_type with
                      | Some parts when match_banned parts ->
                          if is_catch_all c.c_lhs then
                            report_at c.c_lhs.pat_loc "match"
                              (Printf.sprintf
                                 "catch-all pattern over %s (enumerate the constructors)"
                                 (type_label parts))
                      | _ -> ())
                    cases
              | _ -> ());
              (match e.exp_desc with
              | Texp_apply (_, args) when in_span e.exp_loc ->
                  if is_arrow e.exp_type then
                    report_at e.exp_loc "fastpath"
                      "partial application inside [@@fastpath] allocates a closure";
                  List.iter
                    (function
                      | Asttypes.Optional l, Some a -> (
                          match inserted_some a with
                          | Some v when not (is_constant v) ->
                              report_at a.exp_loc "fastpath"
                                (Printf.sprintf
                                   "optional argument ?%s is boxed in Some \
                                    at every call (take it as a plain label)"
                                   l)
                          | Some _ | None -> ())
                      | _ -> ())
                    args
              | _ -> ());
              match e.exp_desc with
              | Texp_ifthenelse (c, _t, eo) when mentions_want_typed c ->
                  sub.Tast_iterator.expr sub c;
                  Option.iter (sub.Tast_iterator.expr sub) eo
              | _ -> Tast_iterator.default_iterator.expr sub e
            end
          in
          iter.Tast_iterator.structure iter str
      | _ -> ())
