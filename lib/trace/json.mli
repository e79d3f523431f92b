(** A minimal JSON tree and serializer, shared by the metrics snapshot
    exporter, [Accounting.to_json] and the bench harness's BENCH_*.json
    writers — one representation for every machine-readable artifact this
    repo emits, instead of per-file [Printf] formats. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed (2-space indent), UTF-8 passthrough, control characters
    escaped. *)

val write_file : string -> t -> unit
(** [to_string] plus a trailing newline, written atomically enough for
    bench artifacts. *)
