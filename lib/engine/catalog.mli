(** The catalog: named tables, (non-materialized) view definitions, and
    the index namespace. Materialized views are plain tables plus rows in
    the OpenIVM metadata tables, as in the paper. *)

type view_def = {
  view_name : string;
  query : Sql.Ast.select;
  sql : string;
}

type t

val create : unit -> t

val table_exists : t -> string -> bool
val view_exists : t -> string -> bool

val find_table : t -> string -> Table.t
(** Raises {!Error.Sql_error} when missing. *)

val find_table_opt : t -> string -> Table.t option
val find_view_opt : t -> string -> view_def option

val add_table : t -> Table.t -> unit
val add_view : t -> view_def -> unit

val drop_table : t -> string -> if_exists:bool -> unit
val drop_view : t -> string -> if_exists:bool -> unit

val register_index : t -> index_name:string -> table_name:string -> unit
val drop_index : t -> index_name:string -> if_exists:bool -> unit

val table_names : t -> string list
(** Sorted. *)

val view_names : t -> string list
(** Sorted. *)

(** A maintained materialized view's catalog entry: its backing table is
    an ordinary table whose first columns are the visible output columns
    (hidden IVM state follows them); [mat_depends_on] holds the tables it
    reads — base tables and upstream materialized views alike — forming
    the cascade DAG. *)
type mat_view = {
  mat_name : string;
  mat_visible : string list;
  mat_flat : bool;
  mat_depends_on : string list;
}

val find_mat_view : t -> string -> mat_view option

val mat_view_names : t -> string list
(** Sorted. *)

val mat_dependents : t -> string -> string list
(** Maintained views reading [name] directly. Sorted. *)

val mat_cycle : t -> name:string -> depends_on:string list -> string list option
(** The dependency cycle that registering [name] over [depends_on] would
    introduce, as a path starting and ending at [name]; [None] if acyclic. *)

val register_mat_view : t -> mat_view -> unit
(** Raises {!Error.Sql_error} when the registration would create a
    dependency cycle. *)

val unregister_mat_view : t -> string -> unit
