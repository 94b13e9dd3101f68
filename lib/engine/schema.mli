(** Ordered, named, typed columns of tables and intermediate results.
    Name resolution happens once at plan-build time; evaluation works on
    positions. *)

type column = {
  name : string;
  table : string option;  (** binding qualifier (table name or alias) *)
  typ : Sql.Ast.typ;
  not_null : bool;
}

and t = column list

val column : ?table:string -> ?not_null:bool -> string -> Sql.Ast.typ -> column

val arity : t -> int
val names : t -> string list

val find_opt : t -> qualifier:string option -> name:string -> (int * column) option
(** Position and definition of a column reference. Unqualified ambiguous
    names raise {!Error.Sql_error}; unknown names return [None]. *)

val find : t -> qualifier:string option -> name:string -> int * column
(** Like {!find_opt} but raises with a helpful message when missing. *)

val requalify : t -> string -> t
(** Re-qualify every column with a new binding (FROM t AS a). *)

val join : t -> t -> t
