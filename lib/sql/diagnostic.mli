(** Positioned, coded diagnostics for the SQL front end.

    Stable codes: [SEM0xx] binding/typing, [IVM0xx] incrementalizability
    errors, [IVM1xx] warnings/hints on supported views. Spans are byte
    offsets into the original SQL source. *)

type severity = Error | Warning | Hint

type span = {
  start_pos : int;  (** byte offset of the first character *)
  stop_pos : int;   (** byte offset one past the last character *)
}

type t = {
  code : string;
  severity : severity;
  message : string;
  span : span option;
  hint : string option;
}

val span : start_pos:int -> stop_pos:int -> span
(** Clamps to a non-empty extent. *)

val severity_to_string : severity -> string

val make :
  code:string -> severity:severity -> ?span:span -> ?hint:string -> string -> t

val sort : t list -> t list
(** By source position (spanless last), then severity, then code. *)

val count : severity -> t list -> int
val has_errors : t list -> bool

val line_col : string -> int -> int * int
(** [line_col src pos] is the 1-based (line, column) of a byte offset. *)

val render : ?file:string -> src:string -> t -> string
(** Human text: [file:line:col: severity[CODE]: message], the source line,
    a caret underline of the span, and the hint when present. *)

val render_all : ?file:string -> src:string -> t list -> string

val to_json : src:string -> t -> string

val list_to_json : ?file:string -> src:string -> t list -> string
(** [{"file":...,"diagnostics":[...],"errors":n,"warnings":n,"hints":n}] *)

val suggest : string -> string list -> string option
(** Closest candidate within edit distance 2, for "did you mean". *)

(** {1 Code catalog} — one constructor per rule, shared by every producer. *)

val parse_error : ?span:span -> string -> t
val unknown_table : ?span:span -> ?suggestion:string -> string -> t
val unknown_column : ?span:span -> ?suggestion:string -> string -> t
val ambiguous_column : ?span:span -> string -> string list -> t
val unknown_qualifier : ?span:span -> ?suggestion:string -> string -> t
val unknown_function : ?span:span -> ?suggestion:string -> string -> int -> t
val wrong_arity : ?span:span -> string -> expected:string -> got:int -> t
val nested_aggregate : ?span:span -> unit -> t
val aggregate_not_allowed : ?span:span -> string -> t
val aggregate_type : ?span:span -> string -> string -> t
val arithmetic_type : ?span:span -> string -> string -> t
val duplicate_column : ?span:span -> string -> t
val nondeterministic_function : ?span:span -> string -> t
val non_boolean_predicate : ?span:span -> string -> string -> t

val cte_unsupported : ?span:span -> unit -> t
val set_op_unsupported : ?span:span -> unit -> t
val distinct_unsupported : ?span:span -> unit -> t
val limit_unsupported : ?span:span -> unit -> t
val no_from_clause : ?span:span -> unit -> t
val derived_table_unsupported : ?span:span -> unit -> t
val too_many_tables : ?span:span -> max:int -> unit -> t
val outer_join_unsupported : ?span:span -> unit -> t
val order_by_unsupported : ?span:span -> unit -> t
val having_unsupported : ?span:span -> unit -> t
val star_with_aggregates : ?span:span -> unit -> t
val distinct_aggregate : ?span:span -> unit -> t
val projection_not_group : ?span:span -> string -> t
val group_not_projected : ?span:span -> unit -> t
val not_materialized : ?span:span -> unit -> t
val not_a_view : ?span:span -> unit -> t

val cascade_cycle : ?span:span -> view:string -> path:string list -> unit -> t
val cascade_dependents :
  ?span:span -> name:string -> dependents:string list -> unit -> t
val cascade_dml_on_view : ?span:span -> view:string -> unit -> t

val min_max_recompute : ?span:span -> string -> t
val avg_decomposition : ?span:span -> unit -> t
val unindexed_key : ?span:span -> table:string -> column:string -> unit -> t

val registry : (string * severity * string) list
(** Every code with its default severity and a one-line summary. *)
