(** Propagation-script generation: the four post-processing steps of paper
    §2 as SQL statement ASTs, shaped by the combine strategy. Step 1 is
    the DBSP rewrite as SQL — linear operators run unchanged over deltas;
    N-way joins expand by inclusion–exclusion into 2^N − 1 terms whose
    multiplicity is the XOR of the participating delta multiplicities. *)

module Ast = Openivm_sql.Ast

type plan_kind =
  | Linear          (** grouped/flat, signed-CTE + LEFT JOIN + upsert *)
  | Regroup         (** stage := regroup(V UNION ALL signed ΔV), swap *)
  | Outer_merge     (** stage := V FULL JOIN signed ΔV, swap *)
  | Global_linear   (** global aggregate via the stage table *)
  | Rederive        (** delete + recompute affected groups (MIN/MAX) *)
  | Full            (** recompute the whole view (the non-IVM baseline) *)

val plan_kind : Flags.t -> Shape.t -> plan_kind
(** Strategy resolution, including the MIN/MAX → Rederive and
    global-aggregate special cases. *)

val kind_to_string : plan_kind -> string

val initial_load : Flags.t -> Shape.t -> Ast.stmt

val fill_statements : Flags.t -> Shape.t -> Ast.stmt list
(** Step 1: INSERT INTO ΔV ... SELECT over the delta tables. *)

type script = {
  kind : plan_kind;
  fill : Ast.stmt list;     (** step 1 *)
  combine : Ast.stmt list;  (** step 2 *)
  prune : Ast.stmt list;    (** step 3 *)
  cleanup : Ast.stmt list;  (** step 4 *)
}

val script : Flags.t -> Shape.t -> script
val all_statements : script -> Ast.stmt list

val insert_select_parts : Ast.stmt -> (string * Ast.select) option
(** The (target, query) of a plain positional [INSERT INTO t SELECT ...]
    (no conflict clause) — the shape of fill and stage-filling statements.
    [None] for anything else. *)

(**/**)

val tuple_key : Ast.expr list -> Ast.expr
val recompute_select : ?extra_where:Ast.expr -> Flags.t -> Shape.t -> Ast.select
