(** Compiler switches ("the expected optimization strategies through
    flags", paper Fig. 1).

    The three combine strategies realize the paper's §2 search space for
    "incorporating changes in a materialized aggregation":
    - [Upsert_linear]  — the Listing-2 shape: partial-aggregate the delta,
      LEFT JOIN the view, INSERT OR REPLACE. Works for the linear
      aggregates (SUM/COUNT/AVG) and for flat (non-aggregate) views.
    - [Union_regroup]  — the paper's "replacing the materialized table
      with a UNION and regrouping": stage := regroup(V UNION ALL signed
      ΔV), then swap. Touches every group but needs no upsert index.
    - [Outer_join_merge] — the paper's "through a full-outer-join":
      stage := V FULL JOIN signed(ΔV) with coalesced combination, then
      swap. Also index-free; one pass over V instead of a regroup.
    - [Rederive_affected] — delete the groups the delta touches and
      recompute just those groups from the base table; the only correct
      strategy for MIN/MAX under deletions, usable for all classes.
    - [Full_recompute] — the non-IVM baseline the benchmarks compare
      against: drop contents, rerun the defining query. *)

type combine_strategy =
  | Upsert_linear
  | Union_regroup
  | Outer_join_merge
  | Rederive_affected
  | Full_recompute

let strategy_to_string = function
  | Upsert_linear -> "upsert_linear"
  | Union_regroup -> "union_regroup"
  | Outer_join_merge -> "outer_join_merge"
  | Rederive_affected -> "rederive_affected"
  | Full_recompute -> "full_recompute"

let all_strategies =
  [ Upsert_linear; Union_regroup; Outer_join_merge; Rederive_affected;
    Full_recompute ]

let strategy_of_string = function
  | "upsert_linear" -> Some Upsert_linear
  | "union_regroup" -> Some Union_regroup
  | "outer_join_merge" -> Some Outer_join_merge
  | "rederive_affected" -> Some Rederive_affected
  | "full_recompute" -> Some Full_recompute
  | _ -> None

type refresh_mode =
  | Eager  (** propagate on every base-table change *)
  | Lazy   (** propagate when the view is queried (the demo's choice) *)

let refresh_to_string = function Eager -> "eager" | Lazy -> "lazy"

let refresh_of_string = function
  | "eager" -> Some Eager
  | "lazy" -> Some Lazy
  | _ -> None

type t = {
  dialect : Openivm_sql.Dialect.t;
  multiplicity_column : string;
  delta_prefix : string;
  strategy : combine_strategy;
  refresh : refresh_mode;
  create_indexes : bool;
  paper_compat : bool;
      (** emit the exact Listing-1/2 shape: DuckDB multiplicity column
          name, no hidden bookkeeping columns, [DELETE ... WHERE agg = 0].
          Simpler output, with the NULL-group and SUM=0 caveats the paper's
          demo accepts. *)
  script_dir : string option;
      (** where to store propagation scripts on disk, if anywhere *)
  consolidate_deltas : bool;
      (** run the Z-set consolidation pass before propagation: cancel
          +/- multiplicity pairs and merge duplicate delta rows, so a hot
          base table (or a swap-strategy upstream view rewriting itself
          wholesale) feeds downstream views a net delta instead of raw
          churn *)
  exec_engine : Openivm_engine.Exec.engine;
      (** which interpreter runs the propagation SQL: the vectorized
          columnar executor (default) or the row-at-a-time oracle *)
}

let default = {
  dialect = Openivm_sql.Dialect.duckdb;
  multiplicity_column = "_ivm_multiplicity";
  delta_prefix = "delta_";
  strategy = Upsert_linear;
  refresh = Lazy;
  create_indexes = true;
  paper_compat = false;
  script_dir = None;
  consolidate_deltas = true;
  exec_engine = Openivm_engine.Exec.Vector;
}

(** Flags reproducing the paper's demonstrated configuration. *)
let paper = {
  default with
  multiplicity_column = "_duckdb_ivm_multiplicity";
  paper_compat = true;
}

let postgres = { default with dialect = Openivm_sql.Dialect.postgres }
