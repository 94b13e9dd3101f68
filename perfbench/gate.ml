(* The correctness gate: every maintained view against a recompute of
   its defining query. A divergence names the view and fails the run. *)

open Openivm_engine
module Runner = Openivm.Runner

type check = {
  view : string;
  visible : string;  (** the view's visible columns *)
  recompute : string;  (** its defining query, over base tables only *)
}

let star_join =
  "FROM sales s JOIN customers c ON s.cust = c.cust GROUP BY c.region"

let checks = function
  | Workload.Eager_commits | Workload.Durable_ingest ->
      [ { view = "grp_totals"; visible = "SELECT grp, total, n FROM grp_totals";
          recompute =
            "SELECT grp, SUM(amount) AS total, COUNT(*) AS n FROM events GROUP \
             BY grp" } ]
  | Workload.Lazy_star ->
      [ { view = "region_rev"; visible = "SELECT region, rev, n FROM region_rev";
          recompute =
            "SELECT c.region, SUM(s.amount) AS rev, COUNT(*) AS n " ^ star_join };
        { view = "cust_range"; visible = "SELECT cust, lo, hi FROM cust_range";
          recompute =
            "SELECT cust, MIN(amount) AS lo, MAX(amount) AS hi FROM sales GROUP \
             BY cust" };
        { view = "grand"; visible = "SELECT total, regions FROM grand";
          recompute =
            "SELECT SUM(rev) AS total, COUNT(*) AS regions FROM (SELECT \
             c.region, SUM(s.amount) AS rev " ^ star_join ^ ") x" } ]

(* Views whose contents differ from the recompute, with a reason. The
   view is read first: a lazy view refreshes on that read. *)
let diverging ~(query : string -> (string list, string) result) checks =
  List.filter_map
    (fun c ->
      match query c.visible with
      | Error e -> Some (c.view, e)
      | Ok got -> (
          match query c.recompute with
          | Error e -> Some (c.view, e)
          | Ok want ->
              if List.sort compare got = List.sort compare want then None
              else
                Some
                  ( c.view,
                    Printf.sprintf "%d view rows vs %d recomputed rows differ"
                      (List.length got) (List.length want) )))
    checks

(* The in-process oracle: [Runner.visible_rows] against
   [Runner.recompute_rows], both on the Row engine. *)
let runner_diverging (db : Database.t) views =
  let saved = db.Database.exec_engine in
  db.Database.exec_engine <- Exec.Row;
  Fun.protect
    ~finally:(fun () -> db.Database.exec_engine <- saved)
    (fun () ->
      List.filter_map
        (fun v ->
          if Runner.visible_rows v = Runner.recompute_rows v then None
          else Some (Runner.view_name v, "visible rows differ from recompute"))
        views)

let report = function
  | [] -> true
  | bad ->
      List.iter
        (fun (view, why) ->
          Printf.eprintf "perfbench: DIVERGENCE in view %s: %s\n%!" view why)
        bad;
      false
