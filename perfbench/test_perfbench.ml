(* The benchmark's own checks: the correctness gate catches a corrupted
   view, and the seed alone fixes the operation stream. *)

open Perfbench_lib
open Openivm_engine
module Srv = Openivm_server

let session_query s sql =
  match Srv.Session.exec s sql with
  | Srv.Session.Rows { rows; _ } -> Ok rows
  | Srv.Session.Failed { code; message } -> Error (code ^ " " ^ message)
  | _ -> Error "no rows"

(* A row written into the view's backing table behind the capture
   triggers makes the view disagree with its defining query; both gates
   must say so and name the view. *)
let test_gate_catches_corrupt_view () =
  let inputs =
    Workload.server_inputs ~seed:7 ~seconds:1.0 ~small:true Workload.Eager_commits
  in
  let db, ext, sched = Traced.setup Workload.Eager_commits inputs in
  let s = Srv.Session.create sched ~tenant:"gate" in
  let checks = Gate.checks Workload.Eager_commits in
  Alcotest.(check (list string)) "wire gate passes before" []
    (List.map fst (Gate.diverging ~query:(session_query s) checks));
  Alcotest.(check (list string)) "runner gate passes before" []
    (List.map fst (Gate.runner_diverging db ext.Openivm.Runner.ext_views));
  let tbl = Catalog.find_table (Database.catalog db) "grp_totals" in
  let row =
    Array.init (Table.arity tbl) (fun i ->
        if i = 0 then Value.Str "g9999" else Value.Int 1)
  in
  Trigger.without_hooks (Database.triggers db) (fun () -> Table.insert tbl row);
  Alcotest.(check (list string)) "wire gate names the view" [ "grp_totals" ]
    (List.map fst (Gate.diverging ~query:(session_query s) checks));
  Alcotest.(check (list string)) "runner gate names the view" [ "grp_totals" ]
    (List.map fst (Gate.runner_diverging db ext.Openivm.Runner.ext_views));
  Alcotest.(check bool) "report fails the run" false
    (Gate.report (Gate.diverging ~query:(session_query s) checks))

let test_digest_is_a_function_of_the_seed () =
  List.iter
    (fun (label, name) ->
      let d seed = Workload.digest ~seed ~seconds:2.0 ~small:true name in
      Alcotest.(check string) (label ^ ": same seed, same digest") (d 11) (d 11);
      Alcotest.(check bool) (label ^ ": another seed, another digest") true
        (d 11 <> d 12))
    Workload.names

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "gate catches a corrupted view" `Quick
            test_gate_catches_corrupt_view;
          Alcotest.test_case "digest is a function of the seed" `Quick
            test_digest_is_a_function_of_the_seed ] ) ]
