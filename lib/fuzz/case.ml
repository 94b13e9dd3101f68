(** A fuzz case: one self-contained (schema, setup, view, workload,
    queries) scenario plus the strategy/dialect matrix it must hold under.

    Cases serialize to a line-oriented SQL text format — header comments
    followed by one statement per line under section markers — so that
    every failing input can be checked into [test/corpus/] as a regression
    case and replayed verbatim, with no code needed to reconstruct it. *)

module Flags = Openivm.Flags
module Dialect = Openivm_sql.Dialect

type t = {
  seed : int;          (** generator seed, for provenance and replay *)
  max_steps : int;     (** workload length the generator was asked for *)
  note : string;       (** free-text provenance ("" = none) *)
  schema : string list;    (** CREATE TABLE statements *)
  setup : string list;     (** DML executed before the views are installed *)
  views : string list;     (** CREATE MATERIALIZED VIEW statements, installed
                               in order — later views may read earlier ones
                               (a cascade stack) *)
  workload : string list;  (** DML steps; refresh + check after each *)
  queries : string list;   (** SELECTs for the optimizer/roundtrip oracle *)
  strategies : Flags.combine_strategy list;  (** [] = every strategy *)
  dialects : Dialect.t list;                 (** [] = duckdb and postgres *)
}

let all_dialects = [ Dialect.duckdb; Dialect.postgres ]

let strategies c =
  if c.strategies = [] then Flags.all_strategies else c.strategies

let dialects c = if c.dialects = [] then all_dialects else c.dialects

let empty =
  { seed = 0; max_steps = 0; note = ""; schema = []; setup = []; views = [];
    workload = []; queries = []; strategies = []; dialects = [] }

(** The exact CLI invocation that regenerates and re-checks this case —
    every oracle failure message embeds it so failures are one-paste
    reproducible. *)
let command ?strategy ?dialect ?crash_seed c =
  Printf.sprintf "openivm fuzz --seed %d --cases 1 --max-steps %d%s%s%s"
    c.seed c.max_steps
    (match strategy with
     | Some s -> " --strategy " ^ Flags.strategy_to_string s
     | None -> "")
    (match dialect with
     | Some d -> " --dialect " ^ d.Dialect.name
     | None -> "")
    (match crash_seed with
     | Some n -> Printf.sprintf " --crash-seed %d" n
     | None -> "")

(* --- serialization --- *)

let format_tag = "-- openivm-fuzz reproducer v1"

let strategies_to_string = function
  | [] -> "all"
  | l -> String.concat "," (List.map Flags.strategy_to_string l)

let dialects_to_string = function
  | [] -> "all"
  | l -> String.concat "," (List.map (fun d -> d.Dialect.name) l)

let to_string c =
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
         Buffer.add_string b s;
         Buffer.add_char b '\n')
      fmt
  in
  line "%s" format_tag;
  line "-- seed: %d" c.seed;
  line "-- max-steps: %d" c.max_steps;
  line "-- strategies: %s" (strategies_to_string c.strategies);
  line "-- dialects: %s" (dialects_to_string c.dialects);
  if c.note <> "" then line "-- note: %s" c.note;
  let section name stmts =
    if stmts <> [] then begin
      line "-- %s:" name;
      List.iter (fun s -> line "%s" s) stmts
    end
  in
  section "schema" c.schema;
  section "setup" c.setup;
  section "view" c.views;
  section "workload" c.workload;
  section "queries" c.queries;
  Buffer.contents b

type section = No_section | Schema | Setup | View | Workload | Queries

let strip s = String.trim s

let parse_strategies s : (Flags.combine_strategy list, string) result =
  if strip s = "all" then Ok []
  else
    let names = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest ->
        (match Flags.strategy_of_string (strip n) with
         | Some st -> go (st :: acc) rest
         | None -> Error (Printf.sprintf "unknown strategy %S" (strip n)))
    in
    go [] names

let parse_dialects s : (Dialect.t list, string) result =
  if strip s = "all" then Ok []
  else
    let names = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest ->
        (match Dialect.of_string (strip n) with
         | Some d -> go (d :: acc) rest
         | None -> Error (Printf.sprintf "unknown dialect %S" (strip n)))
    in
    go [] names

let header_value line key =
  let prefix = "-- " ^ key ^ ":" in
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then
    Some
      (strip
         (String.sub line (String.length prefix)
            (String.length line - String.length prefix)))
  else None

let of_string text : (t, string) result =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' text in
  let case = ref empty in
  let section = ref No_section in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let add stmt =
    let c = !case in
    match !section with
    | No_section -> fail (Printf.sprintf "statement outside a section: %s" stmt)
    | Schema -> case := { c with schema = c.schema @ [ stmt ] }
    | Setup -> case := { c with setup = c.setup @ [ stmt ] }
    | View -> case := { c with views = c.views @ [ stmt ] }
    | Workload -> case := { c with workload = c.workload @ [ stmt ] }
    | Queries -> case := { c with queries = c.queries @ [ stmt ] }
  in
  List.iter
    (fun raw ->
       let line = strip raw in
       if line = "" then ()
       else if String.length line >= 2 && String.sub line 0 2 = "--" then begin
         match line with
         | "-- schema:" -> section := Schema
         | "-- setup:" -> section := Setup
         | "-- view:" -> section := View
         | "-- workload:" -> section := Workload
         | "-- queries:" -> section := Queries
         | _ ->
           (match header_value line "seed" with
            | Some v ->
              (match int_of_string_opt v with
               | Some n -> case := { !case with seed = n }
               | None -> fail (Printf.sprintf "bad seed %S" v))
            | None ->
              (match header_value line "max-steps" with
               | Some v ->
                 (match int_of_string_opt v with
                  | Some n -> case := { !case with max_steps = n }
                  | None -> fail (Printf.sprintf "bad max-steps %S" v))
               | None ->
                 (match header_value line "strategies" with
                  | Some v ->
                    (match parse_strategies v with
                     | Ok l -> case := { !case with strategies = l }
                     | Error e -> fail e)
                  | None ->
                    (match header_value line "dialects" with
                     | Some v ->
                       (match parse_dialects v with
                        | Ok l -> case := { !case with dialects = l }
                        | Error e -> fail e)
                     | None ->
                       (match header_value line "note" with
                        | Some v -> case := { !case with note = v }
                        | None -> ()  (* any other comment is ignored *))))))
       end
       else add line)
    lines;
  let* () = match !error with Some e -> Error e | None -> Ok () in
  let c = !case in
  if c.schema = [] then Error "case has no schema section"
  else if c.views = [] && c.queries = [] then
    Error "case has neither a view nor queries — nothing to check"
  else Ok c
