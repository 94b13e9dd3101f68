(** Positioned, coded diagnostics for the SQL front end.

    Every rejection or advisory the semantic pass can produce has a stable
    code: [SEM0xx] for binding/typing problems (unknown column, bad arity,
    type errors) and [IVM0xx] for incrementalizability rules ([IVM1xx] are
    warnings/hints layered on supported views). Diagnostics carry an
    optional byte-offset span into the original SQL text and render either
    as human text with caret underlining or as JSON for tooling. *)

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
  hint : string option;  (** suggested rewrite / follow-up, when one exists *)
}

let span ~start_pos ~stop_pos =
  { start_pos; stop_pos = max stop_pos (start_pos + 1) }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let make ~code ~severity ?span ?hint message =
  { code; severity; message; span; hint }

(* --- ordering and summaries --- *)

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2

let compare_diag a b =
  let pos d = match d.span with Some s -> s.start_pos | None -> max_int in
  match compare (pos a) (pos b) with
  | 0 ->
    (match compare (severity_rank a.severity) (severity_rank b.severity) with
     | 0 -> String.compare a.code b.code
     | c -> c)
  | c -> c

let sort diags = List.stable_sort compare_diag diags

let count severity diags =
  List.length (List.filter (fun d -> d.severity = severity) diags)

let has_errors diags = List.exists (fun d -> d.severity = Error) diags

(* --- source positions --- *)

(** 1-based (line, column) of a byte offset. Columns count bytes. *)
let line_col (src : string) (pos : int) : int * int =
  let pos = min pos (String.length src) in
  let line = ref 1 and col = ref 1 in
  for i = 0 to pos - 1 do
    if src.[i] = '\n' then begin incr line; col := 1 end else incr col
  done;
  (!line, !col)

(** The source line containing [pos]: (line_start, line_stop) offsets,
    newline excluded. *)
let line_bounds (src : string) (pos : int) : int * int =
  let n = String.length src in
  let pos = min pos (max 0 (n - 1)) in
  let rec back i = if i <= 0 || src.[i - 1] = '\n' then i else back (i - 1) in
  let rec fwd i = if i >= n || src.[i] = '\n' then i else fwd (i + 1) in
  (back pos, fwd pos)

(* --- human renderer --- *)

let render ?(file = "<input>") ~src (d : t) : string =
  let buf = Buffer.create 128 in
  let head =
    match d.span with
    | Some s ->
      let line, col = line_col src s.start_pos in
      Printf.sprintf "%s:%d:%d: %s[%s]: %s" file line col
        (severity_to_string d.severity) d.code d.message
    | None ->
      Printf.sprintf "%s: %s[%s]: %s" file
        (severity_to_string d.severity) d.code d.message
  in
  Buffer.add_string buf head;
  (match d.span with
   | Some s when src <> "" && s.start_pos < String.length src ->
     let line, _ = line_col src s.start_pos in
     let lstart, lstop = line_bounds src s.start_pos in
     let text = String.sub src lstart (lstop - lstart) in
     let gutter = Printf.sprintf "%4d | " line in
     Buffer.add_char buf '\n';
     Buffer.add_string buf (gutter ^ text);
     (* caret underline, clipped to the end of the first line *)
     let u_start = s.start_pos - lstart in
     let u_stop = min s.stop_pos lstop - lstart in
     let u_len = max 1 (u_stop - u_start) in
     Buffer.add_char buf '\n';
     Buffer.add_string buf (String.make (String.length gutter - 2) ' ');
     Buffer.add_string buf "| ";
     Buffer.add_string buf (String.make u_start ' ');
     Buffer.add_string buf (String.make u_len '^')
   | _ -> ());
  (match d.hint with
   | Some h ->
     Buffer.add_char buf '\n';
     Buffer.add_string buf ("  hint: " ^ h)
   | None -> ());
  Buffer.contents buf

let render_all ?file ~src diags =
  String.concat "\n"
    (List.map (fun d -> render ?file ~src d) (sort diags))

(* --- JSON renderer --- *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ~src (d : t) : string =
  let fields =
    [ Printf.sprintf "\"code\":\"%s\"" (json_escape d.code);
      Printf.sprintf "\"severity\":\"%s\"" (severity_to_string d.severity);
      Printf.sprintf "\"message\":\"%s\"" (json_escape d.message) ]
    @ (match d.span with
       | Some s ->
         let line, col = line_col src s.start_pos in
         let eline, ecol = line_col src s.stop_pos in
         [ Printf.sprintf "\"start\":%d" s.start_pos;
           Printf.sprintf "\"stop\":%d" s.stop_pos;
           Printf.sprintf "\"line\":%d" line;
           Printf.sprintf "\"col\":%d" col;
           Printf.sprintf "\"end_line\":%d" eline;
           Printf.sprintf "\"end_col\":%d" ecol ]
       | None -> [])
    @ (match d.hint with
       | Some h -> [ Printf.sprintf "\"hint\":\"%s\"" (json_escape h) ]
       | None -> [])
  in
  "{" ^ String.concat "," fields ^ "}"

let list_to_json ?(file = "<input>") ~src diags : string =
  let diags = sort diags in
  Printf.sprintf
    "{\"file\":\"%s\",\"diagnostics\":[%s],\"errors\":%d,\"warnings\":%d,\"hints\":%d}"
    (json_escape file)
    (String.concat "," (List.map (to_json ~src) diags))
    (count Error diags) (count Warning diags) (count Hint diags)

(* --- "did you mean" --- *)

let levenshtein (a : string) (b : string) : int =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(** Closest candidate within edit distance 2 (ties broken by list order). *)
let suggest (name : string) (candidates : string list) : string option =
  let best =
    List.fold_left
      (fun acc c ->
         let d = levenshtein name c in
         match acc with
         | Some (_, bd) when bd <= d -> acc
         | _ when d <= 2 && c <> name -> Some (c, d)
         | _ -> acc)
      None candidates
  in
  Option.map fst best

(* --- the code catalog ---

   One constructor per rule keeps every code + message + default hint
   defined in exactly one place; Shape, Sema and the CLI all build
   diagnostics through these. *)

let err code ?span ?hint message = make ~code ~severity:Error ?span ?hint message
let warn code ?span ?hint message = make ~code ~severity:Warning ?span ?hint message
let note code ?span ?hint message = make ~code ~severity:Hint ?span ?hint message

(* SEM0xx: lexing/parsing/binding/typing *)

let parse_error ?span msg = err "SEM000" ?span msg

let unknown_table ?span ?suggestion name =
  err "SEM001" ?span
    ?hint:(Option.map (Printf.sprintf "did you mean %S?") suggestion)
    (Printf.sprintf "unknown table %S" name)

let unknown_column ?span ?suggestion name =
  err "SEM002" ?span
    ?hint:(Option.map (Printf.sprintf "did you mean %S?") suggestion)
    (Printf.sprintf "unknown column %S" name)

let ambiguous_column ?span name bindings =
  let hint =
    match bindings with
    | [] -> None  (* no qualified candidates: nothing to suggest *)
    | bs ->
      Some (Printf.sprintf "qualify it: %s"
              (String.concat " or "
                 (List.map (fun b -> b ^ "." ^ name) bs)))
  in
  err "SEM003" ?span ?hint (Printf.sprintf "ambiguous column %S" name)

let unknown_qualifier ?span ?suggestion name =
  err "SEM004" ?span
    ?hint:(Option.map (Printf.sprintf "did you mean %S?") suggestion)
    (Printf.sprintf "unknown table or alias %S" name)

let unknown_function ?span ?suggestion name arity =
  err "SEM005" ?span
    ?hint:(Option.map (Printf.sprintf "did you mean %s(...)?") suggestion)
    (Printf.sprintf "unknown function %s/%d" name arity)

let wrong_arity ?span name ~expected ~got =
  err "SEM006" ?span
    (Printf.sprintf "%s expects %s argument%s, got %d"
       (String.uppercase_ascii name) expected
       (if expected = "1" then "" else "s") got)

let nested_aggregate ?span () =
  err "SEM007" ?span "aggregate calls cannot be nested"

let aggregate_not_allowed ?span context =
  err "SEM008" ?span
    ~hint:"aggregates are only valid in the SELECT list and HAVING"
    (Printf.sprintf "aggregate is not allowed in %s" context)

let aggregate_type ?span agg typ =
  err "SEM009" ?span
    (Printf.sprintf "%s over %s" (String.uppercase_ascii agg) typ)

let arithmetic_type ?span op typ =
  err "SEM010" ?span
    (Printf.sprintf "operator %s cannot be applied to %s" op typ)

let duplicate_column ?span name =
  err "SEM011" ?span
    ~hint:"rename one of the projections with AS"
    (Printf.sprintf "duplicate output column %S" name)

let nondeterministic_function ?span name =
  err "SEM012" ?span
    (Printf.sprintf "non-deterministic function %s() is not supported" name)

let non_boolean_predicate ?span context typ =
  warn "SEM013" ?span
    ~hint:"the engine treats non-TRUE values as false"
    (Printf.sprintf "%s condition has type %s, not BOOLEAN" context typ)

(* IVM0xx: incrementalizability errors *)

let cte_unsupported ?span () = err "IVM001" ?span "CTE in view definition"

let set_op_unsupported ?span () =
  err "IVM002" ?span "set operation in view definition"

let distinct_unsupported ?span () =
  err "IVM003" ?span
    ~hint:"GROUP BY all projected columns instead (equivalent and supported)"
    "DISTINCT in view definition"

let limit_unsupported ?span () =
  err "IVM004" ?span
    ~hint:"drop LIMIT from the definition and apply it when querying the view"
    "LIMIT in view definition"

let no_from_clause ?span () = err "IVM005" ?span "view without FROM clause"

let derived_table_unsupported ?span () =
  err "IVM006" ?span
    ~hint:"materialize the inner query as its own view and join against it"
    "derived table in view definition"

let too_many_tables ?span ~max () =
  err "IVM007" ?span
    (Printf.sprintf "joins of more than %d base tables are not supported" max)

let outer_join_unsupported ?span () =
  err "IVM008" ?span
    ~hint:"rewrite as an INNER JOIN, handling unmatched rows outside the view"
    "outer joins are not supported for IVM"

let order_by_unsupported ?span () =
  err "IVM009" ?span
    ~hint:"drop ORDER BY from the definition and sort when querying the view"
    "ORDER BY in view definition"

let having_unsupported ?span () =
  err "IVM010" ?span
    ~hint:"maintain the aggregate without HAVING and filter when querying the view"
    "HAVING is not supported for IVM views"

let star_with_aggregates ?span () =
  err "IVM011" ?span "star projections cannot be mixed with aggregates"

let distinct_aggregate ?span () =
  err "IVM012" ?span "DISTINCT aggregates are not supported"

let projection_not_group ?span sql =
  err "IVM013" ?span
    ~hint:"project the GROUP BY expression unchanged, or compute derived \
           expressions in a query over the view"
    (Printf.sprintf
       "projection %s is neither a GROUP BY expression nor a bare aggregate"
       sql)

let group_not_projected ?span () =
  err "IVM014" ?span
    ~hint:"add the expression to the SELECT list"
    "every GROUP BY expression must appear in the select list"

let not_materialized ?span () =
  err "IVM015" ?span
    ~hint:"add the MATERIALIZED keyword"
    "expected CREATE MATERIALIZED VIEW (got plain VIEW)"

let not_a_view ?span () =
  err "IVM016" ?span "expected a CREATE MATERIALIZED VIEW statement"

(* IVM2xx: cascading multi-view maintenance *)

let cascade_cycle ?span ~view ~path () =
  err "IVM201" ?span
    ~hint:"break the cycle by defining one of the views over base tables only"
    (Printf.sprintf
       "materialized view %s would create a dependency cycle: %s" view
       (String.concat " -> " path))

let cascade_dependents ?span ~name ~dependents () =
  err "IVM202" ?span
    ~hint:(Printf.sprintf "drop %s first" (String.concat ", " dependents))
    (Printf.sprintf
       "cannot drop %s: %d materialized view(s) read it (%s)"
       name (List.length dependents) (String.concat ", " dependents))

let cascade_dml_on_view ?span ~view () =
  err "IVM203" ?span
    ~hint:"modify the base tables instead; the view is maintained automatically"
    (Printf.sprintf
       "direct DML on materialized view %s would desynchronize it from its \
        definition" view)

(* IVM1xx: warnings and hints on supported views *)

let min_max_recompute ?span agg =
  warn "IVM101" ?span
    ~hint:"deletes touching a group's extremum recompute that group; compile \
           with --strategy rederive_affected or keep deletes rare"
    (Printf.sprintf "%s cannot be maintained incrementally under deletes"
       (String.uppercase_ascii agg))

let avg_decomposition ?span () =
  note "IVM102" ?span
    "AVG is maintained as hidden SUM and COUNT state columns and re-divided \
     on read"

let unindexed_key ?span ~table ~column () =
  warn "IVM103" ?span
    ~hint:(Printf.sprintf "CREATE INDEX idx_%s_%s ON %s(%s)" table column
             table column)
    (Printf.sprintf
       "key column %s.%s has no index; rederive and trigger lookups scan the \
        table" table column)

(* --- registry (docs + tests) --- *)

let registry : (string * severity * string) list =
  [ ("SEM000", Error, "syntax or statement execution error");
    ("SEM001", Error, "unknown table");
    ("SEM002", Error, "unknown column");
    ("SEM003", Error, "ambiguous unqualified column");
    ("SEM004", Error, "unknown table or alias qualifier");
    ("SEM005", Error, "unknown function");
    ("SEM006", Error, "wrong number of arguments");
    ("SEM007", Error, "nested aggregate");
    ("SEM008", Error, "aggregate outside SELECT list / HAVING");
    ("SEM009", Error, "aggregate over a non-numeric argument");
    ("SEM010", Error, "arithmetic on a non-numeric operand");
    ("SEM011", Error, "duplicate output column");
    ("SEM012", Error, "non-deterministic function");
    ("SEM013", Warning, "non-boolean WHERE/HAVING/ON condition");
    ("IVM001", Error, "CTE in view definition");
    ("IVM002", Error, "set operation in view definition");
    ("IVM003", Error, "DISTINCT in view definition");
    ("IVM004", Error, "LIMIT/OFFSET in view definition");
    ("IVM005", Error, "view without FROM clause");
    ("IVM006", Error, "derived table in view definition");
    ("IVM007", Error, "too many base tables");
    ("IVM008", Error, "outer join");
    ("IVM009", Error, "ORDER BY in view definition");
    ("IVM010", Error, "HAVING in view definition");
    ("IVM011", Error, "star projection mixed with aggregates");
    ("IVM012", Error, "DISTINCT aggregate");
    ("IVM013", Error, "projection neither GROUP BY key nor bare aggregate");
    ("IVM014", Error, "GROUP BY expression not projected");
    ("IVM015", Error, "plain VIEW where MATERIALIZED is required");
    ("IVM016", Error, "statement is not CREATE MATERIALIZED VIEW");
    ("IVM101", Warning, "MIN/MAX forces recompute on delete");
    ("IVM102", Hint, "AVG decomposed into SUM/COUNT state");
    ("IVM103", Warning, "unindexed group/join key");
    ("IVM201", Error, "materialized-view dependency cycle");
    ("IVM202", Error, "drop of a table or view that maintained views read");
    ("IVM203", Error, "direct DML on a maintained view") ]
