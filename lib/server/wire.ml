type request =
  | Hello of string
  | Sql of string
  | Begin
  | Commit
  | Rollback
  | Ping
  | Quit

type response =
  | Session of int
  | Ok_affected of int
  | Queued of int
  | Msg of string
  | Rows of { cols : string list; rows : string list }
  | Err of { code : string; message : string }
  | Overloaded of string
  | Pong
  | Bye

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | c -> Buffer.add_char buf c);
       i := !i + 2
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

(* Column names are comma-joined, so a comma inside a name is escaped
   as well; [unescape] already turns [\\,] back into [,]. *)
let escape_col name =
  String.concat "\\," (String.split_on_char ',' (escape name))

(* Split on the commas [escape_col] left unescaped. *)
let split_cols s =
  let n = String.length s in
  let rec go start i acc =
    if i >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '\\' then go start (i + 2) acc
    else if s.[i] = ',' then
      go (i + 1) (i + 1) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  List.map unescape (go 0 0 [])

let split_verb line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )

let render_request = function
  | Hello tenant -> "HELLO " ^ escape tenant
  | Sql text -> "SQL " ^ escape text
  | Begin -> "BEGIN"
  | Commit -> "COMMIT"
  | Rollback -> "ROLLBACK"
  | Ping -> "PING"
  | Quit -> "QUIT"

(* No trimming: blanks at either end of a tenant or of SQL text are data.
   Only one trailing raw \r goes, so CRLF clients keep working; [escape]
   never emits a raw \r, so that byte is never payload. *)
let parse_request line =
  let n = String.length line in
  let line =
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  let verb, rest = split_verb line in
  match (String.uppercase_ascii verb, rest) with
  | "HELLO", tenant when tenant <> "" -> Ok (Hello (unescape tenant))
  | "HELLO", _ -> Error "HELLO needs a tenant name"
  | "SQL", "" -> Error "SQL needs statement text"
  | "SQL", text -> Ok (Sql (unescape text))
  | "BEGIN", "" -> Ok Begin
  | "COMMIT", "" -> Ok Commit
  | "ROLLBACK", "" -> Ok Rollback
  | "PING", "" -> Ok Ping
  | "QUIT", "" -> Ok Quit
  | verb, _ -> Error (Printf.sprintf "unknown request %S" verb)

let render_response = function
  | Session id -> [ Printf.sprintf "SESSION %d" id ]
  | Ok_affected n -> [ Printf.sprintf "OK %d" n ]
  | Queued n -> [ Printf.sprintf "QUEUED %d" n ]
  | Msg text -> [ "MSG " ^ escape text ]
  | Rows { cols; rows } ->
      (* No columns: no separator either, so [[]] and [[""]] differ. *)
      let header = Printf.sprintf "ROWS %d" (List.length rows) in
      (match cols with
       | [] -> header
       | _ -> header ^ " " ^ String.concat "," (List.map escape_col cols))
      :: List.map (fun r -> "ROW " ^ escape r) rows
      @ [ "END" ]
  | Err { code; message } -> [ Printf.sprintf "ERR %s %s" code (escape message) ]
  | Overloaded reason -> [ "OVERLOADED " ^ escape reason ]
  | Pong -> [ "PONG" ]
  | Bye -> [ "BYE" ]

let parse_response ~next_line =
  match next_line () with
  | None -> Error "connection closed"
  | Some line -> (
      (* No trimming: trailing blanks of a payload are data. *)
      let verb, rest = split_verb line in
      match (verb, rest) with
      | "SESSION", n -> (
          match int_of_string_opt n with
          | Some id -> Ok (Session id)
          | None -> Error "bad SESSION id")
      | "OK", n -> (
          match int_of_string_opt n with
          | Some n -> Ok (Ok_affected n)
          | None -> Error "bad OK count")
      | "QUEUED", n -> (
          match int_of_string_opt n with
          | Some n -> Ok (Queued n)
          | None -> Error "bad QUEUED depth")
      | "MSG", text -> Ok (Msg (unescape text))
      | "OVERLOADED", reason -> Ok (Overloaded (unescape reason))
      | "PONG", "" -> Ok Pong
      | "BYE", "" -> Ok Bye
      | "ERR", rest -> (
          let code, message = split_verb rest in
          match code with
          | "" -> Error "bad ERR frame"
          | _ -> Ok (Err { code; message = unescape message }))
      | "ROWS", rest -> (
          let count, cols = split_verb rest in
          let cols = if String.contains rest ' ' then split_cols cols else [] in
          match int_of_string_opt count with
          | None -> Error "bad ROWS count"
          | Some count ->
              let rec read_rows k acc =
                if k = 0 then
                  match next_line () with
                  | Some "END" -> Ok (Rows { cols; rows = List.rev acc })
                  | Some l -> Error (Printf.sprintf "expected END, got %S" l)
                  | None -> Error "connection closed inside ROWS"
                else
                  match next_line () with
                  | Some l -> (
                      match split_verb l with
                      | "ROW", text -> read_rows (k - 1) (unescape text :: acc)
                      | _ -> Error (Printf.sprintf "expected ROW, got %S" l))
                  | None -> Error "connection closed inside ROWS"
              in
              read_rows count [])
      | verb, _ -> Error (Printf.sprintf "unknown response %S" verb))

let response_of_reply = function
  | Session.Affected n -> Ok_affected n
  | Session.Rows { cols; rows } -> Rows { cols; rows }
  | Session.Msg text -> Msg text
  | Session.Queued n -> Queued n
  | Session.Overloaded reason -> Overloaded reason
  | Session.Failed { code; message } -> Err { code; message }
