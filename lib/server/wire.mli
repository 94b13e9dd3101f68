(** The line protocol: newline-delimited UTF-8 frames, one request per
    line, one response per line except [ROWS] (a header line, one [ROW]
    line per row, then [END]).

    Grammar (payloads escaped: [\\] -> [\\\\], newline -> [\\n],
    carriage return -> [\\r], tab -> [\\t]):

    {v
    request  := "HELLO" SP tenant | "SQL" SP text | "BEGIN" | "COMMIT"
              | "ROLLBACK" | "PING" | "QUIT"
    response := "SESSION" SP int          session opened
              | "OK" SP int               DML applied (affected rows)
              | "QUEUED" SP int           DML buffered in open txn (depth)
              | "MSG" SP text             acknowledgement
              | "ROWS" SP n SP cols       cols = escaped names, comma-joined
                ("ROW" SP text) * n
                "END"
              | "ERR" SP code SP text
              | "OVERLOADED" SP text      admission control bounced
              | "PONG" | "BYE"
    v}

    A connection whose first line starts with ["GET "] is not speaking
    this protocol but HTTP; the server hands it to the [/metrics]
    responder. Pure codec — no I/O here, so it unit-tests without a
    socket. *)

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

val escape : string -> string
val unescape : string -> string

val render_request : request -> string
val parse_request : string -> (request, string) result
(** Inverse of {!render_request}. The line is not trimmed; at most one
    trailing raw [\r] is dropped, for CRLF clients. *)

val render_response : response -> string list
(** One line per frame; [Rows] renders to [2 + length rows] lines. *)

val parse_response :
  next_line:(unit -> string option) -> (response, string) result
(** Read one response frame. [next_line] supplies successive protocol
    lines (None = connection closed mid-frame, an error). *)

val response_of_reply : Session.reply -> response
