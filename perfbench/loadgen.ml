(* The load generator's side of the line protocol: a blocking client for
   setup, scrapes and the correctness gate, and a single-threaded
   select(2) loop that drives both load connections. The loop sends each
   operation when it is due even while earlier replies are outstanding
   (the server answers a connection's requests in order), and times every
   operation from its due time. *)

module Wire = Openivm_server.Wire
open Workload

(* ------------------------------------------------------------------ *)
(* Blocking client                                                     *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e -> Unix.close fd; raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  Wire.parse_response ~next_line:(fun () ->
      try Some (input_line c.ic) with End_of_file -> None)

let hello path tenant =
  let c = connect path in
  match request c (Wire.render_request (Wire.Hello tenant)) with
  | Ok (Wire.Session _) -> c
  | _ -> close c; failwith ("no session from " ^ path)

(* Rows of a SELECT, or the server's error text. *)
let query c text =
  match request c (sql text) with
  | Ok (Wire.Rows { rows; _ }) -> Ok rows
  | Ok (Wire.Err { code; message }) -> Error (code ^ " " ^ message)
  | Ok _ -> Error "unexpected reply"
  | Error e -> Error e

(* GET /metrics on the same socket; every sample summed over its labels. *)
let scrape path =
  let c = connect path in
  Fun.protect ~finally:(fun () -> close c) (fun () ->
      output_string c.oc "GET /metrics HTTP/1.0\r\n\r\n";
      flush c.oc;
      let tbl = Hashtbl.create 64 in
      (try
         while true do
           let line = input_line c.ic in
           if line <> "" && line.[0] <> '#' then
             match String.rindex_opt line ' ' with
             | None -> ()
             | Some i -> (
                 let key = String.sub line 0 i in
                 let key =
                   match String.index_opt key '{' with
                   | Some j -> String.sub key 0 j
                   | None -> key
                 in
                 match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
                 | Some v ->
                     Hashtbl.replace tbl key
                       (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
                 | None -> ())
         done
       with End_of_file -> ());
      fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name))

(* ------------------------------------------------------------------ *)
(* The load loop                                                       *)

type outcome = {
  o_op : op;
  o_due : float;  (** absolute monotonic due time *)
  o_commit : float;  (** when the committing frame arrived *)
  o_done : float;  (** when the last frame arrived *)
  o_failed : bool;
}

type inflight = {
  op : op;
  due_abs : float;
  mutable frames : int;
  mutable bad : bool;
  mutable commit_at : float;
}

type conn = {
  cfd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable partial : string;
  queue : inflight Queue.t;
  mutable rows_left : int;  (** ROW lines still due in a ROWS frame; -1 outside *)
}

let open_conn path tenant =
  let c = hello path tenant in
  { cfd = c.fd; rbuf = Bytes.create 65536; partial = ""; queue = Queue.create ();
    rows_left = -1 }

let close_conn c =
  (try ignore (Unix.write_substring c.cfd "QUIT\n" 0 5) with Unix.Unix_error _ -> ());
  try Unix.close c.cfd with Unix.Unix_error _ -> ()

type stats = {
  mutable outcomes : outcome list;
  mutable late : float list;  (** send time - due time, seconds *)
  mutable outstanding_max : int;
  mutable outstanding : int;
  mutable first_error : string;  (** why the first failed operation failed *)
}

let new_stats () =
  { outcomes = []; late = []; outstanding_max = 0; outstanding = 0; first_error = "" }

let note_error st why = if st.first_error = "" then st.first_error <- why

let send st c op ~due_abs ~now =
  let text = String.concat "\n" op.lines ^ "\n" in
  let n = String.length text in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.cfd text !off (n - !off)
  done;
  Queue.add { op; due_abs; frames = 0; bad = false; commit_at = nan } c.queue;
  st.late <- (now -. due_abs) :: st.late;
  st.outstanding <- st.outstanding + 1;
  if st.outstanding > st.outstanding_max then st.outstanding_max <- st.outstanding

let frame_done st c ~now ~bad ~line =
  let p = Queue.peek c.queue in
  if bad then begin
    p.bad <- true;
    note_error st line
  end;
  if p.frames = p.op.commit_frame then p.commit_at <- now;
  p.frames <- p.frames + 1;
  if p.frames = List.length p.op.lines then begin
    ignore (Queue.pop c.queue);
    st.outstanding <- st.outstanding - 1;
    st.outcomes <-
      { o_op = p.op; o_due = p.due_abs;
        o_commit = (if p.op.commit_frame >= 0 then p.commit_at else now);
        o_done = now; o_failed = p.bad }
      :: st.outcomes
  end

let on_line st c ~now line =
  if c.rows_left > 0 then c.rows_left <- c.rows_left - 1
  else if c.rows_left = 0 then begin
    c.rows_left <- -1;
    frame_done st c ~now ~bad:(line <> "END") ~line
  end
  else if String.starts_with ~prefix:"ROWS " line then
    c.rows_left <-
      (match String.split_on_char ' ' line with
       | _ :: n :: _ -> Option.value ~default:0 (int_of_string_opt n)
       | _ -> 0)
  else
    frame_done st c ~now ~line
      ~bad:(String.starts_with ~prefix:"ERR" line
            || String.starts_with ~prefix:"OVERLOADED" line)

let receive st c =
  match Unix.read c.cfd c.rbuf 0 (Bytes.length c.rbuf) with
  | 0 -> failwith "server closed a load connection"
  | n ->
      let now = Mono.now () in
      let chunk = c.partial ^ Bytes.sub_string c.rbuf 0 n in
      let parts = String.split_on_char '\n' chunk in
      let rec go = function
        | [] -> ()
        | [ last ] -> c.partial <- last
        | line :: rest -> on_line st c ~now line; go rest
      in
      go parts

let wait_readable conns timeout =
  let fds = List.map (fun c -> c.cfd) conns in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | r, _, _ -> List.filter (fun c -> List.memq c.cfd r) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let inflight conns = List.exists (fun c -> not (Queue.is_empty c.queue)) conns

(* Operations still unanswered when a loop gives up count as failed. *)
let give_up_on st c =
  if not (Queue.is_empty c.queue) then note_error st "no reply before the loop gave up";
  Queue.iter
    (fun p ->
      st.outcomes <-
        { o_op = p.op; o_due = p.due_abs; o_commit = nan; o_done = nan;
          o_failed = true }
        :: st.outcomes)
    c.queue;
  Queue.clear c.queue

(* [every = (period, f)]: call [f] once per [period] seconds of a loop. *)
let ticker = function
  | None -> fun () -> ()
  | Some (period, f) ->
      let next = ref (Mono.now () +. period) in
      fun () ->
        if Mono.now () >= !next then begin
          f ();
          next := !next +. period
        end

(* Open loop: send [schedule] on time from [t0]; stop when every reply is
   in or [give_up] seconds after the last due time. Operations still
   unanswered then are returned as failed outcomes. *)
let open_loop ?every conns ~schedule ~t0 ~give_up =
  let tick = ticker every in
  let st = new_stats () in
  let n = Array.length schedule in
  let next = ref 0 in
  let last_due = if n = 0 then t0 else t0 +. schedule.(n - 1).due in
  let deadline = last_due +. give_up in
  while (!next < n || inflight conns) && Mono.now () < deadline do
    tick ();
    let now = Mono.now () in
    while !next < n && t0 +. schedule.(!next).due <= now do
      let op = schedule.(!next) in
      send st (List.nth conns op.conn) op ~due_abs:(t0 +. op.due) ~now;
      incr next
    done;
    let timeout =
      if !next < n then t0 +. schedule.(!next).due -. Mono.now ()
      else deadline -. Mono.now ()
    in
    List.iter (receive st) (wait_readable conns timeout)
  done;
  List.iter (give_up_on st) conns;
  if !next < n then note_error st "not sent before the loop gave up";
  for i = !next to n - 1 do
    let op = schedule.(i) in
    st.outcomes <-
      { o_op = op; o_due = t0 +. op.due; o_commit = nan; o_done = nan;
        o_failed = true }
      :: st.outcomes
  done;
  st

(* Closed loop: each connection in [active] sends its next unit the
   moment the previous one is answered, until [until]. *)
let closed_loop ?every conns ~active ~next_op ~until =
  let tick = ticker every in
  let st = new_stats () in
  let hard = until +. 30.0 in
  while (Mono.now () < until || inflight conns) && Mono.now () < hard do
    tick ();
    let now = Mono.now () in
    List.iteri
      (fun i c ->
        if List.mem i active && Queue.is_empty c.queue && now < until then
          send st c (next_op i) ~due_abs:now ~now)
      conns;
    let left = until -. Mono.now () in
    List.iter (receive st) (wait_readable conns (if left > 0.0 then left else 1.0))
  done;
  List.iter (give_up_on st) conns;
  st
