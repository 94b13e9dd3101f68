(* The two server workloads: [openivm serve] in its own process on a unix
   socket (an in-process server's systhreads would share the runtime lock
   with the load generator and hold up its schedule), driven from this
   process over two connections. *)

open Workload
module L = Loadgen

(* ------------------------------------------------------------------ *)
(* Server processes                                                    *)

type server = { pid : int; sock : string; mutable alive : bool }

let live : server list ref = ref []

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* SIGTERM (the server drains and exits), SIGKILL if it is still there
   after 20s; either way the process is reaped before this returns. *)
let stop s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Mono.now () +. 20.0 in
    let rec wait () =
      match waitpid_retry [ Unix.WNOHANG ] s.pid with
      | 0, _ when Mono.now () < deadline -> Unix.sleepf 0.005; wait ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ()
  end

let () = at_exit (fun () -> List.iter stop !live)

let spawn ~exe ~dir ~idx ~eager =
  let sock = Filename.concat dir (Printf.sprintf "s%d.sock" idx) in
  let log =
    Unix.openfile
      (Filename.concat dir (Printf.sprintf "server%d.log" idx))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    Cpus.wrap idx
      ([ exe; "serve"; "--socket"; sock;
         "--schema-file"; Filename.concat dir "schema.sql";
         "--init-file"; Filename.concat dir "init.sql";
         "--tick-interval"; "0" ]
      @ if eager then [ "--eager" ] else [])
  in
  let pid = Unix.create_process (List.hd args) (Array.of_list args) null log log in
  Unix.close log;
  Unix.close null;
  let s = { pid; sock; alive = true } in
  live := s :: !live;
  s

(* Poll until a request against the last installed view succeeds. *)
let wait_ready s ~probe =
  let deadline = Mono.now () +. 150.0 in
  let rec go () =
    if Mono.now () > deadline then failwith "server did not become ready";
    (match waitpid_retry [ Unix.WNOHANG ] s.pid with
     | 0, _ -> ()
     | _ -> s.alive <- false; failwith "server exited during setup");
    let ok =
      match L.hello s.sock "setup" with
      | exception _ -> false
      | c ->
          let r = try L.query c probe with _ -> Error "" in
          L.close c;
          Result.is_ok r
    in
    if not ok then begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* Peak resident set (VmHWM) of a live process, in MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

let write_script path stmts =
  let oc = open_out path in
  List.iter (fun s -> output_string oc s; output_string oc ";\n") stmts;
  close_out oc

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

let ms x = 1000.0 *. x

type phase = {
  commit : float list;  (** ms, due -> commit reply *)
  visible : float list;  (** ms, due -> end of the read after the commit *)
  read : float list;  (** ms, due -> END of an independent read *)
  committed_at : float list;  (** when each write unit's last reply arrived *)
  attempted : int;
  failed : int;
}

let summarize (outcomes : L.outcome list) =
  let ok = List.filter (fun o -> not o.L.o_failed) outcomes in
  let pick kinds f =
    List.filter_map
      (fun o -> if List.mem o.L.o_op.kind kinds then Some (ms (f o)) else None)
      ok
  in
  { commit = pick [ Write; Txn ] (fun o -> o.L.o_commit -. o.L.o_due);
    visible = pick [ Write; Txn ] (fun o -> o.L.o_done -. o.L.o_due);
    read = pick [ Read ] (fun o -> o.L.o_done -. o.L.o_due);
    committed_at =
      List.filter_map
        (fun o -> if o.L.o_op.kind <> Read then Some o.L.o_done else None)
        ok;
    attempted = List.length outcomes;
    failed = List.length (List.filter (fun o -> o.L.o_failed) outcomes) }

type result = {
  setup_s : float list;
  open_phase : phase;
  open_wall : float;
  closed : phase option;
  closed_rates : float list;
      (** write units committed per second in each window of the
          closed-loop phase; a stall in a window lowers its rate *)
  late_ms : float list;
  outstanding_max : int;
  rss_mb : float;
  correct : bool;
  first_error : string;  (** why the first failed operation failed *)
  scrape : (string -> float) * (string -> float);  (** before, after *)
}

let probe_of inputs =
  match List.rev inputs.views with
  | v :: _ ->
      Scanf.sscanf v "CREATE MATERIALIZED VIEW %s " (fun name ->
          "SELECT COUNT(*) FROM " ^ name)
  | [] -> "SELECT 1"

(* Seconds the load server spends on one CPU before it moves to the
   next, so that a run samples every vCPU of the host. *)
let rotate_s = 2.5

(* Write units committed per second in each window of the closed-loop
   phase that ends at [until]: windows of about [rotate_s], so that each
   sees the load server on one CPU. *)
let window_rates ~until ~closed_seconds committed_at =
  let n = max 1 (int_of_float (closed_seconds /. rotate_s)) in
  let len = closed_seconds /. float_of_int n and start = until -. closed_seconds in
  let counts = Array.make n 0 in
  List.iter
    (fun t ->
      let k = int_of_float ((t -. start) /. len) in
      if t <= until && k >= 0 && k < n then counts.(k) <- counts.(k) + 1)
    committed_at;
  Array.to_list (Array.map (fun c -> float_of_int c /. len) counts)

(* [setups] cold starts, each timed from the spawn to the first
   successful request and each on the next CPU: a third of them before
   the load phases, the last of those the server the load runs against,
   a third between the open-loop and the closed-loop phase, and a third
   after the run, so that the set-up times span the run like its
   latencies do. Then the gate, and the peak RSS read before the server
   stops. *)
let run ~exe ~dir ~name ~seed ~seconds ~small ~setups ~closed_seconds =
  let inputs = server_inputs ~seed ~seconds ~small name in
  write_script (Filename.concat dir "schema.sql") inputs.schema;
  write_script (Filename.concat dir "init.sql") inputs.views;
  let eager = name = Eager_commits in
  let probe = probe_of inputs in
  let times = ref [] in
  let cold_start idx =
    let t0 = Mono.now () in
    let s = spawn ~exe ~dir ~idx ~eager in
    wait_ready s ~probe;
    times := (Mono.now () -. t0) :: !times;
    s
  in
  let third = (setups - 1) / 3 in
  let n_before = setups - (2 * third) in
  for k = 1 to n_before - 1 do
    stop (cold_start k)
  done;
  let s = cold_start n_before in
  let conns = [ L.open_conn s.sock "writer"; L.open_conn s.sock "reader" ] in
  let before = L.scrape s.sock in
  let t0 = Mono.now () +. 0.02 in
  (* the load server moves to the next CPU every [rotate_s], and this
     process to the one after it, so the two never share a CPU *)
  let moves = ref n_before in
  let move () =
    Cpus.rotate ~pid:s.pid !moves;
    Cpus.rotate (!moves + 1)
  in
  move ();
  let every = (rotate_s, fun () -> incr moves; move ()) in
  let st = L.open_loop ~every conns ~schedule:inputs.schedule ~t0 ~give_up:10.0 in
  let open_wall = Mono.now () -. t0 in
  let after = L.scrape s.sock in
  for k = n_before + 1 to n_before + third do
    stop (cold_start k)
  done;
  let closed, closed_rates, closed_error =
    if closed_seconds <= 0.0 then (None, [], "")
    else
      let active = if name = Eager_commits then [ 0; 1 ] else [ 0 ] in
      let until = Mono.now () +. closed_seconds in
      let cst = L.closed_loop ~every conns ~active ~next_op:inputs.closed ~until in
      let c = summarize cst.L.outcomes in
      (Some c, window_rates ~until ~closed_seconds c.committed_at, cst.L.first_error)
  in
  List.iter L.close_conn conns;
  Cpus.unpin ();
  let c = L.hello s.sock "gate" in
  let bad = Gate.diverging ~query:(L.query c) (Gate.checks name) in
  L.close c;
  let rss_mb = vm_hwm_mb (string_of_int s.pid) in
  stop s;
  for k = n_before + third + 1 to setups do
    stop (cold_start k)
  done;
  { setup_s = !times; open_phase = summarize st.L.outcomes; open_wall;
    closed; closed_rates; late_ms = List.map ms st.L.late;
    outstanding_max = st.L.outstanding_max; rss_mb;
    correct = Gate.report bad;
    first_error = (if st.L.first_error <> "" then st.L.first_error else closed_error);
    scrape = (before, after) }
