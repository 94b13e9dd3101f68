(* The CPUs this process may run on, and moving processes between them.

   On a shared VM each vCPU's speed moves on its own, by up to 1.5x, and
   the scheduler can keep a busy single-threaded process on one vCPU for
   the whole of a run. A run that moves its work from one allowed CPU to
   the next between repeated measurements samples every vCPU, so one
   contended vCPU does not decide it. Moves go through taskset(1); where
   it is missing, or only one CPU is allowed, nothing moves. *)

(* From "Cpus_allowed_list:" in /proc/self/status, e.g. "0-1" or "0,2-3";
   [] when it cannot be read. *)
let allowed () =
  let ids spec =
    List.concat_map
      (fun part ->
        match String.split_on_char '-' part with
        | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (fun i -> int_of_string a + i)
        | _ -> [ int_of_string part ])
      (String.split_on_char ',' spec)
  in
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go () =
          let line = input_line ic in
          if String.starts_with ~prefix:"Cpus_allowed_list:" line then
            Scanf.sscanf line "Cpus_allowed_list: %s" ids
          else go ()
        in
        go ())
  with _ -> []

(* The CPUs allowed when the process started, before any move. *)
let initial = lazy (allowed ())

(* Run taskset(1) with [args]; false when it is missing or fails. *)
let taskset args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
      match Unix.create_process "taskset" (Array.of_list ("taskset" :: args)) null null null with
      | exception Unix.Unix_error _ -> false
      | child -> (
          let rec wait () =
            try Unix.waitpid [] child
            with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          in
          match wait () with _, Unix.WEXITED 0 -> true | _ -> false))

(* Restrict every thread of process [pid] to the CPUs in [cpus]. *)
let set_cpus pid cpus =
  taskset
    [ "-a"; "-p"; "-c"; String.concat "," (List.map string_of_int cpus); string_of_int pid ]

(* Whether processes can be moved: two or more CPUs, and a taskset that
   works (checked by allowing this process every initial CPU). *)
let usable =
  lazy
    (match Lazy.force initial with
     | _ :: _ :: _ as cpus -> set_cpus (Unix.getpid ()) cpus
     | _ -> false)

let nth k =
  let cpus = Lazy.force initial in
  List.nth cpus (k mod List.length cpus)

(* Pin process [pid] (this one by default) to the [k]th initial CPU,
   round robin. *)
let rotate ?(pid = Unix.getpid ()) k =
  if Lazy.force usable then ignore (set_cpus pid [ nth k ])

(* Let this process run on every initial CPU again. *)
let unpin () =
  if Lazy.force usable then ignore (set_cpus (Unix.getpid ()) (Lazy.force initial))

(* [argv] run under taskset on the [k]th initial CPU, round robin, or
   [argv] itself when processes cannot be moved. *)
let wrap k argv =
  if Lazy.force usable then "taskset" :: "-c" :: string_of_int (nth k) :: argv else argv
