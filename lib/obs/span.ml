(** Tracing spans over the IVM hot paths. See the interface for the
    contract; the implementation is a global trace buffer plus a
    per-domain stack of open spans for parent attribution, so spans can
    be opened from any domain. *)

type value =
  | Int of int
  | Float of float
  | Str of string

type t = {
  id : int;
  parent : int option;
  name : string;
  start_time : float;
  start_alloc : float;
  mutable duration : float;
  mutable alloc_bytes : float;
  mutable attrs : (string * value) list;
  mutable closed : bool;
}

let none =
  { id = 0; parent = None; name = "<disabled>"; start_time = 0.0;
    start_alloc = 0.0; duration = 0.0; alloc_bytes = 0.0; attrs = [];
    closed = true }

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* The trace buffer and id counter are process-global (guarded by a lock /
   an atomic) so spans opened from any thread or domain record safely;
   the open-span stack is domain-local, so parent attribution never
   crosses a domain boundary. *)
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : t list ref = ref []   (* reverse start order *)

let stack_key : t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key  (* innermost open span first *)

let reset () =
  Atomic.set next_id 1;
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock;
  stack () := []

let enter ?(attrs = []) name =
  if not !enabled_flag then none
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let stack = stack () in
    let parent = match !stack with [] -> None | s :: _ -> Some s.id in
    let s =
      { id; parent; name;
        start_time = Clock.now ();
        start_alloc = Clock.allocated_bytes ();
        duration = 0.0; alloc_bytes = 0.0; attrs; closed = false }
    in
    Mutex.lock lock;
    recorded := s :: !recorded;
    Mutex.unlock lock;
    stack := s :: !stack;
    s
  end

let finish s =
  if s != none && not s.closed then begin
    s.duration <- Clock.now () -. s.start_time;
    s.alloc_bytes <- Clock.allocated_bytes () -. s.start_alloc;
    s.closed <- true;
    (* pop through s, tolerating children left open by mistake *)
    let stack = stack () in
    let rec pop = function
      | [] -> []
      | x :: rest -> if x == s then rest else pop rest
    in
    if List.memq s !stack then stack := pop !stack
  end

let with_span ?attrs name f =
  let s = enter ?attrs name in
  Fun.protect ~finally:(fun () -> finish s) (fun () -> f s)

let set s key v = if s != none then s.attrs <- s.attrs @ [ (key, v) ]
let set_int s key v = set s key (Int v)
let set_str s key v = set s key (Str v)
let set_float s key v = set s key (Float v)

let spans () = List.rev !recorded
let find name = List.find_opt (fun s -> String.equal s.name name) (spans ())
let children s = List.filter (fun c -> c.parent = Some s.id) (spans ())
let roots () = List.filter (fun s -> s.parent = None) (spans ())
