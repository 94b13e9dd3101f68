(** DML change hooks.

    The paper's two capture mechanisms — DuckDB optimizer rules that
    intercept INSERT/UPDATE/DELETE, and PostgreSQL user-configured triggers
    — are both modelled by after-statement callbacks receiving the changed
    rows. The IVM runner and the HTAP OLTP simulator register hooks that
    append the changes to delta tables. *)

type change = {
  table : string;
  inserted : Row.t list;  (** rows added (for UPDATE: the new images) *)
  deleted : Row.t list;   (** rows removed (for UPDATE: the old images) *)
}

type hook = change -> unit

type t = {
  mutable hooks : (string option * string * hook) list;
      (** (table filter, hook name, callback); None = all tables *)
  mutable suppress : int;  (** [without_hooks] nesting depth; >0 = off *)
  mutable firing : bool;  (** inside the outermost {!fire} dispatch *)
  mutable deferred : (unit -> unit) list;  (** run after that dispatch, LIFO *)
}

let create () = { hooks = []; suppress = 0; firing = false; deferred = [] }

let register t ?table ~name hook =
  t.hooks <- (table, name, hook) :: t.hooks

let unregister t ~name =
  t.hooks <- List.filter (fun (_, n, _) -> not (String.equal n name)) t.hooks

(** Would a change on [table] reach any hook right now? DML fast paths
    (e.g. whole-table DELETE as a truncate) are only legal when nothing is
    listening, because they skip collecting the per-row change images. *)
let has_hooks t ~table =
  t.suppress = 0
  && List.exists
       (fun (filter, _, _) ->
          match filter with None -> true | Some tbl -> String.equal tbl table)
       t.hooks

(** Postpone [f] until every hook of the current outermost {!fire}
    dispatch has run (cascading IVM defers downstream refreshes this way,
    so a view over both a base table and an upstream view sees all of the
    statement's deltas in one refresh). Outside a dispatch, runs [f]
    immediately. *)
let defer t f = if t.firing then t.deferred <- f :: t.deferred else f ()

let pending_deferred t = List.length t.deferred

(** Forget queued deferred work without running it — the rollback path:
    after a failed statement, its deferred refreshes must not fire over
    half-applied (or restored) state on some later dispatch. *)
let clear_deferred t = t.deferred <- []

let drain t =
  let rec loop () =
    match t.deferred with
    | [] -> ()
    | fs ->
      t.deferred <- [];
      List.iter (fun f -> f ()) (List.rev fs);
      loop ()
  in
  (* a deferred callback that raises must not leave its queued siblings
     (or anything they deferred) behind as ghosts for the next dispatch *)
  try loop () with e -> clear_deferred t; raise e

let fire t (change : change) =
  if t.suppress = 0 && (change.inserted <> [] || change.deleted <> []) then begin
    let outermost = not t.firing in
    t.firing <- true;
    match
      List.iter
        (fun (filter, _, hook) ->
           match filter with
           | Some tbl when not (String.equal tbl change.table) -> ()
           | _ -> hook change)
        (List.rev t.hooks)
    with
    | () -> if outermost then begin t.firing <- false; drain t end
    | exception e ->
      (* a failed statement's deferred refreshes are discarded, NOT run:
         draining during exception unwind would propagate deltas of a
         half-applied statement (and leak ghost deltas past a caller's
         snapshot rollback) *)
      if outermost then begin t.firing <- false; clear_deferred t end;
      raise e
  end

(** Run [f] with hooks disabled — used when the IVM runner itself mutates
    delta tables, which must not re-trigger capture. Nested calls stack:
    dispatch resumes once the outermost call returns or raises. *)
let without_hooks t f =
  t.suppress <- t.suppress + 1;
  Fun.protect ~finally:(fun () -> t.suppress <- t.suppress - 1) f
