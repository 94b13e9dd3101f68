(** Deterministic fault injection for the cross-system bridge and the
    durable store.

    Each fault kind fires independently with a configured probability from
    a dedicated seeded RNG, so a failing chaos run replays exactly from
    its seed regardless of how the surrounding workload perturbs other
    random state. On top of the probabilistic rolls, {!schedule} arms a
    one-shot deterministic injection ("fire on the Nth roll of this
    kind") — the crash-at-chunk-K and crash-point-replay primitives. *)

type kind =
  (* wire faults (the HTAP bridge) *)
  | Drop | Duplicate | Reorder | Corrupt | Crash
  (* storage faults (the durable store) *)
  | Torn_tail        (** WAL append crashes mid-payload: torn tail write *)
  | Truncated_record (** WAL append crashes mid-header: truncated record *)
  | Corrupt_record   (** a WAL byte flips on the way to disk, then crash *)
  | Chunk_crash      (** process killed at a backfill chunk boundary *)
  | Truncate_crash   (** killed between checkpoint and WAL truncation *)

exception Injected_crash
(** Raised by storage-fault injection sites to simulate the process dying
    with the file state exactly as written so far. *)

let wire_kinds = [ Drop; Duplicate; Reorder; Corrupt; Crash ]

let storage_kinds =
  [ Torn_tail; Truncated_record; Corrupt_record; Chunk_crash; Truncate_crash ]

let all_kinds = wire_kinds @ storage_kinds

let kind_to_string = function
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Reorder -> "reorder"
  | Corrupt -> "corrupt"
  | Crash -> "crash"
  | Torn_tail -> "torn_tail"
  | Truncated_record -> "truncated_record"
  | Corrupt_record -> "corrupt_record"
  | Chunk_crash -> "chunk_crash"
  | Truncate_crash -> "truncate_crash"

type spec = {
  drop : float;
  duplicate : float;
  reorder : float;
  corrupt : float;
  crash : float;
  torn_tail : float;
  truncated_record : float;
  corrupt_record : float;
  chunk_crash : float;
  truncate_crash : float;
}

let none =
  { drop = 0.; duplicate = 0.; reorder = 0.; corrupt = 0.; crash = 0.;
    torn_tail = 0.; truncated_record = 0.; corrupt_record = 0.;
    chunk_crash = 0.; truncate_crash = 0. }

(** Wire chaos: the bridge knobs default to 10%, storage knobs to off —
    [chaos ()] keeps its historical meaning of "every bridge fault hot". *)
let chaos ?(drop = 0.1) ?(duplicate = 0.1) ?(reorder = 0.1) ?(corrupt = 0.1)
    ?(crash = 0.1) () =
  { none with drop; duplicate; reorder; corrupt; crash }

(** Storage chaos: every durable-store fault at 10% (overridable), wire
    faults off. *)
let storage_chaos ?(torn_tail = 0.1) ?(truncated_record = 0.1)
    ?(corrupt_record = 0.1) ?(chunk_crash = 0.1) ?(truncate_crash = 0.1) () =
  { none with torn_tail; truncated_record; corrupt_record; chunk_crash;
              truncate_crash }

let probability spec = function
  | Drop -> spec.drop
  | Duplicate -> spec.duplicate
  | Reorder -> spec.reorder
  | Corrupt -> spec.corrupt
  | Crash -> spec.crash
  | Torn_tail -> spec.torn_tail
  | Truncated_record -> spec.truncated_record
  | Corrupt_record -> spec.corrupt_record
  | Chunk_crash -> spec.chunk_crash
  | Truncate_crash -> spec.truncate_crash

type t = {
  spec : spec;
  seed : int;
  rng : Random.State.t;
  mutable suspended : int;  (** > 0 = faults off (recovery, full resync) *)
  injected : (kind * int ref) list;
  mutable scheduled : (kind * int) list;
      (** one-shot countdowns: fire deterministically on the Nth roll *)
}

let create ?(seed = 0xC4A05) (spec : spec) : t =
  { spec; seed; rng = Random.State.make [| seed |]; suspended = 0;
    injected = List.map (fun k -> (k, ref 0)) all_kinds; scheduled = [] }

let seed t = t.seed
let spec t = t.spec

let active t = t.suspended = 0

(** Arm a deterministic one-shot: the ([after] + 1)-th {!roll} of [kind]
    fires regardless of its configured probability, then disarms. Replaces
    any earlier schedule for the same kind. Scheduled rolls consume no
    randomness, so they do not perturb the probabilistic fault replay. *)
let schedule t kind ~after =
  t.scheduled <- (kind, max 0 after) :: List.remove_assoc kind t.scheduled

(** Roll the dice for [kind]; counts the injection when it fires. While
    suspended, nothing fires and no randomness is consumed (so recovery
    does not perturb the replayable fault schedule). *)
let roll t kind : bool =
  if t.suspended > 0 then false
  else
    match List.assoc_opt kind t.scheduled with
    | Some 0 ->
      t.scheduled <- List.remove_assoc kind t.scheduled;
      incr (List.assoc kind t.injected);
      true
    | Some n ->
      t.scheduled <- (kind, n - 1) :: List.remove_assoc kind t.scheduled;
      false
    | None ->
      let p = probability t.spec kind in
      let fires = p > 0.0 && Random.State.float t.rng 1.0 < p in
      if fires then incr (List.assoc kind t.injected);
      fires

(** An extra deterministic draw in [0, bound) — where in a batch a crash
    lands, which wire byte corruption flips. *)
let draw t bound = if bound <= 0 then 0 else Random.State.int t.rng bound

let injected t kind = !(List.assoc kind t.injected)

let total_injected t =
  List.fold_left (fun acc (_, r) -> acc + !r) 0 t.injected

(** Run [f] with fault injection suspended (nests). *)
let suspended t f =
  t.suspended <- t.suspended + 1;
  Fun.protect ~finally:(fun () -> t.suspended <- t.suspended - 1) f

let to_string t =
  String.concat ", "
    (List.filter_map
       (fun k ->
          let p = probability t.spec k in
          if p <= 0.0 then None
          else Some (Printf.sprintf "%s=%.0f%%" (kind_to_string k) (100. *. p)))
       all_kinds)
