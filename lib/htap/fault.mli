(** Deterministic fault injection for the cross-system bridge and the
    durable store: each fault kind fires with a configured probability
    from a dedicated seeded RNG, so a failing chaos run replays exactly
    from its seed. {!schedule} adds one-shot deterministic injections
    ("fire on the Nth roll") for crash-point replay. *)

type kind =
  | Drop               (** batch lost in transit *)
  | Duplicate          (** batch delivered twice *)
  | Reorder            (** batch held back, delivered after a later one *)
  | Corrupt            (** a wire byte flipped (caught by the checksum) *)
  | Crash              (** OLAP crashes mid-batch during apply *)
  | Torn_tail          (** WAL append crashes mid-payload (torn tail) *)
  | Truncated_record   (** WAL append crashes mid-header *)
  | Corrupt_record     (** a WAL byte flips on the way to disk, then crash *)
  | Chunk_crash        (** process killed at a backfill chunk boundary *)
  | Truncate_crash     (** killed between checkpoint and WAL truncation *)

exception Injected_crash
(** Raised by storage-fault injection sites to simulate the process dying
    with the file state exactly as written so far. *)

val wire_kinds : kind list
(** The five bridge faults (the historical set). *)

val storage_kinds : kind list
(** The five durable-store faults. *)

val all_kinds : kind list
val kind_to_string : kind -> string

(** Per-kind fire probabilities in [0, 1]. *)
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

val none : spec

val chaos :
  ?drop:float -> ?duplicate:float -> ?reorder:float -> ?corrupt:float ->
  ?crash:float -> unit -> spec
(** Every wire knob defaults to 10%; storage knobs stay off. *)

val storage_chaos :
  ?torn_tail:float -> ?truncated_record:float -> ?corrupt_record:float ->
  ?chunk_crash:float -> ?truncate_crash:float -> unit -> spec
(** Every storage knob defaults to 10%; wire knobs stay off. *)

val probability : spec -> kind -> float

type t

val create : ?seed:int -> spec -> t
val seed : t -> int
val spec : t -> spec

val active : t -> bool
(** False while inside {!suspended}. *)

val roll : t -> kind -> bool
(** Fire [kind] with its configured probability; counts the injection.
    Always false (consuming no randomness) while suspended. *)

val schedule : t -> kind -> after:int -> unit
(** Arm a deterministic one-shot: the ([after] + 1)-th {!roll} of [kind]
    fires regardless of probability, then disarms. Scheduled rolls consume
    no randomness. *)

val draw : t -> int -> int
(** Deterministic draw in [0, bound): crash position, corrupted byte. *)

val injected : t -> kind -> int
(** Injections fired so far, per kind. *)

val total_injected : t -> int

val suspended : t -> (unit -> 'a) -> 'a
(** Run with fault injection off (recovery and full resync use this —
    modelling that a restarted pipeline retries over a healthy link). *)

val to_string : t -> string
(** Human-readable non-zero knobs, e.g. ["drop=10%, crash=5%"]. *)
