(** The cross-system transfer layer (the paper's DuckDB↔PostgreSQL link):
    rows are serialized to a wire format and back, with a configurable
    per-batch latency and per-row cost — the knob separating "pure" from
    "cross-system" numbers in experiment E3. On top sits a checksummed,
    sequence-numbered batch protocol whose deliveries run through a
    {!Fault} harness (drop / duplicate / reorder / corrupt). *)

open Openivm_engine

type t = {
  batch_latency : float;
  per_row_cost : float;
  faults : Fault.t;
  mutable batches : int;
  mutable rows_shipped : int;
  mutable bytes_shipped : int;
  mutable held : batch list;
}

(** A protocol batch: deltas of one source table, sequence-numbered per
    source (from 1, no gaps), checksummed over source + seq + payload. *)
and batch = {
  source : string;
  seq : int;
  payload : string array;
  checksum : int;
}

val create :
  ?batch_latency:float -> ?per_row_cost:float -> ?faults:Fault.t -> unit -> t
(** Defaults: 200µs per batch, 0.2µs per row, no faults. *)

val faults : t -> Fault.t

val serialize_row : Row.t -> string

val deserialize_row : string -> Row.t
(** Raises {!Error.Sql_error} on malformed wire data (bad structure, bad
    tag, unparseable date) — corruption must never silently become a
    different value. *)

(** {1 Checksummed batch protocol} *)

val make_batch : source:string -> seq:int -> Row.t list -> batch

val verify : batch -> bool
(** Does the checksum match the payload? *)

val batch_rows : batch -> Row.t list
(** Deserialize a verified batch; raises {!Error.Sql_error} if the
    checksum does not match. *)

val batch_bytes : batch -> int

val send : t -> batch -> batch list
(** Put a batch on the wire; returns what the far side receives from this
    transmission, in arrival order — possibly nothing (dropped or held
    back), possibly duplicates or corrupted copies, plus any previously
    held batches (which thus arrive out of order). With no faults this is
    exactly the input batch. Pays the configured latency. *)

val flush : t -> batch list
(** Deliver everything still in the pipe (recovery drains the network
    before replaying). *)

val discard_in_flight : t -> int
(** Drop held batches (full resync must not see stale traffic resurface);
    returns how many were discarded. *)

val busy_wait : float -> unit
(** Spin for the given number of seconds (latency / backoff modelling). *)

(** {1 Reliable row transfer} *)

val ship : t -> Row.t list -> Row.t list
(** Serialize, pay the transfer cost, deserialize on the far side. Not
    subject to fault injection — the full-resync and ship-everything
    baseline path. *)

val stats : t -> int * int * int
(** (batches, rows, bytes) shipped so far, retries included. *)
