(** A process-wide registry of named counters, gauges and histograms.

    Handles are get-or-create by (name, labels) — instrumented modules
    either hold a handle in a module-level binding (hot paths) or call the
    constructor per event (registry lookup, fine for refresh-frequency
    events). Updates are plain field mutations: cheap enough to stay on
    even when span tracing is disabled.

    Histograms use exponential base-2 buckets from 1µs up (suited to the
    latencies this repo measures) plus an overflow bucket, and support
    deterministic percentile estimation by linear interpolation within a
    bucket, clamped to the observed min/max. *)

type counter
type gauge
type histogram

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val set_gauge_int : gauge -> int -> unit

val histogram :
  ?help:string -> ?labels:(string * string) list -> string -> histogram
val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0, 1]: linear interpolation within the
    bucket holding rank [p * count], clamped to the observed min/max.
    [nan] on an empty histogram. *)

val reset_values : unit -> unit
(** Zero every registered metric. Registrations (and handles held by
    instrumented modules) stay valid. *)

(** {1 Snapshot for renderers} *)

type snapshot =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      count : int;
      sum : float;
      vmin : float;
      vmax : float;
      buckets : (float * int) list;
          (** (upper bound, cumulative count) pairs, ascending; the last
              pair's bound is [infinity] *)
    }

val snapshot : unit -> (string * (string * string) list * string * snapshot) list
(** All registered metrics as [(name, labels, help, value)], sorted by
    name then labels — the deterministic input to {!Report}. Metrics that
    were never updated are omitted. *)
