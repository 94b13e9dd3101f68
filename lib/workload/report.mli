(** Aligned-table printing for the benchmark harness. *)

type t

val create : title:string -> headers:string list -> t
val add_row : t -> string list -> unit
val speedup : float -> float -> string
(** [speedup baseline measured] — "3.4x". *)

val render : t -> string
val print : t -> unit
