(** Runtime values and their total order, hashing, and byte encoding
    (the ART key format). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** days since 1970-01-01 *)

val type_name : t -> string
val is_null : t -> bool

val days_from_civil : year:int -> month:int -> day:int -> int
val civil_from_days : int -> int * int * int
val date_of_string : string -> t
(** Parse [YYYY-MM-DD]; raises {!Error.Sql_error} on malformed input. *)

val date_to_string : int -> string

val to_string : t -> string
val to_string_exact : t -> string
(** [to_string] with round-trippable floats (shortest literal that parses
    back to the identical bits) — what CSV checkpoints and WAL records
    write, so durable state is loss-free. *)

val compare : t -> t -> int
(** Total order used by ORDER BY / GROUP BY: NULL first, then booleans,
    numerics (ints and floats compare numerically), strings, dates. *)

val equal : t -> t -> bool
val hash : t -> int
(** Consistent with [equal] (integral floats hash like the equal int). *)

val as_float : t -> float
val as_bool : t -> bool

val encode_key : t array -> string
(** Byte encoding of a value tuple, used as ART index keys. Two tuples
    get the same key iff they are {!equal} column by column, for numbers
    within the bound {!hash} uses (|x| < 1e15): an integral float is
    encoded as the int it equals. Past the bound [equal] itself is not
    transitive. Keys keep the order of the type ranks (NULL < BOOLEAN <
    numerics < VARCHAR < DATE) and, within a rank, of ints (integral
    floats among them), of the other floats, of strings and of dates;
    those other floats sort after every int. *)

val encode_into : Buffer.t -> t -> unit
(** Append one value's encoding to a caller-owned buffer ({!encode_key}
    minus the per-call allocation, for hot key loops). *)
