(** Runtime values.

    SQL three-valued logic is represented by [Null] flowing through
    operators; the comparison used by ORDER BY / GROUP BY / indexes is a
    total order that sorts [Null] first (like DuckDB's NULLS FIRST
    default), so grouping treats NULLs as equal, while the Boolean
    comparison operators return [Null] when either side is NULL. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** days since 1970-01-01 *)

let type_name = function
  | Null -> "NULL"
  | Bool _ -> "BOOLEAN"
  | Int _ -> "INTEGER"
  | Float _ -> "DOUBLE"
  | Str _ -> "VARCHAR"
  | Date _ -> "DATE"

let is_null = function Null -> true | _ -> false

(* --- date conversions (proleptic Gregorian, days since epoch) --- *)

let days_from_civil ~year ~month ~day =
  (* Howard Hinnant's algorithm; exact for all Gregorian dates. *)
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (month + 9) mod 12 in
  let doy = (153 * mp + 2) / 5 + day - 1 in
  let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy in
  era * 146097 + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - era * 146097 in
  let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365 in
  let y = yoe + era * 400 in
  let doy = doe - (365 * yoe + yoe / 4 - yoe / 100) in
  let mp = (5 * doy + 2) / 153 in
  let day = doy - (153 * mp + 2) / 5 + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = if month <= 2 then y + 1 else y in
  (year, month, day)

let days_in_month ~year ~month =
  match month with
  | 2 ->
    if (year mod 4 = 0 && year mod 100 <> 0) || year mod 400 = 0 then 29
    else 28
  | 4 | 6 | 9 | 11 -> 30
  | _ -> 31

let date_of_string s =
  match String.split_on_char '-' s with
  | [ y; m; d ] ->
    (try
       let year = int_of_string y
       and month = int_of_string m
       and day = int_of_string d in
       if month < 1 || month > 12 || day < 1
          || day > days_in_month ~year ~month
       then Error.fail "invalid date %S" s
       else Date (days_from_civil ~year ~month ~day)
     with Failure _ -> Error.fail "invalid date %S" s)
  | _ -> Error.fail "invalid date %S (expected YYYY-MM-DD)" s

let date_to_string days =
  let year, month, day = civil_from_days days in
  Printf.sprintf "%04d-%02d-%02d" year month day

(* --- printing --- *)

let to_string = function
  | Null -> "NULL"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f
  | Str s -> s
  | Date d -> date_to_string d

(** Shortest float literal that parses back to exactly [f]. ["%.12g"] (the
    display format) loses up to 5 bits; checkpoint files must be
    loss-free, so escalate precision until [float_of_string] round-trips
    (17 significant digits always do). *)
let float_to_string_exact f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None ->
      (match try_prec 16 with
       | Some s -> s
       | None -> Printf.sprintf "%.17g" f)

(** [to_string] with round-trippable floats — the serialization format of
    CSV checkpoints and WAL records ({!to_string} itself stays the
    human-facing display format). *)
let to_string_exact = function
  | Float f -> float_to_string_exact f
  | v -> to_string v

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* --- ordering, equality, hashing --- *)

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2   (* numerics compare cross-type *)
  | Str _ -> 4
  | Date _ -> 5

(** Total order for sorting/grouping: NULL < BOOL < numerics < VARCHAR <
    DATE; ints and floats compare numerically. *)
let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Str x, Str y -> Stdlib.compare x y
  | Date x, Date y -> Stdlib.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash i
  | Float f ->
    (* an integral float must hash like the equal int *)
    if Float.is_integer f && Float.abs f < 1e15 then Hashtbl.hash (int_of_float f)
    else Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (d + 0x5ca1ab1e)

(* --- numeric helpers for the evaluator --- *)

let as_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> Error.fail "cannot use %s (%s) as a number" (to_string v) (type_name v)

let as_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | Bool b -> if b then 1 else 0
  | v -> Error.fail "cannot use %s (%s) as an integer" (to_string v) (type_name v)

let as_bool = function
  | Bool b -> b
  | Null -> false
  | v -> Error.fail "cannot use %s (%s) as a boolean" (to_string v) (type_name v)

(* --- order-preserving byte encoding, used as ART index keys --- *)

let encode_into buf v =
  let add_tag c = Buffer.add_char buf c in
  match v with
  | Null -> add_tag '\x00'
  | Bool false -> add_tag '\x01'
  | Bool true -> add_tag '\x02'
  | Int i ->
    add_tag '\x03';
    (* flip sign bit so that signed order = lexicographic byte order *)
    Buffer.add_int64_be buf (Int64.logxor (Int64.of_int i) Int64.min_int)
  | Float f ->
    add_tag '\x03';
    (* encode floats into the int key space via their integer part when
       integral, else a distinct tag — IVM keys are ints/strings/dates, so
       exact cross-type key order for floats is not load-bearing. *)
    let bits = Int64.bits_of_float f in
    let u =
      if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int
      else Int64.lognot bits
    in
    Buffer.add_int64_be buf u
  | Str s ->
    add_tag '\x05';
    (* escape 0x00 so concatenated keys cannot collide, terminate with 00 00 *)
    if String.index_opt s '\x00' = None then Buffer.add_string buf s
    else
      String.iter
        (fun c ->
           if c = '\x00' then begin
             Buffer.add_char buf '\x00'; Buffer.add_char buf '\xff'
           end else Buffer.add_char buf c)
        s;
    Buffer.add_char buf '\x00';
    Buffer.add_char buf '\x00'
  | Date d ->
    add_tag '\x06';
    Buffer.add_int64_be buf (Int64.logxor (Int64.of_int d) Int64.min_int)

let encode_key (vs : t array) : string =
  let buf = Buffer.create 16 in
  Array.iter (encode_into buf) vs;
  Buffer.contents buf
