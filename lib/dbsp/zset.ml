(** Z-sets: multisets with (possibly negative) integer weights, the carrier
    of DBSP (Budiu et al., 2022). A database table is a Z-set with all
    weights positive; a *delta* is a Z-set where positive weights are
    insertions and negative weights deletions — exactly what the paper's
    boolean [_ivm_multiplicity] column encodes (true = +1, false = -1). *)

open Openivm_engine

type t = {
  weights : int Row.Tbl.t;
}

let create ?(size = 16) () = { weights = Row.Tbl.create size }

let weight z (row : Row.t) : int =
  match Row.Tbl.find_opt z.weights row with Some w -> w | None -> 0

(** Adjust a row's weight; entries at weight zero are removed, keeping the
    representation canonical. *)
let add z (row : Row.t) (w : int) : unit =
  if w <> 0 then begin
    let current = weight z row in
    let updated = current + w in
    if updated = 0 then Row.Tbl.remove z.weights row
    else Row.Tbl.replace z.weights row updated
  end

let cardinality z = Row.Tbl.length z.weights
let is_empty z = cardinality z = 0

let iter f z = Row.Tbl.iter f z.weights
let fold f z init = Row.Tbl.fold f z.weights init

let to_list z =
  List.sort
    (fun (a, _) (b, _) -> Row.compare a b)
    (fold (fun row w acc -> (row, w) :: acc) z [])

let of_list bindings =
  let z = create () in
  List.iter (fun (row, w) -> add z row w) bindings;
  z

(** A table snapshot as a Z-set (every row weight +1; duplicates add up). *)
let of_rows rows =
  let z = create ~size:(List.length rows + 1) () in
  List.iter (fun row -> add z row 1) rows;
  z

let copy z =
  { weights = Row.Tbl.copy z.weights }

let equal a b =
  cardinality a = cardinality b
  && (try
        iter (fun row w -> if weight b row <> w then raise Exit) a;
        true
      with Exit -> false)

(* --- linear operations --- *)

(** z1 + z2 (weights add). Copies the larger operand and folds the smaller
    one in, so the hash-table copy is always the cheap side. *)
let plus a b =
  let big, small = if cardinality a >= cardinality b then (a, b) else (b, a) in
  let z = copy big in
  iter (fun row w -> add z row w) small;
  z

(** -z. *)
let negate a =
  let z = create ~size:(cardinality a) () in
  iter (fun row w -> add z row (-w)) a;
  z

(** z1 - z2, in one pass: fold b's weights in negated instead of building
    a full negated copy first (this sits on the per-tick consolidation
    path). *)
let minus a b =
  let z = copy a in
  iter (fun row w -> add z row (-w)) b;
  z

(** In-place accumulation: [into += delta]. This is the integration
    operator I applied one step at a time. *)
let accumulate ~into delta = iter (fun row w -> add into row w) delta

(* --- operators (all weight-linear except [distinct]) --- *)

let map (f : Row.t -> Row.t) z =
  let out = create ~size:(cardinality z) () in
  iter (fun row w -> add out (f row) w) z;
  out

let filter (p : Row.t -> bool) z =
  let out = create ~size:(cardinality z) () in
  iter (fun row w -> if p row then add out row w) z;
  out

(** DBSP's distinct: weight 1 for every element with positive weight. The
    only non-linear operator needed for set semantics. *)
let distinct z =
  let out = create ~size:(cardinality z) () in
  iter (fun row w -> if w > 0 then add out row 1) z;
  out

(** Positive / negative parts, used when lowering a delta Z-set to the
    boolean-multiplicity encoding of the compiled SQL. *)
let positive z =
  let out = create () in
  iter (fun row w -> if w > 0 then add out row w) z;
  out

let negative z =
  let out = create () in
  iter (fun row w -> if w < 0 then add out row (-w)) z;
  out

(** Bilinear join: weights multiply. [key] functions map rows to join keys;
    [output] combines a left and a right row. *)
let join ~(left_key : Row.t -> Row.t) ~(right_key : Row.t -> Row.t)
    ~(output : Row.t -> Row.t -> Row.t) (a : t) (b : t) : t =
  let out = create () in
  if is_empty a || is_empty b then out
  else begin
    (* hash the smaller side *)
    let build, probe, build_key, probe_key, combine =
      if cardinality a <= cardinality b then
        (a, b, left_key, right_key, fun brow prow -> output brow prow)
      else (b, a, right_key, left_key, fun brow prow -> output prow brow)
    in
    let index : (Row.t * int) list Row.Tbl.t = Row.Tbl.create (cardinality build) in
    iter
      (fun row w ->
         let k = build_key row in
         let existing = try Row.Tbl.find index k with Not_found -> [] in
         Row.Tbl.replace index k ((row, w) :: existing))
      build;
    iter
      (fun prow pw ->
         let k = probe_key prow in
         match Row.Tbl.find_opt index k with
         | None -> ()
         | Some matches ->
           List.iter
             (fun (brow, bw) -> add out (combine brow prow) (bw * pw))
             matches)
      probe;
    out
  end

(** Rows with positive weight, expanded to [w] copies — converts a Z-set
    back to a bag of rows ("tuples with frequency N are modeled with N
    copies", paper §2). Raises if any weight is negative. *)
let to_rows_exn z =
  fold
    (fun row w acc ->
       if w < 0 then
         Error.fail "Z-set has negative weight %d for row %s" w (Row.to_string row)
       else
         let rec rep n acc = if n = 0 then acc else rep (n - 1) (row :: acc) in
         rep w acc)
    z []

let to_string z =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (row, w) -> Printf.sprintf "%s -> %+d" (Row.to_string row) w)
         (to_list z))
  ^ "}"
