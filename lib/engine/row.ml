(** Rows are flat value arrays. Equality/hash are structural and consistent
    with [Value.equal]/[Value.hash], so rows can key hash tables (Z-sets,
    hash joins, aggregation). *)

type t = Value.t array

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  &&
  (let rec go i =
     i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1))
   in
   go 0)

let hash (r : t) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 r

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let to_string (r : t) =
  "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string r)) ^ ")"

let concat (a : t) (b : t) : t = Array.append a b

module Hash = struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end

module Tbl = Hashtbl.Make (Hash)
