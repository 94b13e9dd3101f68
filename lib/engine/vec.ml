(** Growable array used for table storage. Slots are mutable; deletion is
    by tombstone at the [Table] layer, so [Vec] itself never shifts slots
    and indexes stay valid. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 8) ~dummy () =
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- v

let ensure_capacity t needed =
  if needed > Array.length t.data then begin
    (* the [max 8] floor matters: from a zero-capacity array the doubling
       loop would never terminate (0 * 2 = 0) *)
    let cap = ref (max 8 (Array.length t.data)) in
    while !cap < needed do cap := !cap * 2 done;
    let fresh = Array.make !cap t.dummy in
    Array.blit t.data 0 fresh 0 t.len;
    t.data <- fresh
  end

let push t v =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- v;
  t.len <- t.len + 1;
  t.len - 1

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate: length out of bounds";
  Array.fill t.data n (t.len - n) t.dummy;
  t.len <- n

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let of_list ~dummy xs =
  let t = create ~dummy () in
  List.iter (fun x -> ignore (push t x)) xs;
  t
