(* Order statistics over samples, and the JSON the benchmark prints. *)

(* Linear interpolation between closest ranks (numpy's default); nan on
   no samples. *)
let percentile (xs : float list) p =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let r = p *. float_of_int (n - 1) in
      let lo = int_of_float r in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* JSON numbers with every digit; non-finite values have no JSON form. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"
