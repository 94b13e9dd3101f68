(** Aligned-table printing for the benchmark harness: each experiment
    prints the same kind of rows/series the paper's demo reports. *)

type t = {
  title : string;
  headers : string list;
  mutable rows : string list list;  (** newest first *)
}

let create ~title ~headers = { title; headers; rows = [] }

let add_row t cells = t.rows <- cells :: t.rows

let speedup baseline measured =
  if measured <= 0.0 then "inf"
  else Printf.sprintf "%.1fx" (baseline /. measured)

let render t : string =
  let rows = List.rev t.rows in
  let table = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
       List.iteri
         (fun i cell ->
            if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
         row)
    table;
  let sep =
    "  +"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let line row =
    "  |"
    ^ String.concat "|"
        (List.mapi (fun i cell -> Printf.sprintf " %-*s " widths.(i) cell) row)
    ^ "|"
  in
  String.concat "\n"
    (("== " ^ t.title ^ " ==") :: sep :: line t.headers :: sep
     :: List.map line rows
     @ [ sep ])

let print t = print_endline (render t); print_newline ()
