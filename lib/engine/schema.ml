(** Table and intermediate-result schemas: ordered, named, typed columns.
    Execution carries a schema alongside rows so name resolution can happen
    at plan-build time and evaluation works on positions. *)

type column = {
  name : string;
  table : string option;  (** binding qualifier (table name or alias) *)
  typ : Sql.Ast.typ;
  not_null : bool;
}

and t = column list

let column ?table ?(not_null = false) name typ = { name; table; typ; not_null }

let arity (s : t) = List.length s

let names (s : t) = List.map (fun c -> c.name) s

(** Find the position of a column reference. Unqualified names must be
    unambiguous; qualified names match the binding qualifier. *)
let find_opt (s : t) ~qualifier ~name =
  let candidates =
    List.filteri (fun _ _ -> true) s
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (_, c) ->
        String.equal c.name name
        && match qualifier with
        | None -> true
        | Some q -> (match c.table with Some t -> String.equal t q | None -> false))
  in
  match candidates with
  | [ (i, c) ] -> Some (i, c)
  | [] -> None
  | (i, c) :: _ ->
    (match qualifier with
     | None -> Error.fail "ambiguous column reference %S" name
     | Some _ -> Some (i, c))

let find (s : t) ~qualifier ~name =
  match find_opt s ~qualifier ~name with
  | Some x -> x
  | None ->
    let shown =
      match qualifier with Some q -> q ^ "." ^ name | None -> name
    in
    Error.fail "column %S not found (have: %s)" shown
      (String.concat ", " (names s))

(** Re-qualify every column with a new binding name (FROM t AS a). *)
let requalify (s : t) (binding : string) : t =
  List.map (fun c -> { c with table = Some binding }) s

(** Schema of a join result: concatenation, qualifiers preserved. *)
let join (a : t) (b : t) : t = a @ b
