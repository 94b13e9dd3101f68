(** Scalar expression compilation and evaluation.

    [compile schema e] resolves column references against [schema] once and
    returns a closure evaluated per row. SQL three-valued logic: arithmetic
    and comparisons propagate NULL; AND/OR follow Kleene logic; WHERE treats
    NULL as false (via [Value.as_bool]). *)

type compiled = Row.t -> Value.t

(* --- null-aware primitive operations --- *)

let numeric_binop ~int_op ~float_op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (int_op x y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.Float (float_op (Value.as_float a) (Value.as_float b))
  | _ ->
    Error.fail "type error: %s %s in arithmetic" (Value.type_name a)
      (Value.type_name b)

let add a b =
  match a, b with
  | Value.Date d, Value.Int k | Value.Int k, Value.Date d -> Value.Date (d + k)
  | _ -> numeric_binop ~int_op:( + ) ~float_op:( +. ) a b

let sub a b =
  match a, b with
  | Value.Date x, Value.Date y -> Value.Int (x - y)
  | Value.Date x, Value.Int k -> Value.Date (x - k)
  | _ -> numeric_binop ~int_op:( - ) ~float_op:( -. ) a b

let mul = numeric_binop ~int_op:( * ) ~float_op:( *. )

(* DuckDB semantics: / is floating-point division. *)
let div a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ ->
    let y = Value.as_float b in
    if y = 0.0 then Value.Null else Value.Float (Value.as_float a /. y)

let modulo a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y ->
    if y = 0 then Value.Null else Value.Int (x mod y)
  | _ -> Error.fail "%% requires integers"

let concat a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> Value.Str (Value.to_string a ^ Value.to_string b)

let compare3 a b =
  (* SQL comparison: NULL operand -> NULL result *)
  if Value.is_null a || Value.is_null b then None
  else Some (Value.compare a b)

let bool3 = function
  | None -> Value.Null
  | Some b -> Value.Bool b

let cmp_op op a b =
  bool3 (Option.map op (compare3 a b))

let logical_and a b =
  match a, b with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> Value.Bool (Value.as_bool a && Value.as_bool b)

let logical_or a b =
  match a, b with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> Value.Bool (Value.as_bool a || Value.as_bool b)

let logical_not = function
  | Value.Null -> Value.Null
  | v -> Value.Bool (not (Value.as_bool v))

(** SQL LIKE with % (any run) and _ (any char); no escape character. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoized recursion over (pattern index, string index) *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi >= np then si >= ns
        else
          match pattern.[pi] with
          | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0

let cast_value (t : Sql.Ast.typ) (v : Value.t) =
  match t, v with
  | _, Value.Null -> Value.Null
  | Sql.Ast.T_int, Value.Int _ -> v
  | Sql.Ast.T_int, Value.Float f -> Value.Int (int_of_float (Float.round f))
  | Sql.Ast.T_int, Value.Bool b -> Value.Int (if b then 1 else 0)
  | Sql.Ast.T_int, Value.Str s ->
    (try Value.Int (int_of_string (String.trim s))
     with Failure _ -> Error.fail "cannot cast %S to INTEGER" s)
  | Sql.Ast.T_float, (Value.Int _ | Value.Float _) -> Value.Float (Value.as_float v)
  | Sql.Ast.T_float, Value.Str s ->
    (try Value.Float (float_of_string (String.trim s))
     with Failure _ -> Error.fail "cannot cast %S to DOUBLE" s)
  | Sql.Ast.T_text, _ -> Value.Str (Value.to_string v)
  | Sql.Ast.T_bool, Value.Bool _ -> v
  | Sql.Ast.T_bool, Value.Int i -> Value.Bool (i <> 0)
  | Sql.Ast.T_bool, Value.Str s ->
    (match String.lowercase_ascii (String.trim s) with
     | "true" | "t" | "1" -> Value.Bool true
     | "false" | "f" | "0" -> Value.Bool false
     | _ -> Error.fail "cannot cast %S to BOOLEAN" s)
  | Sql.Ast.T_date, Value.Date _ -> v
  | Sql.Ast.T_date, Value.Str s -> Value.date_of_string s
  | Sql.Ast.T_date, Value.Int d -> Value.Date d
  | _ ->
    Error.fail "cannot cast %s value to %s" (Value.type_name v)
      (Sql.Ast.typ_to_string t)

let lit_value = function
  | Sql.Ast.L_null -> Value.Null
  | Sql.Ast.L_int i -> Value.Int i
  | Sql.Ast.L_float f -> Value.Float f
  | Sql.Ast.L_string s -> Value.Str s
  | Sql.Ast.L_bool b -> Value.Bool b

(* --- scalar functions --- *)

let scalar_function name (args : Value.t list) : Value.t =
  let arity_error () =
    Error.fail "wrong number of arguments to %s" (String.uppercase_ascii name)
  in
  match name, args with
  | "coalesce", args ->
    (try List.find (fun v -> not (Value.is_null v)) args
     with Not_found -> Value.Null)
  | "ifnull", [ a; b ] -> if Value.is_null a then b else a
  | "nullif", [ a; b ] -> if Value.equal a b then Value.Null else a
  | "abs", [ Value.Null ] -> Value.Null
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "round", [ Value.Null ] -> Value.Null
  | "round", [ Value.Int i ] -> Value.Int i
  | "round", [ Value.Float f ] -> Value.Float (Float.round f)
  | "round", [ Value.Float f; Value.Int digits ] ->
    let scale = 10.0 ** float_of_int digits in
    Value.Float (Float.round (f *. scale) /. scale)
  | "floor", [ Value.Null ] -> Value.Null
  | "floor", [ v ] -> Value.Int (int_of_float (Float.floor (Value.as_float v)))
  | "ceil", [ Value.Null ] | "ceiling", [ Value.Null ] -> Value.Null
  | ("ceil" | "ceiling"), [ v ] ->
    Value.Int (int_of_float (Float.ceil (Value.as_float v)))
  | "sqrt", [ Value.Null ] -> Value.Null
  | "sqrt", [ v ] -> Value.Float (sqrt (Value.as_float v))
  | "power", [ a; b ] | "pow", [ a; b ] ->
    if Value.is_null a || Value.is_null b then Value.Null
    else Value.Float (Value.as_float a ** Value.as_float b)
  | "lower", [ Value.Null ] -> Value.Null
  | "lower", [ v ] -> Value.Str (String.lowercase_ascii (Value.to_string v))
  | "upper", [ Value.Null ] -> Value.Null
  | "upper", [ v ] -> Value.Str (String.uppercase_ascii (Value.to_string v))
  | "length", [ Value.Null ] -> Value.Null
  | "length", [ v ] -> Value.Int (String.length (Value.to_string v))
  | "substr", args | "substring", args ->
    (match args with
     | [ Value.Null; _ ] | [ Value.Null; _; _ ] -> Value.Null
     | [ v; Value.Int start ] ->
       let s = Value.to_string v in
       let ofs = max 0 (start - 1) in
       if ofs >= String.length s then Value.Str ""
       else Value.Str (String.sub s ofs (String.length s - ofs))
     | [ v; Value.Int start; Value.Int len ] ->
       let s = Value.to_string v in
       let ofs = max 0 (start - 1) in
       let len = min len (String.length s - ofs) in
       if ofs >= String.length s || len <= 0 then Value.Str ""
       else Value.Str (String.sub s ofs len)
     | _ -> arity_error ())
  | "concat", args ->
    Value.Str
      (String.concat ""
         (List.map
            (fun v -> if Value.is_null v then "" else Value.to_string v)
            args))
  | "greatest", (_ :: _ as args) ->
    if List.exists Value.is_null args then Value.Null
    else List.fold_left (fun a b -> if Value.compare a b >= 0 then a else b)
        (List.hd args) args
  | "least", (_ :: _ as args) ->
    if List.exists Value.is_null args then Value.Null
    else List.fold_left (fun a b -> if Value.compare a b <= 0 then a else b)
        (List.hd args) args
  | "sign", [ Value.Null ] -> Value.Null
  | "sign", [ v ] ->
    let f = Value.as_float v in
    Value.Int (if f > 0.0 then 1 else if f < 0.0 then -1 else 0)
  | "year", [ Value.Date d ] ->
    let y, _, _ = Value.civil_from_days d in
    Value.Int y
  | "month", [ Value.Date d ] ->
    let _, m, _ = Value.civil_from_days d in
    Value.Int m
  | "day", [ Value.Date d ] ->
    let _, _, dd = Value.civil_from_days d in
    Value.Int dd
  | ("year" | "month" | "day"), [ Value.Null ] -> Value.Null
  | _, _ -> Error.fail "unknown function %s/%d" name (List.length args)

(* --- compilation --- *)

let neg_value = function
  | Value.Null -> Value.Null
  | Value.Int i -> Value.Int (-i)
  | Value.Float f -> Value.Float (-.f)
  | v -> Error.fail "cannot negate %s" (Value.type_name v)

(* the per-value primitive behind each binary operator *)
let binop_fn : Sql.Ast.binop -> Value.t -> Value.t -> Value.t = function
  | Sql.Ast.Add -> add
  | Sql.Ast.Sub -> sub
  | Sql.Ast.Mul -> mul
  | Sql.Ast.Div -> div
  | Sql.Ast.Mod -> modulo
  | Sql.Ast.Concat -> concat
  | Sql.Ast.Eq -> cmp_op (fun c -> c = 0)
  | Sql.Ast.Neq -> cmp_op (fun c -> c <> 0)
  | Sql.Ast.Lt -> cmp_op (fun c -> c < 0)
  | Sql.Ast.Le -> cmp_op (fun c -> c <= 0)
  | Sql.Ast.Gt -> cmp_op (fun c -> c > 0)
  | Sql.Ast.Ge -> cmp_op (fun c -> c >= 0)
  | Sql.Ast.And -> logical_and
  | Sql.Ast.Or -> logical_or

let compile ?(subquery : (Sql.Ast.select -> Value.t list) option)
    (schema : Schema.t) (top : Sql.Ast.expr) : compiled =
  let rec go (e : Sql.Ast.expr) : compiled =
  match e with
  | Sql.Ast.Lit l ->
    let v = lit_value l in
    fun _ -> v
  | Sql.Ast.Column (qualifier, name) ->
    if name = "*" then Error.fail "* is only valid in projections";
    let i, _ = Schema.find schema ~qualifier ~name in
    fun row -> row.(i)
  | Sql.Ast.Star -> Error.fail "* is only valid in projections"
  | Sql.Ast.Unary (Sql.Ast.Neg, a) ->
    let ca = go a in
    fun row -> neg_value (ca row)
  | Sql.Ast.Unary (Sql.Ast.Not, a) ->
    let ca = go a in
    fun row -> logical_not (ca row)
  | Sql.Ast.Binary (op, a, b) ->
    let ca = go a and cb = go b in
    let f = binop_fn op in
    fun row -> f (ca row) (cb row)
  | Sql.Ast.Func (name, args) ->
    let cargs = List.map go args in
    fun row -> scalar_function name (List.map (fun c -> c row) cargs)
  | Sql.Ast.Aggregate _ ->
    Error.fail "aggregate in scalar context (missing GROUP BY handling)"
  | Sql.Ast.Case (branches, default) ->
    let cbranches =
      List.map (fun (c, v) -> (go c, go v)) branches
    in
    let cdefault = Option.map go default in
    fun row ->
      let rec try_branches = function
        | [] ->
          (match cdefault with Some d -> d row | None -> Value.Null)
        | (c, v) :: rest ->
          (match c row with
           | Value.Bool true -> v row
           | _ -> try_branches rest)
      in
      try_branches cbranches
  | Sql.Ast.Cast (a, t) ->
    let ca = go a in
    fun row -> cast_value t (ca row)
  | Sql.Ast.In_list (a, items, negated) ->
    let ca = go a and citems = List.map go items in
    fun row ->
      let v = ca row in
      if Value.is_null v then Value.Null
      else
        let any_null = ref false in
        let hit =
          List.exists
            (fun ci ->
               let w = ci row in
               if Value.is_null w then begin any_null := true; false end
               else Value.equal v w)
            citems
        in
        if hit then Value.Bool (not negated)
        else if !any_null then Value.Null
        else Value.Bool negated
  | Sql.Ast.Between (a, lo, hi, negated) ->
    let ca = go a
    and clo = go lo
    and chi = go hi in
    fun row ->
      let v = ca row and l = clo row and h = chi row in
      if Value.is_null v || Value.is_null l || Value.is_null h then Value.Null
      else
        let inside = Value.compare v l >= 0 && Value.compare v h <= 0 in
        Value.Bool (if negated then not inside else inside)
  | Sql.Ast.Is_null (a, negated) ->
    let ca = go a in
    fun row ->
      let n = Value.is_null (ca row) in
      Value.Bool (if negated then not n else n)
  | Sql.Ast.Like (a, p, negated) ->
    let ca = go a and cp = go p in
    fun row ->
      let v = ca row and pat = cp row in
      if Value.is_null v || Value.is_null pat then Value.Null
      else
        let m = like_match ~pattern:(Value.to_string pat) (Value.to_string v) in
        Value.Bool (if negated then not m else m)
  | Sql.Ast.In_select (a, q, negated) ->
    (match subquery with
     | None -> Error.fail "IN (SELECT ...) is not available in this context"
     | Some resolve ->
       (* uncorrelated: the subquery is evaluated once, at compile time *)
       let ca = go a in
       let set = Hashtbl.create 64 in
       let any_null = ref false in
       List.iter
         (fun v ->
            if Value.is_null v then any_null := true
            else Hashtbl.replace set (Value.Str (Value.encode_key [| v |])) ())
         (resolve q);
       fun row ->
         let v = ca row in
         if Value.is_null v then Value.Null
         else if Hashtbl.mem set (Value.Str (Value.encode_key [| v |])) then
           Value.Bool (not negated)
         else if !any_null then Value.Null
         else Value.Bool negated)
  in
  go top

(** Evaluate a closed expression (no column references). *)
let eval_const (e : Sql.Ast.expr) : Value.t = compile [] e [||]

(** WHERE-clause truth: NULL counts as false. *)
let is_true = function Value.Bool true -> true | _ -> false

(** True when every column reference of [e] resolves in [schema] (and [e]
    contains no stars or aggregates). *)
let resolves (schema : Schema.t) (e : Sql.Ast.expr) : bool =
  let cols = Openivm_sql.Analysis.expr_columns [] e in
  (not (Sql.Ast.expr_contains_aggregate e))
  && List.for_all
    (fun (qualifier, name) ->
       name <> "*"
       &&
       match Schema.find_opt schema ~qualifier ~name with
       | Some _ -> true
       | None -> false
       | exception Error.Sql_error _ -> false)
    cols

(* --- static type inference (best effort, for DDL generation) --- *)

let rec infer_type (schema : Schema.t) (e : Sql.Ast.expr) : Sql.Ast.typ =
  match e with
  | Sql.Ast.Lit (Sql.Ast.L_int _) -> Sql.Ast.T_int
  | Sql.Ast.Lit (Sql.Ast.L_float _) -> Sql.Ast.T_float
  | Sql.Ast.Lit (Sql.Ast.L_string _) -> Sql.Ast.T_text
  | Sql.Ast.Lit (Sql.Ast.L_bool _) -> Sql.Ast.T_bool
  | Sql.Ast.Lit Sql.Ast.L_null -> Sql.Ast.T_int
  | Sql.Ast.Column (qualifier, name) ->
    (match Schema.find_opt schema ~qualifier ~name with
     | Some (_, c) -> c.Schema.typ
     | None -> Sql.Ast.T_int)
  | Sql.Ast.Star -> Sql.Ast.T_int
  | Sql.Ast.Unary (Sql.Ast.Neg, a) -> infer_type schema a
  | Sql.Ast.Unary (Sql.Ast.Not, _) -> Sql.Ast.T_bool
  | Sql.Ast.Binary ((Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul), a, b) ->
    (match infer_type schema a, infer_type schema b with
     | Sql.Ast.T_float, _ | _, Sql.Ast.T_float -> Sql.Ast.T_float
     | Sql.Ast.T_date, _ -> Sql.Ast.T_date
     | ta, _ -> ta)
  | Sql.Ast.Binary (Sql.Ast.Div, _, _) -> Sql.Ast.T_float
  | Sql.Ast.Binary (Sql.Ast.Mod, _, _) -> Sql.Ast.T_int
  | Sql.Ast.Binary (Sql.Ast.Concat, _, _) -> Sql.Ast.T_text
  | Sql.Ast.Binary
      ( ( Sql.Ast.Eq | Sql.Ast.Neq | Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt
        | Sql.Ast.Ge | Sql.Ast.And | Sql.Ast.Or ),
        _, _ ) ->
    Sql.Ast.T_bool
  | Sql.Ast.Func (name, args) ->
    (match name with
     | "lower" | "upper" | "substr" | "substring" | "concat" -> Sql.Ast.T_text
     | "length" | "floor" | "ceil" | "ceiling" | "sign" | "year" | "month"
     | "day" ->
       Sql.Ast.T_int
     | "sqrt" | "power" | "pow" -> Sql.Ast.T_float
     | "coalesce" | "ifnull" | "nullif" | "greatest" | "least" | "abs"
     | "round" ->
       (match args with
        | a :: _ -> infer_type schema a
        | [] -> Sql.Ast.T_int)
     | _ -> Sql.Ast.T_int)
  | Sql.Ast.Aggregate (Sql.Ast.Count, _, _) -> Sql.Ast.T_int
  | Sql.Ast.Aggregate (Sql.Ast.Avg, _, _) -> Sql.Ast.T_float
  | Sql.Ast.Aggregate ((Sql.Ast.Sum | Sql.Ast.Min | Sql.Ast.Max), _, arg) ->
    (match arg with
     | Some a -> infer_type schema a
     | None -> Sql.Ast.T_int)
  | Sql.Ast.Case (branches, default) ->
    (match branches, default with
     | (_, v) :: _, _ -> infer_type schema v
     | [], Some d -> infer_type schema d
     | [], None -> Sql.Ast.T_int)
  | Sql.Ast.Cast (_, t) -> t
  | Sql.Ast.In_list _ | Sql.Ast.In_select _ | Sql.Ast.Between _
  | Sql.Ast.Is_null _ | Sql.Ast.Like _ ->
    Sql.Ast.T_bool
