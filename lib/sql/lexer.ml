(** Hand-written SQL lexer.

    Produces a list of positioned tokens. Comments ([-- ...] and [/* ... */])
    and whitespace are skipped. String literals use single quotes with ['']
    as the escape for a quote. *)

exception Error of string * int (** message, byte offset *)

type positioned = {
  tok : Token.t;
  pos : int;   (** byte offset of the token's first character *)
  stop : int;  (** byte offset one past the token's last character *)
}

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize (src : string) : positioned list =
  let n = String.length src in
  let toks = ref [] in
  let emit tok pos stop = toks := { tok; pos; stop } :: !toks in
  let rec skip_block_comment i depth =
    if i + 1 >= n then raise (Error ("unterminated block comment", i))
    else if src.[i] = '*' && src.[i + 1] = '/' then
      if depth = 1 then i + 2 else skip_block_comment (i + 2) (depth - 1)
    else if src.[i] = '/' && src.[i + 1] = '*' then
      skip_block_comment (i + 2) (depth + 1)
    else skip_block_comment (i + 1) depth
  in
  let rec scan i =
    if i >= n then emit Token.Eof i i
    else
      let c = src.[i] in
      match c with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '-' ->
        let rec eol j = if j >= n || src.[j] = '\n' then j else eol (j + 1) in
        scan (eol (i + 2))
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
        scan (skip_block_comment (i + 2) 1)
      | '(' -> emit Lparen i (i + 1); scan (i + 1)
      | ')' -> emit Rparen i (i + 1); scan (i + 1)
      | ',' -> emit Comma i (i + 1); scan (i + 1)
      | ';' -> emit Semicolon i (i + 1); scan (i + 1)
      | '.' when not (i + 1 < n && is_digit src.[i + 1]) ->
        emit Dot i (i + 1); scan (i + 1)
      | '*' -> emit Star i (i + 1); scan (i + 1)
      | '+' -> emit Plus i (i + 1); scan (i + 1)
      | '-' -> emit Minus i (i + 1); scan (i + 1)
      | '/' -> emit Slash i (i + 1); scan (i + 1)
      | '%' -> emit Percent i (i + 1); scan (i + 1)
      | '=' -> emit Eq i (i + 1); scan (i + 1)
      | '!' when i + 1 < n && src.[i + 1] = '=' -> emit Neq i (i + 2); scan (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '>' -> emit Neq i (i + 2); scan (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '=' -> emit Le i (i + 2); scan (i + 2)
      | '<' -> emit Lt i (i + 1); scan (i + 1)
      | '>' when i + 1 < n && src.[i + 1] = '=' -> emit Ge i (i + 2); scan (i + 2)
      | '>' -> emit Gt i (i + 1); scan (i + 1)
      | '|' when i + 1 < n && src.[i + 1] = '|' ->
        emit Concat_op i (i + 2); scan (i + 2)
      | '\'' -> scan_string i
      | '"' -> scan_quoted_ident i
      | c when is_digit c || c = '.' -> scan_number i
      | c when is_ident_start c -> scan_word i
      | c -> raise (Error (Printf.sprintf "unexpected character %C" c, i))
  and scan_string start =
    let buf = Buffer.create 16 in
    let rec go j =
      if j >= n then raise (Error ("unterminated string literal", start))
      else if src.[j] = '\'' then
        if j + 1 < n && src.[j + 1] = '\'' then begin
          Buffer.add_char buf '\''; go (j + 2)
        end else begin
          emit (String_lit (Buffer.contents buf)) start (j + 1);
          scan (j + 1)
        end
      else begin Buffer.add_char buf src.[j]; go (j + 1) end
    in
    go (start + 1)
  and scan_quoted_ident start =
    let rec find j =
      if j >= n then raise (Error ("unterminated quoted identifier", start))
      else if src.[j] = '"' then j
      else find (j + 1)
    in
    let close = find (start + 1) in
    emit (Quoted_ident (String.sub src (start + 1) (close - start - 1)))
      start (close + 1);
    scan (close + 1)
  and scan_number start =
    let rec digits j = if j < n && is_digit src.[j] then digits (j + 1) else j in
    let int_end = digits start in
    let frac_end =
      if int_end < n && src.[int_end] = '.' then digits (int_end + 1)
      else int_end
    in
    let exp_end =
      if frac_end < n && (src.[frac_end] = 'e' || src.[frac_end] = 'E') then begin
        let j = frac_end + 1 in
        let j = if j < n && (src.[j] = '+' || src.[j] = '-') then j + 1 else j in
        let j' = digits j in
        if j' = j then raise (Error ("malformed float exponent", frac_end));
        j'
      end else frac_end
    in
    let text = String.sub src start (exp_end - start) in
    if exp_end = frac_end && frac_end = int_end then begin
      match int_of_string_opt text with
      | Some v -> emit (Int_lit v) start exp_end
      | None -> raise (Error ("integer literal out of range", start))
    end
    else
      emit (Float_lit (float_of_string text)) start exp_end;
    scan exp_end
  and scan_word start =
    let rec go j = if j < n && is_ident_char src.[j] then go (j + 1) else j in
    let stop = go start in
    let word = String.lowercase_ascii (String.sub src start (stop - start)) in
    if Token.is_keyword word then emit (Keyword word) start stop
    else emit (Ident word) start stop;
    scan stop
  in
  scan 0;
  List.rev !toks
