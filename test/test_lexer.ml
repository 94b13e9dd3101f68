open Openivm_sql

let toks src = List.map (fun p -> p.Lexer.tok) (Lexer.tokenize src)

let tok_list = Alcotest.testable
    (fun fmt t -> Format.pp_print_string fmt (Token.to_string t))
    ( = )

let check src expected () =
  Alcotest.(check (list tok_list)) src (expected @ [ Token.Eof ]) (toks src)

let check_fails src () =
  match Lexer.tokenize src with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.failf "expected lex error for %S" src

let suite =
  [ Util.tc "keywords are case-insensitive"
      (check "SeLeCt FROM where" [ Keyword "select"; Keyword "from"; Keyword "where" ]);
    Util.tc "identifiers lower-cased"
      (check "MyTable" [ Ident "mytable" ]);
    Util.tc "quoted identifiers preserve case"
      (check "\"MyTable\"" [ Quoted_ident "MyTable" ]);
    Util.tc "integer literal" (check "42" [ Int_lit 42 ]);
    Util.tc "float literal" (check "3.25" [ Float_lit 3.25 ]);
    Util.tc "float with exponent" (check "1e3" [ Float_lit 1000.0 ]);
    Util.tc "float trailing dot digits" (check "2.5e2" [ Float_lit 250.0 ]);
    Util.tc "leading-dot float" (check ".5" [ Float_lit 0.5 ]);
    Util.tc "string literal" (check "'hello'" [ String_lit "hello" ]);
    Util.tc "string with escaped quote"
      (check "'it''s'" [ String_lit "it's" ]);
    Util.tc "empty string" (check "''" [ String_lit "" ]);
    Util.tc "operators"
      (check "<> <= >= < > = != ||"
         [ Neq; Le; Ge; Lt; Gt; Eq; Neq; Concat_op ]);
    Util.tc "punctuation"
      (check "( ) , ; . *"
         [ Lparen; Rparen; Comma; Semicolon; Dot; Star ]);
    Util.tc "line comment skipped"
      (check "1 -- comment here\n2" [ Int_lit 1; Int_lit 2 ]);
    Util.tc "block comment skipped"
      (check "1 /* hi */ 2" [ Int_lit 1; Int_lit 2 ]);
    Util.tc "nested block comment"
      (check "1 /* a /* b */ c */ 2" [ Int_lit 1; Int_lit 2 ]);
    Util.tc "arithmetic tokens"
      (check "a+b-c*d/e%f"
         [ Ident "a"; Plus; Ident "b"; Minus; Ident "c"; Star; Ident "d";
           Slash; Ident "e"; Percent; Ident "f" ]);
    Util.tc "qualified name" (check "t.col" [ Ident "t"; Dot; Ident "col" ]);
    Util.tc "unterminated string fails" (check_fails "'abc");
    Util.tc "unterminated block comment fails" (check_fails "/* abc");
    Util.tc "unterminated quoted ident fails" (check_fails "\"abc");
    Util.tc "stray character fails" (check_fails "a $ b");
    Util.tc "integer literal above max_int fails"
      (check_fails "SELECT 9223372036854775807 + 1");
  ]
