open Wdl_syntax
open Check

let toks src = List.map fst (Lexer.tokenize src)

let suite =
  [
    tc "token inventory" (fun () ->
        check_bool "all tokens"
          (toks {|m $x 1 2.5 "s" true ext int not ( ) , @ ; :- := == != < <= > >= + - * /|}
          = Lexer.
              [ IDENT "m"; VAR "x"; INT 1; FLOAT 2.5; STRING "s"; BOOL true;
                KW_EXT; KW_INT; KW_NOT; LPAREN; RPAREN; COMMA; AT; SEMI;
                COLONDASH; ASSIGN; EQ2; NEQ; LT; LE; GT; GE; PLUS; MINUS;
                STAR; SLASH; EOF ]));
    tc "numbers: int, float, exponent, trailing dot" (fun () ->
        check_bool "forms"
          (toks "7 7. 7.5 7e2 7.5e-2 7E+1"
          = Lexer.
              [ INT 7; FLOAT 7.; FLOAT 7.5; FLOAT 700.; FLOAT 0.075; FLOAT 70.;
                EOF ]);
        (* No digit after the exponent's sign: the number ends before
           the [e], as it does for [4ex]. *)
        check_bool "dangling exponent"
          (toks "4e+ 1.5E- 4ex"
          = Lexer.
              [ INT 4; IDENT "e"; PLUS; FLOAT 1.5; IDENT "E"; MINUS; INT 4;
                IDENT "ex"; EOF ]));
    tc "huge integer literal falls back to float" (fun () ->
        match toks "99999999999999999999999999" with
        | [ Lexer.FLOAT _; Lexer.EOF ] -> ()
        | _ -> Alcotest.fail "expected float fallback");
    tc "string escapes" (fun () ->
        check_bool "escapes"
          (toks {|"a\nb\tc\"d\\e\rf"|} = [ Lexer.STRING "a\nb\tc\"d\\e\rf"; Lexer.EOF ]));
    tc "comments of all three kinds" (fun () ->
        check_bool "stripped"
          (toks "1 // line\n2 # hash\n3 /* block\nstill */ 4"
          = Lexer.[ INT 1; INT 2; INT 3; INT 4; EOF ]));
    tc "division is not a comment" (fun () ->
        check_bool "slash" (toks "1 / 2" = Lexer.[ INT 1; SLASH; INT 2; EOF ]));
    tc "unicode identifiers" (fun () ->
        check_bool "accented" (toks "Émilien" = Lexer.[ IDENT "Émilien"; EOF ]));
    tc "positions: line and column" (fun () ->
        match Lexer.tokenize "m\n  $x" with
        | [ (Lexer.IDENT "m", p1); (Lexer.VAR "x", p2); (Lexer.EOF, _) ] ->
          check_int "line1" 1 p1.Lexer.line;
          check_int "col1" 1 p1.Lexer.col;
          check_int "line2" 2 p2.Lexer.line;
          check_int "col2" 3 p2.Lexer.col
        | _ -> Alcotest.fail "unexpected tokens");
    tc "errors carry positions" (fun () ->
        (try
           ignore (Lexer.tokenize "ok\n  \"unterminated");
           Alcotest.fail "expected error"
         with Lexer.Error (_, p) -> check_int "line" 2 p.Lexer.line);
        List.iter
          (fun src ->
            check_bool src
              (try ignore (Lexer.tokenize src); false with Lexer.Error _ -> true))
          [ "%"; "$"; "!x"; "/* open"; {|"bad \q"|} ]);
    tc "keywords only at full-word boundaries" (fun () ->
        check_bool "extra" (toks "extra" = Lexer.[ IDENT "extra"; EOF ]);
        check_bool "notx" (toks "notx" = Lexer.[ IDENT "notx"; EOF ]);
        check_bool "interned" (toks "internal" = Lexer.[ IDENT "internal"; EOF ]));
  ]
