type token =
  | IDENT of string
  | VAR of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | BOOL of bool
  | KW_EXT
  | KW_INT
  | KW_NOT
  | LPAREN | RPAREN | COMMA | AT | SEMI
  | COLONDASH
  | ASSIGN
  | EQ2 | NEQ | LT | LE | GT | GE
  | PLUS | MINUS | STAR | SLASH
  | EOF

type pos = { line : int; col : int }

exception Error of string * pos

type state = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable col : int;
}

let peek_at st k =
  if st.off + k < String.length st.src then Some st.src.[st.off + k] else None

let peek st = peek_at st 0
let peek2 st = peek_at st 1

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.off <- st.off + 1

let pos st = { line = st.line; col = st.col }
let error st msg = raise (Error (msg, pos st))

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  || Char.code c >= 0x80

let is_ident_char c = is_ident_start c || is_digit c || c = '\''

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some '#' ->
    skip_line st;
    skip_ws st
  | Some '/' -> (
    match peek2 st with
    | Some '/' ->
      skip_line st;
      skip_ws st
    | Some '*' ->
      advance st;
      advance st;
      skip_block st;
      skip_ws st
    | Some _ | None -> ())
  | Some _ | None -> ()

and skip_line st =
  match peek st with
  | Some '\n' -> advance st
  | Some _ ->
    advance st;
    skip_line st
  | None -> ()

and skip_block st =
  match peek st with
  | Some '*' when peek2 st = Some '/' ->
    advance st;
    advance st
  | Some _ ->
    advance st;
    skip_block st
  | None -> error st "unterminated block comment"

let lex_while st pred =
  let start = st.off in
  let rec go () =
    match peek st with
    | Some c when pred c ->
      advance st;
      go ()
    | Some _ | None -> ()
  in
  go ();
  String.sub st.src start (st.off - start)

let lex_number st =
  let intpart = lex_while st is_digit in
  let is_float = ref false in
  let frac =
    match peek st with
    | Some '.' ->
      is_float := true;
      advance st;
      "." ^ lex_while st is_digit
    | Some _ | None -> ""
  in
  (* An exponent needs a digit after its optional sign; otherwise the
     number ends before the [e], as in [4ex] or [4e+]. *)
  let exp =
    let sign = match peek2 st with Some ('+' | '-') -> 1 | _ -> 0 in
    match (peek st, peek_at st (1 + sign)) with
    | Some ('e' | 'E'), Some c when is_digit c ->
      is_float := true;
      let head = String.sub st.src (st.off + 1) sign in
      for _ = 0 to sign do advance st done;
      "e" ^ head ^ lex_while st is_digit
    | _ -> ""
  in
  let text = intpart ^ frac ^ exp in
  if !is_float then FLOAT (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> INT n
    | None when int_of_string_opt ("-" ^ text) = Some min_int ->
      (* [max_int + 1]: the parser negates it to [min_int] after a
         unary minus, and reads it as a float otherwise. *)
      INT min_int
    | None -> FLOAT (float_of_string text)

let lex_string st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some 'n' -> Buffer.add_char buf '\n'; advance st; go ()
      | Some 't' -> Buffer.add_char buf '\t'; advance st; go ()
      | Some 'r' -> Buffer.add_char buf '\r'; advance st; go ()
      | Some '"' -> Buffer.add_char buf '"'; advance st; go ()
      | Some '\\' -> Buffer.add_char buf '\\'; advance st; go ()
      | Some c -> error st (Printf.sprintf "invalid escape '\\%c'" c)
      | None -> error st "unterminated string literal")
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  STRING (Buffer.contents buf)

let keyword = function
  | "ext" -> KW_EXT
  | "int" -> KW_INT
  | "not" -> KW_NOT
  | "true" -> BOOL true
  | "false" -> BOOL false
  | s -> IDENT s

let next_token_sp st =
  skip_ws st;
  let p = pos st in
  let tok =
    match peek st with
    | None -> EOF
    | Some '(' -> advance st; LPAREN
    | Some ')' -> advance st; RPAREN
    | Some ',' -> advance st; COMMA
    | Some '@' -> advance st; AT
    | Some ';' -> advance st; SEMI
    | Some '+' -> advance st; PLUS
    | Some '-' -> advance st; MINUS
    | Some '*' -> advance st; STAR
    | Some '/' -> advance st; SLASH
    | Some ':' -> (
      advance st;
      match peek st with
      | Some '-' -> advance st; COLONDASH
      | Some '=' -> advance st; ASSIGN
      | Some _ | None -> error st "expected ':-' or ':='")
    | Some '=' -> (
      advance st;
      match peek st with
      | Some '=' -> advance st; EQ2
      | Some _ | None -> EQ2 (* accept a single '=' as equality too *))
    | Some '!' -> (
      advance st;
      match peek st with
      | Some '=' -> advance st; NEQ
      | Some _ | None -> error st "expected '!='")
    | Some '<' -> (
      advance st;
      match peek st with
      | Some '=' -> advance st; LE
      | Some _ | None -> LT)
    | Some '>' -> (
      advance st;
      match peek st with
      | Some '=' -> advance st; GE
      | Some _ | None -> GT)
    | Some '$' -> (
      advance st;
      let name = lex_while st is_ident_char in
      if name = "" then error st "expected a variable name after '$'"
      else VAR name)
    | Some '"' -> lex_string st
    | Some c when is_digit c -> lex_number st
    | Some c when is_ident_start c -> keyword (lex_while st is_ident_char)
    | Some c -> error st (Printf.sprintf "unexpected character %C" c)
  in
  (tok, p, pos st)

let next_token st =
  let tok, p, _ = next_token_sp st in
  (tok, p)

let init src = { src; off = 0; line = 1; col = 1 }

let tokenize src =
  let st = init src in
  let rec go acc =
    let ((tok, _) as t) = next_token st in
    match tok with EOF -> List.rev (t :: acc) | _ -> go (t :: acc)
  in
  go []

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "identifier %s" s
  | VAR s -> Format.fprintf ppf "$%s" s
  | INT n when n = min_int -> Format.pp_print_string ppf "4611686018427387904"
  | INT n -> Format.pp_print_int ppf n
  | FLOAT f -> Format.pp_print_float ppf f
  | STRING s -> Format.fprintf ppf "%S" s
  | BOOL b -> Format.pp_print_bool ppf b
  | KW_EXT -> Format.pp_print_string ppf "ext"
  | KW_INT -> Format.pp_print_string ppf "int"
  | KW_NOT -> Format.pp_print_string ppf "not"
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | COMMA -> Format.pp_print_string ppf ","
  | AT -> Format.pp_print_string ppf "@"
  | SEMI -> Format.pp_print_string ppf ";"
  | COLONDASH -> Format.pp_print_string ppf ":-"
  | ASSIGN -> Format.pp_print_string ppf ":="
  | EQ2 -> Format.pp_print_string ppf "=="
  | NEQ -> Format.pp_print_string ppf "!="
  | LT -> Format.pp_print_string ppf "<"
  | LE -> Format.pp_print_string ppf "<="
  | GT -> Format.pp_print_string ppf ">"
  | GE -> Format.pp_print_string ppf ">="
  | PLUS -> Format.pp_print_string ppf "+"
  | MINUS -> Format.pp_print_string ppf "-"
  | STAR -> Format.pp_print_string ppf "*"
  | SLASH -> Format.pp_print_string ppf "/"
  | EOF -> Format.pp_print_string ppf "end of input"
