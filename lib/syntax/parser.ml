exception Error of string * Lexer.pos

(* Tokens are pulled from the lexer on demand (one token of lookahead,
   materialised lazily for [peek2]) — building the whole token list up
   front made parsing superlinear on large inputs: the list survives
   minor collections mid-lex and every cell gets promoted. *)
type state = {
  lex : Lexer.state;
  file : string;
  mutable cur : Lexer.token * Lexer.pos * Lexer.pos;
  mutable ahead : (Lexer.token * Lexer.pos * Lexer.pos) option;
  mutable last_stop : Lexer.pos;
      (* position just past the last consumed token: the end of the
         span of whatever construct just finished parsing *)
}

let tok3 (t, _, _) = t
let peek st = tok3 st.cur

let peek2 st =
  match st.ahead with
  | Some (tok, _, _) -> tok
  | None ->
    if tok3 st.cur = Lexer.EOF then Lexer.EOF
    else begin
      let t = Lexer.next_token_sp st.lex in
      st.ahead <- Some t;
      tok3 t
    end

let cur_pos st = match st.cur with _, p, _ -> p

let advance st =
  (match st.cur with _, _, stop -> st.last_stop <- stop);
  match st.ahead with
  | Some t ->
    st.cur <- t;
    st.ahead <- None
  | None ->
    if tok3 st.cur <> Lexer.EOF then st.cur <- Lexer.next_token_sp st.lex

(* Span of a construct that started at token position [start] and whose
   last token has just been consumed. *)
let span_from st (start : Lexer.pos) =
  Span.make ~file:st.file ~start_line:start.Lexer.line
    ~start_col:start.Lexer.col ~end_line:st.last_stop.Lexer.line
    ~end_col:st.last_stop.Lexer.col

let fail st msg = raise (Error (msg, cur_pos st))

let expect st tok what =
  if peek st = tok then advance st
  else
    fail st
      (Format.asprintf "expected %s but found %a" what Lexer.pp_token (peek st))

(* A name term: relation or peer position. *)
let name_term st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    Term.str s
  | Lexer.STRING s ->
    advance st;
    if s = "" then fail st "empty string cannot be a relation or peer name";
    Term.str s
  | Lexer.VAR x ->
    advance st;
    Term.Var x
  | tok ->
    fail st
      (Format.asprintf "expected a relation or peer name but found %a"
         Lexer.pp_token tok)

(* The constant a numeric literal denotes, [neg]ated after a unary
   minus. The lexer reads [max_int + 1] as [INT min_int]: negated it is
   [min_int] ([- min_int = min_int]), and alone the float it overflows
   to. *)
let number ~neg = function
  | Lexer.INT n when n = min_int && not neg ->
    Some (Value.Float (-.float_of_int min_int))
  | Lexer.INT n -> Some (Value.Int (if neg then -n else n))
  | Lexer.FLOAT f -> Some (Value.Float (if neg then -.f else f))
  | _ -> None

(* The literal after a unary minus that [st] has just consumed. *)
let negative st =
  match number ~neg:true (peek st) with
  | Some v -> advance st; v
  | None ->
    fail st
      (Format.asprintf "expected a number after '-' but found %a"
         Lexer.pp_token (peek st))

(* A term in argument position. Bare identifiers denote string values. *)
let term st =
  match peek st with
  | Lexer.STRING s -> advance st; Term.Const (Value.String s)
  | Lexer.BOOL b -> advance st; Term.Const (Value.Bool b)
  | Lexer.IDENT s -> advance st; Term.Const (Value.String s)
  | Lexer.VAR x -> advance st; Term.Var x
  | Lexer.MINUS -> advance st; Term.Const (negative st)
  | tok -> (
    match number ~neg:false tok with
    | Some v -> advance st; Term.Const v
    | None ->
      fail st (Format.asprintf "expected a term but found %a" Lexer.pp_token tok))

let comma_list st elem =
  if peek st = Lexer.RPAREN then []
  else
    let rec go acc =
      let x = elem st in
      if peek st = Lexer.COMMA then begin
        advance st;
        go (x :: acc)
      end
      else List.rev (x :: acc)
    in
    go []

let atom st =
  let rel = name_term st in
  expect st Lexer.AT "'@'";
  let peer = name_term st in
  expect st Lexer.LPAREN "'('";
  let args = comma_list st term in
  expect st Lexer.RPAREN "')'";
  Atom.make ~rel ~peer args

(* Rule heads additionally allow aggregate arguments: count($x), sum($x),
   min($x), max($x), avg($x). *)
type head_arg =
  | Plain of Term.t
  | Agg of Aggregate.spec

let head_arg st =
  match peek st, peek2 st with
  | Lexer.IDENT s, Lexer.LPAREN when Aggregate.op_of_name s <> None ->
    let op = Option.get (Aggregate.op_of_name s) in
    advance st;
    advance st;
    (match peek st with
    | Lexer.VAR v ->
      advance st;
      expect st Lexer.RPAREN "')'";
      Agg { Aggregate.op; var = v }
    | tok ->
      fail st
        (Format.asprintf "expected a variable inside %s(...) but found %a" s
           Lexer.pp_token tok))
  | _, _ -> Plain (term st)

let head_atom st =
  let rel = name_term st in
  expect st Lexer.AT "'@'";
  let peer = name_term st in
  expect st Lexer.LPAREN "'('";
  let args = comma_list st head_arg in
  expect st Lexer.RPAREN "')'";
  let terms =
    List.map
      (function Plain t -> t | Agg spec -> Term.Var spec.Aggregate.var)
      args
  in
  let aggs =
    List.concat
      (List.mapi
         (fun i -> function Agg spec -> [ (i, spec) ] | Plain _ -> [])
         args)
  in
  (Atom.make ~rel ~peer terms, aggs)

(* Expressions (for builtins): + - * / with usual precedence. *)
let rec expr st =
  let lhs = expr_term st in
  expr_rest st lhs

and expr_rest st lhs =
  match peek st with
  | Lexer.PLUS ->
    advance st;
    expr_rest st (Expr.Add (lhs, expr_term st))
  | Lexer.MINUS ->
    advance st;
    expr_rest st (Expr.Sub (lhs, expr_term st))
  | _ -> lhs

and expr_term st =
  let lhs = expr_factor st in
  expr_term_rest st lhs

and expr_term_rest st lhs =
  match peek st with
  | Lexer.STAR ->
    advance st;
    expr_term_rest st (Expr.Mul (lhs, expr_factor st))
  | Lexer.SLASH ->
    advance st;
    expr_term_rest st (Expr.Div (lhs, expr_factor st))
  | _ -> lhs

and expr_factor st =
  match peek st with
  | Lexer.STRING s -> advance st; Expr.Const (Value.String s)
  | Lexer.BOOL b -> advance st; Expr.Const (Value.Bool b)
  | Lexer.VAR x -> advance st; Expr.Var x
  | Lexer.MINUS -> (
    advance st;
    (* Fold unary minus on numeric literals into the constant. *)
    match number ~neg:true (peek st) with
    | Some v -> advance st; Expr.Const v
    | None -> Expr.Sub (Expr.Const (Value.Int 0), expr_factor st))
  | Lexer.LPAREN ->
    advance st;
    let e = expr st in
    expect st Lexer.RPAREN "')'";
    e
  | tok -> (
    match number ~neg:false tok with
    | Some v -> advance st; Expr.Const v
    | None ->
      fail st
        (Format.asprintf "expected an expression but found %a" Lexer.pp_token
           tok))

let cmpop st =
  match peek st with
  | Lexer.EQ2 -> advance st; Some Literal.Eq
  | Lexer.NEQ -> advance st; Some Literal.Neq
  | Lexer.LT -> advance st; Some Literal.Lt
  | Lexer.LE -> advance st; Some Literal.Le
  | Lexer.GT -> advance st; Some Literal.Gt
  | Lexer.GE -> advance st; Some Literal.Ge
  | _ -> None

(* An atom starts with a name term followed by '@'. *)
let starts_atom st =
  match peek st, peek2 st with
  | (Lexer.IDENT _ | Lexer.STRING _ | Lexer.VAR _), Lexer.AT -> true
  | _, _ -> false

let literal st =
  match peek st with
  | Lexer.KW_NOT ->
    advance st;
    Literal.Neg (atom st)
  | Lexer.VAR x when peek2 st = Lexer.ASSIGN ->
    advance st;
    advance st;
    Literal.Assign (x, expr st)
  | _ ->
    if starts_atom st then Literal.Pos (atom st)
    else
      let e1 = expr st in
      (match cmpop st with
      | Some op -> Literal.Cmp (op, e1, expr st)
      | None ->
        fail st
          (Format.asprintf "expected a comparison operator but found %a"
             Lexer.pp_token (peek st)))

let ident st what =
  match peek st with
  | Lexer.IDENT s -> advance st; s
  | Lexer.STRING s when s <> "" -> advance st; s
  | tok -> fail st (Format.asprintf "expected %s but found %a" what Lexer.pp_token tok)

let decl st kind =
  advance st (* ext / int *);
  let rel = ident st "a relation name" in
  expect st Lexer.AT "'@'";
  let peer = ident st "a peer name" in
  expect st Lexer.LPAREN "'('";
  let cols = comma_list st (fun st -> ident st "a column name") in
  expect st Lexer.RPAREN "')'";
  Decl.make ~kind ~rel ~peer cols

(* Builtin-module parameter values: ground constants only. *)
let param_value st =
  match peek st with
  | Lexer.STRING s -> advance st; Value.String s
  | Lexer.BOOL b -> advance st; Value.Bool b
  | Lexer.IDENT s -> advance st; Value.String s
  | Lexer.MINUS -> advance st; negative st
  | tok -> (
    match number ~neg:false tok with
    | Some v -> advance st; v
    | None ->
      fail st
        (Format.asprintf "expected a parameter value but found %a"
           Lexer.pp_token tok))

(* [builtin <kind> rel@peer(cols) with k=v, …] — "builtin" and "with"
   are contextual (not reserved words): a statement starting with the
   identifier [builtin] is only a declaration when the next token is
   not '@', so facts and rules over a relation named builtin parse as
   before. *)
let builtin_decl st =
  advance st (* builtin *);
  let bkind = ident st "a builtin module kind" in
  let rel = ident st "a relation name" in
  expect st Lexer.AT "'@'";
  let peer = ident st "a peer name" in
  expect st Lexer.LPAREN "'('";
  let cols = comma_list st (fun st -> ident st "a column name") in
  expect st Lexer.RPAREN "')'";
  let params =
    match peek st with
    | Lexer.IDENT "with" ->
      advance st;
      let rec go acc =
        let k = ident st "a parameter name" in
        expect st Lexer.EQ2 "'='";
        let v = param_value st in
        if peek st = Lexer.COMMA then begin
          advance st;
          go ((k, v) :: acc)
        end
        else List.rev ((k, v) :: acc)
      in
      go []
    | _ -> []
  in
  Decl.make
    ~builtin:{ Decl.bkind; params }
    ~kind:Decl.Extensional ~rel ~peer cols

let fact_of_atom st a =
  match Atom.to_fact a with
  | Some f -> f
  | None -> fail st "a fact must be ground (no variables)"

(* Body with one span per literal. *)
let body_sp st =
  let rec go acc =
    let start = cur_pos st in
    let l = literal st in
    let sp = span_from st start in
    if peek st = Lexer.COMMA then begin
      advance st;
      go ((l, sp) :: acc)
    end
    else List.rev ((l, sp) :: acc)
  in
  go []

let rule_tail st ~start ~head_span head aggs =
  let lits = body_sp st in
  let body = List.map fst lits and lit_spans = List.map snd lits in
  {
    Located.rule = Rule.make_agg ~aggs ~head ~body;
    span = span_from st start;
    head_span;
    lit_spans;
  }

let statement_sp st =
  let start = cur_pos st in
  match peek st with
  | Lexer.KW_EXT ->
    let d = decl st Decl.Extensional in
    Located.Decl { Located.node = d; span = span_from st start }
  | Lexer.KW_INT ->
    let d = decl st Decl.Intensional in
    Located.Decl { Located.node = d; span = span_from st start }
  | Lexer.IDENT "builtin" when peek2 st <> Lexer.AT ->
    let d = builtin_decl st in
    Located.Decl { Located.node = d; span = span_from st start }
  | _ ->
    let head, aggs = head_atom st in
    let head_span = span_from st start in
    if peek st = Lexer.COLONDASH then begin
      advance st;
      Located.Rule (rule_tail st ~start ~head_span head aggs)
    end
    else if aggs <> [] then fail st "a fact cannot contain aggregates"
    else
      Located.Fact
        { Located.node = fact_of_atom st head; span = span_from st start }

let program_toks st =
  let rec go acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | Lexer.SEMI ->
      advance st;
      go acc
    | _ ->
      let s = statement_sp st in
      (match peek st with
      | Lexer.SEMI -> advance st
      | Lexer.EOF -> ()
      | tok ->
        fail st
          (Format.asprintf "expected ';' or end of input but found %a"
             Lexer.pp_token tok));
      go (s :: acc)
  in
  go []

let with_state ?(file = "<string>") src f =
  (* Lexer errors can now surface at any pull, not just up front. *)
  try
    let lex = Lexer.init src in
    let start = { Lexer.line = 1; col = 1 } in
    let st =
      { lex; file; cur = Lexer.next_token_sp lex; ahead = None;
        last_stop = start }
    in
    let x = f st in
    (match peek st with
    | Lexer.EOF -> ()
    | tok ->
      fail st
        (Format.asprintf "trailing input starting at %a" Lexer.pp_token tok));
    x
  with Lexer.Error (msg, p) -> raise (Error (msg, p))

let parse_program_located ?file src = with_state ?file src program_toks
let parse_program src = Located.strip (parse_program_located src)

let parse_rule_located ?file src =
  with_state ?file src (fun st ->
      let start = cur_pos st in
      let head, aggs = head_atom st in
      let head_span = span_from st start in
      expect st Lexer.COLONDASH "':-'";
      let r = rule_tail st ~start ~head_span head aggs in
      if peek st = Lexer.SEMI then advance st;
      r)

let parse_rule src = (parse_rule_located src).Located.rule

let parse_fact src =
  with_state src (fun st ->
      let a = atom st in
      if peek st = Lexer.SEMI then advance st;
      fact_of_atom st a)

let parse_atom src = with_state src atom
let parse_literal src = with_state src literal

let wrap f src =
  match f src with
  | x -> Ok x
  | exception Error (msg, p) ->
    Result.Error (Printf.sprintf "line %d, col %d: %s" p.Lexer.line p.Lexer.col msg)

let program src = wrap parse_program src
let rule src = wrap parse_rule src
let fact src = wrap parse_fact src

let program_located ?file src =
  match parse_program_located ?file src with
  | p -> Ok p
  | exception Error (msg, p) -> Result.Error (msg, p)
