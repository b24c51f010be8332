open Wdl_syntax
open Check

let eval_ok s e =
  match Expr.eval s e with
  | Ok v -> v
  | Error err -> Alcotest.fail (Format.asprintf "%a" Expr.pp_error err)

let sub = Subst.bind_exn "x" (Value.Int 10) (Subst.bind_exn "y" (Value.Int 4) Subst.empty)

let suite =
  [
    tc "integer arithmetic" (fun () ->
        check_bool "add" (eval_ok sub (Expr.Add (Var "x", Var "y")) = Value.Int 14);
        check_bool "sub" (eval_ok sub (Expr.Sub (Var "x", Var "y")) = Value.Int 6);
        check_bool "mul" (eval_ok sub (Expr.Mul (Var "x", Var "y")) = Value.Int 40);
        check_bool "div" (eval_ok sub (Expr.Div (Var "x", Var "y")) = Value.Int 2));
    tc "mixed int/float promotes to float" (fun () ->
        let s = Subst.bind_exn "f" (Value.Float 2.5) Subst.empty in
        check_bool "add"
          (eval_ok s (Expr.Add (Var "f", Const (Value.Int 1))) = Value.Float 3.5));
    tc "string concatenation via +" (fun () ->
        let s = Subst.bind_exn "a" (Value.String "foo") Subst.empty in
        check_bool "concat"
          (eval_ok s (Expr.Add (Var "a", Const (Value.String "bar")))
          = Value.String "foobar"));
    tc "division by zero is an error" (fun () ->
        check_bool "int"
          (Result.is_error (Expr.eval sub (Expr.Div (Var "x", Const (Value.Int 0)))));
        check_bool "float"
          (Result.is_error
             (Expr.eval sub (Expr.Div (Var "x", Const (Value.Float 0.))))));
    tc "float results that would be NaN are errors" (fun () ->
        let inf = Expr.Const (Value.Float infinity) in
        List.iter
          (fun (label, e) -> check_bool label (Result.is_error (Expr.eval sub e)))
          [ ("inf - inf", Expr.Sub (inf, inf)); ("inf * 0", Expr.Mul (inf, Const (Value.Int 0)));
            ("inf / inf", Expr.Div (inf, inf)) ];
        check_bool "inf + 1 is inf"
          (eval_ok sub (Expr.Add (inf, Const (Value.Int 1))) = Value.Float infinity));
    tc "type errors" (fun () ->
        let s = Subst.bind_exn "b" (Value.Bool true) Subst.empty in
        check_bool "bool + int"
          (Result.is_error (Expr.eval s (Expr.Add (Var "b", Const (Value.Int 1)))));
        check_bool "string - string"
          (Result.is_error
             (Expr.eval Subst.empty
                (Expr.Sub (Const (Value.String "a"), Const (Value.String "b"))))));
    tc "unbound variable is an error" (fun () ->
        match Expr.eval Subst.empty (Expr.Var "zz") with
        | Error (Expr.Unbound_variable "zz") -> ()
        | Error e -> Alcotest.fail (Format.asprintf "%a" Expr.pp_error e)
        | Ok _ -> Alcotest.fail "expected error");
    tc "vars: first-occurrence order, deduplicated" (fun () ->
        let e = Expr.Add (Expr.Mul (Var "b", Var "a"), Var "b") in
        Alcotest.check (Alcotest.list Alcotest.string) "vars" [ "b"; "a" ]
          (Expr.vars e));
    tc "subst grounds only bound variables" (fun () ->
        let e = Expr.Add (Var "x", Var "free") in
        check_bool "partial"
          (Expr.subst sub e = Expr.Add (Const (Value.Int 10), Var "free")));
    tc "pp respects precedence and parses back" (fun () ->
        let cases =
          [ "$x + $y * $z"; "($x + $y) * $z"; "$x - $y - $z"; "$x / ($y + 1)" ]
        in
        List.iter
          (fun src ->
            let lit = Parser.parse_literal (src ^ " == 0") in
            let printed = Format.asprintf "%a" Literal.pp lit in
            let lit' = Parser.parse_literal printed in
            check_bool src (Literal.equal lit lit'))
          cases);
    tc "eval_cmp: numeric coercion and total order" (fun () ->
        check_bool "int<float" (Literal.eval_cmp Literal.Lt (Value.Int 1) (Value.Float 1.5));
        check_bool "float=int" (Literal.eval_cmp Literal.Eq (Value.Float 2.) (Value.Int 2));
        check_bool "neq strings"
          (Literal.eval_cmp Literal.Neq (Value.String "a") (Value.String "b"));
        check_bool "ge" (Literal.eval_cmp Literal.Ge (Value.Int 3) (Value.Int 3)));
  ]
