type t =
  | Const of Value.t
  | Var of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t

type error =
  | Unbound_variable of string
  | Type_error of string

let ( let* ) = Result.bind

let numeric op_name fi ff a b =
  let float x y =
    let r = ff x y in
    if Float.is_nan r then
      Error
        (Type_error
           (Printf.sprintf "%s %s %s is not a number" (Value.to_string a)
              op_name (Value.to_string b)))
    else Ok (Value.Float r)
  in
  match a, b with
  | Value.Int x, Value.Int y -> Ok (Value.Int (fi x y))
  | Value.Float x, Value.Float y -> float x y
  | Value.Int x, Value.Float y -> float (float_of_int x) y
  | Value.Float x, Value.Int y -> float x (float_of_int y)
  | a, b ->
    Error
      (Type_error
         (Printf.sprintf "%s expects numbers, got %s and %s" op_name
            (Value.type_name a) (Value.type_name b)))

let add a b =
  match a, b with
  | Value.String x, Value.String y -> Ok (Value.String (x ^ y))
  | a, b -> numeric "+" ( + ) ( +. ) a b

let sub = numeric "-" ( - ) ( -. )
let mul = numeric "*" ( * ) ( *. )

let div a b =
  match b with
  | Value.Int 0 -> Error (Type_error "division by zero")
  | Value.Float f when f = 0. -> Error (Type_error "division by zero")
  | b -> numeric "/" ( / ) ( /. ) a b

let rec eval s = function
  | Const v -> Ok v
  | Var x -> (
    match Subst.find x s with
    | Some v -> Ok v
    | None -> Error (Unbound_variable x))
  | Add (a, b) -> binary add s a b
  | Sub (a, b) -> binary sub s a b
  | Mul (a, b) -> binary mul s a b
  | Div (a, b) -> binary div s a b

and binary op s a b =
  let* va = eval s a in
  let* vb = eval s b in
  op va vb

let vars e =
  let rec go acc = function
    | Const _ -> acc
    | Var x -> if List.mem x acc then acc else x :: acc
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> go (go acc a) b
  in
  List.rev (go [] e)

let rec subst s = function
  | Const _ as e -> e
  | Var x as e -> (
    match Subst.find x s with Some v -> Const v | None -> e)
  | Add (a, b) -> Add (subst s a, subst s b)
  | Sub (a, b) -> Sub (subst s a, subst s b)
  | Mul (a, b) -> Mul (subst s a, subst s b)
  | Div (a, b) -> Div (subst s a, subst s b)

let compare = Stdlib.compare
let equal a b = compare a b = 0

(* Precedence: Add/Sub = 1, Mul/Div = 2, atoms = 3. *)
let rec pp_prec prec ppf e =
  let paren p fmt =
    if p < prec then Format.fprintf ppf ("(" ^^ fmt ^^ ")")
    else Format.fprintf ppf fmt
  in
  match e with
  | Const v -> Value.pp ppf v
  | Var x -> Format.fprintf ppf "$%s" x
  | Add (a, b) -> paren 1 "%a + %a" (pp_prec 1) a (pp_prec 2) b
  | Sub (a, b) -> paren 1 "%a - %a" (pp_prec 1) a (pp_prec 2) b
  | Mul (a, b) -> paren 2 "%a * %a" (pp_prec 2) a (pp_prec 3) b
  | Div (a, b) -> paren 2 "%a / %a" (pp_prec 2) a (pp_prec 3) b

let pp = pp_prec 0

let pp_error ppf = function
  | Unbound_variable x -> Format.fprintf ppf "unbound variable $%s" x
  | Type_error msg -> Format.pp_print_string ppf msg
