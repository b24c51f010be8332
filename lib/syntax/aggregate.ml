type op = Count | Sum | Min | Max | Avg

type spec = {
  op : op;
  var : string;
}

let op_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"

let op_of_name = function
  | "count" -> Some Count
  | "sum" -> Some Sum
  | "min" -> Some Min
  | "max" -> Some Max
  | "avg" -> Some Avg
  | _ -> None

let pp ppf s = Format.fprintf ppf "%s($%s)" (op_name s.op) s.var

let numbers values =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Value.Int n :: rest -> go (float_of_int n :: acc) rest
    | Value.Float f :: rest -> go (f :: acc) rest
    | (Value.String _ | Value.Bool _) as v :: _ ->
      Error
        (Printf.sprintf "aggregate over non-numeric value %s" (Value.to_string v))
  in
  go [] values

let all_ints values =
  List.for_all (function Value.Int _ -> true | _ -> false) values

(* A float result; NaN (from infinities of both signs) has no literal,
   so it is an error, like division by zero in expressions. *)
let float op x =
  if Float.is_nan x then
    Error (Printf.sprintf "%s over infinities of both signs is not a number" (op_name op))
  else Ok (Value.Float x)

let apply op values =
  let values = List.sort Value.compare values in
  match op, values with
  | _, [] -> Error "aggregate over an empty group"
  | Count, _ -> Ok (Value.Int (List.length values))
  | Avg, _ ->
    Result.bind (numbers values) (fun ns ->
        float op (List.fold_left ( +. ) 0. ns /. float_of_int (List.length ns)))
  | Sum, _ ->
    Result.bind (numbers values) (fun ns ->
        let total = List.fold_left ( +. ) 0. ns in
        if all_ints values then Ok (Value.Int (int_of_float total))
        else float op total)
  | (Min | Max), first :: rest ->
    (* numeric coercion: compare as floats when int and float mix *)
    let cmp a b =
      match a, b with
      | Value.Int x, Value.Float y -> Float.compare (float_of_int x) y
      | Value.Float x, Value.Int y -> Float.compare x (float_of_int y)
      | a, b -> Value.compare a b
    in
    let wins = match op with Min -> fun c -> c < 0 | _ -> fun c -> c > 0 in
    Result.map
      (fun (_ : float list) ->
        List.fold_left (fun acc v -> if wins (cmp v acc) then v else acc) first rest)
      (numbers values)
