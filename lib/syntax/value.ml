type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

let tag = function Int _ -> 0 | Float _ -> 1 | String _ -> 2 | Bool _ -> 3

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Int _ | Float _ | String _ | Bool _), _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash = function
  | Int x -> Hashtbl.hash (0, x)
  | Float x -> Hashtbl.hash (1, x)
  | String x -> Hashtbl.hash (2, x)
  | Bool x -> Hashtbl.hash (3, x)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s

(* Shortest decimal representation that parses back to the same float.
   The infinities are spelled as literals that overflow to them. *)
let float_repr x =
  if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else
    let short = Printf.sprintf "%.12g" x in
    let s =
      if float_of_string short = x then short else Printf.sprintf "%.17g" x
    in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else s ^ "."

let add_to_buffer buf = function
  | Int x -> Buffer.add_string buf (Int.to_string x)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let to_string v =
  let buf = Buffer.create 16 in
  add_to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let as_name = function
  | String s when String.length s > 0 -> Some s
  | Int _ | Float _ | String _ | Bool _ -> None

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Bool _ -> "bool"
