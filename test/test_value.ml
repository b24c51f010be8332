open Wdl_syntax
open Check

let check = Alcotest.check

let reparse_value v =
  (* Values round-trip through fact syntax. *)
  let src = Format.asprintf "m@p(%a)" Value.pp v in
  match (Parser.parse_fact src).Fact.args with
  | [ v' ] -> v'
  | _ -> Alcotest.fail ("unexpected parse of " ^ src)

let bool' = Alcotest.bool
let roundtrip v = check bool' "round-trip" true (Value.equal v (reparse_value v))

let suite =
  [
    tc "compare: same-type ordering" (fun () ->
        check Alcotest.int "int" (-1) (Value.compare (Int 1) (Int 2));
        check bool' "str" true (Value.compare (String "a") (String "b") < 0);
        check bool' "float" true (Value.compare (Float 1.5) (Float 2.5) < 0);
        check bool' "bool" true (Value.compare (Bool false) (Bool true) < 0));
    tc "compare: cross-type is a total order by tag" (fun () ->
        check bool' "int<float" true (Value.compare (Int 99) (Float 0.) < 0);
        check bool' "float<string" true (Value.compare (Float 9.) (String "") < 0);
        check bool' "string<bool" true (Value.compare (String "z") (Bool false) < 0));
    tc "equal and hash agree" (fun () ->
        let pairs =
          [ (Value.Int 42, Value.Int 42); (String "x", String "x");
            (Float 1.5, Float 1.5); (Bool true, Bool true) ]
        in
        List.iter
          (fun (a, b) ->
            check bool' "equal" true (Value.equal a b);
            check Alcotest.int "hash" (Value.hash a) (Value.hash b))
          pairs);
    tc "pp round-trips ints" (fun () ->
        List.iter (fun n -> roundtrip (Int n)) [ 0; 1; -1; max_int; min_int ]);
    tc "pp round-trips strings with escapes" (fun () ->
        List.iter
          (fun s -> roundtrip (String s))
          [ ""; "plain"; "with \"quotes\""; "back\\slash"; "new\nline";
            "tab\tchar"; "Émilien" ]);
    tc "pp round-trips floats" (fun () ->
        List.iter
          (fun f -> roundtrip (Float f))
          [ 0.; 1.; -1.; 0.1; 3.14159; 1e100; -2.5e-8; 4.; infinity;
            neg_infinity ]);
    tc "pp round-trips bools" (fun () ->
        roundtrip (Bool true);
        roundtrip (Bool false));
    tc "float repr keeps full precision" (fun () ->
        let f = 0.1 +. 0.2 in
        match reparse_value (Float f) with
        | Float f' -> check (Alcotest.float 0.) "exact" f f'
        | _ -> Alcotest.fail "not a float");
    tc "as_name accepts non-empty strings only" (fun () ->
        check bool' "name" true (Value.as_name (String "p") = Some "p");
        check bool' "empty" true (Value.as_name (String "") = None);
        check bool' "int" true (Value.as_name (Int 3) = None);
        check bool' "bool" true (Value.as_name (Bool true) = None));
    tc "type_name" (fun () ->
        check Alcotest.string "int" "int" (Value.type_name (Int 0));
        check Alcotest.string "float" "float" (Value.type_name (Float 0.));
        check Alcotest.string "string" "string" (Value.type_name (String ""));
        check Alcotest.string "bool" "bool" (Value.type_name (Bool false)));
  ]
