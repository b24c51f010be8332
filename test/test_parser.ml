open Wdl_syntax
open Check

let roundtrip_program src =
  let p = Parser.parse_program src in
  let printed = Format.asprintf "%a" Program.pp p in
  let p' = Parser.parse_program printed in
  check_bool ("round-trip: " ^ src)
    (List.equal
       (fun a b ->
         match a, b with
         | Program.Decl x, Program.Decl y -> Decl.equal x y
         | Program.Fact x, Program.Fact y -> Fact.equal x y
         | Program.Rule x, Program.Rule y -> Rule.equal x y
         | _, _ -> false)
       p p')

let fails src =
  match Parser.program src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail ("expected parse error: " ^ src)

let suite =
  [
    tc "facts with every value type" (fun () ->
        let f = Parser.parse_fact {|m@p(1, -2, 3.5, -0.25, "s", sym, true, false)|} in
        Alcotest.check Alcotest.int "arity" 8 (Fact.arity f);
        check_bool "neg int" (List.nth f.Fact.args 1 = Value.Int (-2));
        check_bool "neg float" (List.nth f.Fact.args 3 = Value.Float (-0.25));
        check_bool "bare symbol" (List.nth f.Fact.args 5 = Value.String "sym"));
    tc "unicode peer names" (fun () ->
        let f = Parser.parse_fact {|pictures@Émilien(32, "sea.jpg")|} in
        Alcotest.check Alcotest.string "peer" "Émilien" f.Fact.peer);
    tc "quoted names in relation/peer position" (fun () ->
        let f = Parser.parse_fact {|"my rel"@"peer 1"(1)|} in
        Alcotest.check Alcotest.string "rel" "my rel" f.Fact.rel;
        Alcotest.check Alcotest.string "peer" "peer 1" f.Fact.peer);
    tc "the paper's rules parse" (fun () ->
        List.iter
          (fun src -> ignore (Parser.parse_rule src))
          [
            {|attendeePictures@Jules($id, $name, $owner, $data) :-
                selectedAttendee@Jules($attendee),
                pictures@$attendee($id, $name, $owner, $data)|};
            {|$protocol@$attendee($attendee, $name, $id, $owner) :-
                selectedAttendee@Jules($attendee),
                communicate@$attendee($protocol),
                selectedPictures@Jules($name, $id, $owner)|};
            {|pictures@SigmodFB($id, $name, $owner, $data) :-
                pictures@sigmod($id, $name, $owner, $data),
                authorized@$owner("Facebook", $id, $owner)|};
            {|attendeePictures@Jules($id, $name, $owner, $data) :-
                selectedAttendee@Jules($attendee),
                pictures@$attendee($id, $name, $owner, $data),
                rate@$owner($id, 5)|};
          ]);
    tc "declarations" (fun () ->
        let p =
          Parser.parse_program
            "ext pictures@Jules(id, name); int view@Jules(id);"
        in
        match Program.decls p with
        | [ d1; d2 ] ->
          check_bool "ext" (d1.Decl.kind = Decl.Extensional);
          check_bool "int" (d2.Decl.kind = Decl.Intensional);
          Alcotest.check (Alcotest.list Alcotest.string) "cols"
            [ "id"; "name" ] d1.Decl.cols
        | _ -> Alcotest.fail "expected two declarations");
    tc "comments and optional semicolons" (fun () ->
        let p =
          Parser.parse_program
            {|// line comment
              # hash comment
              m@p(1) /* block
              comment */ ;;
              m@p(2)|}
        in
        Alcotest.check Alcotest.int "facts" 2 (List.length (Program.facts p)));
    tc "builtin literals" (fun () ->
        let r =
          Parser.parse_rule
            "out@p($x, $y) :- a@p($x), $y := $x * 2 + 1, $y > 5, $y != 7, not b@p($y)"
        in
        Alcotest.check Alcotest.int "body size" 5 (List.length r.Rule.body));
    tc "single = accepted as equality" (fun () ->
        match Parser.parse_literal "$x = 3" with
        | Literal.Cmp (Literal.Eq, _, _) -> ()
        | _ -> Alcotest.fail "expected equality");
    tc "empty body is a parse error" (fun () ->
        fails "m@p(1) :- ;");
    tc "non-ground facts rejected" (fun () -> fails "m@p($x);");
    tc "errors carry positions" (fun () ->
        match Parser.program "m@p(1);\nm@(2);" with
        | Error msg -> check_bool "line 2" (String.length msg > 0 &&
                                            String.sub msg 0 6 = "line 2")
        | Ok _ -> Alcotest.fail "expected error");
    tc "lexer errors" (fun () ->
        fails {|m@p("unterminated)|};
        fails {|m@p("bad \q escape")|};
        fails "m@p(1) %";
        fails "/* unterminated";
        fails "v@p(4e+);";
        fails "v@p(1.5E-);");
    tc "trailing garbage rejected" (fun () -> fails "m@p(1); )");
    tc "empty string name rejected" (fun () -> fails {|""@p(1)|});
    tc "program round-trips" (fun () ->
        List.iter roundtrip_program
          [
            "ext pictures@Jules(id, name, owner, data);";
            {|pictures@sigmod(32, "sea.jpg", "Émilien", "100");|};
            {|v@p($x) :- a@p($x), not b@p($x), $x > 1, $y := $x + 1;|};
            {|$r@$q($x) :- names@p($r), peers@p($q), data@p($x);|};
            {|m@p(-5, -2.5, true, "q\"uote");|};
          ]);
    tc "keywords cannot be bare names" (fun () ->
        fails "ext@p(1)";
        (* but quoted they can *)
        let f = Parser.parse_fact {|"ext"@p(1)|} in
        Alcotest.check Alcotest.string "rel" "ext" f.Fact.rel);
    tc "floats: forms" (fun () ->
        let f = Parser.parse_fact "m@p(1., 2.5, 1e3, 2.5e-2)" in
        check_bool "1." (List.nth f.Fact.args 0 = Value.Float 1.);
        check_bool "1e3" (List.nth f.Fact.args 2 = Value.Float 1000.);
        check_bool "2.5e-2" (List.nth f.Fact.args 3 = Value.Float 0.025));
    tc "parse_atom and parse_literal entry points" (fun () ->
        let a = Parser.parse_atom "m@$p($x)" in
        check_bool "peer var" (Term.is_var a.Atom.peer);
        match Parser.parse_literal "not m@p(1)" with
        | Literal.Neg _ -> ()
        | _ -> Alcotest.fail "expected negation");
  ]
