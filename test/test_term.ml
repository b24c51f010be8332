open Wdl_syntax
open Check

let fmt f x = Format.asprintf "%a" f x

let suite =
  [
    tc "term pp: variables and constants" (fun () ->
        Alcotest.check Alcotest.string "var" "$x" (fmt Term.pp (Term.var "x"));
        Alcotest.check Alcotest.string "int" "5" (fmt Term.pp (Term.int 5));
        Alcotest.check Alcotest.string "str" "\"a\"" (fmt Term.pp (Term.str "a")));
    tc "pp_name prints identifier-like strings bare" (fun () ->
        Alcotest.check Alcotest.string "bare" "pictures"
          (fmt Term.pp_name (Term.str "pictures"));
        Alcotest.check Alcotest.string "unicode" "Émilien"
          (fmt Term.pp_name (Term.str "Émilien"));
        Alcotest.check Alcotest.string "quoted" "\"has space\""
          (fmt Term.pp_name (Term.str "has space"));
        Alcotest.check Alcotest.string "keyword quoted" "\"not\""
          (fmt Term.pp_name (Term.str "not")));
    tc "is_ident rejects keywords, digits-first and empties" (fun () ->
        check_bool "ok" (Term.is_ident "selectedAttendee");
        check_bool "underscore" (Term.is_ident "_x1");
        check_bool "digit-first" (not (Term.is_ident "1abc"));
        check_bool "keyword" (not (Term.is_ident "ext"));
        check_bool "empty" (not (Term.is_ident ""));
        check_bool "space" (not (Term.is_ident "a b")));
    tc "vars" (fun () ->
        Alcotest.check (Alcotest.list Alcotest.string) "var" [ "x" ]
          (Term.vars (Term.var "x"));
        Alcotest.check (Alcotest.list Alcotest.string) "const" []
          (Term.vars (Term.int 1)));
    tc "subst: empty and binding" (fun () ->
        check_bool "empty" (Subst.is_empty Subst.empty);
        let s = Subst.bind_exn "x" (Value.Int 1) Subst.empty in
        check_bool "mem" (Subst.mem "x" s);
        check_bool "find" (Subst.find "x" s = Some (Value.Int 1));
        Alcotest.check Alcotest.int "cardinal" 1 (Subst.cardinal s));
    tc "subst: conflicting bind returns None" (fun () ->
        let s = Subst.bind_exn "x" (Value.Int 1) Subst.empty in
        check_bool "conflict" (Subst.bind "x" (Value.Int 2) s = None);
        check_bool "same ok" (Subst.bind "x" (Value.Int 1) s <> None));
    tc "subst: bind_exn raises on conflict" (fun () ->
        let s = Subst.bind_exn "x" (Value.Int 1) Subst.empty in
        Alcotest.check_raises "raises"
          (Invalid_argument "Subst.bind_exn: conflicting binding for $x")
          (fun () -> ignore (Subst.bind_exn "x" (Value.Int 2) s)));
    tc "subst: of_list detects conflicts" (fun () ->
        check_bool "ok" (Subst.of_list [ ("a", Value.Int 1); ("b", Value.Int 2) ] <> None);
        check_bool "conflict"
          (Subst.of_list [ ("a", Value.Int 1); ("a", Value.Int 2) ] = None));
    tc "subst: apply replaces bound, keeps unbound" (fun () ->
        let s = Subst.bind_exn "x" (Value.String "v") Subst.empty in
        check_bool "bound" (Subst.apply s (Term.var "x") = Term.str "v");
        check_bool "unbound" (Subst.apply s (Term.var "y") = Term.var "y");
        check_bool "const" (Subst.apply s (Term.int 3) = Term.int 3));
    tc "atom: vars in position order, deduplicated" (fun () ->
        let a =
          Atom.make ~rel:(Term.var "r") ~peer:(Term.var "p")
            [ Term.var "x"; Term.var "p"; Term.var "x"; Term.int 1 ]
        in
        Alcotest.check (Alcotest.list Alcotest.string) "vars" [ "r"; "p"; "x" ]
          (Atom.vars a));
    tc "atom: to_fact on ground atoms only" (fun () ->
        let ground = Atom.app "m" "p" [ Term.int 1; Term.str "a" ] in
        check_bool "ground" (Atom.to_fact ground <> None);
        let open_atom = Atom.app "m" "p" [ Term.var "x" ] in
        check_bool "open" (Atom.to_fact open_atom = None);
        let bad_name =
          Atom.make ~rel:(Term.Const (Value.Int 3)) ~peer:(Term.str "p") []
        in
        check_bool "bad name" (Atom.to_fact bad_name = None));
    tc "atom: of_fact round-trips" (fun () ->
        let f = Fact.make ~rel:"m" ~peer:"p" [ Value.Int 1; Value.String "s" ] in
        check_bool "roundtrip" (Atom.to_fact (Atom.of_fact f) = Some f));
    tc "rule: vars and rename avoid capture" (fun () ->
        let r =
          Parser.parse_rule "out@p($x, $y) :- a@p($x), b@p($y), $z := $x + 1"
        in
        Alcotest.check (Alcotest.list Alcotest.string) "vars" [ "x"; "y"; "z" ]
          (Rule.vars r);
        let r' = Rule.rename ~suffix:"_1" r in
        Alcotest.check (Alcotest.list Alcotest.string) "renamed"
          [ "x_1"; "y_1"; "z_1" ] (Rule.vars r'));
    tc "rule: subst produces the paper's residual" (fun () ->
        let r =
          Parser.parse_rule
            {|attendeePictures@Jules($id, $n, $o, $d) :-
                selectedAttendee@Jules($att), pictures@$att($id, $n, $o, $d)|}
        in
        let s = Subst.bind_exn "att" (Value.String "Émilien") Subst.empty in
        let residual =
          Rule.make ~head:r.Rule.head
            ~body:(List.map (Literal.subst s) (List.tl r.Rule.body))
        in
        let expected =
          Parser.parse_rule
            {|attendeePictures@Jules($id, $n, $o, $d) :-
                pictures@Émilien($id, $n, $o, $d)|}
        in
        check_bool "residual" (Rule.equal residual expected));
    tc "fact: make validates names" (fun () ->
        Alcotest.check_raises "empty rel"
          (Invalid_argument "Fact.make: empty relation name") (fun () ->
            ignore (Fact.make ~rel:"" ~peer:"p" []));
        Alcotest.check_raises "empty peer"
          (Invalid_argument "Fact.make: empty peer name") (fun () ->
            ignore (Fact.make ~rel:"m" ~peer:"" [])));
    tc "fact: ordering is rel, peer, args" (fun () ->
        let f1 = Fact.make ~rel:"a" ~peer:"z" [ Value.Int 9 ] in
        let f2 = Fact.make ~rel:"b" ~peer:"a" [ Value.Int 0 ] in
        check_bool "rel first" (Fact.compare f1 f2 < 0);
        let g1 = Fact.make ~rel:"a" ~peer:"p" [ Value.Int 1 ] in
        let g2 = Fact.make ~rel:"a" ~peer:"p" [ Value.Int 2 ] in
        check_bool "args last" (Fact.compare g1 g2 < 0));
  ]
