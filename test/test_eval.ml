open Wdl_syntax
open Wdl_store
open Wdl_eval
open Check

(* Build a database for peer "p" from program text (decls + facts). *)
let db_of src =
  let db = Database.create () in
  List.iter
    (function
      | Wdl_syntax.Program.Decl d ->
        (match Database.declare db d with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Format.asprintf "%a" Database.pp_error e))
      | Wdl_syntax.Program.Fact f ->
        (match Database.insert db ~rel:f.Fact.rel (Tuple.of_list f.Fact.args) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Format.asprintf "%a" Database.pp_error e))
      | Wdl_syntax.Program.Rule _ -> Alcotest.fail "db_of: rules not allowed here")
    (Parser.parse_program src);
  db

let run db srcs =
  match Fixpoint.run ~self:"p" db (List.map Parser.parse_rule srcs) with
  | Ok r -> r
  | Error e -> Alcotest.fail (Format.asprintf "%a" Stratify.pp_error e)

let rel_facts db rel =
  match Database.find db rel with
  | None -> []
  | Some info -> Relation.to_sorted_list info.Database.data

(* Both engines on their own copy of [src]'s database: Fixpoint's
   result and post-run [rel], then the facts Reference reports deducing
   and its post-run [rel]. *)
let both_engines src srcs rel =
  let db = db_of src and db_ref = db_of src in
  let r = run db srcs in
  match Reference.run ~self:"p" db_ref (List.map Parser.parse_rule srcs) with
  | Ok (_, deduced) -> (r, rel_facts db rel, deduced, rel_facts db_ref rel)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Stratify.pp_error e)

let tuples_of facts =
  List.sort Tuple.compare
    (List.map (fun (f : Fact.t) -> Tuple.of_list f.Fact.args) facts)

let chain_db n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "int tc@p(x, y);\n";
  for i = 0 to n - 2 do
    Buffer.add_string buf (Printf.sprintf "edge@p(%d, %d);\n" i (i + 1))
  done;
  db_of (Buffer.contents buf)

let tc_rules =
  [ "tc@p($x,$y) :- edge@p($x,$y)"; "tc@p($x,$z) :- tc@p($x,$y), edge@p($y,$z)" ]

let suite =
  [
    tc "a seed for a program of two strata is refused" (fun () ->
        let db = db_of "int w@p(x); int ok@p(x); a@p(1); b@p(1);" in
        let srcs = [ "w@p($x) :- a@p($x)"; "ok@p($x) :- b@p($x), not w@p($x)" ] in
        ignore (run db srcs);
        Alcotest.check_raises "seeded"
          (Invalid_argument "Fixpoint.run: seed for a program of more than one stratum")
          (fun () ->
            ignore
              (Fixpoint.run ~self:"p"
                 ~seed:{ Fixpoint.tuples = [ ("b", Tuple.of_list [ Value.Int 2 ]) ]; fresh = [] }
                 db (List.map Parser.parse_rule srcs))));
    tc "transitive closure on a chain" (fun () ->
        let n = 20 in
        let db = chain_db n in
        let r = run db tc_rules in
        check_int "tc size" (n * (n - 1) / 2) (List.length (rel_facts db "tc"));
        check_bool "iterations > 2" (r.Fixpoint.iterations > 2));
    tc "fixpoint and reference agree" (fun () ->
        let db1 = chain_db 12 and db2 = chain_db 12 in
        ignore (run db1 tc_rules);
        (match
           Reference.run ~self:"p" db2 (List.map Parser.parse_rule tc_rules)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Format.asprintf "%a" Stratify.pp_error e));
        check_bool "same tc"
          (List.equal Tuple.equal (rel_facts db1 "tc") (rel_facts db2 "tc")));
    tc "semi-naive derives each chain fact at most twice" (fun () ->
        (* On a chain every tc fact has one derivation per rule; an
           engine re-joining old facts each iteration (naive) would
           re-derive the closure once per iteration. *)
        let db = chain_db 12 in
        let r = run db tc_rules in
        check_bool "bounded derivations"
          (r.Fixpoint.derivations <= 2 * List.length (rel_facts db "tc")));
    tc "deduced facts are reported and inserted" (fun () ->
        let _, stored, deduced, ref_stored =
          both_engines "int v@p(x); a@p(1); a@p(2);" [ "v@p($x) :- a@p($x)" ] "v"
        in
        check_int "reference reports" 2 (List.length deduced);
        check_bool "reported = inserted"
          (List.equal Tuple.equal (tuples_of deduced) ref_stored);
        check_bool "fixpoint inserts the same"
          (List.equal Tuple.equal stored ref_stored));
    tc "extensional heads are induced, not inserted" (fun () ->
        let db = db_of "a@p(1);" in
        let r = run db [ "b@p($x) :- a@p($x)" ] in
        check_int "induced" 1 (List.length r.Fixpoint.induced);
        check_int "not stored yet" 0 (List.length (rel_facts db "b")));
    tc "remote heads become messages" (fun () ->
        let db = db_of "a@p(1); a@p(2);" in
        let r = run db [ "b@q($x) :- a@p($x)" ] in
        check_int "messages" 2 (List.length r.Fixpoint.messages);
        List.iter
          (fun (f : Fact.t) ->
            Alcotest.check Alcotest.string "dst" "q" f.Fact.peer)
          r.Fixpoint.messages);
    tc "remote body atom suspends with the right residual" (fun () ->
        let db = db_of {|sel@p("q1"); sel@p("q2");|} in
        let r =
          run db [ "v@p($x) :- sel@p($a), data@$a($x), more@p($x)" ]
        in
        check_int "suspensions" 2 (List.length r.Fixpoint.suspensions);
        let expected =
          Parser.parse_rule "v@p($x) :- data@q1($x), more@p($x)"
        in
        check_bool "residual for q1"
          (List.exists
             (fun (dst, rule) -> dst = "q1" && Rule.equal rule expected)
             r.Fixpoint.suspensions));
    tc "peer variable resolving to self continues locally" (fun () ->
        let db = db_of {|sel@p("p"); data@p(42); int v@p(x);|} in
        let r = run db [ "v@p($x) :- sel@p($a), data@$a($x)" ] in
        check_int "no suspension" 0 (List.length r.Fixpoint.suspensions);
        check_int "derived locally" 1 (List.length (rel_facts db "v")));
    tc "mixed self/remote bindings split correctly" (fun () ->
        let db = db_of {|sel@p("p"); sel@p("q"); data@p(1); int v@p(x);|} in
        let r = run db [ "v@p($x) :- sel@p($a), data@$a($x)" ] in
        check_int "one suspension" 1 (List.length r.Fixpoint.suspensions);
        check_int "one local" 1 (List.length (rel_facts db "v")));
    tc "stratified negation computes the complement" (fun () ->
        let db =
          db_of "int v@p(x); int w@p(x); a@p(1); a@p(2); a@p(3); b@p(2);"
        in
        ignore
          (run db
             [ "v@p($x) :- a@p($x), b@p($x)"; "w@p($x) :- a@p($x), not v@p($x)" ]);
        check_int "w = a minus v" 2 (List.length (rel_facts db "w")));
    tc "negation over extensional relations" (fun () ->
        let db = db_of "int v@p(x); a@p(1); a@p(2); blocked@p(1);" in
        ignore (run db [ "v@p($x) :- a@p($x), not blocked@p($x)" ]);
        check_int "v" 1 (List.length (rel_facts db "v")));
    tc "comparison builtins filter" (fun () ->
        let db = db_of "int big@p(x); n@p(1); n@p(5); n@p(10);" in
        ignore (run db [ "big@p($x) :- n@p($x), $x >= 5" ]);
        check_int "big" 2 (List.length (rel_facts db "big")));
    tc "assignment computes new values" (fun () ->
        let db = db_of "int doubled@p(x, y); n@p(3);" in
        ignore (run db [ "doubled@p($x, $y) :- n@p($x), $y := $x * 2" ]);
        check_bool "6"
          (List.equal Tuple.equal
             [ Tuple.of_list [ Value.Int 3; Value.Int 6 ] ]
             (rel_facts db "doubled")));
    tc "builtin type errors drop the valuation and report" (fun () ->
        let db = db_of {|int v@p(x); n@p(1); n@p("two");|} in
        let r = run db [ "v@p($y) :- n@p($x), $y := $x + 1" ] in
        check_int "derived" 1 (List.length (rel_facts db "v"));
        check_int "errors" 1 (List.length r.Fixpoint.errors));
    tc "relation variables enumerate local relations" (fun () ->
        let db =
          db_of
            {|int all@p(r, x); names@p("u"); names@p("v"); u@p(1); v@p(2); v@p(3);|}
        in
        ignore (run db [ "all@p($r, $x) :- names@p($r), $r@p($x)" ]);
        check_int "all" 3 (List.length (rel_facts db "all")));
    tc "variable relation name in the head" (fun () ->
        let db = db_of {|routes@p("left", 1); routes@p("right", 2);|} in
        let r = run db [ "$r@p($x) :- routes@p($r, $x)" ] in
        (* heads are extensional -> induced *)
        check_int "induced" 2 (List.length r.Fixpoint.induced);
        check_bool "left"
          (List.exists (fun (f : Fact.t) -> f.Fact.rel = "left") r.Fixpoint.induced));
    tc "peer variable bound to a non-name reports an error" (fun () ->
        let db = db_of "sel@p(42);" in
        let r = run db [ "v@q($x) :- sel@p($a), data@$a($x)" ] in
        check_int "no suspension" 0 (List.length r.Fixpoint.suspensions);
        check_bool "error"
          (List.exists
             (function Runtime_error.Not_a_name _ -> true | _ -> false)
             r.Fixpoint.errors));
    tc "an unbound peer variable is an error, not this peer" (fun () ->
        (* Unsafe rules reach the evaluator only through its API; an
           unbound peer slot must never compare equal to the peer's own
           (not yet seen) name id. *)
        let db = db_of "data@p(1); int v@p(x);" in
        let r = run db [ "v@p($x) :- data@$a($x)"; "w@$b($x) :- data@p($x)" ] in
        check_int "v empty" 0 (List.length (rel_facts db "v"));
        check_int "no messages" 0 (List.length r.Fixpoint.messages);
        check_int "two errors" 2
          (List.length
             (List.filter
                (function Runtime_error.Unbound_at_eval _ -> true | _ -> false)
                r.Fixpoint.errors)));
    tc "remote negation reports an error" (fun () ->
        let db = db_of "a@p(1);" in
        let r = run db [ "v@p($x) :- a@p($x), not b@q($x)" ] in
        check_bool "error"
          (List.exists
             (function Runtime_error.Remote_negation _ -> true | _ -> false)
             r.Fixpoint.errors));
    tc "arity mismatch in a body atom matches nothing" (fun () ->
        let db = db_of "a@p(1, 2); int v@p(x);" in
        ignore (run db [ "v@p($x) :- a@p($x)" ]);
        check_int "v empty" 0 (List.length (rel_facts db "v")));
    tc "suspensions deduplicate" (fun () ->
        let db = db_of {|sel@p("q"); sel2@p("q");|} in
        let r =
          run db
            [ "v@p($x) :- sel@p($a), data@$a($x)";
              "v@p($x) :- sel2@p($a), data@$a($x)" ]
        in
        (* Both rules produce the same residual for q. *)
        check_int "one" 1 (List.length r.Fixpoint.suspensions));
    tc "nonlinear rule (same relation twice)" (fun () ->
        let db = db_of "int tc2@p(x, y); edge@p(1,2); edge@p(2,3); edge@p(3,4);" in
        ignore
          (run db
             [ "tc2@p($x,$y) :- edge@p($x,$y)";
               "tc2@p($x,$z) :- tc2@p($x,$y), tc2@p($y,$z)" ]);
        check_int "tc2" 6 (List.length (rel_facts db "tc2")));
    tc "repeated variables in one atom" (fun () ->
        let db = db_of "int loop@p(x); e@p(1,1); e@p(1,2); e@p(3,3);" in
        ignore (run db [ "loop@p($x) :- e@p($x, $x)" ]);
        check_int "loops" 2 (List.length (rel_facts db "loop")));
    tc "mutually recursive views in one stratum" (fun () ->
        let db = db_of "int even@p(x); int odd@p(x); zero@p(0); succ@p(0,1); succ@p(1,2); succ@p(2,3);" in
        ignore
          (run db
             [ "even@p($x) :- zero@p($x)";
               "odd@p($y) :- even@p($x), succ@p($x,$y)";
               "even@p($y) :- odd@p($x), succ@p($x,$y)" ]);
        check_int "evens" 2 (List.length (rel_facts db "even"));
        check_int "odds" 2 (List.length (rel_facts db "odd")));
    tc "assignment feeds a later join key" (fun () ->
        let db = db_of "int v@p(x); n@p(1); n@p(2); m@p(2); m@p(4);" in
        ignore (run db [ "v@p($x) :- n@p($x), $y := $x * 2, m@p($y)" ]);
        check_int "both survive" 2 (List.length (rel_facts db "v")));
    tc "comparison between two computed expressions" (fun () ->
        let db = db_of "int v@p(x, y); n@p(2, 3); n@p(5, 1);" in
        ignore (run db [ "v@p($a, $b) :- n@p($a, $b), $a + 1 > $b * 1" ]);
        check_int "one row" 1 (List.length (rel_facts db "v")));
    tc "negation over a value produced by assignment" (fun () ->
        let db = db_of "int v@p(x); n@p(1); n@p(2); blocked@p(4);" in
        ignore
          (run db [ "v@p($x) :- n@p($x), $y := $x * 2, not blocked@p($y)" ]);
        (* x=2 gives y=4, blocked *)
        check_int "one" 1 (List.length (rel_facts db "v")));
    tc "seminaive recursion through a relation variable" (fun () ->
        (* The recursive atom's relation name comes from data. *)
        let db =
          db_of
            {|int tcv@p(x, y); names@p("edge"); names@p("tcv");
              edge@p(1,2); edge@p(2,3); edge@p(3,4);|}
        in
        ignore
          (run db
             [ "tcv@p($x,$y) :- edge@p($x,$y)";
               "tcv@p($x,$z) :- names@p($r), $r@p($x,$y), edge@p($y,$z)" ]);
        check_int "closure" 6 (List.length (rel_facts db "tcv")));
    tc "iterations grow with recursion depth" (fun () ->
        let r1 = run (chain_db 6) tc_rules in
        let r2 = run (chain_db 24) tc_rules in
        check_bool "depth-driven" (r2.Fixpoint.iterations > r1.Fixpoint.iterations));
    tc "one fact derived by many rules is deduced once" (fun () ->
        let r, stored, deduced, ref_stored =
          both_engines "int v@p(x); a@p(1); b@p(1);"
            [ "v@p($x) :- a@p($x)"; "v@p($x) :- b@p($x)" ]
            "v"
        in
        check_int "reference deduces once" 1 (List.length deduced);
        check_int "stored once" 1 (List.length stored);
        check_bool "same view" (List.equal Tuple.equal stored ref_stored);
        check_bool "but derived twice" (r.Fixpoint.derivations >= 2));
    tc "builtin-only body derives a constant head" (fun () ->
        let db = db_of "int flag@p(x);" in
        ignore (run db [ "flag@p(1) :- 1 == 1"; "flag@p(2) :- 1 > 2" ]);
        check_int "only the true one" 1 (List.length (rel_facts db "flag")));
    tc "runtime error reporting caps at 1000" (fun () ->
        let buf = Buffer.create 4096 in
        Buffer.add_string buf "int v@p(x);\n";
        for i = 1 to 1500 do
          Buffer.add_string buf (Printf.sprintf "n@p(\"s%d\");\n" i)
        done;
        let db = db_of (Buffer.contents buf) in
        let r = run db [ "v@p($y) :- n@p($x), $y := $x * 2" ] in
        check_int "capped" 1000 (List.length r.Fixpoint.errors));
    tc "extensional facts join with same-stage view facts" (fun () ->
        let db = db_of "int v@p(x); int w@p(x); base@p(1); keys@p(1);" in
        ignore
          (run db [ "v@p($x) :- base@p($x)"; "w@p($x) :- v@p($x), keys@p($x)" ]);
        check_int "joined" 1 (List.length (rel_facts db "w")));
  ]
