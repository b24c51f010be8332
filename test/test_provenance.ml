(* Why-provenance: the §2 access-control model keeps provenance of
   derived relations; Peer.explain exposes it. *)
open Wdl_syntax
open Webdamlog
open Check

let tracked src =
  let p = Peer.create "p" in
  Peer.set_track_provenance p true;
  ok' (Peer.load_string p src);
  ignore (Peer.stage p);
  p

let fact rel args = Fact.make ~rel ~peer:"p" args

let suite =
  [
    tc "stored facts explain as Base" (fun () ->
        let p = tracked "m@p(1);" in
        check_bool "base" (Peer.explain p (fact "m" [ Value.Int 1 ]) = Peer.Base));
    tc "view facts explain with rule and premises" (fun () ->
        let p =
          tracked
            "int v@p(x); a@p(1); b@p(1); v@p($x) :- a@p($x), b@p($x);"
        in
        match Peer.explain p (fact "v" [ Value.Int 1 ]) with
        | Peer.Derived d ->
          check_int "two premises" 2 (List.length d.Wdl_eval.Fixpoint.premises);
          check_bool "premise a"
            (List.exists (Fact.equal (fact "a" [ Value.Int 1 ]))
               d.Wdl_eval.Fixpoint.premises)
        | _ -> Alcotest.fail "expected Derived");
    tc "premises follow the written rule, not the planned order" (fun () ->
        let rule = "v@p($x) :- big@p($x), small@p($x)" in
        let big = String.concat " " (List.init 20 (Printf.sprintf "big@p(%d);")) in
        (* The planner leads with the smaller relation. *)
        (match
           (Wdl_eval.Plan.order_body ~self:"p"
              ~stats:(function "big" -> 20 | "small" -> 1 | _ -> 0)
              (Parser.parse_rule rule)).Rule.body
         with
        | Literal.Pos a :: _ ->
          check_bool "small first" (a.Atom.rel = Term.Const (Value.String "small"))
        | _ -> Alcotest.fail "expected a positive first literal");
        let p = tracked (Printf.sprintf "int v@p(x); %s small@p(1); %s;" big rule) in
        match Peer.explain p (fact "v" [ Value.Int 1 ]) with
        | Peer.Derived d ->
          check_bool "written order"
            (List.equal Fact.equal
               [ fact "big" [ Value.Int 1 ]; fact "small" [ Value.Int 1 ] ]
               d.Wdl_eval.Fixpoint.premises)
        | _ -> Alcotest.fail "expected Derived");
    tc "recursive derivations chain through explain" (fun () ->
        let p =
          tracked
            {|int tc@p(x, y); e@p(1,2); e@p(2,3);
              tc@p($x,$y) :- e@p($x,$y);
              tc@p($x,$z) :- tc@p($x,$y), e@p($y,$z);|}
        in
        match Peer.explain p (fact "tc" [ Value.Int 1; Value.Int 3 ]) with
        | Peer.Derived d ->
          (* one premise is itself a tc fact, explainable in turn *)
          let tc_premise =
            List.find_opt
              (fun (f : Fact.t) -> f.Fact.rel = "tc")
              d.Wdl_eval.Fixpoint.premises
          in
          (match tc_premise with
          | Some f -> (
            match Peer.explain p f with
            | Peer.Derived _ -> ()
            | _ -> Alcotest.fail "premise not explained")
          | None -> Alcotest.fail "no tc premise")
        | _ -> Alcotest.fail "expected Derived");
    tc "explain_to_string renders a tree" (fun () ->
        let p =
          tracked
            "int v@p(x); a@p(1); v@p($x) :- a@p($x);"
        in
        let s = Peer.explain_to_string p (fact "v" [ Value.Int 1 ]) in
        check_bool "mentions rule" (Str_helper.contains s "v@p($x) :- a@p($x)");
        check_bool "mentions premise" (Str_helper.contains s "a@p(1) [stored]"));
    tc "explain_to_string is cycle-safe" (fun () ->
        (* mutually recursive views over the same tuples *)
        let p =
          tracked
            {|int a@p(x); int b@p(x); base@p(1);
              a@p($x) :- base@p($x);
              a@p($x) :- b@p($x);
              b@p($x) :- a@p($x);|}
        in
        let s =
          Peer.explain_to_string ~max_depth:30 p (fact "a" [ Value.Int 1 ])
        in
        check_bool "terminates" (String.length s > 0));
    tc "remote cached facts explain as Received" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys "Jules" in
        Peer.set_track_provenance jules true;
        let emilien = System.add_peer sys "Emilien" in
        ok'
          (Peer.load_string jules
             {|ext sel@Jules(a); int view@Jules(i); sel@Jules("Emilien");
               view@Jules($i) :- sel@Jules($a), pics@$a($i);|});
        ok' (Peer.load_string emilien "ext pics@Emilien(i); pics@Emilien(7);");
        ignore (ok' (System.run sys));
        (match
           Peer.explain jules (Fact.make ~rel:"view" ~peer:"Jules" [ Value.Int 7 ])
         with
        | Peer.Received [ "Emilien" ] -> ()
        | Peer.Received l ->
          Alcotest.fail ("unexpected sources " ^ String.concat "," l)
        | Peer.Base | Peer.Derived _ | Peer.Unknown ->
          Alcotest.fail "expected Received"));
    tc "unknown facts explain as Unknown" (fun () ->
        let p = tracked "m@p(1);" in
        check_bool "unknown" (Peer.explain p (fact "m" [ Value.Int 99 ]) = Peer.Unknown);
        check_bool "other peer"
          (Peer.explain p (Fact.make ~rel:"m" ~peer:"q" [ Value.Int 1 ]) = Peer.Unknown));
    tc "tracking off records nothing" (fun () ->
        let p = Peer.create "p" in
        ok' (Peer.load_string p "int v@p(x); a@p(1); v@p($x) :- a@p($x);");
        ignore (Peer.stage p);
        check_bool "no derivation entry"
          (Peer.explain p (fact "v" [ Value.Int 1 ]) = Peer.Unknown));
    tc "aggregate facts carry the rule but no premises" (fun () ->
        let p =
          tracked
            "int total@p(n); x@p(1); x@p(2); total@p(count($i)) :- x@p($i);"
        in
        match Peer.explain p (fact "total" [ Value.Int 2 ]) with
        | Peer.Derived d ->
          check_bool "agg rule" (Rule.is_aggregate d.Wdl_eval.Fixpoint.rule);
          check_int "no premises" 0 (List.length d.Wdl_eval.Fixpoint.premises)
        | _ -> Alcotest.fail "expected Derived");
  ]
