(* Aggregation: the substrate feature behind §3's "select and rank". *)
open Wdl_syntax
open Webdamlog
open Check

let peer_with src =
  let p = Peer.create "p" in
  ok' (Peer.load_string p src);
  ignore (Peer.stage p);
  p

let rows p rel =
  List.map (fun (f : Fact.t) -> f.Fact.args) (Peer.query p rel)

let suite =
  [
    tc "apply: count/sum/min/max/avg" (fun () ->
        let vs = [ Value.Int 3; Value.Int 1; Value.Int 2 ] in
        check_bool "count" (Aggregate.apply Aggregate.Count vs = Ok (Value.Int 3));
        check_bool "sum" (Aggregate.apply Aggregate.Sum vs = Ok (Value.Int 6));
        check_bool "min" (Aggregate.apply Aggregate.Min vs = Ok (Value.Int 1));
        check_bool "max" (Aggregate.apply Aggregate.Max vs = Ok (Value.Int 3));
        check_bool "avg" (Aggregate.apply Aggregate.Avg vs = Ok (Value.Float 2.)));
    tc "apply: mixed numerics promote, non-numerics error" (fun () ->
        check_bool "mixed sum"
          (Aggregate.apply Aggregate.Sum [ Value.Int 1; Value.Float 0.5 ]
          = Ok (Value.Float 1.5));
        check_bool "string rejected"
          (Result.is_error (Aggregate.apply Aggregate.Sum [ Value.String "x" ]));
        List.iter
          (fun op ->
            check_bool "infinities of both signs are not a number"
              (Result.is_error
                 (Aggregate.apply op
                    [ Value.Float infinity; Value.Int 1; Value.Float neg_infinity ])))
          [ Aggregate.Sum; Aggregate.Avg ];
        check_bool "count anything"
          (Aggregate.apply Aggregate.Count [ Value.String "x"; Value.Bool true ]
          = Ok (Value.Int 2));
        check_bool "empty group"
          (Result.is_error (Aggregate.apply Aggregate.Max [])));
    tc "parser: aggregate heads round-trip" (fun () ->
        let r =
          Parser.parse_rule
            "perOwner@p($o, count($id), max($r)) :- pics@p($id, $o, $r)"
        in
        check_int "two aggs" 2 (List.length r.Rule.aggs);
        let printed = Format.asprintf "%a" Rule.pp r in
        check_bool "round-trip" (Rule.equal r (Parser.parse_rule printed)));
    tc "parser: aggregates only in heads, never in facts" (fun () ->
        check_bool "fact rejected"
          (Result.is_error (Parser.fact "m@p(count($x))"));
        (* 'count' without parens stays an ordinary symbol *)
        let r = Parser.parse_rule "m@p(count) :- a@p($x)" in
        check_bool "plain symbol" (not (Rule.is_aggregate r)));
    tc "group-by counting" (fun () ->
        let p =
          peer_with
            {|int perOwner@p(owner, n);
              pics@p(1, "a"); pics@p(2, "a"); pics@p(3, "b");
              perOwner@p($o, count($id)) :- pics@p($id, $o);|}
        in
        check_bool "counts"
          (rows p "perOwner"
          = [ [ Value.String "a"; Value.Int 2 ]; [ Value.String "b"; Value.Int 1 ] ]));
    tc "global aggregate (no group-by columns)" (fun () ->
        let p =
          peer_with
            {|int total@p(n);
              pics@p(1); pics@p(2); pics@p(3);
              total@p(count($id)) :- pics@p($id);|}
        in
        check_bool "total" (rows p "total" = [ [ Value.Int 3 ] ]));
    tc "max rating per picture feeds a ranked view" (fun () ->
        let p =
          peer_with
            {|int best@p(id, r); int top@p(id);
              rate@p(1, 3); rate@p(1, 5); rate@p(2, 4);
              best@p($id, max($r)) :- rate@p($id, $r);
              top@p($id) :- best@p($id, $r), $r >= 5;|}
        in
        check_bool "best"
          (rows p "best"
          = [ [ Value.Int 1; Value.Int 5 ]; [ Value.Int 2; Value.Int 4 ] ]);
        check_bool "top built on top of the aggregate"
          (rows p "top" = [ [ Value.Int 1 ] ]));
    tc "aggregates see facts derived in lower strata" (fun () ->
        let p =
          peer_with
            {|int doubled@p(x); int total@p(n);
              n@p(1); n@p(2);
              doubled@p($y) :- n@p($x), $y := $x * 2;
              total@p(sum($y)) :- doubled@p($y);|}
        in
        check_bool "sum of the view" (rows p "total" = [ [ Value.Int 6 ] ]));
    tc "aggregate over an empty relation derives nothing" (fun () ->
        let p =
          peer_with
            {|int total@p(n); ext pics@p(id);
              total@p(count($id)) :- pics@p($id);|}
        in
        check_int "no groups" 0 (List.length (rows p "total")));
    tc "updates recompute aggregates" (fun () ->
        let p =
          peer_with
            {|int total@p(n); pics@p(1);
              total@p(count($id)) :- pics@p($id);|}
        in
        check_bool "one" (rows p "total" = [ [ Value.Int 1 ] ]);
        ok' (Peer.insert p (Fact.make ~rel:"pics" ~peer:"p" [ Value.Int 2 ]));
        ignore (Peer.stage p);
        check_bool "two" (rows p "total" = [ [ Value.Int 2 ] ]);
        ok' (Peer.delete p (Fact.make ~rel:"pics" ~peer:"p" [ Value.Int 1 ]));
        ignore (Peer.stage p);
        check_bool "back to one" (rows p "total" = [ [ Value.Int 1 ] ]));
    tc "aggregation through one's own aggregate is rejected (like negation)"
      (fun () ->
        let p = Peer.create "p" in
        ok' (Peer.load_string p "int v@p(n);");
        check_bool "cycle rejected"
          (Result.is_error
             (Peer.add_rule p (Parser.parse_rule "v@p(count($x)) :- v@p($x)"))));
    tc "non-local aggregate rules rejected at install" (fun () ->
        let p = Peer.create "p" in
        ok' (Peer.load_string p "int v@p(n);");
        check_bool "remote body"
          (Result.is_error
             (Peer.add_rule p
                (Parser.parse_rule "v@p(count($x)) :- pics@q($x)")));
        check_bool "peer variable"
          (Result.is_error
             (Peer.add_rule p
                (Parser.parse_rule
                   "v@p(count($x)) :- sel@p($a), pics@$a($x)"))));
    tc "delegated aggregate rules are refused and traced" (fun () ->
        let sys = System.create () in
        let p = System.add_peer sys "p" in
        let q = System.add_peer sys "q" in
        ok' (Peer.load_string q "ext pics@q(id); pics@q(1);");
        (* p's rule delegates a residual aggregate to q whose body reads
           p again — non-local at q, so q must refuse it. *)
        ok' (Peer.load_string p "ext sel@p(a); int v@p(n); sel@p(\"q\");");
        (match
           Peer.add_rule p
             (Parser.parse_rule "v@p(count($x)) :- pics@q($x), marks@p($x)")
         with
        | Ok () -> Alcotest.fail "p itself should reject: body starts remote"
        | Error _ -> ());
        check_bool "done" true);
    tc "rename preserves aggregate variables" (fun () ->
        let r = Parser.parse_rule "v@p($o, count($x)) :- pics@p($x, $o)" in
        let r' = Rule.rename ~suffix:"_9" r in
        match r'.Rule.aggs with
        | [ (1, { Aggregate.var = "x_9"; _ }) ] -> ()
        | _ -> Alcotest.fail "aggregate variable not renamed");
  ]
