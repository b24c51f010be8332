(* The §4 Query tab: ad-hoc queries with Peer.ask. *)
open Wdl_syntax
open Webdamlog
open Check

let peer_with src =
  let p = Peer.create "p" in
  ok' (Peer.load_string p src);
  ignore (Peer.stage p);
  p

let suite =
  [
    tc "simple selection" (fun () ->
        let p = peer_with "n@p(1); n@p(5); n@p(10);" in
        let a = ok' (Peer.ask p "q@p($x) :- n@p($x), $x > 2") in
        Alcotest.check (Alcotest.list Alcotest.string) "columns" [ "$x" ] a.Peer.columns;
        check_int "rows" 2 (List.length a.Peer.rows));
    tc "joins across the peer's own relations" (fun () ->
        let p = peer_with {|pic@p(1, "a.jpg"); pic@p(2, "b.jpg"); rate@p(2, 5);|} in
        let a = ok' (Peer.ask p "q@p($n) :- pic@p($i, $n), rate@p($i, 5)") in
        check_bool "b.jpg" (a.Peer.rows = [ [ Value.String "b.jpg" ] ]));
    tc "queries see the program's views" (fun () ->
        let p =
          peer_with "int v@p(x); base@p(1); base@p(2); v@p($x) :- base@p($x);"
        in
        let a = ok' (Peer.ask p "q@p($x) :- v@p($x)") in
        check_int "rows" 2 (List.length a.Peer.rows));
    tc "queries never mutate live state" (fun () ->
        let p = peer_with "base@p(1);" in
        let before = List.length (Peer.relation_names p) in
        ignore (ok' (Peer.ask p "q@p($x) :- base@p($x)"));
        check_int "relations unchanged" before (List.length (Peer.relation_names p));
        check_bool "no new work" (not (Peer.has_work p));
        (* Values a query derives live in its copy's pool, not the
           peer's. *)
        let interned () = Wdl_store.Database.interned_count (Peer.database p) in
        let pooled = interned () in
        for k = 1 to 50 do
          let q = Printf.sprintf "q@p($y) :- base@p($x), $y := $x + %d" k in
          let a = ok' (Peer.ask p q) in
          check_bool "derived" (a.Peer.rows = [ [ Value.Int (1 + k) ] ])
        done;
        check_int "interned values unchanged" pooled (interned ()));
    tc "the pool holds only stored values" (fun () ->
        (* A negation and a join on constants no relation stores, and a
           remote head whose values are new: none of them may grow the
           pool, which then holds exactly the stored values 1 and 2. *)
        let p =
          peer_with
            {|ext base@p(x); ext pair@p(x, y); int v@p(x); int w@p(x);
              base@p(1); base@p(2);
              v@p($x) :- base@p($x), not base@p(999);
              w@p($x) :- base@p($x), base@p("foreign");
              out@q($y) :- base@p($x), $y := $x + 1000;
              sum@q($z) :- pair@p($x, $y), $z := $x + $y + 500;|}
        in
        let interned () = Wdl_store.Database.interned_count (Peer.database p) in
        check_int "stored values only" 2 (interned ());
        check_int "v derived" 2 (List.length (Peer.query p "v"));
        (* A stage whose only new values go to a remote head: the new
           tuple holds values the pool has. *)
        ok'
          (Peer.insert p
             (Fact.make ~rel:"pair" ~peer:"p" [ Value.Int 1; Value.Int 2 ]));
        let sent = Peer.stage p in
        check_bool "messages sent" (sent <> []);
        check_int "remote heads intern nothing" 2 (interned ());
        (* One new stored value grows it by one, not by its remote image. *)
        ok' (Peer.insert p (Fact.make ~rel:"base" ~peer:"p" [ Value.Int 3 ]));
        ignore (Peer.stage p);
        check_int "one stored value" 3 (interned ());
        List.iter
          (fun q -> ignore (ok' (Peer.ask p q)))
          [ "q@p($x) :- base@p($x), not base@p(4242)";
            {|q@p($x) :- base@p($x), base@p("nope")|};
            "q@p($y) :- base@p($x), $y := $x * 77";
            {|q@p("label", $x) :- v@p($x), w@p(-5)|} ];
        ignore (Peer.query p "v");
        ignore (Peer.query p "nothing");
        check_int "queries intern nothing" 3 (interned ()));
    tc "recursive ad-hoc query" (fun () ->
        let p = peer_with "e@p(1,2); e@p(2,3); e@p(3,4);" in
        (* The query head itself can be recursive through the program's
           views only; plain one-shot recursion needs a view. Check a
           two-hop join instead. *)
        let a = ok' (Peer.ask p "q@p($x, $z) :- e@p($x, $y), e@p($y, $z)") in
        check_int "two-hop pairs" 2 (List.length a.Peer.rows));
    tc "remote parts are reported, not evaluated" (fun () ->
        let p = peer_with {|sel@p("q");|} in
        let a = ok' (Peer.ask p "q@p($x) :- sel@p($a), data@$a($x)") in
        check_int "no rows" 0 (List.length a.Peer.rows);
        check_int "one delegation needed" 1 (List.length a.Peer.requires_delegation));
    tc "constants in the query head are echoed" (fun () ->
        let p = peer_with "n@p(1);" in
        let a = ok' (Peer.ask p {|q@p("label", $x) :- n@p($x)|}) in
        check_bool "row" (a.Peer.rows = [ [ Value.String "label"; Value.Int 1 ] ]));
    tc "unsafe queries are rejected" (fun () ->
        let p = peer_with "n@p(1);" in
        check_bool "rejected" (Result.is_error (Peer.ask p "q@p($y) :- n@p($x)")));
    tc "parse errors are reported" (fun () ->
        let p = peer_with "n@p(1);" in
        check_bool "rejected" (Result.is_error (Peer.ask p "q@p($x) :- ")));
    tc "ad-hoc aggregate queries" (fun () ->
        let p = peer_with "pics@p(1, \"a\"); pics@p(2, \"a\"); pics@p(3, \"b\");" in
        let a = ok' (Peer.ask p "q@p($o, count($i)) :- pics@p($i, $o)") in
        check_bool "grouped counts"
          (a.Peer.rows
          = [ [ Value.String "a"; Value.Int 2 ]; [ Value.String "b"; Value.Int 1 ] ]));
    tc "duplicate answers collapse" (fun () ->
        let p = peer_with "e@p(1, 10); e@p(2, 10);" in
        let a = ok' (Peer.ask p "q@p($y) :- e@p($x, $y)") in
        check_int "one row" 1 (List.length a.Peer.rows));
  ]
