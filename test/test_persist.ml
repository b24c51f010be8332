(* Snapshot / restore: a peer survives a restart. *)
open Wdl_syntax
open Webdamlog
open Check

let suite =
  [
    tc "snapshot round-trips a plain peer" (fun () ->
        let p = Peer.create "p" in
        ok'
          (Peer.load_string p
             {|ext m@p(a, b); int v@p(a);
               m@p(1, "x"); m@p(2, "Émilien");
               v@p($a) :- m@p($a, $b);|});
        ignore (Peer.stage p);
        let p' = ok' (Peer.restore (Peer.snapshot p)) in
        check_int "stage" (Peer.stage_number p) (Peer.stage_number p');
        check_bool "facts"
          (List.equal Fact.equal (Peer.query p "m") (Peer.query p' "m"));
        check_int "rules" 1 (List.length (Peer.rules p'));
        (* Views recompute on the first stage after restart. *)
        check_bool "needs a stage" (Peer.has_work p');
        ignore (Peer.stage p');
        check_int "view recomputed" 2 (List.length (Peer.query p' "v")));
    tc "snapshot is idempotent" (fun () ->
        let p = Peer.create "p" in
        ok' (Peer.load_string p "ext m@p(a); m@p(1); out@q($x) :- m@p($x);");
        ignore (Peer.stage p);
        let s1 = Peer.snapshot p in
        let s2 = Peer.snapshot (ok' (Peer.restore s1)) in
        Alcotest.check Alcotest.string "stable" s1 s2);
    tc "delegations and their origins survive" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys "Jules" in
        let emilien = System.add_peer sys "Emilien" in
        ok'
          (Peer.load_string jules
             {|ext sel@Jules(a); int view@Jules(i); sel@Jules("Emilien");
               view@Jules($i) :- sel@Jules($a), pics@$a($i);|});
        ok' (Peer.load_string emilien "ext pics@Emilien(i); pics@Emilien(1);");
        ignore (ok' (System.run sys));
        let emilien' = ok' (Peer.restore (Peer.snapshot emilien)) in
        (match Peer.delegated_rules emilien' with
        | [ (src, _) ] -> Alcotest.check Alcotest.string "origin" "Jules" src
        | _ -> Alcotest.fail "expected one delegation");
        (* The restarted peer still serves the delegation. *)
        ignore (Peer.stage emilien');
        check_bool "still derives for Jules" true);
    tc "remote view caches survive (views stay full after restart)" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys "Jules" in
        let emilien = System.add_peer sys "Emilien" in
        ok'
          (Peer.load_string jules
             {|ext sel@Jules(a); int view@Jules(i); sel@Jules("Emilien");
               view@Jules($i) :- sel@Jules($a), pics@$a($i);|});
        ok'
          (Peer.load_string emilien
             "ext pics@Emilien(i); pics@Emilien(1); pics@Emilien(2);");
        ignore (ok' (System.run sys));
        check_int "before" 2 (List.length (Peer.query jules "view"));
        let jules' = ok' (Peer.restore (Peer.snapshot jules)) in
        ignore (Peer.stage jules');
        check_int "after restart, no network needed" 2
          (List.length (Peer.query jules' "view")));
    tc "pending queue and ACL survive" (fun () ->
        let p = Peer.create ~policy:Acl.Closed "p" in
        Acl.trust (Peer.acl p) "sigmod";
        Acl.untrust (Peer.acl p) "mallory";
        let rule = Parser.parse_rule "a@p($x) :- b@p($x)" in
        Peer.receive p
          (Message.make ~src:"stranger" ~dst:"p" ~stage:1 ~installs:[ rule ] ());
        ignore (Peer.stage p);
        check_int "pending before" 1 (List.length (Peer.pending_delegations p));
        let p' = ok' (Peer.restore (Peer.snapshot p)) in
        check_int "pending after" 1 (List.length (Peer.pending_delegations p'));
        check_bool "policy" (Acl.policy (Peer.acl p') = Acl.Closed);
        check_bool "trusted kept" (Acl.trusted (Peer.acl p') "sigmod");
        check_bool "untrusted kept" (not (Acl.trusted (Peer.acl p') "mallory"));
        check_bool "accept still works"
          (Peer.accept_delegation p' ~src:"stranger" rule));
    tc "restored peer does not spuriously re-send unchanged batches" (fun () ->
        let p = Peer.create "p" in
        ok' (Peer.load_string p "ext m@p(a); m@p(1); out@q($x) :- m@p($x);");
        let first = Peer.stage p in
        check_int "first stage sends" 1 (List.length first);
        let p' = ok' (Peer.restore (Peer.snapshot p)) in
        let resent = Peer.stage p' in
        check_int "restart sends nothing new" 0 (List.length resent));
    tc "restore rejects corrupt input" (fun () ->
        check_bool "garbage" (Result.is_error (Peer.restore "garbage"));
        check_bool "no header" (Result.is_error (Peer.restore "m@p(1);"));
        let p = Peer.create "p" in
        ok' (Peer.load_string p "m@p(1);");
        let s = Peer.snapshot p in
        let truncated = String.sub s 0 (String.length s - 8) in
        check_bool "truncated" (Result.is_error (Peer.restore truncated)));
  ]
