(* The §2 access-control model: discretionary grants, provenance-derived
   view policies, declassification, and enforcement on delegations. *)
open Wdl_syntax
open Webdamlog
open Check

let policy = Alcotest.testable Authz.pp_policy Authz.policy_equal

let suite =
  [
    tc "meet is set intersection with Everyone as top" (fun () ->
        Alcotest.check policy "e/e" Authz.Everyone
          (Authz.meet Authz.Everyone Authz.Everyone);
        Alcotest.check policy "e/only" (Authz.Only [ "a" ])
          (Authz.meet Authz.Everyone (Authz.Only [ "a" ]));
        Alcotest.check policy "inter" (Authz.Only [ "b" ])
          (Authz.meet (Authz.Only [ "a"; "b" ]) (Authz.Only [ "b"; "c" ]));
        Alcotest.check policy "disjoint" (Authz.Only [])
          (Authz.meet (Authz.Only [ "a" ]) (Authz.Only [ "c" ])));
    tc "stored policies: grant and revoke" (fun () ->
        let a = Authz.create () in
        Alcotest.check policy "default" Authz.Everyone (Authz.stored_policy a "m");
        Authz.grant a ~rel:"m" "jules";
        Alcotest.check policy "after grant" (Authz.Only [ "jules" ])
          (Authz.stored_policy a "m");
        Authz.grant a ~rel:"m" "julia";
        Authz.revoke a ~rel:"m" "jules";
        Alcotest.check policy "after revoke" (Authz.Only [ "julia" ])
          (Authz.stored_policy a "m"));
    tc "view readers derive from base provenance" (fun () ->
        let p = Peer.create "p" in
        ok'
          (Peer.load_string p
             {|ext private@p(x); ext public@p(x); int v@p(x);
               v@p($x) :- private@p($x), public@p($x);|});
        Authz.set_policy (Peer.authz p) ~rel:"private" (Authz.Only [ "julia" ]);
        Alcotest.check policy "view policy" (Authz.Only [ "julia" ])
          (Peer.readers p "v");
        Alcotest.check policy "public stays open" Authz.Everyone
          (Peer.readers p "public"));
    tc "provenance flows through view-over-view chains" (fun () ->
        let p = Peer.create "p" in
        ok'
          (Peer.load_string p
             {|ext secret@p(x); int v1@p(x); int v2@p(x);
               v1@p($x) :- secret@p($x);
               v2@p($x) :- v1@p($x);|});
        Authz.set_policy (Peer.authz p) ~rel:"secret" (Authz.Only []);
        Alcotest.check policy "v2 inherits" (Authz.Only []) (Peer.readers p "v2"));
    tc "declassification overrides the derived policy" (fun () ->
        let p = Peer.create "p" in
        ok'
          (Peer.load_string p
             {|ext secret@p(x); int v@p(x); v@p($x) :- secret@p($x);|});
        Authz.set_policy (Peer.authz p) ~rel:"secret" (Authz.Only []);
        Authz.declassify (Peer.authz p) ~rel:"v" (Authz.Only [ "julia" ]);
        Alcotest.check policy "declassified" (Authz.Only [ "julia" ])
          (Peer.readers p "v");
        Authz.clear_declassification (Peer.authz p) ~rel:"v";
        Alcotest.check policy "back to derived" (Authz.Only [])
          (Peer.readers p "v"));
    tc "can_read: the owner always reads its own data" (fun () ->
        let p = Peer.create "p" in
        ok' (Peer.load_string p "ext secret@p(x);");
        Authz.set_policy (Peer.authz p) ~rel:"secret" (Authz.Only []);
        check_bool "owner" (Peer.can_read p ~reader:"p" "secret");
        check_bool "stranger" (not (Peer.can_read p ~reader:"q" "secret")));
    tc "enforcement rejects delegations reading protected relations" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys "Jules" in
        let julia = System.add_peer sys "Julia" in
        ok' (Peer.load_string jules "ext pictures@Jules(i); pictures@Jules(7);");
        Peer.set_enforce_authz jules true;
        Authz.set_policy (Peer.authz jules) ~rel:"pictures"
          (Authz.Only [ "Emilien" ]);
        ok'
          (Peer.load_string julia
             "int mine@Julia(i); mine@Julia($i) :- pictures@Jules($i);");
        ignore (ok' (System.run sys));
        check_int "nothing flows" 0 (List.length (Peer.query julia "mine"));
        check_int "not installed" 0 (List.length (Peer.delegated_rules jules));
        check_bool "rejection traced"
          (Trace.find (Peer.trace jules) (function
            | Trace.Delegation_rejected _ -> true
            | _ -> false)
          <> None));
    tc "enforcement admits granted readers" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys "Jules" in
        let julia = System.add_peer sys "Julia" in
        ok' (Peer.load_string jules "ext pictures@Jules(i); pictures@Jules(7);");
        Peer.set_enforce_authz jules true;
        Authz.set_policy (Peer.authz jules) ~rel:"pictures"
          (Authz.Only [ "Julia" ]);
        ok'
          (Peer.load_string julia
             "int mine@Julia(i); mine@Julia($i) :- pictures@Jules($i);");
        ignore (ok' (System.run sys));
        check_int "flows" 1 (List.length (Peer.query julia "mine")));
    tc "delegations with relation variables need access to everything" (fun () ->
        let a = Authz.create () in
        Authz.set_policy a ~rel:"secret" (Authz.Only []);
        let rules = [] in
        let intensional _ = false in
        let rule = Parser.parse_rule "out@q($r, $x) :- names@p($r), $r@p($x)" in
        (match
           Authz.check_delegation a ~self:"p" ~rules ~intensional ~reader:"q" rule
         with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected rejection");
        let open_a = Authz.create () in
        check_bool "all open -> fine"
          (Result.is_ok
             (Authz.check_delegation open_a ~self:"p" ~rules ~intensional
                ~reader:"q" rule)));
    tc "atoms after the delegation boundary are not charged" (fun () ->
        let a = Authz.create () in
        Authz.set_policy a ~rel:"secret" (Authz.Only []);
        (* secret is only read after the rule bounces to r: this peer
           must not enforce on r's behalf. *)
        let rule =
          Parser.parse_rule "out@q($x) :- visible@p($x), stuff@r($x), secret@p($x)"
        in
        check_bool "allowed"
          (Result.is_ok
             (Authz.check_delegation a ~self:"p" ~rules:[]
                ~intensional:(fun _ -> false) ~reader:"q" rule)));
    tc "authz state survives snapshot/restore" (fun () ->
        let p = Peer.create "p" in
        ok'
          (Peer.load_string p
             {|ext secret@p(x); int v@p(x); v@p($x) :- secret@p($x);|});
        Peer.set_enforce_authz p true;
        Authz.set_policy (Peer.authz p) ~rel:"secret" (Authz.Only [ "julia" ]);
        Authz.declassify (Peer.authz p) ~rel:"v" Authz.Everyone;
        let p' = ok' (Peer.restore (Peer.snapshot p)) in
        check_bool "enforce kept" (Peer.enforcing_authz p');
        Alcotest.check policy "stored kept" (Authz.Only [ "julia" ])
          (Authz.stored_policy (Peer.authz p') "secret");
        Alcotest.check policy "override kept" Authz.Everyone
          (Peer.readers p' "v"));
  ]
