open Wdl_syntax
open Webdamlog
open Check

(* p1 joins its own data with p0's r through a delegation to p0; both
   hold 1, so relay@p1(1) is derived at p0 and shipped back. *)
let setup_relay () =
  let sys = System.create () in
  let p0 = System.add_peer sys "p0" in
  let p1 = System.add_peer sys "p1" in
  ok (Peer.load_string p0 "ext r@p0(x); r@p0(1);");
  ok
    (Peer.load_string p1
       "ext data@p1(x); int relay@p1(x); data@p1(1);\n\
        relay@p1($x) :- data@p1($x), r@p0($x);");
  ignore (ok (System.run sys));
  check_int "relay derived" 1 (List.length (Peer.query p1 "relay"));
  check_int "delegation installed at p0" 1
    (List.length (Peer.delegated_rules p0));
  (sys, p0, p1)

let setup_jules_emilien () =
  let sys = System.create () in
  let jules = System.add_peer sys "Jules" in
  let emilien = System.add_peer sys "Emilien" in
  ok
    (Peer.load_string jules
       {|
       ext selectedAttendee@Jules(attendee);
       int attendeePictures@Jules(id, name, owner, data);
       selectedAttendee@Jules("Emilien");
       attendeePictures@Jules($id, $n, $o, $d) :-
         selectedAttendee@Jules($a), pictures@$a($id, $n, $o, $d);
       |});
  ok
    (Peer.load_string emilien
       {|
       ext pictures@Emilien(id, name, owner, data);
       pictures@Emilien(32, "sea.jpg", "Emilien", "b0");
       pictures@Emilien(33, "talk.jpg", "Emilien", "b1");
       |});
  (sys, jules, emilien)

(* A from-scratch rebuild of [sys]: a fresh system whose peers hold the
   same declarations, extensional facts and own rules, plus the
   delegations installed from peers outside [sys] (delegations between
   its own peers are re-derived), run to quiescence. Every peer's first
   stage is a full one, so the rebuild is the oracle for a system that
   reached the same inputs through cached and delta stages. *)
let rebuild sys =
  let fresh = System.create () in
  List.iter
    (fun p ->
      let name = Peer.name p in
      let q = System.add_peer fresh name in
      let stmts =
        List.concat_map
          (fun (i : Wdl_store.Database.info) ->
            let rel = i.Wdl_store.Database.name in
            let kind = i.Wdl_store.Database.kind in
            let arity = i.Wdl_store.Database.arity in
            (* Relations created by a fact rather than a declaration
               carry no column names. *)
            let cols =
              if List.length i.Wdl_store.Database.cols = arity then
                i.Wdl_store.Database.cols
              else List.init arity (Printf.sprintf "c%d")
            in
            Program.Decl (Decl.make ~kind ~rel ~peer:name cols)
            ::
            (if kind = Decl.Extensional then
               List.map (fun f -> Program.Fact f) (Peer.query p rel)
             else []))
          (Wdl_store.Database.relations (Peer.database p))
        @ List.map (fun r -> Program.Rule r) (Peer.rules p)
      in
      ok (Peer.load_program q stmts);
      List.iter
        (fun (src, rule) ->
          if System.find_peer sys src = None then
            Peer.receive q
              (Message.make ~src ~dst:name ~stage:0 ~installs:[ rule ] ()))
        (Peer.delegated_rules p))
    (System.peers sys);
  ignore (ok (System.run fresh));
  fresh

let check_rebuild label sys =
  let fresh = rebuild sys in
  Alcotest.check Alcotest.string (label ^ ": relations") (Album.dump fresh)
    (Album.dump sys);
  List.iter
    (fun p ->
      check_bool
        (label ^ ": delegations at " ^ Peer.name p)
        (Peer.delegated_rules p
         = Peer.delegated_rules (System.peer fresh (Peer.name p))))
    (System.peers sys)

(* One fresh fact per round, each followed by a run to quiescence. *)
let trickle sys ~rounds fresh_fact =
  for i = 1 to rounds do
    let who, f = fresh_fact i in
    ok (Peer.insert (System.peer sys who) f);
    ignore (ok (System.run sys))
  done

let rebuild_test () =
  let sys = System.create () in
  let p = System.add_peer sys "p" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "int tc@p(x, y);\n";
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "edge@p(%d, %d);\n" a b))
    (Wdl_wepic.Workload.chain_edges ~n:32);
  Buffer.add_string buf "tc@p($x, $y) :- edge@p($x, $y);\n";
  Buffer.add_string buf "tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);\n";
  ok (Peer.load_string p (Buffer.contents buf));
  ignore (ok (System.run sys));
  check_rebuild "tc settled" sys;
  (* Each new edge extends the chain, so the closure really grows. *)
  trickle sys ~rounds:3 (fun i ->
      ("p", Fact.make ~rel:"edge" ~peer:"p" [ Value.Int (1000 + i - 1); Value.Int (1000 + i) ]));
  check_rebuild "tc trickle" sys;
  ok (Peer.load_string p "int sym@p(x, y);\nsym@p($y, $x) :- tc@p($x, $y);");
  ignore (ok (System.run sys));
  check_rebuild "tc mid-run rule" sys;
  Peer.receive p
    (Message.make ~src:"q" ~dst:"p" ~stage:0
       ~installs:[ Parser.parse_rule "mirror@q($x, $y) :- tc@p($x, $y)" ]
       ());
  ignore (ok (System.run sys));
  check_bool "delegation installed" (Peer.delegated_rules p <> []);
  check_rebuild "tc mid-run delegation install" sys;
  let album = System.create () in
  Album.load_album album Album.attendees;
  ignore (ok (System.run album));
  check_rebuild "album settled" album;
  trickle album ~rounds:2 (fun i ->
      ( "alice",
        Fact.make ~rel:"pictures" ~peer:"alice"
          [ Value.Int (100 + i); Value.String (Printf.sprintf "alice_t%d.jpg" i) ] ));
  check_rebuild "album trickle" album

(* Eight producers push one fact each per round at a hub whose inbox
   holds four: the excess is shed, the depth never exceeds the bound,
   and the system still quiesces. *)
let overload_test () =
  let capacity = 4 and producers = 8 in
  let sys = System.create () in
  let hub =
    System.add_peer sys ~inbox_capacity:capacity ~shed:Peer.Drop_oldest "hub"
  in
  ok (Peer.load_string hub "ext seen@hub(src, x);");
  let prods =
    List.init producers (fun i ->
        let name = Printf.sprintf "p%d" i in
        let p = System.add_peer sys name in
        ok
          (Peer.load_string p
             (Printf.sprintf "ext src@%s(x);\nseen@hub(%S, $x) :- src@%s($x);"
                name name name));
        p)
  in
  let max_depth = ref 0 in
  for round = 1 to 12 do
    List.iteri
      (fun i p ->
        ok
          (Peer.insert p
             (Fact.make ~rel:"src" ~peer:(Peer.name p)
                [ Value.Int ((round * 100) + i) ])))
      prods;
    ignore (System.round sys);
    max_depth := max !max_depth (Peer.inbox_length hub)
  done;
  check_bool "bounded inbox shed under overload" (Peer.sheds hub > 0);
  check_bool "inbox depth stayed within capacity"
    (!max_depth > 0 && !max_depth <= capacity);
  check_bool "overloaded system still quiesced" (Result.is_ok (System.run sys))

let suite =
  [
    tc "the paper's delegation example end to end" (fun () ->
        let sys, jules, emilien = setup_jules_emilien () in
        ignore (ok (System.run sys));
        check_int "view" 2 (List.length (Peer.query jules "attendeePictures"));
        (match Peer.delegated_rules emilien with
        | [ (src, rule) ] ->
          Alcotest.check Alcotest.string "origin" "Jules" src;
          check_bool "residual"
            (Rule.equal rule
               (Parser.parse_rule
                  {|attendeePictures@Jules($id, $n, $o, $d) :-
                      pictures@Emilien($id, $n, $o, $d)|}))
        | l -> Alcotest.fail (Printf.sprintf "expected 1 delegation, got %d" (List.length l))));
    tc "incremental: new remote facts reach the view" (fun () ->
        let sys, jules, emilien = setup_jules_emilien () in
        ignore (ok (System.run sys));
        ok
          (Peer.insert emilien
             (Fact.make ~rel:"pictures" ~peer:"Emilien"
                [ Value.Int 34; Value.String "x.jpg"; Value.String "Emilien";
                  Value.String "b2" ]));
        ignore (ok (System.run sys));
        check_int "view grows" 3 (List.length (Peer.query jules "attendeePictures")));
    tc "retraction: deselecting empties the view and uninstalls" (fun () ->
        let sys, jules, emilien = setup_jules_emilien () in
        ignore (ok (System.run sys));
        ok
          (Peer.delete jules
             (Fact.make ~rel:"selectedAttendee" ~peer:"Jules"
                [ Value.String "Emilien" ]));
        ignore (ok (System.run sys));
        check_int "view empty" 0 (List.length (Peer.query jules "attendeePictures"));
        check_int "uninstalled" 0 (List.length (Peer.delegated_rules emilien)));
    tc "remote deletion shrinks the view (one-stage semantics)" (fun () ->
        let sys, jules, emilien = setup_jules_emilien () in
        ignore (ok (System.run sys));
        ok
          (Peer.delete emilien
             (Fact.make ~rel:"pictures" ~peer:"Emilien"
                [ Value.Int 32; Value.String "sea.jpg"; Value.String "Emilien";
                  Value.String "b0" ]));
        ignore (ok (System.run sys));
        check_int "view shrinks" 1 (List.length (Peer.query jules "attendeePictures")));
    tc "remote facts into extensional relations persist" (fun () ->
        let sys = System.create () in
        let src = System.add_peer sys "src" in
        let dst = System.add_peer sys "dst" in
        ok (Peer.load_string src "a@src(1); stored@dst($x) :- a@src($x);");
        ignore (ok (System.run sys));
        check_int "arrived" 1 (List.length (Peer.query dst "stored"));
        (* Deleting the support does NOT remove the update. *)
        ok (Peer.delete src (Fact.make ~rel:"a" ~peer:"src" [ Value.Int 1 ]));
        ignore (ok (System.run sys));
        check_int "persists" 1 (List.length (Peer.query dst "stored")));
    tc "chained delegation across three peers" (fun () ->
        let sys = System.create () in
        let a = System.add_peer sys "a" in
        let b = System.add_peer sys "b" in
        let c = System.add_peer sys "c" in
        ok
          (Peer.load_string a
             {|
             ext who@a(peer);
             int got@a(x);
             who@a("b");
             got@a($x) :- who@a($p), hop@$p($q), data@$q($x);
             |});
        ok (Peer.load_string b {| ext hop@b(q); hop@b("c"); |});
        ok (Peer.load_string c "ext data@c(x); data@c(7);");
        ignore (ok (System.run sys));
        check_int "result" 1 (List.length (Peer.query a "got"));
        check_bool "b holds a delegation" (Peer.delegated_rules b <> []);
        check_bool "c holds a delegation from b" (Peer.delegated_rules c <> []);
        (* Retract upstream: the whole chain unwinds. *)
        ok (Peer.delete a (Fact.make ~rel:"who" ~peer:"a" [ Value.String "b" ]));
        ignore (ok (System.run sys));
        check_int "view empty" 0 (List.length (Peer.query a "got"));
        check_int "b clean" 0 (List.length (Peer.delegated_rules b));
        check_int "c clean" 0 (List.length (Peer.delegated_rules c)));
    tc "distributed transitive closure over a chain of peers" (fun () ->
        let sys = System.create () in
        let n = 5 in
        let peer_name i = Printf.sprintf "n%d" i in
        for i = 0 to n - 1 do
          let p = System.add_peer sys (peer_name i) in
          ok
            (Peer.load_string p
               (Printf.sprintf "ext next@%s(peer);" (peer_name i)));
          if i < n - 1 then
            ok
              (Peer.load_string p
                 (Printf.sprintf {|next@%s("%s");|} (peer_name i) (peer_name (i + 1))))
        done;
        (* reach@n0 collects every peer reachable by following next
           pointers: the rule re-delegates itself down the chain. *)
        let p0 = System.peer sys (peer_name 0) in
        ok
          (Peer.load_string p0
             {|
             int reach@n0(peer);
             reach@n0($q) :- next@n0($q);
             reach@n0($r) :- reach@n0($q), next@$q($r);
             |});
        ignore (ok (System.run sys));
        check_int "reaches all" (n - 1) (List.length (Peer.query p0 "reach")));
    tc "mutual recursion across two peers stabilises" (fun () ->
        let sys = System.create () in
        let p = System.add_peer sys "p" in
        let q = System.add_peer sys "q" in
        ok (Peer.load_string p "ext a@p(x); a@p(1); b@q($x) :- a@p($x);");
        ok (Peer.load_string q "ext b@q(x); a@p($x) :- b@q($x);");
        (match System.run sys with
        | Ok _ ->
          check_int "p has a(1)" 1 (List.length (Peer.query p "a"));
          check_int "q has b(1)" 1 (List.length (Peer.query q "b"))
        | Error e -> Alcotest.fail e));
    tc "messages to unknown peers are dropped, system still quiesces" (fun () ->
        let sys = System.create () in
        let p = System.add_peer sys "p" in
        ok (Peer.load_string p "a@p(1); out@ghost($x) :- a@p($x);");
        ignore (ok (System.run sys));
        check_bool "dropped" (System.messages_dropped sys > 0));
    tc "same results over the simulated (reordering) network" (fun () ->
        let mk transport =
          let sys = System.create ?transport () in
          let jules = System.add_peer sys "Jules" in
          let emilien = System.add_peer sys "Emilien" in
          ok
            (Peer.load_string jules
               {|ext selectedAttendee@Jules(a); int attendeePictures@Jules(i, n, o, d);
                 selectedAttendee@Jules("Emilien");
                 attendeePictures@Jules($i,$n,$o,$d) :-
                   selectedAttendee@Jules($a), pictures@$a($i,$n,$o,$d);|});
          ok
            (Peer.load_string emilien
               {|ext pictures@Emilien(i, n, o, d);
                 pictures@Emilien(1, "a", "Emilien", "x");
                 pictures@Emilien(2, "b", "Emilien", "y");|});
          ignore (ok (System.run sys));
          List.map (Format.asprintf "%a" Fact.pp) (Peer.query jules "attendeePictures")
        in
        let base = mk None in
        let sim =
          mk (Some (Wdl_net.Simnet.create ~seed:5 ~base_latency:2.5 ~jitter:1.0 ()))
        in
        check_bool "identical state" (base = sim));
    tc "duplicated deliveries are absorbed (at-least-once tolerance)" (fun () ->
        (* Facts batches replace caches and installs deduplicate, so a
           duplicating network must yield the same final state. *)
        let transport =
          Wdl_net.Simnet.create ~seed:11 ~base_latency:1.0 ~jitter:0.5
            ~duplicate:0.5 ()
        in
        let sys = System.create ~transport ~drop_unknown:true () in
        let jules = System.add_peer sys "Jules" in
        let emilien = System.add_peer sys "Emilien" in
        ok
          (Peer.load_string jules
             {|ext sel@Jules(a); int view@Jules(i); sel@Jules("Emilien");
               view@Jules($i) :- sel@Jules($a), pics@$a($i);|});
        ok
          (Peer.load_string emilien
             "ext pics@Emilien(i); pics@Emilien(1); pics@Emilien(2);");
        ignore (ok (System.run sys));
        check_int "view exact" 2 (List.length (Peer.query jules "view"));
        check_int "one delegation" 1 (List.length (Peer.delegated_rules emilien));
        (* Retraction also survives duplication. *)
        ok
          (Peer.delete jules
             (Fact.make ~rel:"sel" ~peer:"Jules" [ Value.String "Emilien" ]));
        ignore (ok (System.run sys));
        check_int "clean retract" 0 (List.length (Peer.delegated_rules emilien)));
    tc "partition holds traffic; healing converges (laptops lose wifi)"
      (fun () ->
        let transport, net =
          Wdl_net.Simnet.create_with_control ~seed:4 ~jitter:0. ~base_latency:1.0 ()
        in
        let sys = System.create ~transport () in
        let jules = System.add_peer sys "Jules" in
        let emilien = System.add_peer sys "Emilien" in
        ok
          (Peer.load_string jules
             {|ext sel@Jules(a); int view@Jules(i); sel@Jules("Emilien");
               view@Jules($i) :- sel@Jules($a), pics@$a($i);|});
        ok (Peer.load_string emilien "ext pics@Emilien(i); pics@Emilien(1);");
        Wdl_net.Simnet.partition net ~between:"Jules" ~and_:"Emilien";
        check_bool "down" (Wdl_net.Simnet.partitioned net ~between:"Emilien" ~and_:"Jules");
        for _ = 1 to 10 do
          ignore (System.round sys)
        done;
        check_int "nothing crossed" 0 (List.length (Peer.query jules "view"));
        check_int "no delegation" 0 (List.length (Peer.delegated_rules emilien));
        (* Local progress continues during the outage. *)
        ok (Peer.insert emilien (Fact.make ~rel:"pics" ~peer:"Emilien" [ Value.Int 2 ]));
        for _ = 1 to 3 do
          ignore (System.round sys)
        done;
        Wdl_net.Simnet.heal net ~between:"Jules" ~and_:"Emilien";
        ignore (ok (System.run sys));
        check_int "converged" 2 (List.length (Peer.query jules "view"));
        check_int "delegation installed" 1
          (List.length (Peer.delegated_rules emilien)));
    tc "run is idempotent once quiescent" (fun () ->
        let sys, _, _ = setup_jules_emilien () in
        ignore (ok (System.run sys));
        check_int "no more rounds" 0 (ok (System.run sys));
        check_bool "quiescent" (System.quiescent sys));
    tc "pending delegation blocks evaluation until accepted" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys ~policy:Acl.Closed "Jules" in
        let julia = System.add_peer sys "Julia" in
        ok (Peer.load_string jules {|ext pictures@Jules(i); pictures@Jules(7);|});
        ok
          (Peer.load_string julia
             {|int mine@Julia(i); mine@Julia($i) :- pictures@Jules($i);|});
        ignore (ok (System.run sys));
        check_int "blocked" 0 (List.length (Peer.query julia "mine"));
        check_int "pending" 1 (List.length (Peer.pending_delegations jules));
        let src, rule = List.hd (Peer.pending_delegations jules) in
        check_bool "accepted" (Peer.accept_delegation jules ~src rule);
        ignore (ok (System.run sys));
        check_int "flows" 1 (List.length (Peer.query julia "mine")));
    tc "rejected delegation never installs" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys ~policy:Acl.Closed "Jules" in
        let julia = System.add_peer sys "Julia" in
        ok (Peer.load_string jules {|ext pictures@Jules(i); pictures@Jules(7);|});
        ok
          (Peer.load_string julia
             {|int mine@Julia(i); mine@Julia($i) :- pictures@Jules($i);|});
        ignore (ok (System.run sys));
        let src, rule = List.hd (Peer.pending_delegations jules) in
        check_bool "rejected" (Peer.reject_delegation jules ~src rule);
        ignore (ok (System.run sys));
        check_int "still blocked" 0 (List.length (Peer.query julia "mine"));
        check_int "no delegations" 0 (List.length (Peer.delegated_rules jules)));
    tc "ring topology: facts travel all the way around" (fun () ->
        let sys = System.create () in
        let n = 4 in
        let name i = Printf.sprintf "r%d" i in
        for i = 0 to n - 1 do
          let p = System.add_peer sys (name i) in
          ok
            (Peer.load_string p
               (Printf.sprintf "token@%s($x) :- token@%s($x);"
                  (name ((i + 1) mod n))
                  (name i)))
        done;
        ok
          (Peer.insert
             (System.peer sys (name 0))
             (Fact.make ~rel:"token" ~peer:(name 0) [ Value.Int 42 ]));
        ignore (ok (System.run sys));
        for i = 0 to n - 1 do
          check_int
            (Printf.sprintf "token reached %s" (name i))
            1
            (List.length (Peer.query (System.peer sys (name i)) "token"))
        done);
    tc "removing the origin rule retracts its delegations" (fun () ->
        let sys, jules, emilien = setup_jules_emilien () in
        ignore (ok (System.run sys));
        check_int "installed" 1 (List.length (Peer.delegated_rules emilien));
        let rule = List.hd (Peer.rules jules) in
        check_bool "removed" (Peer.remove_rule jules rule);
        ignore (ok (System.run sys));
        check_int "retracted" 0 (List.length (Peer.delegated_rules emilien));
        check_int "view empty" 0 (List.length (Peer.query jules "attendeePictures")));
    tc "a delegation chain that returns to its origin stabilises" (fun () ->
        let sys = System.create () in
        let a = System.add_peer sys "a" in
        let b = System.add_peer sys "b" in
        (* a's rule hops to b, whose data sends it hopping back to a. *)
        ok
          (Peer.load_string a
             {|ext here@a(x); int got@a(x); here@a(7);
               got@a($x) :- hop@b($q), here@$q($x);|});
        ok (Peer.load_string b {|ext hop@b(q); hop@b("a");|});
        ignore (ok (System.run sys));
        check_int "round trip result" 1 (List.length (Peer.query a "got"));
        check_bool "b holds a's rule" (Peer.delegated_rules b <> []);
        check_bool "a holds b's residual" (Peer.delegated_rules a <> []));
    tc "trace records message flow on both ends" (fun () ->
        let sys, jules, emilien = setup_jules_emilien () in
        ignore (ok (System.run sys));
        let sent_by p =
          List.length
            (List.filter
               (function Trace.Message_sent _ -> true | _ -> false)
               (Trace.events (Peer.trace p)))
        in
        let received_by p =
          List.length
            (List.filter
               (function Trace.Message_received _ -> true | _ -> false)
               (Trace.events (Peer.trace p)))
        in
        check_bool "jules sent" (sent_by jules > 0);
        check_bool "emilien received" (received_by emilien > 0);
        check_int "conservation"
          (sent_by jules + sent_by emilien)
          (received_by jules + received_by emilien));
    tc "failure detector: silence demotes, dead letters, revival flushes"
      (fun () ->
        (* Tight thresholds so the detector acts within a few rounds;
           "watcher" materialises the view into sys_peers. *)
        let sys =
          System.create
            ~transport:(Wdl_net.Inmem.create ~sizer:Message.size ())
            ~drop_unknown:false
            ~membership:
              { Membership.suspect_after = 2; dead_after = 4; probe_every = 0 }
            ()
        in
        let p = System.add_peer sys "p" in
        let watcher = System.add_peer sys "watcher" in
        ok (Peer.load_string watcher "ext sys_peers@watcher(name, status);");
        ok (Peer.load_string p "ext a@p(x); a@p(1); out@ghost($x) :- a@p($x);");
        (* Round 1 stages the message to ghost, tracking the name. *)
        ignore (System.round sys);
        check_bool "ghost tracked alive"
          (System.membership_status sys "ghost" = Some Membership.Alive);
        for _ = 1 to 5 do
          ignore (System.round sys)
        done;
        check_bool "silence killed ghost"
          (System.membership_status sys "ghost" = Some Membership.Dead);
        check_bool "registered peers never demoted by silence"
          (System.membership_status sys "p" = Some Membership.Alive);
        check_bool "transition traced"
          (List.exists
             (function
               | Trace.Peer_status { peer = "ghost"; status = "dead" } -> true
               | _ -> false)
             (Trace.events (System.trace sys)));
        check_bool "view queryable through sys_peers"
          (List.exists
             (fun f ->
               Format.asprintf "%a" Fact.pp f
               = {|sys_peers@watcher("ghost", "dead")|})
             (Peer.query watcher "sys_peers"));
        (* New traffic to a dead name parks instead of hitting the wire.
           (Manual rounds: the round-1 message to ghost sits undrained in
           the transport until ghost exists, so [run] cannot quiesce.) *)
        ok (Peer.insert p (Fact.make ~rel:"a" ~peer:"p" [ Value.Int 2 ]));
        for _ = 1 to 4 do
          ignore (System.round sys)
        done;
        check_bool "dead-lettered" (System.dead_lettered sys > 0);
        check_bool "parked" (System.dead_letters sys > 0);
        (* The name joins for real: parked letters flush and deliver. *)
        let ghost = System.add_peer sys "ghost" in
        check_bool "revived"
          (System.membership_status sys "ghost" = Some Membership.Alive);
        ignore (ok (System.run sys));
        check_int "nothing parked" 0 (System.dead_letters sys);
        check_int "flushed letters and re-announce both arrived" 2
          (List.length (Peer.query ghost "out")));
    tc "eviction retracts the dead peer's delegations everywhere" (fun () ->
        let sys, _, emilien = setup_jules_emilien () in
        ignore (ok (System.run sys));
        check_int "installed" 1 (List.length (Peer.delegated_rules emilien));
        System.evict_peer sys "Jules";
        check_int "eviction applied" 1 (System.evictions sys);
        check_bool "marked dead"
          (System.membership_status sys "Jules" = Some Membership.Dead);
        check_int "delegation retracted" 0
          (List.length (Peer.delegated_rules emilien));
        ignore (ok (System.run sys));
        check_bool "survivors still quiesce" (System.quiescent sys));
    tc "rejoin after eviction reconverges (delegations reinstall)" (fun () ->
        let sys, jules, emilien = setup_jules_emilien () in
        ignore (ok (System.run sys));
        let snapshot = Peer.snapshot jules in
        System.evict_peer sys "Jules";
        ignore (ok (System.run sys));
        check_int "retracted while dead" 0
          (List.length (Peer.delegated_rules emilien));
        let jules' = ok (Peer.restore snapshot) in
        System.adopt_peer sys jules';
        ignore (ok (System.run sys));
        check_int "delegation reinstalled" 1
          (List.length (Peer.delegated_rules emilien));
        check_int "view rebuilt" 2
          (List.length (Peer.query jules' "attendeePictures")));
    tc "remove_peer leaves nothing behind: the name is reusable" (fun () ->
        let transport, rctl =
          Wdl_net.Reliable.wrap
            (Wdl_net.Inmem.create
               ~sizer:(fun e ->
                 match e.Wdl_net.Reliable.env_payload with
                 | Some m -> Message.size m
                 | None -> 8)
               ())
        in
        let sys = System.create ~transport ~drop_unknown:false () in
        System.wire_reliable sys rctl;
        let src = System.add_peer sys "src" in
        ignore (System.add_peer sys "sink");
        ok (Peer.load_string src "a@src(1); stored@sink($x) :- a@src($x);");
        ignore (ok (System.run sys));
        System.remove_peer sys "sink";
        (* A second incarnation under the same name: the purged session
           state must let its fresh sequence numbers through, and src's
           forgotten diff state must re-announce the batch. *)
        let sink' = System.add_peer sys "sink" in
        ok (Peer.insert src (Fact.make ~rel:"a" ~peer:"src" [ Value.Int 2 ]));
        ignore (ok (System.run sys));
        check_int "new incarnation caught up" 2
          (List.length (Peer.query sink' "stored")));
    tc "bounded inbox sheds by policy; depth never exceeds capacity"
      (fun () ->
        let apply shed =
          let p = Peer.create ~inbox_capacity:1 ~shed "q" in
          ok (Peer.load_string p "ext r@q(x);");
          List.iter
            (fun i ->
              Peer.receive p
                (Message.make ~src:(Printf.sprintf "s%d" i) ~dst:"q" ~stage:1
                   ~facts:
                     (Some [ Fact.make ~rel:"r" ~peer:"q" [ Value.Int i ] ])
                   ()))
            [ 1; 2 ];
          check_int "depth bounded" 1 (Peer.inbox_length p);
          check_int "one shed" 1 (Peer.sheds p);
          ignore (Peer.stage p);
          List.map
            (fun f -> Format.asprintf "%a" Fact.pp f)
            (Peer.query p "r")
        in
        Alcotest.check (Alcotest.list Alcotest.string) "drop_newest keeps 1"
          [ "r@q(1)" ] (apply Peer.Drop_newest);
        Alcotest.check (Alcotest.list Alcotest.string) "drop_oldest keeps 2"
          [ "r@q(2)" ] (apply Peer.Drop_oldest));
    tc "accept_all installs every pending delegation" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys ~policy:Acl.Closed "Jules" in
        let a = System.add_peer sys "a" in
        let b = System.add_peer sys "b" in
        ok (Peer.load_string jules "ext pictures@Jules(i); pictures@Jules(1);");
        ok (Peer.load_string a "int v@a(i); v@a($i) :- pictures@Jules($i);");
        ok (Peer.load_string b "int v@b(i); v@b($i) :- pictures@Jules($i);");
        ignore (ok (System.run sys));
        check_int "two pending" 2 (List.length (Peer.pending_delegations jules));
        check_int "two installed" 2 (Peer.accept_all_delegations jules);
        ignore (ok (System.run sys));
        check_int "a sees" 1 (List.length (Peer.query a "v"));
        check_int "b sees" 1 (List.length (Peer.query b "v")));
    tc "every kind of change ends equal to a from-scratch rebuild" rebuild_test;
    tc "8 producers into a capacity-4 inbox: shed, bounded, quiesced"
      overload_test;
    tc "rejoin drops a cached batch its source emptied while it was down"
      (fun () ->
        (* p1 delegates [relay@p1(1) :- r@p0(1)] to p0 and caches p0's
           answer. r@p0(1) goes away while p1 is down; p0's batch to p1
           is now empty, which p0 (having forgotten p1) never re-sends.
           The rejoin itself must drop p1's restored cache. *)
        Tmpdir.with_temp_dir @@ fun dir ->
        let sys, p0, _ = setup_relay () in
        Persist.attach (System.peer sys "p1") ~dir;
        Persist.checkpoint (System.peer sys "p1") ~dir;
        System.remove_peer sys "p1";
        ok (Peer.delete p0 (Fact.make ~rel:"r" ~peer:"p0" [ Value.Int 1 ]));
        ignore (ok (System.run sys));
        let p1 = ok (Persist.recover ~dir ~fallback_name:"p1" ()) in
        System.adopt_peer sys p1;
        ignore (ok (System.run sys));
        check_int "relay emptied" 0 (List.length (Peer.query p1 "relay")));
    tc "rejoin retracts delegations the crashed peer no longer holds"
      (fun () ->
        (* p1 deletes data@p1(1) (journaled) and crashes before staging:
           the retraction of its delegation at p0 was never sent, and
           the recovered p1 has no memory of having installed it. *)
        Tmpdir.with_temp_dir @@ fun dir ->
        let sys, p0, p1 = setup_relay () in
        Persist.attach p1 ~dir;
        Persist.checkpoint p1 ~dir;
        ok (Peer.delete p1 (Fact.make ~rel:"data" ~peer:"p1" [ Value.Int 1 ]));
        System.remove_peer sys "p1";
        let p1 = ok (Persist.recover ~dir ~fallback_name:"p1" ()) in
        System.adopt_peer sys p1;
        ignore (ok (System.run sys));
        check_int "delegation retracted at p0" 0
          (List.length (Peer.delegated_rules p0));
        check_int "relay emptied" 0 (List.length (Peer.query p1 "relay")));
    tc "eviction drops the dead peer's messages still queued" (fun () ->
        (* After one round p2 has p0's delegation install queued but
           not yet staged; evicting p0 must not let it install later. *)
        let sys = System.create () in
        let p0 = System.add_peer sys "p0" in
        let p2 = System.add_peer sys "p2" in
        ok (Peer.load_string p0 "int v@p0(x); v@p0($x) :- data@p2($x);");
        ok (Peer.load_string p2 "ext data@p2(x); data@p2(1);");
        ignore (System.round sys);
        check_int "install queued at p2" 1 (Peer.inbox_length p2);
        System.evict_peer sys "p0";
        ignore (ok (System.run sys));
        check_int "nothing installed from the dead peer" 0
          (List.length (Peer.delegated_rules p2)));
    tc "eviction keeps the extensional updates the dead peer had queued"
      (fun () ->
        (* p0's batch for p2 is delivered but not yet staged when p0 is
           evicted: inbox@p2(1) is an update and persists, v@p2(1) lived
           only while p0 maintained it. *)
        let sys = System.create () in
        let p0 = System.add_peer sys "p0" in
        let p2 = System.add_peer sys "p2" in
        ok
          (Peer.load_string p0
             "ext r@p0(x); r@p0(1);\n\
              inbox@p2($x) :- r@p0($x);\n\
              v@p2($x) :- r@p0($x);");
        ok (Peer.load_string p2 "ext inbox@p2(x); int v@p2(x);");
        ignore (System.round sys);
        check_int "batch queued at p2" 1 (Peer.inbox_length p2);
        System.evict_peer sys "p0";
        ignore (ok (System.run sys));
        check_int "queued update kept" 1 (List.length (Peer.query p2 "inbox"));
        check_int "queued view fact dropped" 0 (List.length (Peer.query p2 "v")));
  ]
