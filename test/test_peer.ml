open Wdl_syntax
open Webdamlog
open Check

let fact rel peer args = Fact.make ~rel ~peer args

(* A fresh peer named [name] loaded with [program] (written over the
   placeholder peer name "_") and the extensional [facts] (as
   (rel, args) pairs), staged once. Its first stage is always a full
   one, so it is the from-scratch oracle for a long-running peer that
   reached the same facts and rules through cached and delta
   stages. *)
let fresh_twin name program facts =
  let q = Peer.create name in
  ok
    (Peer.load_string q
       (String.concat name (String.split_on_char '_' program)));
  List.iter (fun (rel, args) -> ok (Peer.insert q (fact rel name args))) facts;
  ignore (Peer.stage q);
  q

(* [rel]'s tuples, without the peer name, sorted. *)
let rows q rel =
  List.sort compare (List.map (fun (f : Fact.t) -> f.Fact.args) (Peer.query q rel))

(* An idle stage (a settled peer, no new inputs) is an ordinary stage:
   the stage number advances, a peer the delta gate admits runs an
   empty seed and any other peer recomputes, and either way nothing is
   sent and no relation or reported error changes. *)
let idle_stage_is_ordinary ~delta q =
  let name = Peer.name q in
  let deltas () =
    int_of_float
      (Wdl_obs.Obs.read_one ~labels:[ ("peer", name) ]
         "wdl_eval_delta_stages_total")
  in
  let dump () = List.map (fun rel -> (rel, rows q rel)) (Peer.relation_names q) in
  check_bool (name ^ ": settled") (not (Peer.has_work q));
  let stage0 = Peer.stage_number q and deltas0 = deltas () in
  let relations = dump () and errors = Peer.last_errors q in
  check_int (name ^ ": idle stage sends nothing") 0 (List.length (Peer.stage q));
  check_int (name ^ ": stage number advances") (stage0 + 1) (Peer.stage_number q);
  check_bool (name ^ ": relations unchanged") (dump () = relations);
  check_bool (name ^ ": errors unchanged") (Peer.last_errors q = errors);
  check_int (name ^ ": delta stage only when the gate admits it")
    (if delta then deltas0 + 1 else deltas0)
    (deltas ())

let suite =
  [
    tc "create validates the name" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Peer.create: empty name")
          (fun () -> ignore (Peer.create "")));
    tc "load_program reports the failing statement" (fun () ->
        let p = Peer.create "p" in
        match Peer.load_string p "a@p(1); a@q(2);" with
        | Error msg ->
          check_bool "mentions statement 2"
            (String.length msg >= 11 && String.sub msg 0 11 = "statement 2")
        | Ok () -> Alcotest.fail "expected error");
    tc "declarations for other peers rejected" (fun () ->
        let p = Peer.create "p" in
        check_bool "rejected"
          (Result.is_error (Peer.load_string p "ext m@q(a);")));
    tc "views cannot be updated directly" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "int v@p(x);");
        check_bool "insert rejected"
          (Result.is_error (Peer.insert p (fact "v" "p" [ Value.Int 1 ])));
        check_bool "fact statement rejected"
          (Result.is_error (Peer.load_string p "v@p(1);")));
    tc "unsafe rules rejected at load" (fun () ->
        let p = Peer.create "p" in
        check_bool "rejected"
          (Result.is_error (Peer.load_string p "v@p($x) :- a@p($y);")));
    tc "negation cycles rejected at rule addition" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "int a@p(x); int b@p(x);");
        ok (Peer.load_string p "a@p($x) :- base@p($x), not b@p($x);");
        check_bool "cycle rejected"
          (Result.is_error
             (Peer.add_rule p
                (Parser.parse_rule "b@p($x) :- base@p($x), not a@p($x)"))));
    tc "insert/delete toggle has_work" (fun () ->
        let p = Peer.create "p" in
        check_bool "fresh" (not (Peer.has_work p));
        ok (Peer.insert p (fact "m" "p" [ Value.Int 1 ]));
        check_bool "dirty" (Peer.has_work p);
        ignore (Peer.stage p);
        check_bool "clean" (not (Peer.has_work p));
        (* Duplicate insert is a no-op: stays clean. *)
        ok (Peer.insert p (fact "m" "p" [ Value.Int 1 ]));
        check_bool "still clean" (not (Peer.has_work p)));
    tc "facts for other peers rejected" (fun () ->
        let p = Peer.create "p" in
        check_bool "rejected"
          (Result.is_error (Peer.insert p (fact "m" "q" [ Value.Int 1 ]))));
    tc "stage computes views" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "int v@p(x); a@p(1); a@p(2); v@p($x) :- a@p($x);");
        ignore (Peer.stage p);
        check_int "view" 2 (List.length (Peer.query p "v")));
    tc "inductive updates land one stage later" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "a@p(1); b@p($x) :- a@p($x);");
        ignore (Peer.stage p);
        check_int "not yet" 0 (List.length (Peer.query p "b"));
        check_bool "work pending" (Peer.has_work p);
        ignore (Peer.stage p);
        check_int "applied" 1 (List.length (Peer.query p "b"));
        (* And the system settles: nothing new keeps arriving. *)
        ignore (Peer.stage p);
        check_bool "settled" (not (Peer.has_work p)));
    tc "inductive chains take one stage per step" (fun () ->
        let p = Peer.create "p" in
        ok
          (Peer.load_string p
             "a@p(1); b@p($x) :- a@p($x); c@p($x) :- b@p($x);");
        let rec settle n = if Peer.has_work p then begin ignore (Peer.stage p); settle (n + 1) end else n in
        let stages = settle 0 in
        check_int "c" 1 (List.length (Peer.query p "c"));
        check_bool "several stages" (stages >= 2));
    tc "query returns sorted facts, unknown relation empty" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "m@p(3); m@p(1);");
        (match Peer.query p "m" with
        | [ f1; f2 ] -> check_bool "sorted" (Fact.compare f1 f2 < 0)
        | _ -> Alcotest.fail "expected two");
        check_int "unknown" 0 (List.length (Peer.query p "nothing")));
    tc "remove_rule stops derivation of views" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "int v@p(x); a@p(1); v@p($x) :- a@p($x);");
        ignore (Peer.stage p);
        check_int "before" 1 (List.length (Peer.query p "v"));
        let r = List.hd (Peer.rules p) in
        check_bool "removed" (Peer.remove_rule p r);
        check_bool "absent now" (not (Peer.remove_rule p r));
        ignore (Peer.stage p);
        check_int "after" 0 (List.length (Peer.query p "v")));
    tc "runtime errors surface in last_errors" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "sel@p(42); v@q($x) :- sel@p($a), d@$a($x);");
        ignore (Peer.stage p);
        check_bool "error recorded" (Peer.last_errors p <> []));
    tc "stable stages stop emitting messages" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "a@p(1); out@q($x) :- a@p($x);");
        let m1 = Peer.stage p in
        check_int "first send" 1 (List.length m1);
        (* Force another stage: same batch, nothing sent. *)
        ok (Peer.insert p (fact "noise" "p" [ Value.Int 1 ]));
        let m2 = Peer.stage p in
        check_int "no resend" 0 (List.length m2));
    tc "batch changes trigger a fresh send including removals" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "a@p(1); int v@p(x); v@p($x) :- a@p($x); out@q($x) :- v@p($x);");
        let m1 = Peer.stage p in
        check_int "send" 1 (List.length m1);
        ok (Peer.delete p (fact "a" "p" [ Value.Int 1 ]));
        let m2 = Peer.stage p in
        (match m2 with
        | [ m ] -> check_bool "empty batch sent" (m.Message.facts = Some [])
        | _ -> Alcotest.fail "expected one message"));
    tc "incremental engine: cache hits, idle stages, and invalidation" (fun () ->
        let read p name =
          int_of_float (Wdl_obs.Obs.read_one ~labels:[ ("peer", name) ] p)
        in
        let p = Peer.create "inc_p" in
        (* A two-literal join: the planner puts the smaller relation
           first, ties in written order. *)
        ok
          (Peer.load_string p
             "int v@inc_p(x); a@inc_p(1); b@inc_p(1); b@inc_p(2); \
              b@inc_p(3); v@inc_p($x) :- a@inc_p($x), b@inc_p($x);");
        ignore (Peer.stage p);
        (* Idle stages on three settled peers: a monotone one and one
           whose negation no new fact reaches, both seeded with
           nothing, and one whose stages report runtime errors, which
           recomputes. *)
        idle_stage_is_ordinary ~delta:true p;
        let full = Peer.create "idle_full" in
        ok
          (Peer.load_string full
             "ext a@idle_full(x); ext blocked@idle_full(x); \
              int ok@idle_full(x); a@idle_full(1); a@idle_full(2); \
              blocked@idle_full(2); \
              ok@idle_full($x) :- a@idle_full($x), not blocked@idle_full($x); \
              out@q($x) :- ok@idle_full($x);");
        check_int "full: first stage sends" 1 (List.length (Peer.stage full));
        idle_stage_is_ordinary ~delta:true full;
        (* A new fact in the negated relation recomputes, and the
           batch shrinks. *)
        let seeded0 = read "wdl_eval_delta_stages_total" "idle_full" in
        ok (Peer.insert full (fact "blocked" "idle_full" [ Value.Int 1 ]));
        (match Peer.stage full with
        | [ m ] -> check_bool "idle_full: batch emptied" (m.Message.facts = Some [])
        | _ -> Alcotest.fail "idle_full: expected one message");
        check_int "idle_full: a blocked fact is not seeded" seeded0
          (read "wdl_eval_delta_stages_total" "idle_full");
        let err = Peer.create "idle_err" in
        ok
          (Peer.load_string err
             "sel@idle_err(42); v@q($x) :- sel@idle_err($a), d@$a($x);");
        ignore (Peer.stage err);
        check_bool "errors: first stage reports" (Peer.last_errors err <> []);
        idle_stage_is_ordinary ~delta:false err;
        let hits0 = read "wdl_eval_program_cache_hits_total" "inc_p" in
        let replans0 = read "wdl_eval_replans_total" "inc_p" in
        let stage_a n =
          ok (Peer.insert p (fact "a" "inc_p" [ Value.Int n ]));
          ignore (Peer.stage p)
        in
        (* [a] doubles from 1 to 2 tuples: a band crossing, but [a] is
           still the smaller side, so every order stays and the cached
           program serves the stage. *)
        stage_a 2;
        check_int "order-keeping crossing is a cache hit" (hits0 + 1)
          (read "wdl_eval_program_cache_hits_total" "inc_p");
        check_int "order-keeping crossing does not replan" replans0
          (read "wdl_eval_replans_total" "inc_p");
        check_int "view caught up" 2 (List.length (Peer.query p "v"));
        (* [a] reaches 4 tuples, past [b]'s 3: the crossing flips the
           join order, so the planner re-orders the rule. *)
        stage_a 3;
        stage_a 4;
        check_int "order-flipping crossing replans" (replans0 + 1)
          (read "wdl_eval_replans_total" "inc_p");
        check_int "view caught up again" 3 (List.length (Peer.query p "v"));
        (* 4 -> 5 tuples stays inside the band: cached program reused. *)
        let hits1 = read "wdl_eval_program_cache_hits_total" "inc_p" in
        stage_a 5;
        check_int "cached program reused" (hits1 + 1)
          (read "wdl_eval_program_cache_hits_total" "inc_p");
        (* Rule change invalidates: the next stage recompiles (no hit). *)
        ok (Peer.load_string p "int w@inc_p(x); w@inc_p($x) :- a@inc_p($x);");
        ignore (Peer.stage p);
        check_int "invalidated, recompiled" (hits1 + 1)
          (read "wdl_eval_program_cache_hits_total" "inc_p");
        check_int "new view filled" 5 (List.length (Peer.query p "w"));
        (* A fresh twin with the same final facts and rules computes
           everything in one full stage; the cached peer must agree. *)
        let b =
          fresh_twin "inc_b"
            "int v@_(x); int w@_(x); v@_($x) :- a@_($x), b@_($x); \
             w@_($x) :- a@_($x);"
            (List.map (fun i -> ("a", [ Value.Int i ])) [ 1; 2; 3; 4; 5 ]
            @ List.map (fun i -> ("b", [ Value.Int i ])) [ 1; 2; 3 ])
        in
        check_int "twin: first stage compiles" 0
          (read "wdl_eval_program_cache_hits_total" "inc_b");
        check_bool "v matches the fresh twin" (rows b "v" = rows p "v");
        check_bool "w matches the fresh twin" (rows b "w" = rows p "w"));
    tc "delta staging: additive runs seed the fixpoint, deletions fall back"
      (fun () ->
        let read p name =
          int_of_float (Wdl_obs.Obs.read_one ~labels:[ ("peer", name) ] p)
        in
        let deltas () = read "wdl_eval_delta_stages_total" "dlt_p" in
        (* A transitive closure: a seeded pass must chase multi-hop
           consequences of one new edge, not just direct joins. After
           every change, a fresh twin loaded with the same edges
           computes the closure from scratch; both must agree. *)
        let prog =
          "ext e@_(x,y); int r@_(x,y);\n\
           r@_($x,$y) :- e@_($x,$y);\n\
           r@_($x,$z) :- r@_($x,$y), e@_($y,$z);"
        in
        let p = fresh_twin "dlt_p" prog [] in
        check_int "first stage is a full one" 0 (deltas ());
        let edges = ref [] in
        let agrees label =
          let b =
            fresh_twin "dlt_b" prog
              (List.map (fun (x, y) -> ("e", [ Value.Int x; Value.Int y ])) !edges)
          in
          check_bool label (rows b "r" = rows p "r")
        in
        let edge (x, y) = fact "e" "dlt_p" [ Value.Int x; Value.Int y ] in
        List.iteri
          (fun i e ->
            ok (Peer.insert p (edge e));
            edges := e :: !edges;
            ignore (Peer.stage p);
            agrees (Printf.sprintf "closure agrees after edge %d" i))
          [ (1, 2); (2, 3); (3, 4); (2, 5) ];
        check_int "additive stages ran as delta stages" 4 (deltas ());
        (* A deletion is not additive: the next stage recomputes from
           scratch, and the shrunken closure matches the twin's. *)
        ok (Peer.delete p (edge (2, 3)));
        edges := List.filter (( <> ) (2, 3)) !edges;
        ignore (Peer.stage p);
        check_int "deletion fell back to a full stage" 4 (deltas ());
        agrees "closure shrank identically";
        (* Negation and aggregation: a stage seeds when none of its
           new facts can reach a negated or aggregated read, and
           recomputes otherwise; after every stage each relation equals
           a fresh twin's. *)
        let gate name prog facts steps =
          let p = fresh_twin name prog facts in
          let seeded () = read "wdl_eval_delta_stages_total" name in
          ignore
            (List.fold_left
               (fun facts ((rel, args), seeds) ->
                 let before = seeded () in
                 ok (Peer.insert p (fact rel name args));
                 ignore (Peer.stage p);
                 let facts = facts @ [ (rel, args) ] in
                 check_int
                   (Printf.sprintf "%s: a %s fact %s" name rel
                      (if seeds then "is seeded" else "recomputes"))
                   (if seeds then before + 1 else before)
                   (seeded ());
                 let b = fresh_twin (name ^ "twin") prog facts in
                 List.iter
                   (fun rel ->
                     check_bool
                       (Printf.sprintf "%s: %s matches the fresh twin" name rel)
                       (rows b rel = rows p rel))
                   (Peer.relation_names p);
                 facts)
               facts steps)
        in
        let i n = Value.Int n in
        gate "dltneg"
          "ext a@_(x); ext blocked@_(x); int ok@_(x);\n\
           ok@_($x) :- a@_($x), not blocked@_($x);"
          [ ("a", [ i 1 ]) ]
          [ (("a", [ i 2 ]), true); (("blocked", [ i 2 ]), false);
            (("a", [ i 3 ]), true) ];
        gate "dltagg"
          "ext pics@_(id); ext rate@_(id, r); int best@_(id, r); int shown@_(id);\n\
           best@_($i, max($r)) :- rate@_($i, $r);\n\
           shown@_($i) :- pics@_($i);"
          [ ("rate", [ i 1; i 2 ]) ]
          [ (("pics", [ i 1 ]), true); (("rate", [ i 1; i 5 ]), false);
            (("pics", [ i 2 ]), true); (("rate", [ i 2; i 1 ]), false) ];
        (* A view feeding the negation puts it a stratum up. *)
        gate "dltview"
          "ext a@_(x); ext b@_(x); int w@_(x); int ok@_(x);\n\
           w@_($x) :- a@_($x);\n\
           ok@_($x) :- b@_($x), not w@_($x);"
          [ ("b", [ i 1 ]) ]
          [ (("a", [ i 1 ]), false); (("b", [ i 2 ]), false) ];
        (* A negation on a relation variable may read anything. *)
        gate "dltvar"
          "ext a@_(x); ext names@_(n); ext b@_(x);\n\
           out@r($x) :- a@_($x), names@_($n), not $n@_($x);"
          [ ("names", [ Value.String "b" ]) ]
          [ (("a", [ i 1 ]), false); (("b", [ i 1 ]), false) ]);
    tc "delta staging: a sink install is seeded and equals a full twin"
      (fun () ->
        let read name =
          int_of_float
            (Wdl_obs.Obs.read_one ~labels:[ ("peer", name) ] "wdl_eval_delta_stages_total")
        in
        (* An aggregate keeps the program non-monotone; the install
           arrives with a batch that only adds. *)
        let prog =
          "ext a@_(x); ext rate@_(id, r); int best@_(id, r);\n\
           best@_($i, max($r)) :- rate@_($i, $r);"
        in
        let install name =
          Message.make ~src:"q" ~dst:name ~stage:1
            ~facts:(Some [ fact "a" name [ Value.Int 3 ] ])
            ~installs:[ Parser.parse_rule (Printf.sprintf "out@q($x) :- a@%s($x)" name) ]
            ()
        in
        let p =
          fresh_twin "sinkp" prog [ ("a", [ Value.Int 1 ]); ("rate", [ Value.Int 1; Value.Int 4 ]) ]
        in
        let seeded0 = read "sinkp" in
        Peer.receive p (install "sinkp");
        let sent = Peer.stage p in
        check_int "the install stage is seeded" (seeded0 + 1) (read "sinkp");
        (* The twin holds the same facts and takes the same message on
           its first stage, a full one. *)
        let b = Peer.create "sinkb" in
        ok (Peer.load_string b (String.concat "sinkb" (String.split_on_char '_' prog)));
        List.iter
          (fun (rel, args) -> ok (Peer.insert b (fact rel "sinkb" args)))
          [ ("a", [ Value.Int 1 ]); ("rate", [ Value.Int 1; Value.Int 4 ]) ];
        Peer.receive b (install "sinkb");
        let twin = Peer.stage b in
        check_int "the twin's first stage is full" 0 (read "sinkb");
        let batches ms = List.map (fun (m : Message.t) -> (m.Message.dst, m.Message.facts)) ms in
        check_bool "same batch as the full twin" (batches sent = batches twin);
        check_bool "the batch holds every a fact"
          (match sent with
          | [ m ] -> Option.map List.length m.Message.facts = Some 2
          | _ -> false);
        check_bool "same views as the full twin" (rows b "best" = rows p "best"));
    tc "every full stage names its reason" (fun () ->
        (* One peer per reason: settled by a full first stage (session)
           and an idle one, then driven to exactly one full stage whose
           reason is the only count that moves. *)
        let reasons q = (Peer.stats q).Peer.full_stages in
        let drive reason ?(prog = "ext a@_(x); ext b@_(x); int ok@_(x);\n\
                                    ok@_($x) :- a@_($x), not b@_($x);") act =
          let name = "why" ^ String.concat "" (String.split_on_char '_' reason) in
          let q = fresh_twin name prog [ ("a", [ Value.Int 1 ]) ] in
          check_int (reason ^ ": first stage is a session one") 1
            (List.assoc "session" (reasons q));
          ignore (Peer.stage q);
          (* A two-stratum program is never seeded, idle or not. *)
          check_int (reason ^ ": idle stage seeded")
            (if reason = "strata" then 0 else 1)
            (Peer.stats q).Peer.delta_stages;
          (* [act] may stage first: only its last stage is judged. *)
          act q name;
          let before = reasons q in
          ignore (Peer.stage q);
          let after = reasons q in
          List.iter2
            (fun (r, n) (r', n') ->
              assert (r = r');
              check_int
                (Printf.sprintf "%s: %s count" reason r)
                (if r = reason then n + 1 else n)
                n')
            before after;
          let s = Peer.stats q in
          check_int (reason ^ ": seeded and full stages add up") s.Peer.stages
            (s.Peer.delta_stages + List.fold_left (fun acc (_, n) -> acc + n) 0 s.Peer.full_stages)
        in
        let insert rel args q name = ok (Peer.insert q (fact rel name args)) in
        drive "provenance" (fun q _ -> Peer.set_track_provenance q true);
        drive "builtin" (fun q name ->
            ok (Peer.load_string q (Printf.sprintf "builtin time clock@%s(stage, now);" name)));
        drive "error" (fun q name ->
            (* The rule's stage reports errors (a rule change); the
               next one recomputes because of them. *)
            ok
              (Peer.load_string q
                 (Printf.sprintf "sel@%s(42); v@r($x) :- sel@%s($a), d@$a($x);" name name));
            ignore (Peer.stage q));
        drive "session" (fun q _ -> Peer.reset_session q);
        drive "rule_change" (fun q name ->
            ok (Peer.add_rule q (Parser.parse_rule (Printf.sprintf "out@r($x) :- a@%s($x)" name))));
        drive "delete" (fun q name -> ok (Peer.delete q (fact "a" name [ Value.Int 1 ])));
        drive "nonadditive_inbox" (fun q name ->
            let batch facts = Message.make ~src:"r" ~dst:name ~stage:1 ~facts:(Some facts) () in
            Peer.receive q (batch [ fact "a" name [ Value.Int 2 ] ]);
            ignore (Peer.stage q);
            Peer.receive q (batch []));
        drive "strata"
          ~prog:"ext a@_(x); ext b@_(x); int w@_(x); int ok@_(x);\n\
                 w@_($x) :- a@_($x);\n\
                 ok@_($x) :- b@_($x), not w@_($x);"
          (insert "b" [ Value.Int 1 ]);
        drive "guarded" (insert "b" [ Value.Int 1 ]));
    tc "trace records lifecycle events" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "int v@p(x); a@p(1); v@p($x) :- a@p($x);");
        ignore (Peer.stage p);
        let events = Trace.events (Peer.trace p) in
        check_bool "rule added"
          (List.exists (function Trace.Rule_added _ -> true | _ -> false) events);
        check_bool "fact inserted"
          (List.exists (function Trace.Fact_inserted _ -> true | _ -> false) events);
        check_bool "stage bracketed"
          (List.exists (function Trace.Stage_start _ -> true | _ -> false) events
          && List.exists (function Trace.Stage_end _ -> true | _ -> false) events));
    tc "revival flushes dead letters ahead of fresh sends (FIFO)" (fun () ->
        (* Park several batches for a dead name across rounds, then
           revive it with new traffic already pending.  The parked
           letters must reach the receiver before anything staged after
           the revival — observed via the receiver's Message_received
           trace, whose stage counters are strictly increasing iff the
           transport saw oldest-first order. *)
        let sys =
          System.create
            ~transport:(Wdl_net.Inmem.create ~sizer:Message.size ())
            ~drop_unknown:false
            ~membership:
              { Membership.suspect_after = 1; dead_after = 2; probe_every = 0 }
            ()
        in
        let p = System.add_peer sys "p" in
        ok (Peer.load_string p "ext a@p(x); a@p(1); out@ghost($x) :- a@p($x);");
        ignore (System.round sys);
        for _ = 1 to 3 do
          ignore (System.round sys)
        done;
        check_bool "ghost declared dead"
          (System.membership_status sys "ghost" = Some Membership.Dead);
        (* Each insert+round parks one more batch (older stages first). *)
        ok (Peer.insert p (fact "a" "p" [ Value.Int 2 ]));
        ignore (System.round sys);
        ok (Peer.insert p (fact "a" "p" [ Value.Int 3 ]));
        ignore (System.round sys);
        check_bool "at least two parked" (System.dead_letters sys >= 2);
        (* Fresh work is queued before the revival, so the first round
           after [add_peer] coalesces new sends while the flushed
           letters already sit in the transport. *)
        ok (Peer.insert p (fact "a" "p" [ Value.Int 4 ]));
        let ghost = System.add_peer sys "ghost" in
        check_int "flushed at revival" 0 (System.dead_letters sys);
        ignore (ok (System.run sys));
        let stages =
          List.filter_map
            (function
              | Trace.Message_received { msg }
                when msg.Message.src = "p" && not (Message.is_empty msg) ->
                Some msg.Message.stage
              | _ -> None)
            (Trace.events (Peer.trace ghost))
        in
        check_bool "parked and fresh both delivered" (List.length stages >= 3);
        check_bool "oldest-first FIFO"
          (List.sort_uniq compare stages = stages);
        check_int "end state converged" 4 (List.length (Peer.query ghost "out")));
    tc "add_rule is idempotent" (fun () ->
        let p = Peer.create "idem_p" in
        ok (Peer.load_string p "int v@idem_p(x); a@idem_p(1); a@idem_p(2);");
        (* The same rule twice, as structurally equal values. *)
        let rule () = Parser.parse_rule "v@idem_p($x) :- a@idem_p($x)" in
        ok (Peer.add_rule p (rule ()));
        ok (Peer.add_rule p (rule ()));
        check_int "held once" 1 (List.length (Peer.rules p));
        ignore (Peer.stage p);
        check_int "evaluated once" 2 (Peer.stats p).Peer.derivations;
        (* On a settled peer, adding it again is no change at all. *)
        let events () = Trace.count (Peer.trace p) in
        let hits () =
          Wdl_obs.Obs.read_one ~labels:[ ("peer", "idem_p") ]
            "wdl_eval_program_cache_hits_total"
        in
        let events0 = events () and hits0 = hits () in
        ok (Peer.add_rule p (rule ()));
        check_int "no event" events0 (events ());
        check_bool "no work" (not (Peer.has_work p));
        ok (Peer.insert p (fact "a" "idem_p" [ Value.Int 3 ]));
        ignore (Peer.stage p);
        check_bool "program kept" (hits () = hits0 +. 1.);
        check_int "view" 3 (List.length (Peer.query p "v"));
        check_bool "one remove drops it" (Peer.remove_rule p (rule ()));
        check_bool "and nothing is left" (not (Peer.remove_rule p (rule ()))));
    tc "compile time is split by kind: full, patch, replan" (fun () ->
        let count kind =
          Wdl_obs.Obs.histogram_count
            (Wdl_obs.Obs.histogram
               ~labels:[ ("peer", "cmp_p"); ("kind", kind) ]
               "wdl_eval_compile_microseconds")
        in
        let p = Peer.create "cmp_p" in
        (* Provenance keeps every stage full: each plans against the
           store as [refill_intensional] leaves it, so only [a]'s and
           [c]'s growth below moves a band. *)
        Peer.set_track_provenance p true;
        ok
          (Peer.load_string p
             "int v@cmp_p(x); ext c@cmp_p(x); a@cmp_p(1); b@cmp_p(1); \
              b@cmp_p(2); b@cmp_p(3); \
              v@cmp_p($x) :- a@cmp_p($x), b@cmp_p($x);");
        ignore (Peer.stage p);
        check_int "first stage compiles in full" 1 (count "full");
        (* A delegation with a remote head is a sink: patched in. *)
        Peer.receive p
          (Message.make ~src:"q" ~dst:"cmp_p" ~stage:1
             ~installs:[ Parser.parse_rule "out@q($x) :- b@cmp_p($x)" ]
             ());
        check_int "patched in" 1 (List.length (Peer.stage p));
        check_int "one patch" 1 (count "patch");
        (* [a] grows past [b]: a band crossing that flips the join. *)
        List.iter
          (fun n -> ok (Peer.insert p (fact "a" "cmp_p" [ Value.Int n ])))
          [ 2; 3; 4 ];
        ignore (Peer.stage p);
        check_int "one replan" 1 (count "replan");
        (* [c] grows past a band, but no rule reads it: nothing is
           re-planned, and the cached program serves the stage. *)
        let hits () =
          Wdl_obs.Obs.read_one ~labels:[ ("peer", "cmp_p") ]
            "wdl_eval_program_cache_hits_total"
        in
        let hits0 = hits () in
        List.iter
          (fun n -> ok (Peer.insert p (fact "c" "cmp_p" [ Value.Int n ])))
          [ 1; 2; 3; 4 ];
        ignore (Peer.stage p);
        check_int "an unread relation is not re-planned" 1 (count "replan");
        check_bool "and its stage is a cache hit" (hits () = hits0 +. 1.);
        (* [a] doubles again while [b] stays the smaller side: the
           rule is re-planned to the same order and re-banded, so the
           next stage inside the new band checks nothing. *)
        List.iter
          (fun n -> ok (Peer.insert p (fact "a" "cmp_p" [ Value.Int n ])))
          [ 5; 6; 7; 8 ];
        ignore (Peer.stage p);
        check_int "an order-keeping move is re-planned" 2 (count "replan");
        ok (Peer.insert p (fact "a" "cmp_p" [ Value.Int 9 ]));
        ignore (Peer.stage p);
        check_int "and re-banded" 2 (count "replan");
        check_int "still one full compile" 1 (count "full");
        check_int "one patch still" 1 (count "patch");
        check_int "view" 3 (List.length (Peer.query p "v")));
    tc "delegations pass the checks own rules pass" (fun () ->
        let p = Peer.create "p" in
        ok (Peer.load_string p "a@p(1);");
        let rule = Parser.parse_rule "out@q($x, $y) :- a@p($x)" in
        let reason =
          match Peer.add_rule p rule with
          | Error msg -> msg
          | Ok () -> Alcotest.fail "add_rule accepted an unsafe rule"
        in
        Peer.receive p (Message.make ~src:"q" ~dst:"p" ~stage:1 ~installs:[ rule ] ());
        ignore (Peer.stage p);
        check_int "not installed" 0 (List.length (Peer.delegated_rules p));
        check_bool "no runtime errors" (Peer.last_errors p = []);
        check_bool "rejection traced with the checker's message"
          (Trace.find (Peer.trace p) (function
             | Trace.Delegation_rejected r -> r.reason = reason
             | _ -> false)
          <> None));
  ]
