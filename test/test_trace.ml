open Wdl_syntax
open Webdamlog
open Check

let fact = Fact.make ~rel:"m" ~peer:"p" [ Value.Int 1 ]
let ev i = Trace.Fact_inserted { peer = "p"; fact = Fact.make ~rel:"m" ~peer:"p" [ Value.Int i ] }

let suite =
  [
    tc "events come back oldest first" (fun () ->
        let t = Trace.create () in
        Trace.record t (ev 1);
        Trace.record t (ev 2);
        match Trace.events t with
        | [ Trace.Fact_inserted { fact = f1; _ }; Trace.Fact_inserted { fact = f2; _ } ] ->
          check_bool "order" (Fact.compare f1 f2 < 0)
        | _ -> Alcotest.fail "unexpected events");
    tc "capacity bounds storage but not the counter" (fun () ->
        let t = Trace.create ~capacity:3 () in
        for i = 1 to 10 do
          Trace.record t (ev i)
        done;
        check_int "stored" 3 (List.length (Trace.events t));
        check_int "total" 10 (Trace.count t));
    tc "capacity zero stores nothing, counts everything" (fun () ->
        let t = Trace.create ~capacity:0 () in
        for i = 1 to 5 do
          Trace.record t (ev i)
        done;
        check_int "stored" 0 (List.length (Trace.events t));
        check_int "total" 5 (Trace.count t));
    tc "the survivors under capacity are the oldest events" (fun () ->
        let t = Trace.create ~capacity:2 () in
        for i = 1 to 5 do
          Trace.record t (ev i)
        done;
        match Trace.events t with
        | [ Trace.Fact_inserted { fact = f1; _ };
            Trace.Fact_inserted { fact = f2; _ } ] ->
          check_bool "first two kept"
            (Fact.equal f1 (Fact.make ~rel:"m" ~peer:"p" [ Value.Int 1 ])
            && Fact.equal f2 (Fact.make ~rel:"m" ~peer:"p" [ Value.Int 2 ]))
        | _ -> Alcotest.fail "unexpected events");
    tc "timed_events carries monotone timestamps" (fun () ->
        let t = Trace.create () in
        for i = 1 to 4 do
          Trace.record t (ev i)
        done;
        let times = List.map fst (Trace.timed_events t) in
        check_int "all stamped" 4 (List.length times);
        check_bool "nondecreasing oldest-first"
          (List.for_all2 (fun a b -> a <= b)
             (List.filteri (fun i _ -> i < 3) times)
             (List.tl times));
        check_bool "same events"
          (List.map snd (Trace.timed_events t) = Trace.events t));
    tc "to_chrome pairs stage B/E and tags instants" (fun () ->
        let t = Trace.create () in
        Trace.record t (Trace.Stage_start { peer = "p"; stage = 1 });
        Trace.record t (ev 1);
        Trace.record t
          (Trace.Stage_end { peer = "p"; stage = 1; derivations = 1; iterations = 1 });
        (match Trace.to_chrome ~tid:3 t with
        | [ b; i; e ] ->
          check_bool "begin" (b.Wdl_obs.Chrome_trace.ph = "B" && b.name = "stage");
          check_bool "instant"
            (i.Wdl_obs.Chrome_trace.ph = "i" && i.name = "fact_inserted");
          check_bool "end" (e.Wdl_obs.Chrome_trace.ph = "E");
          check_bool "lane" (b.Wdl_obs.Chrome_trace.tid = 3);
          check_bool "ordered timestamps"
            (b.Wdl_obs.Chrome_trace.ts <= e.Wdl_obs.Chrome_trace.ts)
        | _ -> Alcotest.fail "expected three events"));
    tc "clear resets everything" (fun () ->
        let t = Trace.create () in
        Trace.record t (ev 1);
        Trace.clear t;
        check_int "events" 0 (List.length (Trace.events t));
        check_int "count" 0 (Trace.count t));
    tc "find locates the first match" (fun () ->
        let t = Trace.create () in
        Trace.record t (Trace.Stage_start { peer = "p"; stage = 1 });
        Trace.record t (ev 1);
        check_bool "found"
          (Trace.find t (function Trace.Fact_inserted _ -> true | _ -> false)
          <> None);
        check_bool "absent"
          (Trace.find t (function Trace.Message_sent _ -> true | _ -> false)
          = None));
    tc "every event variant prints" (fun () ->
        let rule = Parser.parse_rule "a@p($x) :- b@p($x)" in
        let msg = Message.make ~src:"a" ~dst:"b" ~stage:1 ~installs:[ rule ] () in
        let events =
          [ Trace.Stage_start { peer = "p"; stage = 1 };
            Trace.Stage_end { peer = "p"; stage = 1; derivations = 2; iterations = 3 };
            Trace.Fact_inserted { peer = "p"; fact };
            Trace.Fact_deleted { peer = "p"; fact };
            Trace.Message_sent { msg };
            Trace.Message_received { msg };
            Trace.Delegation_installed { peer = "p"; src = "q"; rule };
            Trace.Delegation_pending { peer = "p"; src = "q"; rule };
            Trace.Delegation_retracted { peer = "p"; src = "q"; rule };
            Trace.Delegation_rejected { peer = "p"; src = "q"; rule; reason = "r" };
            Trace.Rule_added { peer = "p"; rule };
            Trace.Rule_removed { peer = "p"; rule };
            Trace.Runtime_errors
              { peer = "p";
                errors = [ Wdl_eval.Runtime_error.Store_error { rel = "m"; message = "x" } ] } ]
        in
        List.iter
          (fun e ->
            check_bool "nonempty"
              (String.length (Format.asprintf "%a" Trace.pp_event e) > 0))
          events);
  ]
