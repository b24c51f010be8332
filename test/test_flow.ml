(* Knowledge-flow analysis (lib/analysis/flow.ml) and its runtime
   oracle: unit tests for the graph queries, fires/silent programs for
   each flow diagnostic (WDL060-065), the wire encoding of origin
   metadata, and a QCheck differential over the [Sim] harness — the
   static per-rule send sets must over-approximate every
   (origin_rule, dst_peer) delivery a live multi-peer run produces,
   including under mid-run rule and delegation churn. *)
open Wdl_syntax
open Wdl_analysis
open Webdamlog
open Check

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let parse_file (file, src) =
  match Parser.program_located ~file src with
  | Ok p -> (file, p)
  | Error (msg, _) -> Alcotest.failf "parse %s: %s" file msg

let flow_of files = Analysis.flow_of_system (List.map parse_file files)

let sys_codes files =
  List.map
    (fun (d : Diagnostic.t) -> d.Diagnostic.code)
    (Analysis.check_system (List.map parse_file files))

let file_codes src =
  match Parser.program_located ~file:"t.wdl" src with
  | Ok p ->
    List.map
      (fun (d : Diagnostic.t) -> d.Diagnostic.code)
      (Analysis.check_located p)
  | Error (msg, _) -> Alcotest.failf "parse: %s" msg

let assert_fires name code codes =
  if not (List.mem code codes) then
    Alcotest.failf "%s: expected %s among [%s]" name code
      (String.concat "; " codes)

let assert_silent name code codes =
  if List.mem code codes then
    Alcotest.failf "%s: unexpected %s in [%s]" name code
      (String.concat "; " codes)

(* ------------------------------------------------------------------ *)
(* Graph queries                                                      *)
(* ------------------------------------------------------------------ *)

let chain_src =
  "ext s@p(x);\nint t@p(x);\ns@p(1);\nt@p($x) :- s@p($x);\nu@q($x) :- \
   t@p($x);"

let graph_suite =
  [
    tc "reachability follows rule chains across peers" (fun () ->
        let fl = flow_of [ ("a.wdl", chain_src) ] in
        let r =
          Flow.reachable fl { Flow.n_rel = Some "s"; n_peer = Flow.Named "p" }
        in
        let named, any = Flow.reach_peers r in
        check_bool "q reached" (List.mem "q" named);
        check_bool "no any" (not any));
    tc "witness is the two-rule chain" (fun () ->
        let fl = flow_of [ ("a.wdl", chain_src) ] in
        let r =
          Flow.reachable fl { Flow.n_rel = Some "s"; n_peer = Flow.Named "p" }
        in
        match Flow.witness r ~peer:(Flow.Named "q") with
        | None -> Alcotest.fail "no witness path to q"
        | Some path ->
          Alcotest.(check (list string))
            "path" [ "p#1"; "p#2" ] (Flow.path_ids path));
    tc "rule_sends: head peer plus delegation hops" (fun () ->
        let fl =
          flow_of
            [ ( "a.wdl",
                "ext r@p(x);\nint pulled@p(x);\npulled@p($x) :- data@q($x), \
                 r@p($x);" ) ]
        in
        let named, any = Flow.rule_sends fl "p#1" in
        check_bool "hop target q" (List.mem "q" named);
        check_bool "head peer p" (List.mem "p" named);
        check_bool "bounded" (not any));
    tc "rule_sends: a peer variable is the top peer" (fun () ->
        let fl =
          flow_of
            [ ( "a.wdl",
                "ext sel@p(a);\nint dyn@p(x);\ndyn@p($x) :- sel@p($a), \
                 data@$a($x);" ) ]
        in
        let _, any = Flow.rule_sends fl "p#1" in
        check_bool "unbounded" any);
    tc "rule_sends: unknown id answers empty" (fun () ->
        let fl = flow_of [ ("a.wdl", chain_src) ] in
        Alcotest.(check (pair (list string) bool))
          "unknown" ([], false)
          (Flow.rule_sends fl "p#99"));
  ]

(* ------------------------------------------------------------------ *)
(* Fires / silent per flow diagnostic                                 *)
(* ------------------------------------------------------------------ *)

let diag_suite =
  [
    tc "WDL060 fires on a two-rule chain to a foreign peer" (fun () ->
        assert_fires "chain" "WDL060"
          (file_codes
             "ext s@p(x);\nint t@p(x);\ns@p(1);\nt@p($x) :- s@p($x);\n\
              u@q($x) :- t@p($x);"));
    tc "WDL060 silent on a direct single-rule send" (fun () ->
        assert_silent "direct" "WDL060"
          (file_codes "ext s@p(x);\ns@p(1);\nu@q($x) :- s@p($x);"));
    tc "WDL061 fires when the head refeeds the delegation binder"
      (fun () ->
        assert_fires "amplification" "WDL061"
          (file_codes
             "ext contacts@p(a);\ncontacts@p(\"q\");\ncontacts@p($y) :- \
              contacts@p($x), book@$x($y);"));
    tc "WDL061 silent when the head feeds an unrelated relation" (fun () ->
        assert_silent "no cycle" "WDL061"
          (file_codes
             "ext contacts@p(a);\nint found@p(a);\ncontacts@p(\"q\");\n\
              found@p($y) :- contacts@p($x), book@$x($y);"));
    tc "WDL062 fires when invented names feed the inventing body"
      (fun () ->
        assert_fires "invention" "WDL062"
          (file_codes
             "ext gen@p(r, x);\ngen@p(\"a\", 1);\n$r@p($x) :- gen@p($r, \
              $x);"));
    tc "WDL062 silent when the invented head cannot reach its body"
      (fun () ->
        assert_silent "bounded invention" "WDL062"
          (file_codes
             "ext gen@p(r, x);\ngen@p(\"a\", 1);\n$r@q($x) :- gen@p($r, \
              $x);"));
    tc "WDL063 fires on a post-hop write into a foreign ext relation"
      (fun () ->
        assert_fires "foreign write" "WDL063"
          (file_codes
             "ext src@p(x);\next data@q(x);\next log@q(x);\nsrc@p(1);\n\
              log@q($x) :- src@p($x), data@q($x);"));
    tc "WDL063 silent when the foreign head is intensional" (fun () ->
        assert_silent "view write" "WDL063"
          (file_codes
             "ext src@p(x);\next data@q(x);\nint log@q(x);\nsrc@p(1);\n\
              log@q($x) :- src@p($x), data@q($x);"));
    tc "WDL064 fires when flow leaves the checked file set" (fun () ->
        assert_fires "outside peer" "WDL064"
          (sys_codes
             [
               ( "hub.wdl",
                 "ext data@hub(x);\ndata@hub(1);\nout@other($x) :- \
                  data@hub($x);" );
               ("bob.wdl", "ext posts@bob(x);\nposts@bob(2);");
             ]));
    tc "WDL064 silent when the destination's file is included" (fun () ->
        assert_silent "covered peer" "WDL064"
          (sys_codes
             [
               ( "hub.wdl",
                 "ext data@hub(x);\ndata@hub(1);\nout@other($x) :- \
                  data@hub($x);" );
               ("other.wdl", "int out@other(x);");
             ]));
    tc "WDL065 fires on a cross-file redeclaration" (fun () ->
        assert_fires "shadowing" "WDL065"
          (sys_codes
             [
               ("a.wdl", "ext data@alice(x);\ndata@alice(1);");
               ("b.wdl", "ext data@alice(x);\ndata@alice(2);");
             ]));
    tc "WDL065 silent within a single file" (fun () ->
        assert_silent "one owner" "WDL065"
          (sys_codes
             [
               ("a.wdl", "ext data@alice(x);\ndata@alice(1);");
               ("b.wdl", "ext posts@bob(x);\nposts@bob(2);");
             ]));
  ]

(* ------------------------------------------------------------------ *)
(* Origin metadata: wire encoding and the live tagging pin            *)
(* ------------------------------------------------------------------ *)

let parse_rule src =
  match Parser.rule src with Ok r -> r | Error e -> Alcotest.fail e

let msg_equal (a : Message.t) (b : Message.t) =
  a.Message.src = b.Message.src
  && a.Message.dst = b.Message.dst
  && a.Message.stage = b.Message.stage
  && Option.equal (List.equal Fact.equal) a.Message.facts b.Message.facts
  && List.equal Rule.equal a.Message.installs b.Message.installs
  && List.equal Rule.equal a.Message.retracts b.Message.retracts
  && a.Message.fact_origins = b.Message.fact_origins
  && a.Message.install_origins = b.Message.install_origins

let wire_suite =
  [
    tc "wire round-trips origin metadata" (fun () ->
        let m =
          Message.make ~src:"p" ~dst:"q" ~stage:3
            ~facts:(Some [ Fact.make ~rel:"out" ~peer:"q" [ Value.Int 1 ] ])
            ~installs:[ parse_rule "mix@p($x) :- data@q($x);" ]
            ~fact_origins:[ "p#1"; "p#2" ] ~install_origins:[ "p#3" ] ()
        in
        match Wire.unbatch (Wire.batch [ m ]) with
        | Ok [ m' ] -> check_bool "round-trip" (msg_equal m m')
        | Ok _ -> Alcotest.fail "wrong arity"
        | Error e -> Alcotest.fail e);
    tc "empty origins stay off the wire" (fun () ->
        let m =
          Message.make ~src:"p" ~dst:"q" ~stage:1
            ~facts:(Some [ Fact.make ~rel:"out" ~peer:"q" [ Value.Int 1 ] ])
            ()
        in
        let frame = Wire.batch [ m ] in
        (* Empty origins are two zero counts in the header: one origin
           adds only its table entry (length byte and 3 bytes) and its
           one-byte id. *)
        check_int "one origin adds 5 bytes" 5
          (String.length (Wire.batch [ { m with Message.fact_origins = [ "p#1" ] } ])
          - String.length frame);
        match Wire.unbatch frame with
        | Ok [ m' ] ->
          check_bool "round-trip" (msg_equal m m');
          Alcotest.(check (list string)) "no fact origins" [] m'.Message.fact_origins
        | Ok _ -> Alcotest.fail "wrong arity"
        | Error e -> Alcotest.fail e);
    tc "diagnostics carry a top-level file field in JSON" (fun () ->
        match
          Parser.program_located ~file:"t.wdl" "ext spare@local(a);"
        with
        | Error _ -> Alcotest.fail "parse"
        | Ok p -> (
          match Analysis.check_located p with
          | [] -> Alcotest.fail "expected a WDL021 diagnostic"
          | d :: _ ->
            let json = Diagnostic.to_json d in
            check_bool "file field"
              (contains json {|"file":"t.wdl"|})));
  ]

(* The deterministic pin: a two-peer run tags facts and installs with
   the producing rule's id, the receiver resolves a delegated rule to
   its origin id, and Peer.flow covers the observed deliveries. *)

let tagging_pin () =
  let p = Peer.create "p" in
  ok'
    (Peer.load_string p
       "ext r@p(x);\nint mix@p(x);\nr@p(1);\nout@q($x) :- r@p($x);\n\
        mix@p($x) :- data@q($x);");
  let msgs = Peer.stage p in
  let m =
    match msgs with
    | [ m ] -> m
    | _ -> Alcotest.failf "expected one message, got %d" (List.length msgs)
  in
  Alcotest.(check string) "dst" "q" m.Message.dst;
  Alcotest.(check (list string)) "fact origins" [ "p#1" ] m.Message.fact_origins;
  Alcotest.(check (list string))
    "install origins" [ "p#2" ] m.Message.install_origins;
  Alcotest.(check int) "one install" 1 (List.length m.Message.installs);
  (* The sender's flow covers both deliveries. *)
  let flp = Peer.flow p in
  let named1, any1 = Flow.rule_sends flp "p#1" in
  check_bool "p#1 covers q" (any1 || List.mem "q" named1);
  let named2, any2 = Flow.rule_sends flp "p#2" in
  check_bool "p#2 covers q" (any2 || List.mem "q" named2);
  (* The receiver installs the delegation under its origin id. *)
  let q = Peer.create "q" in
  ok' (Peer.load_string q "ext data@q(x);");
  Peer.receive q m;
  ignore (Peer.stage q);
  (match Peer.delegated_rules q with
  | [ ("p", r) ] ->
    Alcotest.(check (option string)) "origin id" (Some "p#2") (Peer.rule_id q r)
  | l -> Alcotest.failf "expected one delegation from p, got %d" (List.length l));
  (* Evaluating the delegated rule tags its sends with the origin id,
     and the receiver's own flow graph covers them. *)
  ok' (Peer.insert q (Fact.make ~rel:"data" ~peer:"q" [ Value.Int 7 ]));
  let back =
    List.filter (fun (m : Message.t) -> m.Message.dst = "p") (Peer.stage q)
  in
  match back with
  | [ m ] ->
    Alcotest.(check (list string))
      "delegated fact origins" [ "p#2" ] m.Message.fact_origins;
    let named, any = Flow.rule_sends (Peer.flow q) "p#2" in
    check_bool "q's flow covers p" (any || List.mem "p" named)
  | _ -> Alcotest.failf "expected one message back to p, got %d" (List.length back)

(* The label a peer answers for each rule it holds is one of the rule
   ids of its flow graph: for own rules, for a delegation that is a
   twin of an own rule (it answers with the own rule's id), and for a
   restored peer, whose delegations fall back to ["src#?"]. *)
let label_agreement () =
  let agrees what p =
    let graph = Peer.flow p in
    List.iter
      (fun r ->
        match Peer.rule_id p r with
        | None -> Alcotest.failf "%s: a held rule has no id" what
        | Some id ->
          check_bool
            (Printf.sprintf "%s: %s is a flow rule id" what id)
            (Flow.rule_info graph id <> None))
      (Peer.rules p @ List.map snd (Peer.delegated_rules p))
  in
  let q = Peer.create "q" in
  ok'
    (Peer.load_string q
       "ext data@q(x);\nout@p($x) :- data@q($x);\nbig@p($x) :- data@q($x), $x > 1;");
  agrees "own rules" q;
  let twin = Parser.parse_rule "out@p($x) :- data@q($x)" in
  let far = Parser.parse_rule "far@p($x) :- data@q($x), $x > 5" in
  Peer.receive q
    (Message.make ~src:"p" ~dst:"q" ~stage:1 ~installs:[ twin; far ]
       ~install_origins:[ "p#7"; "p#8" ] ());
  ignore (Peer.stage q);
  Alcotest.(check int) "two delegations" 2 (List.length (Peer.delegated_rules q));
  Alcotest.(check (option string))
    "a twin answers with its own rule's id" (Some "q#1") (Peer.rule_id q twin);
  Alcotest.(check (option string)) "origin id" (Some "p#8") (Peer.rule_id q far);
  agrees "a delegation twinned with an own rule" q;
  let restored =
    match Peer.restore (Peer.snapshot q) with
    | Ok r -> r
    | Error e -> Alcotest.failf "restore: %s" e
  in
  Alcotest.(check (option string))
    "a restored delegation falls back" (Some "p#?") (Peer.rule_id restored far);
  agrees "a restored peer" restored

(* ------------------------------------------------------------------ *)
(* The QCheck oracle                                                  *)
(* ------------------------------------------------------------------ *)

(* [Sim.run ~flow:true] snapshots each peer's flow graph whenever its
   rules change, before and after every round, and requires every
   origin id a message carries to name a rule whose static send set
   (in some snapshot taken so far) covers the message's destination.
   Snapshots accumulate because fact batches — and therefore their
   origin sets — are cumulative across stages, while positional rule
   ids shift under rule removal. Any fault schedule: ids a restore
   loses ("origin#?") are outside the oracle's contract. *)
let oracle_tests =
  [
    QCheck.Test.make ~count:500 ~long_factor:20
      ~name:"static send sets over-approximate observed deliveries"
      (Sim.arb Sim.any_fault)
      (fun spec -> ignore (Sim.run_exn ~flow:true spec); true);
  ]

let suite =
  graph_suite @ diag_suite @ wire_suite
  @ [
      tc "runtime origin tagging pin" tagging_pin;
      tc "rule_id answers a flow rule id: own, twin, restored" label_agreement;
    ]
  @ List.map QCheck_alcotest.to_alcotest oracle_tests
