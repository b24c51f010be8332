(* The static analyzer: golden-output tests for every diagnostic code,
   plus properties tying it to the loader (accepted programs carry no
   error diagnostics) and to the evaluator's delegation boundary. *)
open Wdl_syntax
open Wdl_analysis
open Check

let run ?peer_mode ?pedantic ?self src =
  match Parser.program_located ~file:"t.wdl" src with
  | Error err -> [ Analysis.of_parse_error ~file:"t.wdl" err ]
  | Ok p -> Analysis.check_located ?peer_mode ?pedantic ?self p

let codes ds = List.map (fun (d : Diagnostic.t) -> d.code) ds

let golden name ?peer_mode ?pedantic ?self src expected =
  tc name (fun () ->
      Alcotest.(check string)
        name expected
        (Diagnostic.render_text (run ?peer_mode ?pedantic ?self src)))

let fires name ?peer_mode ?pedantic ?self src code =
  tc name (fun () ->
      let cs = codes (run ?peer_mode ?pedantic ?self src) in
      if not (List.mem code cs) then
        Alcotest.failf "expected %s among [%s]" code (String.concat "; " cs))

(* ---------------- golden output, one per code ---------------- *)

let golden_suite =
  [
    golden "WDL000 parse error" "v@p($x :- ;"
      "t.wdl:1:8: error[WDL000]: expected ')' but found :-";
    golden "WDL001 unbound head var" "v@p($x) :- a@p($y);"
      "t.wdl:1:1: warning[WDL020]: relation v@p is never declared; it will \
       be auto-created as extensional on first insertion\n\
       t.wdl:1:1: error[WDL001]: head variable $x is not bound by the body\n\
       t.wdl:1:12: warning[WDL020]: relation a@p is never declared; it will \
       be auto-created as extensional on first insertion\n\
       t.wdl:1:12: warning[WDL022]: rule can never fire: a@p is never \
       declared, asserted or derived, so this atom matches nothing";
    golden "WDL002 unbound relation var"
      "ext a@p(x);\nint v@p(x);\na@p(1);\nv@p($y) :- $r@p($y);"
      "t.wdl:4:1: error[WDL002]: relation/peer variable $r in $r@p($y) is \
       not bound by the preceding literals";
    golden "WDL003 unbound var in negation"
      "ext a@p(x);\nint v@p(x);\na@p(1);\nv@p($x) :- a@p($x), not a@p($y);"
      "t.wdl:4:1: error[WDL003]: variable $y in negated atom a@p($y) is not \
       bound by the preceding literals";
    golden "WDL004 unbound var in builtin"
      "ext a@p(x);\nint v@p(x);\na@p(1);\nv@p($x) :- a@p($x), $y < 3;"
      "t.wdl:4:1: error[WDL004]: variable $y in builtin $y < 3 is not bound \
       by the preceding literals";
    golden "WDL005 rebound assignment"
      "ext a@p(x);\nint v@p(x);\na@p(1);\nv@p($x) :- a@p($x), $x := 1 + 1;"
      "t.wdl:4:1: error[WDL005]: assignment $x := 1 + 1 rebinds \
       already-bound variable $x";
    (* Only reachable from constructed rules (wire/delegation): the
       parser never produces non-string name constants. *)
    tc "WDL006 invalid name constant" (fun () ->
        let bad =
          Atom.make
            ~rel:(Term.Const (Value.Int 3))
            ~peer:(Term.Const (Value.String "p"))
            [ Term.Var "x" ]
        in
        let r =
          Rule.make ~head:(Atom.app "v" "p" [ Term.Var "x" ])
            ~body:[ Literal.Pos bad ]
        in
        let ds =
          Analysis.check_plain ~self:"p" [ Program.Rule r ]
          |> List.filter (fun (d : Diagnostic.t) -> d.code = "WDL006")
        in
        Alcotest.(check string)
          "WDL006"
          "error[WDL006]: constant 3 cannot be a relation or peer name (in \
           3@p($x))"
          (Diagnostic.render_text ds));
    golden "WDL007 statement targets another peer" ~peer_mode:true ~self:"p"
      "ext q@other(a);"
      "t.wdl:1:1: error[WDL007]: declaration of q@other targets peer other; a \
       program loaded at p may only declare relations at p";
    golden "WDL008 kind conflict" "ext r@p(a);\nint r@p(a);\nr@p(1);"
      "t.wdl:2:1: error[WDL008]: relation r@p redeclared as int (it is ext)\n\
      \  note: t.wdl:1:1: first declared here";
    golden "WDL009 fact into intensional" "int v@p(a);\nv@p(1);"
      "t.wdl:2:1: error[WDL009]: fact asserts into the intensional relation \
       v@p (a view recomputed from its rules)\n\
      \  note: t.wdl:1:1: declared intensional here";
    golden "WDL010 negative cycle"
      "int win@p(x);\n\
       ext move@p(x, y);\n\
       move@p(1, 2);\n\
       win@p($x) :- move@p($x, $y), not win@p($y);"
      "t.wdl:4:1: error[WDL010]: rules do not stratify: negation cycle \
       through relation(s) win\n\
      \  note: t.wdl:4:1: this rule derives win and reads not win";
    golden "WDL011 arity conflict" "ext r@p(a, b);\nr@p(1);"
      "t.wdl:2:1: error[WDL011]: fact has arity 1, but r@p is declared with \
       arity 2\n\
      \  note: t.wdl:1:1: declared here";
    golden "WDL012 rule atom arity mismatch"
      "ext r@p(a, b);\nint v@p(x);\nr@p(1, 2);\nv@p($x) :- r@p($x);"
      "t.wdl:4:12: warning[WDL012]: atom r@p is used with arity 1, but the \
       relation has arity 2; this atom can never match\n\
      \  note: t.wdl:1:1: declared here";
    golden "WDL013 non-local aggregate"
      "int v@p(n);\nv@p(count($x)) :- a@q($x);"
      "t.wdl:2:1: error[WDL013]: aggregate rules must be entirely local: \
       every body atom's peer must name p\n\
       t.wdl:2:19: info[WDL030]: delegation boundary at body literal 1: \
       evaluation suspends here and ships the residual rule to peer q, \
       carrying bindings of nothing";
    golden "WDL020 undeclared relation"
      "int v@p(x);\next s@p(a);\ns@p(1);\nv@p($x) :- s@p($x), a@p($x);"
      "t.wdl:4:21: warning[WDL020]: relation a@p is never declared; it will \
       be auto-created as extensional on first insertion\n\
       t.wdl:4:21: warning[WDL022]: rule can never fire: a@p is never \
       declared, asserted or derived, so this atom matches nothing";
    golden "WDL021 unused relation" "ext r@p(a);\next s@p(a);\ns@p(1);"
      "t.wdl:1:1: warning[WDL021]: relation r@p is declared but never used by \
       any fact or rule";
    golden "WDL030 boundary report (escape suppressed by ext binder)"
      "ext sel@p(a);\n\
       ext pics@p(i);\n\
       int v@p(i);\n\
       sel@p(\"q\");\n\
       pics@p(1);\n\
       v@p($i) :- sel@p($a), pics@$a($i);"
      "t.wdl:6:23: info[WDL030]: delegation boundary at body literal 2: \
       evaluation suspends here and ships the residual rule to the peer \
       bound to $a, carrying bindings of $a";
    (* The planner reorders bodies itself, so the note is opt-in. *)
    golden "WDL031 silent by default"
      "ext t@p(y);\n\
       int v@p(x, y);\n\
       t@p(7);\n\
       v@p($x, $y) :- data@q($x), t@p($y);"
      "t.wdl:4:16: info[WDL030]: delegation boundary at body literal 1: \
       evaluation suspends here and ships the residual rule to peer q, \
       carrying bindings of nothing";
    golden "WDL031 pedantic reorder note" ~pedantic:true
      "ext t@p(y);\n\
       int v@p(x, y);\n\
       t@p(7);\n\
       v@p($x, $y) :- data@q($x), t@p($y);"
      "t.wdl:4:16: info[WDL030]: delegation boundary at body literal 1: \
       evaluation suspends here and ships the residual rule to peer q, \
       carrying bindings of nothing\n\
       t.wdl:4:16: info[WDL031]: body order as written ships 1 literal(s) \
       that p can evaluate locally; the compiler plans this body as \
       `t@p($y), data@q($x)`\n\
      \  note: shipped bindings: nothing as written, $y as evaluated\n\
      \  note: in the planned order the residual mentions only q, so it \
       evaluates there without further delegation";
    golden "WDL032 open-ended peer variable"
      "int book@p(a);\n\
       int v@p(x);\n\
       ext s@p(a);\n\
       s@p(1);\n\
       book@p($a) :- s@p($a);\n\
       v@p($x) :- book@p($a), data@$a($x);"
      "t.wdl:3:1: warning[WDL060]: facts derived from s@p can reach an \
       unbounded set of peers through a chain of rules; nothing in this \
       program marks s@p as shared\n\
      \  note: reaches an unbounded set of peers via rule chain p#1 -> p#2\n\
       t.wdl:6:24: info[WDL030]: delegation boundary at body literal 2: \
       evaluation suspends here and ships the residual rule to the peer \
       bound to $a, carrying bindings of $a\n\
       t.wdl:6:24: warning[WDL032]: delegation target $a is open-ended: it \
       is bound by the derived view book@p; any peer it names receives the \
       residual rule and the bindings it carries\n\
      \  note: t.wdl:6:12: the peer variable is bound here";
    golden "WDL040 duplicate rule"
      "ext a@p(x);\nint v@p(x);\na@p(1);\n\
       v@p($x) :- a@p($x);\nv@p($y) :- a@p($y);"
      "t.wdl:5:1: warning[WDL040]: duplicate rule: identical to an earlier \
       rule up to variable renaming\n\
      \  note: t.wdl:4:1: the earlier rule is here";
    golden "WDL041 subsumed rule"
      "ext a@p(x);\next b@p(x);\nint v@p(x);\na@p(1);\nb@p(1);\n\
       v@p($x) :- a@p($x);\nv@p($x) :- a@p($x), b@p($x);"
      "t.wdl:7:1: warning[WDL041]: redundant rule: an earlier, more general \
       rule already derives everything this rule derives\n\
      \  note: t.wdl:6:1: the earlier rule is here";
    golden "WDL050 rule head writes read-only builtin"
      "builtin time clock@p(stage, now);\n\
       ext log@p(s, n);\n\
       int snap@p(s, n);\n\
       log@p(1, 2);\n\
       snap@p($s, $n) :- clock@p($s, $n);\n\
       clock@p($s, $n) :- log@p($s, $n);"
      "t.wdl:6:1: error[WDL050]: rule head writes clock@p, a read-only \
       builtin time relation that only the runtime writes\n\
      \  note: t.wdl:1:1: declared as a builtin here";
    golden "WDL050 fact into read-only builtin"
      "builtin time clock@p(stage, now);\n\
       int snap@p(s, n);\n\
       snap@p($s, $n) :- clock@p($s, $n);\n\
       clock@p(1, 2.0);"
      "t.wdl:4:1: error[WDL050]: fact asserts into clock@p, a read-only \
       builtin time relation that only the runtime writes";
    golden "WDL051 self-feeding builtin"
      "builtin window recent@p(item) with size=2;\n\
       ext feed@p(item);\n\
       feed@p(\"a\");\n\
       recent@p($x) :- feed@p($x);\n\
       recent@p($x) :- recent@p($x);"
      "t.wdl:5:1: error[WDL051]: rule reads builtin relation recent@p in its \
       body and writes it in its head; a builtin relation is not a plain \
       set, so this feedback loop never stabilizes\n\
      \  note: t.wdl:1:1: declared as a builtin here";
    golden "WDL052 builtin written but never read"
      "builtin window recent@p(item) with size=2;\n\
       ext feed@p(item);\n\
       feed@p(\"a\");\n\
       recent@p($x) :- feed@p($x);"
      "t.wdl:1:1: warning[WDL052]: builtin window relation recent@p is \
       written but never read by any rule; the runtime maintains its \
       materialization for nothing";
    golden "WDL053 invalid builtin configuration"
      "builtin window recent@p(item);\n\
       int v@p(item);\n\
       v@p($x) :- recent@p($x);"
      "t.wdl:1:1: error[WDL053]: builtin window: one of size=N or seconds=T \
       is required";
    fires "WDL053 unknown builtin kind"
      "builtin ring r@p(a);\nint v@p(a);\nv@p($x) :- r@p($x);" "WDL053";
    fires "WDL053 conflicting builtin redeclaration"
      "builtin window r@p(a) with size=2;\n\
       builtin window r@p(a) with size=3;\n\
       int v@p(a);\nv@p($x) :- r@p($x);"
      "WDL053";
    fires "WDL053 builtin form dropped on redeclaration"
      "builtin window r@p(a) with size=2;\n\
       ext r@p(a);\nint v@p(a);\nv@p($x) :- r@p($x);"
      "WDL053";
    golden "clean program is silent"
      "ext e@p(x, y);\nint t@p(x, y);\ne@p(1, 2);\n\
       t@p($x, $y) :- e@p($x, $y);\n\
       t@p($x, $z) :- t@p($x, $y), e@p($y, $z);"
      "";
    golden "WDL054 rule feeds a weight-accumulating builtin"
      "builtin topk trending@p(item, n) with k=2, size=3;\n\
       ext feed@p(item);\n\
       feed@p(\"a\");\n\
       trending@p($x, 1) :- feed@p($x);\n\
       int v@p(item, n);\n\
       v@p($x, $n) :- trending@p($x, $n);"
      "t.wdl:4:1: warning[WDL054]: rule head derives into trending@p, a \
       weight-accumulating builtin topk relation; derivations pass through \
       set deduplication, so the same tuple derived many times contributes \
       its weight only once — assert weighted observations as facts or \
       messages instead\n\
      \  note: t.wdl:1:1: declared as a builtin here";
    golden "clean builtin program is silent"
      "builtin window recent@p(item) with size=3;\n\
       builtin topk trending@p(item, n) with k=2, size=3;\n\
       ext feed@p(item);\n\
       int v@p(item);\n\
       feed@p(\"a\");\n\
       trending@p(\"a\", 1);\n\
       recent@p($x) :- feed@p($x);\n\
       v@p($x) :- recent@p($x);\n\
       v@p($x) :- trending@p($x, $n);"
      "";
  ]

(* ---------------- targeted unit tests ---------------- *)

let unit_suite =
  [
    tc "every code in the catalogue is distinct and well-formed" (fun () ->
        let names = List.map (fun (c, _, _) -> c) Analysis.codes in
        Alcotest.(check int)
          "unique" (List.length names)
          (List.length (List.sort_uniq String.compare names));
        List.iter
          (fun c ->
            if
              String.length c <> 6
              || not (String.sub c 0 3 = "WDL")
            then Alcotest.failf "malformed code %s" c)
          names);
    tc "exit codes follow worst severity" (fun () ->
        let e = Diagnostic.error "WDL008" "x" in
        let w = Diagnostic.warning "WDL020" "x" in
        let i = Diagnostic.info "WDL030" "x" in
        Alcotest.(check int) "clean" 0 (Diagnostic.exit_code []);
        Alcotest.(check int) "info" 0 (Diagnostic.exit_code [ i ]);
        Alcotest.(check int) "warn" 1 (Diagnostic.exit_code [ i; w ]);
        Alcotest.(check int) "error" 2 (Diagnostic.exit_code [ w; e ]));
    tc "late intensional declaration cannot break stratification" (fun () ->
        let peer = Webdamlog.Peer.create "p" in
        (match
           Webdamlog.Peer.load_string peer
             "win@p($x) :- move@p($x, $y), not win@p($y);"
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "rule should load while win is ext: %s" e);
        match Webdamlog.Peer.load_string peer "int win@p(x);" with
        | Ok () ->
          Alcotest.fail "declaring win intensional must be rejected"
        | Error _ -> ());
    tc "accepted rules surface warnings in trace and counter" (fun () ->
        let peer = Webdamlog.Peer.create "p" in
        (match
           Webdamlog.Peer.load_string peer
             "ext s@p(a);\nint book@p(a);\nint v@p(x);\ns@p(1);\n\
              book@p($a) :- s@p($a);\n\
              v@p($x) :- book@p($a), data@$a($x);"
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "load: %s" e);
        let warned =
          Webdamlog.Trace.find
            (Webdamlog.Peer.trace peer)
            (function
              | Webdamlog.Trace.Analysis_warning { code; _ } ->
                code = "WDL032"
              | _ -> false)
        in
        Alcotest.(check bool) "WDL032 in trace" true (warned <> None));
    tc "duplicate rule install warns via added_rule_warnings" (fun () ->
        let peer = Webdamlog.Peer.create "p" in
        (match
           Webdamlog.Peer.load_string peer
             "ext a@p(x);\nint v@p(x);\nv@p($x) :- a@p($x);\n\
              v@p($y) :- a@p($y);"
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "load: %s" e);
        let warned =
          Webdamlog.Trace.find
            (Webdamlog.Peer.trace peer)
            (function
              | Webdamlog.Trace.Analysis_warning { code; _ } ->
                code = "WDL040"
              | _ -> false)
        in
        Alcotest.(check bool) "WDL040 in trace" true (warned <> None));
    tc "reordered rule computes the same answers" (fun () ->
        let parse_rule s =
          match Parser.rule s with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        let original =
          parse_rule "out@a($x, $y) :- data@b($x), t@a($y), u@a($x, $y);"
        in
        let improved =
          match Boundary.improve ~self:"a" original with
          | Some i -> i.Boundary.reordered
          | None -> Alcotest.fail "expected an improvement"
        in
        let final rule =
          let sys = Webdamlog.System.create () in
          let a = Webdamlog.System.add_peer sys "a" in
          let b = Webdamlog.System.add_peer sys "b" in
          (match
             Webdamlog.Peer.load_string a
               "ext t@a(y);\next u@a(x, y);\nint out@a(x, y);\n\
                t@a(1); t@a(2);\nu@a(10, 1); u@a(20, 2);"
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "load a: %s" e);
          (match
             Webdamlog.Peer.load_string b
               "ext data@b(x);\ndata@b(10); data@b(20); data@b(30);"
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "load b: %s" e);
          (match Webdamlog.Peer.add_rule a rule with
          | Ok () -> ()
          | Error e -> Alcotest.failf "add_rule: %s" e);
          (match Webdamlog.System.run sys with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "run: %s" e);
          List.sort Fact.compare (Webdamlog.Peer.query a "out")
        in
        let fo = final original and fi = final improved in
        Alcotest.(check int) "same count" (List.length fo) (List.length fi);
        Alcotest.(check bool)
          "same facts" true
          (List.for_all2 Fact.equal fo fi);
        Alcotest.(check bool) "nonempty" true (fo <> []));
  ]

(* ---------------- properties ---------------- *)

let ident_gen =
  QCheck.Gen.(
    let* c = char_range 'a' 'e' in
    return (String.make 1 c))

let var_gen = QCheck.Gen.oneofl [ "x"; "y"; "z" ]

let peer_gen =
  QCheck.Gen.(frequency [ (4, return "p"); (1, return "q") ])

let term_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun n -> Term.Const (Value.Int n)) (int_range 0 5));
        (3, map (fun x -> Term.Var x) var_gen);
      ])

let atom_gen =
  QCheck.Gen.(
    let* rel = ident_gen in
    let* peer = peer_gen in
    let* args = list_size (int_range 1 3) term_gen in
    return (Atom.app rel peer args))

let peer_var_atom_gen =
  QCheck.Gen.(
    let* rel = ident_gen in
    let* pv = var_gen in
    let* args = list_size (int_range 1 2) term_gen in
    return (Atom.make ~rel:(Term.Const (Value.String rel)) ~peer:(Term.Var pv) args))

let literal_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun a -> Literal.Pos a) atom_gen);
        (1, map (fun a -> Literal.Pos a) peer_var_atom_gen);
        (2, map (fun a -> Literal.Neg a) atom_gen);
        ( 1,
          let* x = var_gen in
          let* y = var_gen in
          return (Literal.Cmp (Literal.Lt, Expr.Var x, Expr.Var y)) );
        ( 1,
          let* x = var_gen in
          let* n = int_range 0 5 in
          return
            (Literal.Assign (x, Expr.Add (Expr.Const (Value.Int n), Expr.Const (Value.Int 1)))) );
      ])

let rule_gen =
  QCheck.Gen.(
    let* head = atom_gen in
    let* body = list_size (int_range 1 4) literal_gen in
    return (Rule.make ~head ~body))

let rule_arb = QCheck.make ~print:(Format.asprintf "%a" Rule.pp) rule_gen

let stmt_gen =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          let* kind = oneofl [ Decl.Extensional; Decl.Intensional ] in
          let* rel = ident_gen in
          let* n = int_range 1 3 in
          return
            (Program.Decl
               (Decl.make ~kind ~rel ~peer:"p"
                  (List.init n (fun i -> Printf.sprintf "c%d" i)))) );
        ( 3,
          let* rel = ident_gen in
          let* args =
            list_size (int_range 1 3) (map (fun n -> Value.Int n) (int_range 0 5))
          in
          return (Program.Fact (Fact.make ~rel ~peer:"p" args)) );
        (4, map (fun r -> Program.Rule r) rule_gen);
      ])

let program_gen = QCheck.Gen.(list_size (int_range 1 6) stmt_gen)

let program_arb =
  QCheck.make ~print:(Format.asprintf "%a" Program.pp) program_gen

let props =
  [
    QCheck.Test.make ~count:300
      ~name:"loader-accepted programs carry no error diagnostics" program_arb
      (fun prog ->
        let peer = Webdamlog.Peer.create "p" in
        match Webdamlog.Peer.load_program peer prog with
        | Error _ -> true (* rejected: out of scope for this property *)
        | Ok () ->
          let errors =
            Analysis.check_plain ~peer_mode:true ~self:"p" prog
            |> List.filter (fun (d : Diagnostic.t) ->
                   d.severity = Diagnostic.Error)
          in
          if errors = [] then true
          else
            QCheck.Test.fail_reportf "loader accepted but analyzer errs:@ %s"
              (Diagnostic.render_text errors));
    QCheck.Test.make ~count:1000
      ~name:"boundary analysis agrees with rule classification" rule_arb
      (fun r ->
        let c =
          Webdamlog.Classify.classify ~self:"p"
            ~intensional:(fun _ -> false)
            r
        in
        match c.Webdamlog.Classify.body, Boundary.analyze ~self:"p" r with
        | Webdamlog.Classify.All_local, None -> true
        | Webdamlog.Classify.Delegates_at i,
          Some { Boundary.index; target = Boundary.Remote _; _ } ->
          i = index
        | Webdamlog.Classify.Dynamic_at i,
          Some { Boundary.index; target = Boundary.Dynamic _; _ } ->
          i = index
        | _ -> false);
    QCheck.Test.make ~count:1000
      ~name:"no boundary iff statically local" rule_arb (fun r ->
        Wdl_eval.Fixpoint.statically_local ~self:"p" r
        = (Boundary.analyze ~self:"p" r = None));
    QCheck.Test.make ~count:1000
      ~name:"reorder hints strictly grow a safe local prefix" rule_arb
      (fun r ->
        match Safety.check_rule r with
        | Error _ -> true
        | Ok () -> (
          match Boundary.improve ~self:"p" r with
          | None -> true
          | Some imp ->
            let sorted b = List.sort Literal.compare b in
            Safety.check_rule imp.Boundary.reordered = Ok ()
            && sorted imp.Boundary.reordered.Rule.body = sorted r.Rule.body
            && imp.Boundary.new_index
               > (match Boundary.analyze ~self:"p" r with
                 | Some rep -> rep.Boundary.index
                 | None -> max_int)));
    QCheck.Test.make ~count:300
      ~name:"renamed rules are detected as duplicates" rule_arb (fun r ->
        let r' = Rule.rename ~suffix:"_dup" r in
        let prog = [ Program.Rule r; Program.Rule r' ] in
        List.mem "WDL040"
          (List.map
             (fun (d : Diagnostic.t) -> d.code)
             (Analysis.check_plain ~self:"p" prog)));
  ]

let suite =
  golden_suite @ unit_suite
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
