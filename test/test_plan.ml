(* Compiled rule plans: slot allocation and instantiation helpers. *)
open Wdl_syntax
open Wdl_eval
open Check

(* The one stratum of a single-stratum program over peer p. *)
let stratum ?(intensional = fun _ -> false) srcs =
  match
    Program.compile ~self:"p" ~intensional
      (Program.sources (List.map Parser.parse_rule srcs))
  with
  | Ok { Program.strata = [| s |]; _ } -> s
  | Ok _ -> Alcotest.fail "expected one stratum"
  | Error e -> Alcotest.fail (Format.asprintf "%a" Stratify.pp_error e)

let activations (s : Program.stratum) rel =
  Option.value ~default:[] (Hashtbl.find_opt s.Program.by_rel rel)

let is_base (s : Program.stratum) (a : Program.activation) =
  List.exists (fun p -> p == a.Program.plan) s.Program.plans

(* Environments hold ids; in these tests id [n] stands for [Int n]. *)
let decode n = Value.Int n

let tc_rules =
  [ "tc@p($x,$y) :- edge@p($x,$y)"; "tc@p($x,$z) :- edge@p($x,$y), tc@p($y,$z)" ]

let suite =
  [
    tc "slots are allocated in first-occurrence order" (fun () ->
        let plan =
          Plan.compile
            (Parser.parse_rule "h@p($b, $a) :- x@p($a, $b), y@p($b, $c)")
        in
        Alcotest.check
          (Alcotest.array Alcotest.string)
          "names" [| "a"; "b"; "c" |] plan.Plan.slot_names;
        check_int "nslots" 3 plan.Plan.nslots);
    tc "name variables share slots with data variables" (fun () ->
        (* $a is first a data variable, then a peer name. *)
        let plan =
          Plan.compile (Parser.parse_rule "h@p($x) :- sel@p($a), data@$a($x)")
        in
        check_int "slots" 2 plan.Plan.nslots;
        match plan.Plan.steps with
        | [ _; Plan.Match { peer = Plan.Name_slot 0; _ } ] -> ()
        | _ -> Alcotest.fail "expected the peer to reference slot 0");
    tc "constants compile to Fixed and Const" (fun () ->
        let plan = Plan.compile (Parser.parse_rule "h@p($x) :- m@q(1, $x)") in
        match plan.Plan.steps with
        | [ Plan.Match { rel = Plan.Fixed "m"; peer = Plan.Fixed "q";
                         args = [| Plan.Const { value = Value.Int 1; _ }; Plan.Slot _ |];
                         _ } ] ->
          ()
        | _ -> Alcotest.fail "unexpected compilation");
    tc "instantiate_args needs every slot bound" (fun () ->
        let args =
          [| Plan.Const { value = Value.Int 7; run = 0; id = Plan.unbound }; Plan.Slot 0 |]
        in
        check_bool "unbound" (Plan.instantiate_args ~decode args [| Plan.unbound |] = None);
        check_bool "bound"
          (Plan.instantiate_args ~decode args [| 3 |]
          = Some [| Value.Int 7; Value.Int 3 |]));
    tc "subst_of_env maps bound slots back to variable names" (fun () ->
        let plan = Plan.compile (Parser.parse_rule "h@p($x, $y) :- m@p($x, $y)") in
        let env = [| 1; Plan.unbound |] in
        let s = Plan.subst_of_env plan ~decode env in
        check_bool "x" (Subst.find "x" s = Some (Value.Int 1));
        check_bool "y free" (Subst.find "y" s = None));
    tc "eval_cexpr matches Expr.eval" (fun () ->
        let plan =
          Plan.compile (Parser.parse_rule "h@p($z) :- n@p($x), $z := $x * 2 + 1")
        in
        match plan.Plan.steps with
        | [ _; Plan.Assign (_, ce, _) ] -> (
          let env = Array.make plan.Plan.nslots Plan.unbound in
          env.(0) <- 5;
          match Plan.eval_cexpr ~decode ce env ~slot_names:plan.Plan.slot_names with
          | Ok (Value.Int 11) -> ()
          | Ok v -> Alcotest.fail ("got " ^ Value.to_string v)
          | Error _ -> Alcotest.fail "eval failed")
        | _ -> Alcotest.fail "unexpected steps");
    tc "premise patterns keep only positive atoms" (fun () ->
        let plan =
          Plan.compile
            (Parser.parse_rule
               "h@p($x) :- a@p($x), not b@p($x), $x > 0, c@p($x)")
        in
        check_int "two premises" 2 (List.length plan.Plan.premise_patterns));
    tc "delta-first: the tc activation starts from its delta" (fun () ->
        let s = stratum ~intensional:(String.equal "tc") tc_rules in
        match activations s "tc" with
        | [ a ] ->
          check_int "delta at 0" 0 a.Program.pos;
          check_bool "a variant" (not (is_base s a));
          (match a.Program.plan.Plan.steps with
          | Plan.Match { pos = 0; rel = Plan.Fixed "tc"; neg = false; _ } :: _ -> ()
          | _ -> Alcotest.fail "expected Match on tc first");
          check_bool "source is the written rule"
            (Rule.equal a.Program.plan.Plan.source
               (Parser.parse_rule (List.nth tc_rules 1)))
        | l -> Alcotest.failf "expected one tc activation, got %d" (List.length l));
    tc "delta-first: a delta literal past a remote literal keeps the base plan"
      (fun () ->
        let s = stratum [ "h@p($x) :- a@p($x), r@q($x), b@p($x)" ] in
        match activations s "b" with
        | [ a ] ->
          check_bool "base plan" (is_base s a);
          check_int "written position" 2 a.Program.pos
        | _ -> Alcotest.fail "expected one b activation");
    tc "delta-first: an assignment the delta would bind keeps the base plan"
      (fun () ->
        (* Led by b($y), the assignment to $y could not be placed. *)
        let s = stratum [ "h@p($y) :- a@p($x), $y := $x + 1, b@p($y)" ] in
        match activations s "b" with
        | [ a ] -> check_bool "base plan" (is_base s a)
        | _ -> Alcotest.fail "expected one b activation");
    tc "delta-first: a wildcard activation keeps the base plan" (fun () ->
        let s = stratum [ "h@p($n, $x) :- names@p($n), $n@p($x)" ] in
        match s.Program.wildcard with
        | [ a ] ->
          check_bool "base plan" (is_base s a);
          check_int "written position" 1 a.Program.pos
        | _ -> Alcotest.fail "expected one wildcard activation");
    tc "delta-first: plan_count includes the variants" (fun () ->
        (* Two rules; the exit rule's and the edge activation's bodies
           already start at their delta, so only tc's gets a variant. *)
        match
          Program.compile ~self:"p" ~intensional:(String.equal "tc")
            (Program.sources (List.map Parser.parse_rule tc_rules))
        with
        | Ok p -> check_int "plans" 3 (Program.plan_count p)
        | Error _ -> Alcotest.fail "expected a program");
    tc "order_body: constant stats reproduce the WDL031 hint" (fun () ->
        (* Remote literal first as written; both local literals are
           eligible to hoist. With flat statistics the planner must
           produce exactly what the lint suggests. *)
        let r =
          Parser.parse_rule
            "h@p($x,$y) :- r@q($x), a@p($x), b@p($x,$y)"
        in
        let planned = Plan.order_body ~self:"p" ~stats:(fun _ -> 1) r in
        let hint =
          match Wdl_analysis.Boundary.improve ~self:"p" r with
          | Some i -> i.Wdl_analysis.Boundary.reordered
          | None -> Alcotest.fail "expected a WDL031 improvement"
        in
        check_bool "same rule" (Rule.equal planned hint));
    tc "order_body: cardinality growth flips the join order" (fun () ->
        let r =
          Parser.parse_rule
            "h@p($x,$y) :- r@q($x), a@p($x), b@p($x,$y)"
        in
        let body_rels rule =
          List.filter_map
            (function
              | Literal.Pos a -> (
                match a.Atom.rel with Term.Const (Value.String n) -> Some n | _ -> None)
              | _ -> None)
            rule.Rule.body
        in
        (* a tiny, b large: scan a first, probe b on the bound $x. *)
        let small =
          Plan.order_body ~self:"p"
            ~stats:(function "a" -> 4 | "b" -> 4096 | _ -> 0)
            r
        in
        Alcotest.(check (list string))
          "a leads" [ "a"; "b"; "r" ] (body_rels small);
        (* a grown past b: the planner now leads with b. *)
        let grown =
          Plan.order_body ~self:"p"
            ~stats:(function "a" -> 100_000 | "b" -> 4096 | _ -> 0)
            r
        in
        Alcotest.(check (list string))
          "b leads" [ "b"; "a"; "r" ] (body_rels grown));
    tc "guard: negated and aggregated reads, closed through local views" (fun () ->
        let guarded ?(intensional = fun _ -> false) srcs rels =
          match
            Program.compile ~self:"p" ~intensional
              (Program.sources (List.map Parser.parse_rule srcs))
          with
          | Ok prog -> List.filter (Program.guarded prog) rels
          | Error e -> Alcotest.fail (Format.asprintf "%a" Stratify.pp_error e)
        in
        let check label want got = Alcotest.(check (list string)) label want got in
        let rels = [ "a"; "b"; "c"; "d"; "w"; "v"; "ok"; "best" ] in
        check "a monotone program guards nothing" []
          (guarded ~intensional:(( = ) "v") [ "v@p($x) :- a@p($x), b@p($x)" ] rels);
        check "negated and aggregated reads" [ "b"; "c" ]
          (guarded ~intensional:(fun r -> r = "ok" || r = "best")
             [ "ok@p($x) :- a@p($x), not b@p($x)"; "best@p($i, max($r)) :- c@p($i, $r)" ]
             rels);
        (* [w] is read under negation, so the local body prefixes of
           its rules are guarded too; [v] feeds only an extensional
           head, whose facts arrive next stage. *)
        check "closed through a local view" [ "a"; "b"; "d"; "w" ]
          (guarded ~intensional:(fun r -> r = "w" || r = "ok")
             [ "w@p($x) :- a@p($x), b@p($x)"; "ok@p($x) :- c@p($x), not w@p($x)";
               "w@p($x) :- d@p($x), far@q($x), v@p($x)"; "b@p($x) :- v@p($x)" ]
             rels);
        check "a relation-variable head may be any guarded view" [ "a"; "w" ]
          (guarded ~intensional:(fun r -> r = "w" || r = "ok")
             [ "$n@p($x) :- a@p($x), names@p($n)"; "ok@p($x) :- c@p($x), not w@p($x)" ]
             [ "a"; "w" ]);
        check "a guarded relation variable guards everything" rels
          (guarded [ "out@q($x) :- a@p($x), names@p($n), not $n@p($x)" ] rels);
        check "a remote suffix is not read here" []
          (guarded [ "out@q($x) :- a@p($x), b@q($x), not c@q($x)" ] rels));
  ]
