(* Differential testing: the compiled plan evaluator (Fixpoint) against
   the substitution-based oracle (Reference) on random local programs
   covering recursion, negation, builtins, aggregation, relation
   variables and delegation boundaries; and whole peers, stage by
   stage, against Reference through the [Sim] harness. *)
open Wdl_syntax
open Wdl_store
open Wdl_eval

(* {1 Random local programs} *)

type dspec = {
  facts : (string * int list) list;  (* relation, args (arity 1 or 2) *)
  names : string list;               (* contents of the names relation *)
  rules : string list;
}

let rule_pool =
  [
    (* recursion *)
    "tc@p($x,$y) :- e@p($x,$y);";
    "tc@p($x,$z) :- tc@p($x,$y), e@p($y,$z);";
    (* negation over base data *)
    "only@p($x) :- r@p($x), not s@p($x);";
    (* negation over a view *)
    "vr@p($x) :- r@p($x);";
    "nots@p($x) :- s@p($x), not vr@p($x);";
    (* builtins *)
    "shift@p($y) :- r@p($x), $y := $x + 10;";
    "bigr@p($x) :- r@p($x), $x >= 3;";
    (* aggregation *)
    "counts@p(count($x)) :- r@p($x);";
    "ends@p($x, max($y)) :- e@p($x,$y);";
    (* relation variable *)
    "anyof@p($n, $x) :- names@p($n), $n@p($x);";
    (* delegation boundary (suspension output) *)
    "away@p($x) :- r@p($x), data@q($x);";
    (* inductive update *)
    "accum@p($x) :- r@p($x);";
    (* messaging *)
    "out@q($x) :- s@p($x);";
  ]

let fact_gen =
  QCheck.Gen.(
    let* rel = oneofl [ "e"; "r"; "s" ] in
    let* arity2 = bool in
    let* a = int_range 0 5 in
    let* b = int_range 0 5 in
    return (rel, if arity2 && rel = "e" then [ a; b ] else [ a ]))

let dspec_gen =
  QCheck.Gen.(
    let* facts = list_size (int_range 3 20) fact_gen in
    let* names = list_size (int_range 0 2) (oneofl [ "r"; "s" ]) in
    let* rules = list_size (int_range 1 6) (oneofl rule_pool) in
    return { facts; names; rules })

let dspec_print s =
  Printf.sprintf "facts=[%s] names=[%s]\n%s"
    (String.concat "; "
       (List.map
          (fun (r, args) ->
            Printf.sprintf "%s(%s)" r
              (String.concat "," (List.map string_of_int args)))
          s.facts))
    (String.concat ";" s.names)
    (String.concat "\n" s.rules)

let dspec_arb = QCheck.make ~print:dspec_print dspec_gen

let views = [ "tc"; "only"; "vr"; "nots"; "shift"; "bigr"; "counts"; "ends"; "anyof"; "away" ]
let view_arity = function "tc" | "ends" | "anyof" -> 2 | _ -> 1

let declare_views db =
  List.iter
    (fun v ->
      ignore
        (Database.declare db
           (Decl.make ~kind:Decl.Intensional ~rel:v ~peer:"p"
              (List.init (view_arity v) (Printf.sprintf "c%d")))))
    views

let build_db spec =
  let db = Database.create () in
  declare_views db;
  List.iter
    (fun (rel, args) ->
      ignore
        (Database.insert db ~rel
           (Tuple.of_list (List.map (fun n -> Value.Int n) args))))
    spec.facts;
  List.iter
    (fun n ->
      ignore (Database.insert db ~rel:"names" (Tuple.of_list [ Value.String n ])))
    spec.names;
  db

(* Each view's post-run contents: both engines insert what they
   deduce, and the views start empty, so this is what they deduced. *)
let views_of db =
  List.map
    (fun v ->
      match Database.find db v with
      | Some info -> (v, Relation.to_sorted_list info.Database.data)
      | None -> (v, []))
    views

let canon_result db (r : Fixpoint.result) =
  let facts l = List.sort Fact.compare l in
  let susp =
    List.sort compare
      (List.map
         (fun (d, rule) -> (d, Format.asprintf "%a" Rule.pp rule))
         r.Fixpoint.suspensions)
  in
  ( views_of db,
    facts r.Fixpoint.induced,
    facts r.Fixpoint.messages,
    susp )

let run_engine engine spec =
  let db = build_db spec in
  let rules =
    List.map Parser.parse_rule
      (List.map
         (fun s -> String.sub s 0 (String.length s - 1) (* drop ';' *))
         spec.rules)
  in
  match engine ~self:"p" db rules with
  | Ok r -> Some (canon_result db r)
  | Error _ -> None

(* {1 Delta-first plans against base plans} *)

(* [prog] with every activation running its rule's base plan, at the
   delta literal's position in that plan. *)
let base_program (prog : Program.t) =
  let base (s : Program.stratum) =
    let by_rel = Hashtbl.create 8 in
    List.iter
      (fun (plan : Plan.t) ->
        List.iter
          (function
            | Plan.Match { neg = false; pos; rel = Plan.Fixed n; _ } ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt by_rel n) in
              Hashtbl.replace by_rel n (cur @ [ { Program.plan; pos } ])
            | Plan.Match _ | Plan.Cmp _ | Plan.Assign _ -> ())
          plan.Plan.steps)
      s.Program.plans;
    { s with Program.by_rel }
  in
  { prog with Program.strata = Array.map base prog.Program.strata }

(* The pool's rules, some with a remote suffix: a delegation point, and
   sometimes a local literal behind it. *)
let suffixed_gen =
  QCheck.Gen.(
    let* spec = dspec_gen in
    let* rules =
      flatten_l
        (List.map
           (fun r ->
             let+ suffix = oneofl [ ""; ", far@q($x)"; ", far@q($x), s@p($x)" ] in
             String.sub r 0 (String.length r - 1) ^ suffix ^ ";")
           spec.rules)
    in
    return { spec with rules })

(* Two stages on one database: a full run over the first half of the
   facts, then a run seeded with the rest. The result fields that
   depend on the delegation boundary, and the views, after each. *)
let two_stages ~variants spec =
  let half = List.length spec.facts / 2 in
  let first = List.filteri (fun i _ -> i < half) spec.facts in
  let db = build_db { spec with facts = first } in
  let rules =
    List.map
      (fun s -> Parser.parse_rule (String.sub s 0 (String.length s - 1)))
      spec.rules
  in
  let intensional rel = Database.kind db rel = Some Decl.Intensional in
  match Program.compile ~self:"p" ~intensional (Program.sources rules) with
  | Error _ -> None
  | Ok prog ->
    let program = if variants then prog else base_program prog in
    let observe ?seed () =
      match Fixpoint.run ?seed ~program ~self:"p" db rules with
      | Error _ -> None
      | Ok r ->
        Some
          ( r.Fixpoint.suspensions,
            r.Fixpoint.susp_sources,
            r.Fixpoint.origins,
            r.Fixpoint.messages,
            r.Fixpoint.induced,
            views_of db )
    in
    let stage1 = observe () in
    let tuples =
      List.filter_map
        (fun (rel, args) ->
          let tuple = Tuple.of_list (List.map (fun n -> Value.Int n) args) in
          match Database.insert db ~rel tuple with
          | Ok true -> Some (rel, tuple)
          | Ok false | Error _ -> None)
        (List.filteri (fun i _ -> i >= half) spec.facts)
    in
    (* Only a one-stratum program takes a seed; the others re-run in
       full over the grown store. *)
    let seed =
      if Array.length prog.Program.strata > 1 then None
      else Some { Fixpoint.tuples; fresh = [] }
    in
    Some (stage1, observe ?seed ())

(* {1 Patched programs against compiled ones} *)

(* Sinks over the dspec relations: remote or extensional heads, no
   negation, no aggregate; some with a delegation boundary, some reading
   views of every stratum, one a relation variable. *)
let sink_pool =
  [
    "out@q($x) :- s@p($x)";
    "accum@p($x) :- vr@p($x)";
    "no@q($x) :- nots@p($x)";
    "cnt@q($n) :- counts@p($n), r@p($n)";
    "far@q($y) :- e@p($x,$y), data@q($x)";
    "pair@q($x,$y) :- tc@p($x,$y), r@p($y)";
    "any@q($n,$x) :- names@p($n), $n@p($x)";
    "big@q($x) :- r@p($x), $x >= 2";
    "hop@q($x) :- r@p($x), s@q($x), e@p($x,$x)";
  ]

type patch_op =
  | Install of string * string  (* origin, a rule: sink or not *)
  | Twin of string * int  (* origin, the k-th own rule held: its twin *)
  | Add of string  (* an own rule *)
  | Retract of int  (* the k-th delegation held, modulo their count *)
  | Remove of int  (* the k-th own rule held, modulo their count *)
  | Relabel of int  (* the k-th delegation held gets a new origin label *)
  | Grow of (string * int list) list  (* base facts: may cross bands *)

let patch_op_print = function
  | Install (src, r) -> Printf.sprintf "install from %s: %s" src r
  | Twin (src, k) -> Printf.sprintf "twin from %s of own #%d" src k
  | Add r -> "add " ^ r
  | Retract k -> Printf.sprintf "retract #%d" k
  | Remove k -> Printf.sprintf "remove own #%d" k
  | Relabel k -> Printf.sprintf "relabel #%d" k
  | Grow facts ->
    "grow "
    ^ String.concat " "
        (List.map
           (fun (r, args) ->
             Printf.sprintf "%s(%s)" r (String.concat "," (List.map string_of_int args)))
           facts)

let strip_semicolon r = String.sub r 0 (String.length r - 1)
let pool_rules = List.map strip_semicolon rule_pool

let patch_arb =
  let gen =
    QCheck.Gen.(
      let* spec = dspec_gen in
      let origin = oneofl [ "q"; "r" ] in
      let* ops =
        list_size (int_range 1 10)
          (frequency
             [
               (3, map2 (fun src r -> Install (src, r)) origin (oneofl sink_pool));
               (1, map2 (fun src r -> Install (src, r)) origin (oneofl pool_rules));
               (3, map2 (fun src k -> Twin (src, k)) origin (int_range 0 7));
               (2, map (fun r -> Add r) (oneofl sink_pool));
               (1, map (fun r -> Add r) (oneofl pool_rules));
               (2, map (fun k -> Retract k) (int_range 0 7));
               (1, map (fun k -> Remove k) (int_range 0 7));
               (1, map (fun k -> Relabel k) (int_range 0 7));
               (2, map (fun l -> Grow l) (list_size (int_range 1 12) fact_gen));
             ])
      in
      return (spec, ops))
  in
  QCheck.make gen ~print:(fun (spec, ops) ->
      dspec_print spec ^ "\n" ^ String.concat "\n" (List.map patch_op_print ops))

(* Drive a peer's rule registry through [ops] as a peer does (admitted
   rules only, own rules from the spec first) and hold it to what a
   fresh [Program.compile] of its sources computes. Rule changes queue
   up, as between a peer's stages; each [Grow], the start and the end of
   the ops is a stage: the registry patches in its queue (so a sink can
   come and go inside it) or recompiles, and re-plans where a band
   moved. Both programs must then compute the same views, messages,
   suspensions and attribution, and guard the same relations. *)
let patched_agrees (spec, ops) =
  let db = build_db spec in
  let intensional = Database.is_intensional db in
  let stats rel =
    match Database.find db rel with
    | Some i -> Relation.cardinal i.Database.data
    | None -> 0
  in
  let rules = Rules.create ~self:"p" ~intensional ~head_error:(fun _ -> None) in
  let hold holder rule =
    if not (Rules.mem rules holder rule) && Result.is_ok (Rules.admit rules rule)
    then ignore (Rules.add rules holder rule : int)
  in
  List.iter (fun r -> hold Rules.Own (Parser.parse_rule (strip_semicolon r))) spec.rules;
  let labels = ref 0 in
  let relabel (src, rule) =
    incr labels;
    Rules.set_label rules ~src rule (Printf.sprintf "%s#%d" src !labels)
  in
  let nth l k = match l with [] -> None | _ -> Some (List.nth l (k mod List.length l)) in
  let observe program =
    let db = Database.copy db in
    match Fixpoint.run ~program ~self:"p" db [] with
    | Error _ -> None
    | Ok r ->
      Some
        ( views_of db,
          r.Fixpoint.messages,
          r.Fixpoint.suspensions,
          r.Fixpoint.origins,
          r.Fixpoint.susp_sources )
  in
  let stage () =
    match
      ( Rules.program rules ~stats,
        Program.compile ~stats ~self:"p" ~intensional (Rules.sources rules) )
    with
    | Ok cached, Ok fresh ->
      let rels =
        List.map (fun (i : Database.info) -> i.Database.name) (Database.relations db)
      in
      observe cached = observe fresh
      && List.for_all
           (fun rel -> Program.guarded cached rel = Program.guarded fresh rel)
           rels
    | Error _, Error _ -> true
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  let apply = function
    | Install (src, text) ->
      let rule = Parser.parse_rule text in
      (* Every other install brings its origin label, recorded first as
         on receipt; the others fall back to ["src#?"]. *)
      if !labels mod 2 = 0 then relabel (src, rule) else incr labels;
      hold (Rules.Delegated src) rule;
      true
    | Twin (src, k) ->
      Option.iter (hold (Rules.Delegated src)) (nth (Rules.own_rules rules) k);
      true
    | Add text ->
      hold Rules.Own (Parser.parse_rule text);
      true
    | Retract k ->
      Option.iter
        (fun (src, rule) -> ignore (Rules.remove rules (Rules.Delegated src) rule : bool))
        (nth (Rules.delegations rules) k);
      true
    | Remove k ->
      Option.iter
        (fun rule -> ignore (Rules.remove rules Rules.Own rule : bool))
        (nth (Rules.own_rules rules) k);
      true
    | Relabel k ->
      Option.iter relabel (nth (Rules.delegations rules) k);
      true
    | Grow facts ->
      List.iter
        (fun (rel, args) ->
          ignore
            (Database.insert db ~rel
               (Tuple.of_list (List.map (fun n -> Value.Int n) args))))
        facts;
      stage ()
  in
  stage ()
  && List.for_all
       apply ops
  && stage ()

(* {1 Mixed values}

   Facts and rule constants drawn from every value tag, with the values
   an id-based evaluator can get wrong: [0.] and [-0.] (equal, one pool
   id), the infinities and [min_int], the confusable [1] / [1.] / ["1"]
   (three distinct values), and strings that need escaping. The rules
   cover a repeated variable (the out-check path, which compares ids),
   comparisons across tags, assignments whose results no relation
   stores, probes and negations on such values, and aggregates over
   mixed numerics. *)

let mixed_values =
  Value.
    [ Int 0; Int 1; Int (-1); Int min_int; Float 0.; Float (-0.); Float 1.;
      Float 2.5; Float infinity; Float neg_infinity; String "1"; String "";
      String "q\"uo\\te\n"; String "é"; Bool true; Bool false ]

let numerics =
  List.filter (function Value.Int _ | Value.Float _ -> true | _ -> false) mixed_values

(* The other representation of an equal value, where there is one. *)
let twin = function
  | Value.Float f when f = 0. -> Value.Float (-.f)
  | v -> v

(* (view, arity, rule given one constant); arity 0: no view. *)
let mixed_templates =
  [
    ("same", 1, fun _ -> "same@p($x) :- e@p($x, $x)");
    ("hit", 1, fun c -> Printf.sprintf "hit@p($y) :- e@p(%s, $y)" c);
    ("lt", 2, fun _ -> "lt@p($x, $y) :- r@p($x), s@p($y), $x < $y");
    ("eqc", 1, fun c -> Printf.sprintf "eqc@p($x) :- r@p($x), $x = %s" c);
    ("shift", 1, fun c -> Printf.sprintf "shift@p($y) :- r@p($x), $y := $x + %s" c);
    ("joined", 1, fun _ -> "joined@p($x) :- shift@p($x), s@p($x)");
    ( "back", 1,
      fun c -> Printf.sprintf "back@p($x) :- r@p($x), $y := $x + %s, shift@p($y)" c );
    ("probe", 1, fun c -> Printf.sprintf "probe@p($x) :- r@p($x), $y := $x * %s, s@p($y)" c);
    ("nf", 1, fun c -> Printf.sprintf "nf@p($x) :- r@p($x), not s@p(%s)" c);
    ("ng", 1, fun c -> Printf.sprintf "ng@p($x) :- r@p($x), not e@p($x, %s)" c);
    ("nsum", 1, fun _ -> "nsum@p(sum($x)) :- n@p($x)");
    ("nmax", 1, fun _ -> "nmax@p(max($x)) :- n@p($x)");
    ("navg", 1, fun _ -> "navg@p(avg($x)) :- n@p($x)");
    ("tot", 2, fun _ -> "tot@p($x, sum($y)) :- e@p($x, $y)");
    ("cnt", 2, fun _ -> "cnt@p($x, count($y)) :- e@p($x, $y)");
    ("away", 1, fun c -> Printf.sprintf "away@p($x) :- r@p($x), data@q($x, %s)" c);
    ("", 0, fun c -> Printf.sprintf "out@q($y) :- s@p($x), $y := $x * %s" c);
    ("", 0, fun _ -> "acc@p($x) :- same@p($x)");
  ]

type mspec = {
  mfacts : (string * Value.t list) list;
  mrules : (int * Value.t) list;  (* template index, its constant *)
}

let mspec_gen =
  QCheck.Gen.(
    let value = oneofl mixed_values in
    let fact =
      frequency
        [
          (3, map2 (fun a b -> ("e", [ a; b ])) value value);
          (1, map (fun a -> ("e", [ a; twin a ])) value);
          (2, map (fun a -> ("r", [ a ])) value);
          (2, map (fun a -> ("s", [ a ])) value);
          (2, map (fun a -> ("n", [ a ])) (oneofl numerics));
        ]
    in
    let* mfacts = list_size (int_range 3 20) fact in
    let* mrules =
      list_size (int_range 1 6)
        (pair (int_range 0 (List.length mixed_templates - 1)) value)
    in
    return { mfacts; mrules })

let mspec_rules spec =
  List.sort_uniq compare
    (List.map
       (fun (k, c) ->
         let _, _, rule = List.nth mixed_templates k in
         rule (Value.to_string c))
       spec.mrules)

let mspec_print spec =
  Printf.sprintf "facts=[%s]\n%s"
    (String.concat "; "
       (List.map
          (fun (r, args) ->
            Printf.sprintf "%s(%s)" r (String.concat "," (List.map Value.to_string args)))
          spec.mfacts))
    (String.concat "\n" (mspec_rules spec))

let mixed_views =
  List.filter_map
    (fun (v, arity, _) -> if arity > 0 then Some (v, arity) else None)
    mixed_templates

(* Views, inductive updates, messages and suspensions after one run.
   Equal values may print differently ([-0.] and [0.]), so results are
   compared with the value-level equalities, not as text. *)
let run_mixed engine spec =
  let db = Database.create () in
  List.iter
    (fun (v, arity) ->
      ignore
        (Database.declare db
           (Decl.make ~kind:Decl.Intensional ~rel:v ~peer:"p"
              (List.init arity (Printf.sprintf "c%d")))))
    mixed_views;
  List.iter
    (fun (rel, args) -> ignore (Database.insert db ~rel (Tuple.of_list args)))
    spec.mfacts;
  let rules = List.map Parser.parse_rule (mspec_rules spec) in
  match engine ~self:"p" db rules with
  | Error _ -> None
  | Ok (r : Fixpoint.result) ->
    let views =
      List.map
        (fun (v, _) ->
          match Database.find db v with
          | Some info -> Relation.to_sorted_list info.Database.data
          | None -> [])
        mixed_views
    in
    let susp =
      List.sort
        (fun (d1, r1) (d2, r2) ->
          match String.compare d1 d2 with 0 -> Rule.compare r1 r2 | c -> c)
        r.Fixpoint.suspensions
    in
    Some
      ( views,
        List.sort Fact.compare r.Fixpoint.induced,
        List.sort Fact.compare r.Fixpoint.messages,
        susp )

let mixed_equal a b =
  match a, b with
  | None, None -> true
  | Some (v1, i1, m1, s1), Some (v2, i2, m2, s2) ->
    List.equal (List.equal Tuple.equal) v1 v2
    && List.equal Fact.equal i1 i2
    && List.equal Fact.equal m1 m2
    && List.equal
         (fun (d1, r1) (d2, r2) -> String.equal d1 d2 && Rule.equal r1 r2)
         s1 s2
  | Some _, None | None, Some _ -> false

let tests =
  [
    QCheck.Test.make ~count:150 ~long_factor:20
      ~name:"compiled evaluator agrees with the reference oracle" dspec_arb
      (fun spec ->
        run_engine (fun ~self db rules -> Fixpoint.run ~self db rules) spec
        = run_engine
            (fun ~self db rules -> Result.map fst (Reference.run ~self db rules))
            spec);
    QCheck.Test.make ~count:150 ~long_factor:20
      ~name:"compiled evaluator agrees with the reference oracle on mixed values"
      (QCheck.make ~print:mspec_print mspec_gen)
      (fun spec ->
        mixed_equal
          (run_mixed (fun ~self db rules -> Fixpoint.run ~self db rules) spec)
          (run_mixed
             (fun ~self db rules -> Result.map fst (Reference.run ~self db rules))
             spec));
    QCheck.Test.make ~count:60 ~long_factor:20
      ~name:"provenance premises agree on derived facts" dspec_arb
      (fun spec ->
        let prov engine =
          let db = build_db spec in
          let rules =
            List.map Parser.parse_rule
              (List.map (fun s -> String.sub s 0 (String.length s - 1)) spec.rules)
          in
          match engine ~self:"p" db rules with
          | Ok r ->
            Some
              (List.sort compare
                 (List.map
                    (fun (d : Fixpoint.derivation) ->
                      ( Format.asprintf "%a" Fact.pp d.Fixpoint.fact,
                        List.sort compare
                          (List.map (Format.asprintf "%a" Fact.pp)
                             d.Fixpoint.premises) ))
                    r.Fixpoint.provenance))
          | Error _ -> None
        in
        (* Premise sets can legitimately differ when a fact has several
           derivations (each engine records the first it finds), so
           compare only the covered fact sets. *)
        let facts_of = Option.map (List.map fst) in
        facts_of
          (prov (fun ~self db rules ->
               Fixpoint.run ~record_provenance:true ~self db rules))
        = facts_of
            (prov (fun ~self db rules ->
                 Result.map fst
                   (Reference.run ~record_provenance:true ~self db rules))));
    QCheck.Test.make ~count:150 ~long_factor:20
      ~name:"every activation's plan ships the base plan's residuals"
      (QCheck.make ~print:dspec_print suffixed_gen)
      (fun spec ->
        two_stages ~variants:true spec = two_stages ~variants:false spec);
    QCheck.Test.make ~count:100 ~long_factor:20
      ~name:"patched programs compute what a fresh compile does" patch_arb
      patched_agrees;
    (* [Sim.run] checks every peer against [Reference] after each round
       it stages in: views, the batch per destination and the
       delegations it holds installed, over fact, rule and delegation
       churn, with builtin modules in a quarter of the specs. *)
    QCheck.Test.make ~count:500 ~long_factor:20
      ~name:"multi-stage: every stage's views agree with the reference oracle"
      (Sim.arb Sim.clean) (fun spec -> ignore (Sim.run_exn spec); true);
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest tests
  @ [
      (* The oracle above only means something for the gate if peers
         holding a negation or an aggregate get seeded stages that take
         new facts: forty clean specs from a fixed seed must run
         some. *)
      Check.tc "the clean column seeds peers that negate or aggregate" (fun () ->
          let before = !Sim.nonmono_seeded in
          List.iter
            (fun spec -> ignore (Sim.run_exn spec))
            (QCheck.Gen.generate ~rand:(Random.State.make [| 33 |]) ~n:40
               (Sim.gen Sim.clean));
          Check.check_bool "seeded stages on non-monotone peers"
            (!Sim.nonmono_seeded > before));
    ]
