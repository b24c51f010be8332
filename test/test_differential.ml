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
  { Program.strata = Array.map base prog.Program.strata }

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
    let seed =
      List.filter_map
        (fun (rel, args) ->
          let tuple = Tuple.of_list (List.map (fun n -> Value.Int n) args) in
          match Database.insert db ~rel tuple with
          | Ok true -> Some (rel, tuple)
          | Ok false | Error _ -> None)
        (List.filteri (fun i _ -> i >= half) spec.facts)
    in
    Some (stage1, observe ~seed ())

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
  | Install of string  (* a sink from the pool *)
  | Retract of int  (* the k-th sink held, modulo their count *)
  | Grow of (string * int list) list  (* base facts: may cross bands *)

let patch_op_print = function
  | Install r -> "install " ^ r
  | Retract k -> Printf.sprintf "retract #%d" k
  | Grow facts ->
    "grow "
    ^ String.concat " "
        (List.map
           (fun (r, args) ->
             Printf.sprintf "%s(%s)" r (String.concat "," (List.map string_of_int args)))
           facts)

let patch_arb =
  let gen =
    QCheck.Gen.(
      let* spec = dspec_gen in
      let* ops =
        list_size (int_range 1 8)
          (frequency
             [
               (3, map (fun r -> Install r) (oneofl sink_pool));
               (2, map (fun k -> Retract k) (int_range 0 7));
               (2, map (fun l -> Grow l) (list_size (int_range 1 12) fact_gen));
             ])
      in
      return (spec, ops))
  in
  QCheck.make gen ~print:(fun (spec, ops) ->
      dspec_print spec ^ "\n" ^ String.concat "\n" (List.map patch_op_print ops))

(* Run [ops] twice over: on a program patched with [Program.patch]
   and [Program.replan] as a peer does, and on a fresh
   [Program.compile] of the same sources. Installs and retracts queue
   up, as between a peer's stages; each [Grow] and the end of the ops
   is a stage: the queue is patched in as one batch (so a sink can come
   and go inside it), the program re-planned where a band moved, and
   both programs must then compute the same views, messages,
   suspensions and attribution. *)
let patched_agrees (spec, ops) =
  let db = build_db spec in
  let intensional rel = Database.kind db rel = Some Decl.Intensional in
  let stats rel =
    match Database.find db rel with
    | Some i -> Relation.cardinal i.Database.data
    | None -> 0
  in
  let next = ref 0 in
  let source text =
    incr next;
    { Program.id = !next; label = Printf.sprintf "L%d" !next; rule = Parser.parse_rule text }
  in
  let held =
    ref (List.map (fun r -> source (String.sub r 0 (String.length r - 1))) spec.rules)
  in
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
  match Program.compile ~stats ~self:"p" ~intensional !held with
  | Error _ -> true
  | Ok p0 ->
    let patched = ref p0 in
    let add = ref [] and remove = ref [] in
    let stage () =
      patched := Program.patch ~stats ~self:"p" !patched ~add:(List.rev !add) ~remove:!remove;
      add := [];
      remove := [];
      Option.iter (fun (p, _) -> patched := p) (Program.replan ~self:"p" ~stats !patched);
      match Program.compile ~stats ~self:"p" ~intensional !held with
      | Error _ -> false
      | Ok fresh -> observe !patched = observe fresh
    in
    List.for_all
      (function
        | Install text ->
          let s = source text in
          held := !held @ [ s ];
          add := s :: !add;
          true
        | Retract k -> (
          let sinks =
            List.filter (fun (s : Program.source) ->
                Stratify.is_sink ~self:"p" ~intensional s.rule) !held
          in
          match sinks with
          | [] -> true
          | _ ->
            let s = List.nth sinks (k mod List.length sinks) in
            held := List.filter (fun (h : Program.source) -> h.id <> s.id) !held;
            remove := s.id :: !remove;
            true)
        | Grow facts ->
          List.iter
            (fun (rel, args) ->
              ignore
                (Database.insert db ~rel
                   (Tuple.of_list (List.map (fun n -> Value.Int n) args))))
            facts;
          stage ())
      ops
    && stage ()

let tests =
  [
    QCheck.Test.make ~count:150 ~long_factor:20
      ~name:"compiled evaluator agrees with the reference oracle" dspec_arb
      (fun spec ->
        run_engine (fun ~self db rules -> Fixpoint.run ~self db rules) spec
        = run_engine
            (fun ~self db rules -> Result.map fst (Reference.run ~self db rules))
            spec);
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

let suite = List.map QCheck_alcotest.to_alcotest tests
