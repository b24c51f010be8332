(* Differential testing: the compiled plan evaluator (Fixpoint) against
   the substitution-based oracle (Reference) on random local programs
   covering recursion, negation, builtins, aggregation, relation
   variables and delegation boundaries. *)
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

let canon_result (r : Fixpoint.result) =
  let facts l = List.sort Fact.compare l in
  let susp =
    List.sort compare
      (List.map
         (fun (d, rule) -> (d, Format.asprintf "%a" Rule.pp rule))
         r.Fixpoint.suspensions)
  in
  ( facts r.Fixpoint.deduced,
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
  | Ok r -> Some (canon_result r)
  | Error _ -> None

(* {1 Multi-stage scripts through a peer}

   Drives a full [Peer] — compiled-program cache, activation
   scheduling, delta and full stages — through several stages with
   fact insertions and deletions, rule additions and removals and
   delegation installs arriving mid-run (deletions shrink batches and
   retract delegations; rule changes invalidate the cached program),
   and checks it against the [Reference] oracle re-run from scratch on
   the database state after every stage: the views must match, and so
   must what the peer has emitted so far — the last fact batch sent to
   each destination and the set of delegations it holds installed. *)

type stage_ev = {
  inserts : (string * int list) list;
  deletes : (string * int list) list;  (* drawn from earlier inserts *)
  new_rule : string option;  (* added locally mid-run *)
  del_rule : int option;  (* remove the nth rule currently installed *)
  delegate : string option;  (* arrives as a delegation install from q *)
}

type script = { base : dspec; stage_evs : stage_ev list }

(* Delegations stay within what [install_delegation] accepts for any
   rule set from the pool (no negation rules, which could fail
   stratification against an already-installed cycle partner). *)
let deleg_pool =
  [
    "tc@p($x,$y) :- e@p($x,$y);";
    "tc@p($x,$z) :- tc@p($x,$y), e@p($y,$z);";
    "counts@p(count($x)) :- r@p($x);";
    "accum@p($x) :- r@p($x);";
    "out@q($x) :- s@p($x);";
    "away@p($x) :- r@p($x), data@q($x);";
  ]

(* [inserted]: the facts inserted before this stage, which its deletes
   are drawn from. *)
let stage_ev_gen inserted =
  QCheck.Gen.(
    let* inserts = list_size (int_range 0 3) fact_gen in
    let* with_dels = int_range 0 2 in
    let* deletes =
      if with_dels > 0 || inserted = [] then return []
      else list_size (int_range 1 2) (oneofl inserted)
    in
    let* with_rule = int_range 0 2 in
    let* rule = oneofl rule_pool in
    let* with_del = int_range 0 2 in
    let* del_at = int_range 0 5 in
    let* with_deleg = int_range 0 3 in
    let* deleg = oneofl deleg_pool in
    return
      {
        inserts;
        deletes;
        new_rule = (if with_rule = 0 then Some rule else None);
        del_rule = (if with_del = 0 then Some del_at else None);
        delegate = (if with_deleg = 0 then Some deleg else None);
      })

(* Negation- and aggregate-free rules: a script whose base program
   stays within them takes the delta-staging path on additive stages. *)
let monotone_pool =
  List.filter
    (fun r ->
      not
        (List.exists
           (fun kw -> Str_helper.contains r kw)
           [ "not "; "count("; "max(" ]))
    rule_pool

let script_gen =
  QCheck.Gen.(
    let* base = dspec_gen in
    let* monotone = bool in
    let* mono_rules = list_size (int_range 1 6) (oneofl monotone_pool) in
    let* n_stages = int_range 1 4 in
    let rec stage_evs n inserted =
      if n = 0 then return []
      else
        let* ev = stage_ev_gen inserted in
        let* rest = stage_evs (n - 1) (ev.inserts @ inserted) in
        return (ev :: rest)
    in
    let* stage_evs = stage_evs n_stages base.facts in
    return
      { base = (if monotone then { base with rules = mono_rules } else base);
        stage_evs })

let script_print s =
  let facts fs =
    String.concat "; "
      (List.map
         (fun (r, args) ->
           Printf.sprintf "%s(%s)" r
             (String.concat "," (List.map string_of_int args)))
         fs)
  in
  let ev e =
    Printf.sprintf "inserts=[%s] deletes=[%s] rule=%s del=%s deleg=%s"
      (facts e.inserts) (facts e.deletes)
      (Option.value ~default:"-" e.new_rule)
      (match e.del_rule with None -> "-" | Some i -> string_of_int i)
      (Option.value ~default:"-" e.delegate)
  in
  dspec_print s.base ^ "\n" ^ String.concat "\n" (List.map ev s.stage_evs)

let script_arb = QCheck.make ~print:script_print script_gen

let parse_rule_str s = Parser.parse_rule (String.sub s 0 (String.length s - 1))

let dump_db db =
  List.sort compare
    (Database.fold
       (fun (i : Database.info) acc ->
         (i.Database.name, i.Database.kind, Relation.to_sorted_list i.Database.data)
         :: acc)
       db [])

let intensional_dump db =
  List.filter (fun (_, kind, _) -> kind = Decl.Intensional) (dump_db db)

(* What a peer has emitted so far, folded from its stage outputs: the
   last fact batch per destination (messages carry full replacement
   batches) and the delegations installed and not yet retracted. *)
type emitted = {
  batches : (string, Fact.t list) Hashtbl.t;
  delegs : (string * string, unit) Hashtbl.t;  (* (target, rule) *)
}

let record_emitted em (msg : Webdamlog.Message.t) =
  let dst = msg.Webdamlog.Message.dst in
  let key r = (dst, Format.asprintf "%a" Rule.pp r) in
  Option.iter (Hashtbl.replace em.batches dst) msg.Webdamlog.Message.facts;
  List.iter (fun r -> Hashtbl.replace em.delegs (key r) ()) msg.Webdamlog.Message.installs;
  List.iter (fun r -> Hashtbl.remove em.delegs (key r)) msg.Webdamlog.Message.retracts

(* Canonical (non-empty batches, delegation set) of an [emitted]. *)
let emitted_canon em =
  ( List.sort compare
      (Hashtbl.fold
         (fun dst b acc ->
           if b = [] then acc else (dst, List.sort Fact.compare b) :: acc)
         em.batches []),
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) em.delegs []) )

(* From-scratch oracle for the peer's post-stage state: clear the
   views on a copy and let [Reference] rebuild them under the peer's
   current rule set. Its messages and suspensions are what the peer's
   emitted state must add up to. *)
let oracle_agrees (p : Webdamlog.Peer.t) emitted =
  let open Webdamlog in
  let db = Database.copy (Peer.database p) in
  Database.clear_intensional db;
  let rules = Peer.rules p @ List.map snd (Peer.delegated_rules p) in
  match Reference.run ~self:"p" db rules with
  | Error _ -> false
  | Ok r ->
    let expected = { batches = Hashtbl.create 4; delegs = Hashtbl.create 4 } in
    List.iter
      (fun (f : Fact.t) ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt expected.batches f.Fact.peer) in
        Hashtbl.replace expected.batches f.Fact.peer (f :: cur))
      r.Fixpoint.messages;
    List.iter
      (fun (dst, rule) ->
        Hashtbl.replace expected.delegs (dst, Format.asprintf "%a" Rule.pp rule) ())
      r.Fixpoint.suspensions;
    intensional_dump db = intensional_dump (Peer.database p)
    && emitted_canon expected = emitted

(* Run the script on one peer; two trailing empty stages exercise idle
   stages. Returns the oracle's verdict after every stage. *)
let drive script =
  let open Webdamlog in
  let p = Peer.create "p" in
  let em = { batches = Hashtbl.create 4; delegs = Hashtbl.create 4 } in
  let db = Peer.database p in
  declare_views db;
  let to_fact (rel, args) =
    Fact.make ~rel ~peer:"p" (List.map (fun n -> Value.Int n) args)
  in
  let insert_fact f = ignore (Peer.insert p (to_fact f)) in
  List.iter insert_fact script.base.facts;
  List.iter
    (fun n ->
      ignore (Peer.insert p (Fact.make ~rel:"names" ~peer:"p" [ Value.String n ])))
    script.base.names;
  List.iter (fun r -> ignore (Peer.add_rule p (parse_rule_str r))) script.base.rules;
  let quiet =
    { inserts = []; deletes = []; new_rule = None; del_rule = None; delegate = None }
  in
  List.map
    (fun ev ->
      List.iter insert_fact ev.inserts;
      List.iter (fun f -> ignore (Peer.delete p (to_fact f))) ev.deletes;
      Option.iter
        (fun r -> ignore (Peer.add_rule p (parse_rule_str r)))
        ev.new_rule;
      Option.iter
        (fun i ->
          match Peer.rules p with
          | [] -> ()
          | rules ->
            ignore (Peer.remove_rule p (List.nth rules (i mod List.length rules))))
        ev.del_rule;
      Option.iter
        (fun r ->
          Peer.receive p
            (Message.make ~src:"q" ~dst:"p" ~stage:0
               ~installs:[ parse_rule_str r ] ()))
        ev.delegate;
      List.iter (record_emitted em) (Peer.stage p);
      oracle_agrees p (emitted_canon em))
    (script.stage_evs @ [ quiet; quiet ])

let tests =
  [
    QCheck.Test.make ~count:150
      ~name:"compiled evaluator agrees with the reference oracle" dspec_arb
      (fun spec ->
        run_engine (fun ~self db rules -> Fixpoint.run ~self db rules) spec
        = run_engine (fun ~self db rules -> Reference.run ~self db rules) spec);
    QCheck.Test.make ~count:60
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
                 Reference.run ~record_provenance:true ~self db rules)));
    QCheck.Test.make ~count:80
      ~name:"multi-stage: every stage's views agree with the reference oracle"
      script_arb
      (fun script -> List.for_all Fun.id (drive script));
  ]

let suite = List.map QCheck_alcotest.to_alcotest tests
