open Wdl_syntax

type source = { id : int; label : string; rule : Rule.t }

let sources rules =
  List.mapi (fun i rule -> { id = i; label = Printf.sprintf "#%d" (i + 1); rule }) rules

type activation = { plan : Plan.t; pos : int }

type read = { rel : string option; at : int; act : activation }

type member = {
  source : source;
  base : Plan.t;
  reads : read list;
  bands : (string * int) list;
}

type stratum = {
  members : member list;
  agg_plans : Plan.t list;
  plans : Plan.t list;
  by_rel : (string, activation list) Hashtbl.t;
  wildcard : activation list;
  n_activations : int;
  n_plans : int;
}

module Sset = Set.Make (String)

type guard = Unbounded | Rels of Sset.t

type t = { strata : stratum array; guard : guard }

(* Positive body atoms of a plan with the statically-known relation
   name read at each, or None for a relation variable. A variable may
   have been bound by an earlier literal at run time, but scheduling is
   static: anything not provably tied to one relation is a wildcard. *)
let delta_reads (plan : Plan.t) =
  List.filter_map
    (function
      | Plan.Match { neg = false; pos; rel; _ } ->
        Some (pos, match rel with Plan.Fixed n -> Some n | Plan.Name_slot _ -> None)
      | Plan.Match _ | Plan.Cmp _ | Plan.Assign _ -> None)
    plan.Plan.steps

(* Index of the first literal that is not statically local: with
   every literal before it local, the delegation boundary of any run
   that reaches it. *)
let local_prefix ~self (r : Rule.t) =
  let rec go i = function
    | (Literal.Pos a | Literal.Neg a) :: _
      when Term.as_name a.Atom.peer <> Some self -> i
    | _ :: rest -> go (i + 1) rest
    | [] -> i
  in
  go 0 r.Rule.body

let same_order (a : Rule.t) (b : Rule.t) =
  List.equal Literal.equal a.Rule.body b.Rule.body

let base_order ~self ?stats rule =
  match stats with
  | None -> rule
  | Some stats -> Plan.order_body ~self ~stats rule

(* The delta-first body for the activation of [base] (a base order) at
   [pos]: the delta literal, then the rest of the local prefix ordered
   with the delta's variables bound, then the suffix unchanged. The
   prefix holds the same literals, so the same variables are bound at
   the delegation boundary and residuals are the base plan's. [None]
   (run the base plan) when the delta literal is past the boundary or
   alone in the prefix, when the body is already delta-first, or when
   the assembled rule is unsafe (which is also how a prefix literal the
   ordering could not place shows). *)
let delta_order ~self ~stats (base : Rule.t) pos =
  let k = local_prefix ~self base in
  if pos >= k || k = 1 then None
  else
    let lead = List.nth base.Rule.body pos in
    let rest = List.filteri (fun i _ -> i < k && i <> pos) base.Rule.body in
    let suffix = List.filteri (fun i _ -> i >= k) base.Rule.body in
    let ordered =
      Plan.order_body ~bound:(Literal.vars lead) ~self ~stats
        (Rule.make ~head:base.Rule.head ~body:rest)
    in
    let body = (lead :: ordered.Rule.body) @ suffix in
    if List.equal Literal.equal body base.Rule.body then None
    else
      let candidate = Rule.make ~head:base.Rule.head ~body in
      match Safety.check_rule candidate with
      | Ok () -> Some candidate
      | Error _ -> None

(* Without statistics, delta-first plans order their prefix with
   constant ones: source order among eligible literals. *)
let variant_stats stats = Option.value stats ~default:(fun _ -> 0)

(* Power-of-two cardinality band: bit length of the cardinal (0 for an
   empty relation). Join orders only depend on coarse relative sizes,
   so a member's orders stand while every relation they read sits in
   the band it was planned against. *)
let band n =
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  bits n 0

(* The band, under [stats], of each relation whose cardinality
   [Plan.order_body] weighs in [rule]'s orders: the named local
   positive atoms of a non-aggregate body of two literals or more. *)
let bands_of ~self ~stats (rule : Rule.t) =
  if Rule.is_aggregate rule || List.compare_length_with rule.Rule.body 1 <= 0 then []
  else
    List.sort_uniq compare
      (List.filter_map
         (function
           | Literal.Pos a when Term.as_name a.Atom.peer = Some self ->
             Option.map (fun rel -> (rel, band (stats rel))) (Term.as_name a.Atom.rel)
           | Literal.Pos _ | Literal.Neg _ | Literal.Cmp _ | Literal.Assign _ -> None)
         rule.Rule.body)

let compile_member ~self ?stats (source : source) =
  let plan r =
    Plan.compile ~source:source.rule ~id:source.id ~label:source.label r
  in
  let base = plan (base_order ~self ?stats source.rule) in
  let reads =
    if Rule.is_aggregate source.rule then []
    else
      List.map
        (fun (at, rel) ->
          let act =
            match rel with
            | None -> { plan = base; pos = at }
            | Some _ -> (
              match delta_order ~self ~stats:(variant_stats stats) base.Plan.rule at with
              | None -> { plan = base; pos = at }
              | Some v -> { plan = plan v; pos = 0 })
          in
          { rel; at; act })
        (delta_reads base)
  in
  let bands = bands_of ~self ~stats:(variant_stats stats) source.rule in
  { source; base; reads; bands }

(* Whether [stats] would give [m] another base order or another
   delta-first order at some activation. *)
let reorders ~self ~stats m =
  let base = base_order ~self ~stats m.source.rule in
  (not (same_order base m.base.Plan.rule))
  || List.exists
       (fun r ->
         r.rel <> None
         &&
         match delta_order ~self ~stats base r.at with
         | None -> r.act.plan != m.base
         | Some v -> r.act.plan == m.base || not (same_order v r.act.plan.Plan.rule))
       m.reads

let index members =
  let by_rel = Hashtbl.create 8 in
  let agg_plans = ref [] and plans = ref [] and wildcard = ref [] in
  let n = ref 0 and n_plans = ref 0 in
  List.iter
    (fun m ->
      incr n_plans;
      if Rule.is_aggregate m.source.rule then agg_plans := m.base :: !agg_plans
      else plans := m.base :: !plans;
      List.iter
        (fun r ->
          incr n;
          if r.act.plan != m.base then incr n_plans;
          match r.rel with
          | None -> wildcard := r.act :: !wildcard
          | Some name ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt by_rel name) in
            Hashtbl.replace by_rel name (r.act :: cur))
        m.reads)
    members;
  (* Restore source order inside each bucket: scheduling must not
     change which derivation an evaluator finds first. *)
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) by_rel;
  {
    members;
    agg_plans = List.rev !agg_plans;
    plans = List.rev !plans;
    by_rel;
    wildcard = List.rev !wildcard;
    n_activations = !n;
    n_plans = !n_plans;
  }

(* {1 The guard} *)

(* The atoms a rule's body reads here: those before the first atom at
   a constant remote peer, which never runs locally. *)
let local_atoms ~self (r : Rule.t) =
  let rec go acc = function
    | (Literal.Pos a | Literal.Neg a) :: _
      when (match Term.as_name a.Atom.peer with Some p -> p <> self | None -> false)
      -> List.rev acc
    | Literal.Pos a :: rest -> go ((a, false) :: acc) rest
    | Literal.Neg a :: rest -> go ((a, true) :: acc) rest
    | (Literal.Cmp _ | Literal.Assign _) :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] r.Rule.body

(* Which local intensional relations a rule's head may derive into
   within a run: [`Rel c], [`Any] (a relation variable), or [`None]
   (a constant remote peer, or an extensional relation, whose facts
   only arrive at the next stage). *)
let head_reach ~self ~intensional (r : Rule.t) =
  let head = r.Rule.head in
  match Term.as_name head.Atom.peer with
  | Some p when p <> self -> `None
  | Some _ | None -> (
    match head.Atom.rel with
    | Term.Var _ -> `Any
    | Term.Const _ -> (
      match Term.as_name head.Atom.rel with
      | Some c when intensional c -> `Rel c
      | Some _ | None -> `None))

let add_reads atoms g =
  List.fold_left
    (fun g (a : Atom.t) ->
      match g, a.Atom.rel with
      | Unbounded, _ | _, Term.Var _ -> Unbounded
      | Rels s, Term.Const _ -> (
        match Term.as_name a.Atom.rel with Some c -> Rels (Sset.add c s) | None -> g))
    g atoms

(* Every local relation a negated literal or an aggregate body reads,
   closed backwards through the rules that may derive into a guarded
   intensional relation within a run. *)
let guard_of ~self ~intensional rules =
  let seeds =
    List.fold_left
      (fun g r ->
        let atoms = local_atoms ~self r in
        add_reads
          (List.filter_map
             (fun (a, neg) -> if neg || Rule.is_aggregate r then Some a else None)
             atoms)
          g)
      (Rels Sset.empty) rules
  in
  let reaches s r =
    match head_reach ~self ~intensional r with
    | `None -> false
    | `Rel c -> Sset.mem c s
    | `Any -> Sset.exists intensional s
  in
  let rec close = function
    | Unbounded -> Unbounded
    | Rels s as g -> (
      let g' =
        List.fold_left
          (fun g' r ->
            if reaches s r then add_reads (List.map fst (local_atoms ~self r)) g' else g')
          g rules
      in
      match g' with Rels s' when Sset.equal s s' -> g | _ -> close g')
  in
  close seeds

let guarded t rel =
  match t.guard with Unbounded -> true | Rels s -> Sset.mem rel s

let compile ?stats ~self ~intensional sources =
  let rules = List.map (fun s -> s.rule) sources in
  match Stratify.assign ~self ~intensional rules with
  | Error e -> Error e
  | Ok placed ->
    let strata = Array.make (List.fold_left max 0 placed + 1) [] in
    List.iter2 (fun k s -> strata.(k) <- s :: strata.(k)) placed sources;
    Ok
      {
        strata =
          Array.map
            (fun l -> index (List.rev_map (compile_member ~self ?stats) l))
            strata;
        guard = guard_of ~self ~intensional rules;
      }

let patch ?stats ~self t ~add ~remove =
  let removed (s : source) = List.mem s.id remove in
  let added =
    List.filter_map
      (fun s -> if removed s then None else Some (compile_member ~self ?stats s))
      add
  in
  let last = Array.length t.strata - 1 in
  {
    t with
    strata =
      Array.mapi
        (fun i s ->
          let kept = List.filter (fun m -> not (removed m.source)) s.members in
          if i = last && added <> [] then index (kept @ added)
          else if List.compare_lengths kept s.members <> 0 then index kept
          else s)
        t.strata;
  }

let replan ~self ~stats t =
  let moved m = List.exists (fun (rel, b) -> band (stats rel) <> b) m.bands in
  let touched s = List.exists moved s.members in
  if not (Array.exists touched t.strata) then None
  else
    let changed = ref false in
    let replan_stratum s =
      let reordered = ref false in
      let members =
        List.map
          (fun m ->
            if not (moved m) then m
            else if reorders ~self ~stats m then begin
              reordered := true;
              compile_member ~self ~stats m.source
            end
            else { m with bands = bands_of ~self ~stats m.source.rule })
          s.members
      in
      if !reordered then begin
        changed := true;
        index members
      end
      else { s with members }
    in
    let strata = Array.map (fun s -> if touched s then replan_stratum s else s) t.strata in
    Some ({ t with strata }, !changed)

let plan_count t = Array.fold_left (fun acc s -> acc + s.n_plans) 0 t.strata
