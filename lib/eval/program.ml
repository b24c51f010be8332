open Wdl_syntax

type activation = { plan : Plan.t; pos : int }

type stratum = {
  agg_plans : Plan.t list;
  plans : Plan.t list;
  by_rel : (string, activation list) Hashtbl.t;
  wildcard : activation list;
  n_activations : int;
  n_plans : int;
}

type t = {
  version : int;
  rules : Rule.t list;
  strata : stratum array;
}

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

(* The delta-first plan for [base]'s activation at [pos]: the delta
   literal, then the rest of the local prefix ordered with the delta's
   variables bound, then the suffix unchanged. The prefix holds the
   same literals, so the same variables are bound at the delegation
   boundary and residuals are the base plan's. [base] itself when the
   delta literal is past the boundary or alone in the prefix, when the
   body is already delta-first, or when the assembled rule is unsafe
   (which is also how a prefix literal the ordering could not place
   shows). *)
let delta_first ~self ~stats (base : Plan.t) pos =
  let rule = base.Plan.rule in
  let k = local_prefix ~self rule in
  if pos >= k || k = 1 then base
  else
    let lead = List.nth rule.Rule.body pos in
    let rest = List.filteri (fun i _ -> i < k && i <> pos) rule.Rule.body in
    let suffix = List.filteri (fun i _ -> i >= k) rule.Rule.body in
    let ordered =
      Plan.order_body ~bound:(Literal.vars lead) ~self ~stats
        (Rule.make ~head:rule.Rule.head ~body:rest)
    in
    let body = (lead :: ordered.Rule.body) @ suffix in
    if List.equal Literal.equal body rule.Rule.body then base
    else
      let candidate = Rule.make ~head:rule.Rule.head ~body in
      match Safety.check_rule candidate with
      | Ok () -> Plan.compile ~source:base.Plan.source candidate
      | Error _ -> base

let compile_stratum ~self ?stats rules =
  let all_plans =
    List.map
      (fun r ->
        match stats with
        | None -> Plan.compile r
        | Some stats ->
          let r' = Plan.order_body ~self ~stats r in
          if r' == r then Plan.compile r else Plan.compile ~source:r r')
      rules
  in
  let agg_plans, plans =
    List.partition (fun p -> Rule.is_aggregate p.Plan.rule) all_plans
  in
  let variant_stats = Option.value stats ~default:(fun _ -> 0) in
  let by_rel = Hashtbl.create 8 in
  let wildcard = ref [] in
  let n = ref 0 in
  let n_variants = ref 0 in
  List.iter
    (fun plan ->
      List.iter
        (fun (pos, rel) ->
          incr n;
          match rel with
          | None -> wildcard := { plan; pos } :: !wildcard
          | Some name ->
            let a =
              match delta_first ~self ~stats:variant_stats plan pos with
              | v when v == plan -> { plan; pos }
              | v ->
                incr n_variants;
                { plan = v; pos = 0 }
            in
            let cur = Option.value ~default:[] (Hashtbl.find_opt by_rel name) in
            Hashtbl.replace by_rel name (a :: cur))
        (delta_reads plan))
    plans;
  (* Restore source order inside each bucket: scheduling must not
     change which derivation an evaluator finds first. *)
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) by_rel;
  {
    agg_plans;
    plans;
    by_rel;
    wildcard = List.rev !wildcard;
    n_activations = !n;
    n_plans = List.length all_plans + !n_variants;
  }

let compile ?(version = 0) ?stats ~self ~intensional rules =
  match Stratify.compute ~self ~intensional rules with
  | Error e -> Error e
  | Ok { Stratify.strata } ->
    Ok { version; rules; strata = Array.map (compile_stratum ~self ?stats) strata }

let version t = t.version
let rules t = t.rules
let plan_count t = Array.fold_left (fun acc s -> acc + s.n_plans) 0 t.strata
