(* Bound before [open Wdl_syntax], which has its own [Program] (the
   parsed-statement list); this one is the compiled-plan cache. *)
module Prog = Program

open Wdl_syntax
open Wdl_store

type derivation = {
  fact : Fact.t;
  rule : Rule.t;
  premises : Fact.t list;
}

type result = {
  induced : Fact.t list;
  messages : Fact.t list;
  suspensions : (string * Rule.t) list;
  origins : (string * string) list;
  susp_sources : ((string * Rule.t) * string) list;
  errors : Runtime_error.t list;
  iterations : int;
  derivations : int;
  provenance : derivation list;
}

module Fact_tbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

(* Hot-path key: derived heads stay (rel, peer, tuple) triples; Fact
   values (with their lists) are only built when assembling results. *)
module Head_key = struct
  type t = { rel : string; peer : string; tuple : Tuple.t }

  let equal a b =
    String.equal a.rel b.rel && String.equal a.peer b.peer
    && Tuple.equal a.tuple b.tuple

  let hash k =
    (Hashtbl.hash k.rel * 31) + (Hashtbl.hash k.peer * 17) + Tuple.hash k.tuple

  let to_fact k = Fact.make ~rel:k.rel ~peer:k.peer (Tuple.to_list k.tuple)
end

module Head_tbl = Hashtbl.Make (Head_key)

(* A delegation boundary hit, by identity: the target peer, the rule,
   the boundary literal and the values of the variables the residual
   keeps ([Plan.match_step.resid]). Equal keys ship equal residuals, so
   the residual is built once per key. *)
module Hit = struct
  type t = {
    target : string;
    id : int;
    pos : int;
    binding : Value.t option array;
  }

  let equal a b =
    a.id = b.id && a.pos = b.pos && String.equal a.target b.target
    && Array.for_all2 (Option.equal Value.equal) a.binding b.binding

  let hash k =
    Array.fold_left
      (fun h v -> (h * 31) + match v with Some v -> Value.hash v | None -> 7)
      ((Hashtbl.hash k.target * 17) + (k.id * 13) + k.pos)
      k.binding
end

module Hit_tbl = Hashtbl.Make (Hit)

type shipped = { residual : Rule.t; source : Rule.t; label : string }

(* Evaluation state shared across a whole run. *)
type state = {
  self : string;
  db : Database.t;
  (* delta.(rel) = intensional tuples new as of the previous iteration *)
  mutable delta : (string, Relation.t) Hashtbl.t;
  mutable delta_next : (string, Relation.t) Hashtbl.t;
  induced : unit Head_tbl.t;
  messages : unit Head_tbl.t;
  suspensions : shipped Hit_tbl.t;
  (* Origin tagging for the knowledge-flow oracle: which rule, by
     label, produced each remote delivery. *)
  origins : (string * string, unit) Hashtbl.t;  (* (dst peer, label) *)
  provenance : derivation Fact_tbl.t option;
  mutable errors : Runtime_error.t list;
  mutable error_count : int;
  mutable derivations : int;
  mutable iterations : int;
  delta_hist : Wdl_obs.Obs.histogram;
  skipped_ctr : Wdl_obs.Obs.counter;
}

let max_errors = 1000

let report st e =
  st.error_count <- st.error_count + 1;
  if st.error_count <= max_errors then st.errors <- e :: st.errors

let delta_add st rel tuple =
  let r =
    match Hashtbl.find_opt st.delta_next rel with
    | Some r -> r
    | None ->
      (* Deltas are discarded after one iteration: auto-building
         binding-pattern indexes on them is pure waste. They share the
         database's intern pool so delta probes stay id comparisons
         and never re-intern values the store already holds. *)
      let r =
        Relation.create ~pool:(Database.pool st.db) ~indexing:false
          ~arity:(Tuple.arity tuple) ()
      in
      Hashtbl.add st.delta_next rel r;
      r
  in
  ignore (Relation.insert r tuple)

(* Every relation of [arity] in the source an unbound relation
   position enumerates: the full store or the previous iteration's
   delta. *)
let readable_relations st ~use_delta ~arity =
  if use_delta then
    Hashtbl.fold
      (fun name r acc -> if Relation.arity r = arity then (name, r) :: acc else acc)
      st.delta []
  else
    List.filter_map
      (fun (info : Database.info) ->
        if info.arity = arity then Some (info.name, info.data) else None)
      (Database.relations st.db)

(* Provenance: instantiate the plan's positive body atoms. *)
let premises_of_env (plan : Plan.t) env =
  List.filter_map
    (fun (rel, peer, args) ->
      let name = function
        | Plan.Fixed n -> Some n
        | Plan.Name_slot s -> Option.bind env.(s) Value.as_name
      in
      match name rel, name peer, Plan.instantiate_args args env with
      | Some rel, Some peer, Some values ->
        Some (Fact.make ~rel ~peer (Array.to_list values))
      | _, _, _ -> None)
    plan.Plan.premise_patterns

(* Route a ground, locally produced head of the rule labelled
   [label]. [prov] lazily builds the provenance entry when a new view
   fact is stored. *)
let dispatch_head st ~label ~prov ~rel ~peer (tuple : Tuple.t) =
  st.derivations <- st.derivations + 1;
  if not (String.equal peer st.self) then begin
    Head_tbl.replace st.messages { Head_key.rel; peer; tuple } ();
    Hashtbl.replace st.origins (peer, label) ()
  end
  else
    match Database.ensure st.db ~rel ~arity:(Tuple.arity tuple) with
    | Error e ->
      report st
        (Runtime_error.Store_error
           { rel; message = Format.asprintf "%a" Database.pp_error e })
    | Ok info -> (
      match info.Database.kind with
      | Decl.Extensional ->
        Head_tbl.replace st.induced { Head_key.rel; peer; tuple } ()
      | Decl.Intensional ->
        if Relation.insert info.Database.data tuple then begin
          delta_add st rel tuple;
          match st.provenance with
          | Some tbl ->
            let fact = Fact.make ~rel ~peer (Tuple.to_list tuple) in
            Fact_tbl.replace tbl fact (prov fact)
          | None -> ()
        end)

(* Resolve a compiled name reference under the environment. *)
type resolved =
  | RName of string
  | RUnbound of string  (* the variable's name *)
  | RBad of Value.t

let resolve plan env = function
  | Plan.Fixed n -> RName n
  | Plan.Name_slot s -> (
    match env.(s) with
    | None -> RUnbound plan.Plan.slot_names.(s)
    | Some v -> (
      match Value.as_name v with Some n -> RName n | None -> RBad v))

(* Residual rule shipped at a delegation point: the instantiated head
   plus the substituted body suffix starting at [pos]. *)
let residual_rule (plan : Plan.t) env pos =
  let sigma = Plan.subst_of_env plan env in
  let body =
    List.filteri (fun i _ -> i >= pos) plan.Plan.rule.Rule.body
    |> List.map (Literal.subst sigma)
  in
  Rule.make ~head:(Atom.subst sigma plan.Plan.rule.Rule.head) ~body

(* Delegation boundary at step [m]: record the hit, building its
   residual the first time the binding is seen. *)
let suspend st (plan : Plan.t) (m : Plan.match_step) env target =
  let key =
    {
      Hit.target;
      id = plan.Plan.id;
      pos = m.Plan.pos;
      binding = Array.map (fun s -> env.(s)) m.Plan.resid;
    }
  in
  if not (Hit_tbl.mem st.suspensions key) then
    Hit_tbl.add st.suspensions key
      {
        residual = residual_rule plan env m.Plan.pos;
        source = plan.Plan.source;
        label = plan.Plan.label;
      }

let head_key st (plan : Plan.t) env =
  match
    ( resolve plan env plan.Plan.head_rel,
      resolve plan env plan.Plan.head_peer,
      Plan.instantiate_args plan.Plan.head_args env )
  with
  | RName rel, RName peer, Some values -> Some (rel, peer, values)
  | RBad v, _, _ | _, RBad v, _ ->
    report st (Runtime_error.Not_a_name { value = v; atom = plan.Plan.rule.Rule.head });
    None
  | RUnbound x, _, _ | _, RUnbound x, _ ->
    report st (Runtime_error.Unbound_at_eval { var = x; where = "rule head" });
    None
  | RName _, RName _, None ->
    report st
      (Runtime_error.Unbound_at_eval
         { var = String.concat "," (Atom.vars plan.Plan.rule.Rule.head);
           where = "rule head" });
    None

(* Execute a compiled plan. [emit env] is called on every complete
   valuation; [delta_pos] marks the literal that reads the delta. *)
let exec_plan st (plan : Plan.t) ~delta_pos ~emit =
  let env = Array.make (max plan.Plan.nslots 1) None in
  let slot_names = plan.Plan.slot_names in
  let rec step steps =
    match steps with
    | [] -> emit env
    | Plan.Cmp (op, e1, e2, lit) :: rest -> (
      match
        Plan.eval_cexpr e1 env ~slot_names, Plan.eval_cexpr e2 env ~slot_names
      with
      | Ok v1, Ok v2 -> if Literal.eval_cmp op v1 v2 then step rest
      | Error e, _ | _, Error e ->
        report st (Runtime_error.Expr_failed { error = e; literal = lit }))
    | Plan.Assign (s, e, lit) :: rest -> (
      match Plan.eval_cexpr e env ~slot_names with
      | Error e -> report st (Runtime_error.Expr_failed { error = e; literal = lit })
      | Ok v -> (
        match env.(s) with
        | Some v' -> if Value.equal v v' then step rest
        | None ->
          env.(s) <- Some v;
          step rest;
          env.(s) <- None))
    | Plan.Match m :: rest ->
      if m.Plan.neg then (if neg_holds m then step rest) else match_pos m rest

  and neg_holds (m : Plan.match_step) =
    match resolve plan env m.Plan.peer with
    | RBad v ->
      report st (Runtime_error.Not_a_name { value = v; atom = m.Plan.atom });
      false
    | RUnbound x ->
      report st (Runtime_error.Unbound_at_eval { var = x; where = "negated atom" });
      false
    | RName p when p <> st.self ->
      report st (Runtime_error.Remote_negation { peer = p; atom = m.Plan.atom });
      false
    | RName _ -> (
      match resolve plan env m.Plan.rel with
      | RBad v ->
        report st (Runtime_error.Not_a_name { value = v; atom = m.Plan.atom });
        false
      | RUnbound x ->
        report st
          (Runtime_error.Unbound_at_eval { var = x; where = "negated atom" });
        false
      | RName c -> (
        match Plan.instantiate_args m.Plan.args env with
        | None ->
          report st
            (Runtime_error.Unbound_at_eval { var = "?"; where = "negated atom" });
          false
        | Some values -> (
          match Database.find st.db c with
          | None -> true
          | Some info ->
            info.Database.arity <> Array.length values
            || not (Relation.mem info.Database.data values))))

  and match_pos (m : Plan.match_step) rest =
    match resolve plan env m.Plan.peer with
    | RBad v -> report st (Runtime_error.Not_a_name { value = v; atom = m.Plan.atom })
    | RUnbound x ->
      report st (Runtime_error.Unbound_at_eval { var = x; where = "peer position" })
    | RName p when p <> st.self ->
      (* Delegation boundary: ship the residual rule to [p]. *)
      suspend st plan m env p
    | RName _ ->
      let use_delta = delta_pos = Some m.Plan.pos in
      let arity = Array.length m.Plan.args in
      (* The binding pattern is static (plan.bpos/bsrc): fill the flat
         probe key from constants and bound slots, then let the store
         walk the matching tuples — no per-call association list, no
         per-tuple trail. *)
      let np = Array.length m.Plan.bpos in
      let key = Array.make np (Value.Int 0) in
      let run_source relation =
        for k = 0 to np - 1 do
          match m.Plan.bsrc.(k) with
          | Plan.Const v -> key.(k) <- v
          | Plan.Slot s -> (
            match env.(s) with
            | Some v -> key.(k) <- v
            | None ->
              (* Statically bound: a linear plan binds deterministically. *)
              assert false)
        done;
        (* The store hands back a slot; columns are read straight from
           the pool, so a hit allocates no tuple. *)
        Relation.lookup_key relation m.Plan.bpos key (fun slot ->
            let binds = m.Plan.out_binds in
            let nb = Array.length binds in
            for j = 0 to nb - 1 do
              let i, s = binds.(j) in
              env.(s) <- Some (Relation.value relation slot i)
            done;
            let checks = m.Plan.out_checks in
            let nc = Array.length checks in
            let ok = ref true in
            for j = 0 to nc - 1 do
              let i, s = checks.(j) in
              match env.(s) with
              | Some v ->
                if not (Value.equal v (Relation.value relation slot i)) then
                  ok := false
              | None -> assert false
            done;
            if !ok then step rest;
            for j = 0 to nb - 1 do
              env.(snd binds.(j)) <- None
            done)
      in
      (match resolve plan env m.Plan.rel with
      | RBad v ->
        report st (Runtime_error.Not_a_name { value = v; atom = m.Plan.atom })
      | RName c ->
        (* Fixed (or bound) relation name: exactly one source, looked
           up directly — no intermediate list. *)
        if use_delta then (
          match Hashtbl.find_opt st.delta c with
          | Some r when Relation.arity r = arity -> run_source r
          | Some _ | None -> ())
        else (
          match Database.find st.db c with
          | Some info when info.Database.arity = arity ->
            run_source info.Database.data
          | Some _ | None -> ())
      | RUnbound _ ->
        let enum_slot =
          match m.Plan.rel with Plan.Name_slot s -> Some s | Plan.Fixed _ -> None
        in
        List.iter
          (fun (name, relation) ->
            (match enum_slot with
            | Some s -> env.(s) <- Some (Value.String name)
            | None -> ());
            run_source relation;
            match enum_slot with Some s -> env.(s) <- None | None -> ())
          (readable_relations st ~use_delta ~arity))
  in
  step plan.Plan.steps

let emit_rule st (plan : Plan.t) env =
  match head_key st plan env with
  | None -> ()
  | Some (rel, peer, tuple) ->
    (* Provenance names the rule as the user wrote it, not the
       planner's reordered body. *)
    let prov fact =
      { fact; rule = plan.Plan.source; premises = premises_of_env plan env }
    in
    dispatch_head st ~label:plan.Plan.label ~prov ~rel ~peer tuple

let eval_plan st ~delta_pos (plan : Plan.t) =
  exec_plan st plan ~delta_pos ~emit:(fun env -> emit_rule st plan env)

(* {1 Aggregate rules} *)

let statically_local ~self (rule : Rule.t) =
  List.for_all
    (fun lit ->
      match lit with
      | Literal.Pos a | Literal.Neg a -> Term.as_name a.Atom.peer = Some self
      | Literal.Cmp _ | Literal.Assign _ -> true)
    rule.Rule.body

let eval_agg_plan st (plan : Plan.t) =
  let rule = plan.Plan.rule in
  if not (statically_local ~self:st.self rule) then
    report st
      (Runtime_error.Store_error
         {
           rel = "<aggregate rule>";
           message =
             "aggregate rules must be entirely local (every body atom's peer \
              must be this peer)";
         })
  else begin
    (* Collect distinct complete valuations as environment snapshots. *)
    let sigmas = Hashtbl.create 64 in
    exec_plan st plan ~delta_pos:None ~emit:(fun env ->
        let snapshot = Array.copy env in
        Hashtbl.replace sigmas snapshot ());
    let groups = Hashtbl.create 16 in
    Hashtbl.iter
      (fun env () ->
        match
          ( resolve plan env plan.Plan.head_rel,
            resolve plan env plan.Plan.head_peer )
        with
        | RName rel, RName peer ->
          (* key_args: Some v at grouping positions, None at aggregate
             positions. Safety guarantees grouping slots are bound. *)
          let valid = ref true in
          let key_args =
            Array.to_list
              (Array.mapi
                 (fun i a ->
                   if List.mem_assoc i rule.Rule.aggs then None
                   else
                     match a with
                     | Plan.Const v -> Some v
                     | Plan.Slot s ->
                       (match env.(s) with None -> valid := false | Some _ -> ());
                       env.(s))
                 plan.Plan.head_args)
          in
          if !valid then begin
            let key = (rel, peer, key_args) in
            let agg_values =
              List.map
                (fun (i, (_ : Aggregate.spec)) ->
                  let v =
                    match plan.Plan.head_args.(i) with
                    | Plan.Slot s -> env.(s)
                    | Plan.Const v -> Some v
                  in
                  (i, v))
                rule.Rule.aggs
            in
            match Hashtbl.find_opt groups key with
            | None -> Hashtbl.replace groups key (ref [ agg_values ])
            | Some l -> l := agg_values :: !l
          end
          else
            report st
              (Runtime_error.Unbound_at_eval
                 { var = "?"; where = "aggregate head" })
        | _, _ ->
          report st
            (Runtime_error.Unbound_at_eval
               { var = "?"; where = "aggregate head" }))
      sigmas;
    Hashtbl.iter
      (fun (rel, peer, key_args) collected ->
        let computed =
          List.fold_left
            (fun acc (i, (spec : Aggregate.spec)) ->
              match acc with
              | Error _ as e -> e
              | Ok assoc -> (
                let values =
                  List.filter_map
                    (fun row ->
                      List.find_map (fun (j, v) -> if i = j then v else None) row)
                    !collected
                in
                match Aggregate.apply spec.Aggregate.op values with
                | Ok v -> Ok ((i, v) :: assoc)
                | Error msg -> Error msg))
            (Ok []) rule.Rule.aggs
        in
        match computed with
        | Error msg ->
          report st
            (Runtime_error.Store_error { rel = "<aggregate>"; message = msg })
        | Ok assoc ->
          let args =
            List.mapi
              (fun i slot ->
                match slot with
                | Some v -> v
                | None -> List.assoc i assoc)
              key_args
          in
          let prov fact = { fact; rule; premises = [] } in
          dispatch_head st ~label:plan.Plan.label ~prov ~rel ~peer
            (Tuple.of_list args))
      groups
  end

(* {1 Strata} *)

(* One semi-naive iteration over the stratum's activations: only
   (plan, pos) pairs whose delta relation received tuples last
   iteration execute — running the others costs the full enumeration
   of the body prefix before [pos] just to find an empty delta.
   Wildcard positions (relation variables) may read any delta, so they
   always run. *)
let seminaive_iteration st (stratum : Prog.stratum) =
  let executed = ref 0 in
  Hashtbl.iter
    (fun name _delta ->
      match Hashtbl.find_opt stratum.Prog.by_rel name with
      | None -> ()
      | Some acts ->
        List.iter
          (fun (a : Prog.activation) ->
            incr executed;
            eval_plan st ~delta_pos:(Some a.Prog.pos) a.Prog.plan)
          acts)
    st.delta;
  List.iter
    (fun (a : Prog.activation) ->
      incr executed;
      eval_plan st ~delta_pos:(Some a.Prog.pos) a.Prog.plan)
    stratum.Prog.wildcard;
  let skipped = stratum.Prog.n_activations - !executed in
  if skipped > 0 then Wdl_obs.Obs.inc ~by:skipped st.skipped_ctr

let run_stratum ?seed st (stratum : Prog.stratum) =
  st.delta <- Hashtbl.create 8;
  st.delta_next <- Hashtbl.create 8;
  (* Aggregate rules read complete lower strata, so they run once, up
     front; their outputs then feed the stratum's fixpoint normally. *)
  List.iter (fun p -> eval_agg_plan st p) stratum.Prog.agg_plans;
  (match seed with
  | None ->
    (* Iteration 1: full evaluation of every rule. *)
    List.iter (fun p -> eval_plan st ~delta_pos:None p) stratum.Prog.plans
  | Some pairs ->
    (* Delta staging: the database already holds the previous fixpoint
       and the seed tuples; the first iteration is one semi-naive pass
       driven by exactly the new tuples. *)
    List.iter (fun (rel, tuple) -> delta_add st rel tuple) pairs;
    st.delta <- st.delta_next;
    st.delta_next <- Hashtbl.create 8;
    seminaive_iteration st stratum);
  st.iterations <- st.iterations + 1;
  let rec loop () =
    if Hashtbl.length st.delta_next = 0 then ()
    else begin
      Wdl_obs.Obs.observe st.delta_hist
        (float_of_int
           (Hashtbl.fold
              (fun _ r acc -> acc + Relation.cardinal r)
              st.delta_next 0));
      st.delta <- st.delta_next;
      st.delta_next <- Hashtbl.create 8;
      st.iterations <- st.iterations + 1;
      seminaive_iteration st stratum;
      loop ()
    end
  in
  loop ()

(* The distinct residuals per target, sorted by (target, residual),
   each with the label of its source. When two rules ship the same
   residual to the same target, the source is the smallest rule by
   [Rule.compare] (then label): an order-independent tie-break, so
   attribution does not depend on which rule the evaluator happened to
   run first. Structural comparison runs only here, over distinct
   hits. *)
let shipped st =
  let order (t1, s1) (t2, s2) =
    match String.compare t1 t2 with
    | 0 -> (
      match Rule.compare s1.residual s2.residual with
      | 0 -> (
        match Rule.compare s1.source s2.source with
        | 0 -> String.compare s1.label s2.label
        | c -> c)
      | c -> c)
    | c -> c
  in
  let rec dedup = function
    | (t1, s1) :: (t2, s2) :: rest
      when String.equal t1 t2 && Rule.equal s1.residual s2.residual ->
      dedup ((t1, s1) :: rest)
    | (t, s) :: rest -> ((t, s.residual), s.label) :: dedup rest
    | [] -> []
  in
  Hit_tbl.fold (fun k s acc -> (k.Hit.target, s) :: acc) st.suspensions []
  |> List.sort order |> dedup

(* Per-peer instrument handles. Resolving an instrument is a labelled
   hashtable lookup — cheap, but measurable on small stages when done
   four times per run. Callers that run many stages ([Peer]) resolve
   once and pass the bundle in; [run] without one resolves per call so
   a registry [clear] between runs just re-creates the families. *)
type handles = {
  stage_hist : Wdl_obs.Obs.histogram;
  iter_hist : Wdl_obs.Obs.histogram;
  h_delta_hist : Wdl_obs.Obs.histogram;
  h_skipped_ctr : Wdl_obs.Obs.counter;
}

let handles ~self =
  let peer_labels = [ ("peer", self) ] in
  {
    stage_hist =
      Wdl_obs.Obs.histogram ~labels:peer_labels
        ~help:"Wall time of one fixpoint evaluation (all strata)"
        ~buckets:Wdl_obs.Obs.latency_buckets
        "wdl_eval_stage_duration_microseconds";
    iter_hist =
      Wdl_obs.Obs.histogram ~labels:peer_labels
        ~help:"Semi-naive iterations per fixpoint run"
        ~buckets:Wdl_obs.Obs.iteration_buckets "wdl_eval_iterations";
    h_delta_hist =
      Wdl_obs.Obs.histogram ~labels:peer_labels
        ~help:"Tuples in the delta at each semi-naive iteration"
        ~buckets:Wdl_obs.Obs.size_buckets "wdl_eval_delta_size";
    h_skipped_ctr =
      Wdl_obs.Obs.counter ~labels:peer_labels
        ~help:
          "(plan, delta position) pairs skipped by activation \
           scheduling because their delta relation was empty"
        "wdl_eval_plans_skipped_total";
  }

let run ?(record_provenance = false) ?seed ?program ?handles:h ~self db rules =
  let compiled =
    match program with
    | Some p -> Ok p
    | None ->
      let intensional rel =
        match Database.kind db rel with
        | Some Decl.Intensional -> true
        | Some Decl.Extensional | None -> false
      in
      Prog.compile ~self ~intensional (Prog.sources rules)
  in
  match compiled with
  | Error e -> Error e
  | Ok prog ->
    let h = match h with Some h -> h | None -> handles ~self in
    let st =
      {
        self;
        db;
        delta = Hashtbl.create 8;
        delta_next = Hashtbl.create 8;
        induced = Head_tbl.create 64;
        messages = Head_tbl.create 64;
        suspensions = Hit_tbl.create 32;
        origins = Hashtbl.create 16;
        provenance =
          (if record_provenance then Some (Fact_tbl.create 64) else None);
        errors = [];
        error_count = 0;
        derivations = 0;
        iterations = 0;
        delta_hist = h.h_delta_hist;
        skipped_ctr = h.h_skipped_ctr;
      }
    in
    (* Seeding is only meaningful for a single-stratum (monotone)
       program — a higher stratum reads complete lower strata, which a
       seeded pass does not rebuild. *)
    let seed =
      if Array.length prog.Prog.strata > 1 then None else seed
    in
    Wdl_obs.Obs.time h.stage_hist (fun () ->
        Array.iter (run_stratum ?seed st) prog.Prog.strata);
    Wdl_obs.Obs.observe h.iter_hist (float_of_int st.iterations);
    (* Canonical result assembly: derived sets are sorted, so journal
       writes, snapshots and trace fact order are a function of the
       result *sets* alone — never of hash-table iteration order. Their
       bytes depend on it. *)
    let to_list tbl =
      Head_tbl.fold (fun k () acc -> Head_key.to_fact k :: acc) tbl []
      |> List.sort Fact.compare
    in
    let susp_sources = shipped st in
    Ok
      {
        induced = to_list st.induced;
        messages = to_list st.messages;
        suspensions = List.map fst susp_sources;
        origins =
          Hashtbl.fold (fun k () acc -> k :: acc) st.origins []
          |> List.sort compare;
        susp_sources;
        errors = List.rev st.errors;
        iterations = st.iterations;
        derivations = st.derivations;
        provenance =
          (match st.provenance with
          | None -> []
          | Some tbl ->
            Fact_tbl.fold (fun _ d acc -> d :: acc) tbl []
            |> List.sort (fun d1 d2 -> Fact.compare d1.fact d2.fact));
      }
