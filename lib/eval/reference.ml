open Wdl_syntax
open Wdl_store

module Fact_tbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

module Susp_tbl = Hashtbl.Make (struct
  type t = string * Rule.t

  let equal (t1, r1) (t2, r2) = String.equal t1 t2 && Rule.equal r1 r2
  let hash x = Hashtbl.hash_param 64 128 x
end)

type state = {
  self : string;
  db : Database.t;
  mutable delta : (string, Relation.t) Hashtbl.t;
  mutable delta_next : (string, Relation.t) Hashtbl.t;
  deduced : unit Fact_tbl.t;
  induced : unit Fact_tbl.t;
  messages : unit Fact_tbl.t;
  suspensions : unit Susp_tbl.t;
  provenance : Fixpoint.derivation Fact_tbl.t option;
  mutable errors : Runtime_error.t list;
  mutable error_count : int;
  mutable derivations : int;
  mutable iterations : int;
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
      let r = Relation.create ~arity:(Tuple.arity tuple) () in
      Hashtbl.add st.delta_next rel r;
      r
  in
  ignore (Relation.insert r tuple)

let readable st ~use_delta ~rel_name ~arity =
  if use_delta then
    match rel_name with
    | Some c -> (
      match Hashtbl.find_opt st.delta c with
      | Some r when Relation.arity r = arity -> [ (c, r) ]
      | Some _ | None -> [])
    | None ->
      Hashtbl.fold
        (fun name r acc -> if Relation.arity r = arity then (name, r) :: acc else acc)
        st.delta []
  else
    match rel_name with
    | Some c -> (
      match Database.find st.db c with
      | Some info when info.Database.arity = arity -> [ (c, info.Database.data) ]
      | Some _ | None -> [])
    | None ->
      List.filter_map
        (fun (info : Database.info) ->
          if info.arity = arity then Some (info.name, info.data) else None)
        (Database.relations st.db)

let premises_of (rule : Rule.t) sigma =
  List.filter_map
    (function
      | Literal.Pos a -> Atom.to_fact (Atom.subst sigma a)
      | Literal.Neg _ | Literal.Cmp _ | Literal.Assign _ -> None)
    rule.Rule.body

let dispatch st (rule : Rule.t) sigma_opt (fact : Fact.t) =
  st.derivations <- st.derivations + 1;
  if fact.Fact.peer <> st.self then Fact_tbl.replace st.messages fact ()
  else
    let tuple = Tuple.of_list fact.Fact.args in
    match Database.ensure st.db ~rel:fact.Fact.rel ~arity:(Tuple.arity tuple) with
    | Error e ->
      report st
        (Runtime_error.Store_error
           { rel = fact.Fact.rel; message = Format.asprintf "%a" Database.pp_error e })
    | Ok info -> (
      match info.Database.kind with
      | Decl.Extensional -> Fact_tbl.replace st.induced fact ()
      | Decl.Intensional ->
        if Relation.insert info.Database.data tuple then begin
          Fact_tbl.replace st.deduced fact ();
          delta_add st fact.Fact.rel tuple;
          match st.provenance with
          | Some tbl ->
            let premises =
              match sigma_opt with
              | Some sigma -> premises_of rule sigma
              | None -> []
            in
            Fact_tbl.replace tbl fact { Fixpoint.fact; rule; premises }
          | None -> ()
        end)

(* Match one (already substituted) atom against a relation's tuples. *)
let match_tuple sigma (args : Term.t list) (tuple : Tuple.t) =
  let n = Array.length tuple in
  if List.length args <> n then None
  else
    let rec go sigma i = function
      | [] -> Some sigma
      | Term.Const v :: rest ->
        if Value.equal v tuple.(i) then go sigma (i + 1) rest else None
      | Term.Var x :: rest -> (
        match Subst.bind x tuple.(i) sigma with
        | Some sigma -> go sigma (i + 1) rest
        | None -> None)
    in
    go sigma 0 args

(* Positions (ascending) and values of an atom's constant arguments. *)
let bound_key (args : Term.t list) =
  let bound = List.concat (List.mapi (fun i t -> match t with Term.Const v -> [ (i, v) ] | Term.Var _ -> []) args) in
  (Array.of_list (List.map fst bound), Array.of_list (List.map snd bound))

let rec walk st rule ~emit ~delta_pos pos sigma lits =
  match lits with
  | [] -> emit sigma
  | lit :: rest -> (
    match lit with
    | Literal.Cmp (op, e1, e2) -> (
      match Expr.eval sigma e1, Expr.eval sigma e2 with
      | Ok v1, Ok v2 ->
        if Literal.eval_cmp op v1 v2 then
          walk st rule ~emit ~delta_pos (pos + 1) sigma rest
      | Error e, _ | _, Error e ->
        report st (Runtime_error.Expr_failed { error = e; literal = lit }))
    | Literal.Assign (x, e) -> (
      match Expr.eval sigma e with
      | Ok v -> (
        match Subst.bind x v sigma with
        | Some sigma -> walk st rule ~emit ~delta_pos (pos + 1) sigma rest
        | None -> ())
      | Error e ->
        report st (Runtime_error.Expr_failed { error = e; literal = lit }))
    | Literal.Neg a ->
      if neg_holds st sigma a then walk st rule ~emit ~delta_pos (pos + 1) sigma rest
    | Literal.Pos a -> (
      let a = Atom.subst sigma a in
      match a.Atom.peer with
      | Term.Var x ->
        report st (Runtime_error.Unbound_at_eval { var = x; where = "peer position" })
      | Term.Const pv -> (
        match Value.as_name pv with
        | None -> report st (Runtime_error.Not_a_name { value = pv; atom = a })
        | Some p when p <> st.self ->
          let residual =
            Rule.make
              ~head:(Atom.subst sigma rule.Rule.head)
              ~body:(List.map (Literal.subst sigma) (lit :: rest))
          in
          Susp_tbl.replace st.suspensions (p, residual) ()
        | Some _ ->
          let arity = Atom.arity a in
          let use_delta = delta_pos = Some pos in
          let sources, enum_var =
            match a.Atom.rel with
            | Term.Const rv -> (
              match Value.as_name rv with
              | Some c -> (readable st ~use_delta ~rel_name:(Some c) ~arity, None)
              | None ->
                report st (Runtime_error.Not_a_name { value = rv; atom = a });
                ([], None))
            | Term.Var x -> (readable st ~use_delta ~rel_name:None ~arity, Some x)
          in
          List.iter
            (fun (name, relation) ->
              let sigma =
                match enum_var with
                | None -> Some sigma
                | Some x -> Subst.bind x (Value.String name) sigma
              in
              match sigma with
              | None -> ()
              | Some sigma ->
                let positions, key = bound_key a.Atom.args in
                Relation.lookup_key relation positions key (fun slot ->
                    let tuple = Array.init arity (Relation.value relation slot) in
                    match match_tuple sigma a.Atom.args tuple with
                    | Some sigma ->
                      walk st rule ~emit ~delta_pos (pos + 1) sigma rest
                    | None -> ()))
            sources)))

and neg_holds st sigma a =
  let a = Atom.subst sigma a in
  match a.Atom.peer with
  | Term.Var x ->
    report st (Runtime_error.Unbound_at_eval { var = x; where = "negated atom" });
    false
  | Term.Const pv -> (
    match Value.as_name pv with
    | None ->
      report st (Runtime_error.Not_a_name { value = pv; atom = a });
      false
    | Some p when p <> st.self ->
      report st (Runtime_error.Remote_negation { peer = p; atom = a });
      false
    | Some _ -> (
      match Atom.to_fact a with
      | None ->
        report st
          (Runtime_error.Unbound_at_eval { var = "?"; where = "negated atom" });
        false
      | Some f ->
        not (Database.mem st.db ~rel:f.Fact.rel (Tuple.of_list f.Fact.args))))

let complete st rule sigma =
  let head = Atom.subst sigma rule.Rule.head in
  match Atom.to_fact head with
  | Some fact -> dispatch st rule (Some sigma) fact
  | None -> (
    match head.Atom.rel, head.Atom.peer with
    | Term.Const v, _ when Value.as_name v = None ->
      report st (Runtime_error.Not_a_name { value = v; atom = head })
    | _, Term.Const v when Value.as_name v = None ->
      report st (Runtime_error.Not_a_name { value = v; atom = head })
    | _, _ ->
      report st
        (Runtime_error.Unbound_at_eval
           { var = String.concat "," (Atom.vars head); where = "rule head" }))

let eval_rule st ~delta_pos (rule : Rule.t) =
  walk st rule
    ~emit:(fun sigma -> complete st rule sigma)
    ~delta_pos 0 Subst.empty rule.Rule.body

let eval_agg_rule st (rule : Rule.t) =
  if not (Fixpoint.statically_local ~self:st.self rule) then
    report st
      (Runtime_error.Store_error
         {
           rel = "<aggregate rule>";
           message =
             "aggregate rules must be entirely local (every body atom's peer \
              must be this peer)";
         })
  else begin
    let sigmas = Hashtbl.create 64 in
    walk st rule
      ~emit:(fun sigma -> Hashtbl.replace sigmas (Subst.to_list sigma) sigma)
      ~delta_pos:None 0 Subst.empty rule.Rule.body;
    let groups = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ sigma ->
        let head = Atom.subst sigma rule.Rule.head in
        match Term.as_name head.Atom.rel, Term.as_name head.Atom.peer with
        | Some rel, Some peer ->
          let key_args =
            List.mapi
              (fun i t ->
                if List.mem_assoc i rule.Rule.aggs then None
                else match t with Term.Const v -> Some v | Term.Var _ -> None)
              head.Atom.args
          in
          let key = (rel, peer, key_args) in
          let agg_values =
            List.map
              (fun (i, (spec : Aggregate.spec)) ->
                (i, Subst.find spec.Aggregate.var sigma))
              rule.Rule.aggs
          in
          (match Hashtbl.find_opt groups key with
          | None -> Hashtbl.replace groups key (ref [ agg_values ])
          | Some l -> l := agg_values :: !l)
        | _, _ ->
          report st
            (Runtime_error.Unbound_at_eval { var = "?"; where = "aggregate head" }))
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
                match slot with Some v -> v | None -> List.assoc i assoc)
              key_args
          in
          dispatch st rule None (Fact.make ~rel ~peer args))
      groups
  end

let pos_positions (rule : Rule.t) =
  List.concat
    (List.mapi
       (fun i lit ->
         match lit with
         | Literal.Pos _ -> [ i ]
         | Literal.Neg _ | Literal.Cmp _ | Literal.Assign _ -> [])
       rule.Rule.body)

let run_stratum st all_rules =
  let agg_rules, rules = List.partition Rule.is_aggregate all_rules in
  st.delta <- Hashtbl.create 8;
  st.delta_next <- Hashtbl.create 8;
  List.iter (eval_agg_rule st) agg_rules;
  List.iter (fun r -> eval_rule st ~delta_pos:None r) rules;
  st.iterations <- st.iterations + 1;
  let rec loop () =
    if Hashtbl.length st.delta_next = 0 then ()
    else begin
      st.delta <- st.delta_next;
      st.delta_next <- Hashtbl.create 8;
      st.iterations <- st.iterations + 1;
      List.iter
        (fun r ->
          List.iter (fun p -> eval_rule st ~delta_pos:(Some p) r) (pos_positions r))
        rules;
      loop ()
    end
  in
  loop ()

let run ?(record_provenance = false) ~self db rules =
  match Stratify.compute ~self ~intensional:(Database.is_intensional db) rules with
  | Error e -> Error e
  | Ok { Stratify.strata } ->
    let st =
      {
        self;
        db;
        delta = Hashtbl.create 8;
        delta_next = Hashtbl.create 8;
        deduced = Fact_tbl.create 64;
        induced = Fact_tbl.create 64;
        messages = Fact_tbl.create 64;
        suspensions = Susp_tbl.create 32;
        provenance =
          (if record_provenance then Some (Fact_tbl.create 64) else None);
        errors = [];
        error_count = 0;
        derivations = 0;
        iterations = 0;
      }
    in
    Array.iter (run_stratum st) strata;
    let to_list tbl = Fact_tbl.fold (fun f () acc -> f :: acc) tbl [] in
    let result =
      {
        Fixpoint.induced = to_list st.induced;
        messages = to_list st.messages;
        suspensions = Susp_tbl.fold (fun s () acc -> s :: acc) st.suspensions [];
        (* The reference model does not attribute deliveries to rules;
           differentials compare the semantic fields, not these. *)
        origins = [];
        susp_sources = [];
        errors = List.rev st.errors;
        iterations = st.iterations;
        derivations = st.derivations;
        provenance =
          (match st.provenance with
          | None -> []
          | Some tbl -> Fact_tbl.fold (fun _ d acc -> d :: acc) tbl []);
      }
    in
    Ok (result, to_list st.deduced)
