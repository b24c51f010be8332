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

type seed = { tuples : (string * Tuple.t) list; fresh : int list }

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
   the boundary literal and the ids of the variables the residual keeps
   ([Plan.match_step.resid]), canonical so equal values give equal
   keys. Equal keys ship equal residuals, so the residual is built once
   per key. *)
module Hit = struct
  type t = { target : string; id : int; pos : int; binding : int array }

  let equal a b =
    a.id = b.id && a.pos = b.pos && String.equal a.target b.target
    && Array.for_all2 Int.equal a.binding b.binding

  let hash k =
    Array.fold_left
      (fun h id -> (h lxor id) * 0x01000193)
      ((Hashtbl.hash k.target * 17) + (k.id * 13) + k.pos)
      k.binding
    land max_int
end

module Hit_tbl = Hashtbl.Make (Hit)

type shipped = { residual : Rule.t; source : Rule.t; label : string }

(* A local relation some head writes, resolved once per run: its store
   and, while [gen] is the run's, its relation in [delta_next]. *)
type target = {
  rel : string;
  info : Database.info;
  mutable next : Relation.t;
  mutable gen : int;
}

(* Evaluation state shared across a whole run.

   Environments, probe keys and head rows hold ids of [ids], the run's
   scratch table over the database pool: pool ids for stored values,
   scratch ids for values the pool lacks (constants, assignment
   results, enumerated relation names), so the pool only grows when a
   head stores a value. Every relation a run reads shares that pool. *)
type state = {
  self : string;
  db : Database.t;
  ids : Intern.scratch;
  decode : int -> Value.t;
  mutable self_id : int;  (* the last id seen naming [self] *)
  (* delta.(rel) = intensional tuples new as of the previous iteration *)
  mutable delta : (string, Relation.t) Hashtbl.t;
  mutable delta_next : (string, Relation.t) Hashtbl.t;
  mutable gen : int;  (* bumped whenever [delta_next] is replaced *)
  targets : (string, target) Hashtbl.t;
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
  mutable on_rows : (int -> unit) array;
      (* the executing plan's row callbacks, by body position (see
         [exec_plan]); executions never nest *)
}

let max_errors = 1000

let report st e =
  st.error_count <- st.error_count + 1;
  if st.error_count <= max_errors then st.errors <- e :: st.errors

let give_back st delta =
  Hashtbl.iter (fun rel r -> Database.give_scratch st.db ~rel r) delta

(* The delta just filled becomes the one the next iteration reads; the
   one it replaces is read no more, so its storage goes back to the
   database for the next deltas. *)
let advance st =
  give_back st st.delta;
  st.delta <- st.delta_next;
  st.delta_next <- Hashtbl.create 8;
  st.gen <- st.gen + 1

(* [rel]'s relation in [delta_next], taken on its first tuple. Deltas
   live one iteration and are never indexed. They share the database's
   intern pool, so delta probes stay id comparisons, and their storage
   is the database's scratch: a stage reuses the arrays earlier stages
   grew, where allocating them afresh made most of a recomputing
   stage's major-heap garbage. *)
let delta_relation st rel ~arity =
  match Hashtbl.find_opt st.delta_next rel with
  | Some r -> r
  | None ->
    let r = Database.take_scratch st.db ~rel ~arity in
    Hashtbl.add st.delta_next rel r;
    r

let target_delta st (t : target) =
  if t.gen <> st.gen then begin
    t.next <- delta_relation st t.rel ~arity:t.info.Database.arity;
    t.gen <- st.gen
  end;
  t.next

(* Where a head goes. [Unroutable] is an error in the head's names,
   reported per valuation; [Store_failed] a store refusal, reported per
   derivation. *)
type dest =
  | Local of target
  | Message of string * string  (* relation, destination peer *)
  | Unroutable of Runtime_error.t
  | Store_failed of Runtime_error.t

(* A head for [rel] at this peer, its target resolved once per run. *)
let local_dest st rel ~arity =
  match Hashtbl.find_opt st.targets rel with
  | Some (t : target) when t.info.Database.arity = arity -> Local t
  | Some _ | None -> (
    match Database.ensure st.db ~rel ~arity with
    | Ok info ->
      let t : target = { rel; info; next = info.Database.data; gen = -1 } in
      Hashtbl.replace st.targets rel t;
      Local t
    | Error e ->
      Store_failed
        (Runtime_error.Store_error
           { rel; message = Format.asprintf "%a" Database.pp_error e }))

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

(* Resolve a compiled relation name under the environment. *)
type resolved =
  | RName of string
  | RUnbound of string  (* the variable's name *)
  | RBad of Value.t

let resolve st (plan : Plan.t) env = function
  | Plan.Fixed n -> RName n
  | Plan.Name_slot s ->
    let id = env.(s) in
    if id = Plan.unbound then RUnbound plan.Plan.slot_names.(s)
    else
      let v = st.decode id in
      match Value.as_name v with Some n -> RName n | None -> RBad v

(* Resolve a compiled peer name. A slot holding the id last seen naming
   this peer is [Self] without a decode; any other id is decoded, which
   happens at a delegation boundary or a remote head. *)
type peer =
  | Self
  | Remote of string
  | Peer_unbound of string
  | Peer_bad of Value.t

let resolve_peer st (plan : Plan.t) env = function
  | Plan.Fixed n -> if String.equal n st.self then Self else Remote n
  | Plan.Name_slot s -> (
    let id = env.(s) in
    if id = Plan.unbound then Peer_unbound plan.Plan.slot_names.(s)
    else if id = st.self_id then Self
    else
      let v = st.decode id in
      match Value.as_name v with
      | Some n when String.equal n st.self ->
        st.self_id <- id;
        Self
      | Some n -> Remote n
      | None -> Peer_bad v)

let decode_row st row = Array.map st.decode row

(* Provenance: instantiate the plan's positive body atoms. *)
let premises_of_env st (plan : Plan.t) env =
  List.filter_map
    (fun (rel, peer, args) ->
      let name = function
        | Plan.Fixed n -> Some n
        | Plan.Name_slot s ->
          if env.(s) = Plan.unbound then None else Value.as_name (st.decode env.(s))
      in
      match
        name rel, name peer, Plan.instantiate_args ~decode:st.decode args env
      with
      | Some rel, Some peer, Some values ->
        Some (Fact.make ~rel ~peer (Array.to_list values))
      | _, _, _ -> None)
    plan.Plan.premise_patterns

let head_dest st (plan : Plan.t) env =
  let head = plan.Plan.rule.Rule.head in
  match
    resolve st plan env plan.Plan.head_rel,
    resolve_peer st plan env plan.Plan.head_peer
  with
  | RBad v, _ | _, Peer_bad v ->
    Unroutable (Runtime_error.Not_a_name { value = v; atom = head })
  | RUnbound x, _ | _, Peer_unbound x ->
    Unroutable (Runtime_error.Unbound_at_eval { var = x; where = "rule head" })
  | RName rel, Remote peer -> Message (rel, peer)
  | RName rel, Self -> local_dest st rel ~arity:(Array.length plan.Plan.head_args)

(* Route a ground head row of [plan]. A view fact's provenance names
   the rule as the user wrote it, with the premises of [env] — unless
   [agg], whose facts carry none. *)
let dispatch st (plan : Plan.t) ~agg dest row env =
  match dest with
  | Unroutable e -> report st e
  | Store_failed e ->
    st.derivations <- st.derivations + 1;
    report st e
  | Message (rel, peer) ->
    st.derivations <- st.derivations + 1;
    Head_tbl.replace st.messages { Head_key.rel; peer; tuple = decode_row st row } ();
    Hashtbl.replace st.origins (peer, plan.Plan.label) ()
  | Local t -> (
    st.derivations <- st.derivations + 1;
    match t.info.Database.kind with
    | Decl.Extensional ->
      Head_tbl.replace st.induced
        { Head_key.rel = t.rel; peer = st.self; tuple = decode_row st row }
        ()
    | Decl.Intensional ->
      (* Storing the row is what may grow the pool: a value first seen
         as foreign is interned here, as its fact is stored. *)
      for i = 0 to Array.length row - 1 do
        if row.(i) < 0 then row.(i) <- Intern.settle st.ids row.(i)
      done;
      if Relation.insert_ids t.info.Database.data row then begin
        ignore (Relation.insert_ids (target_delta st t) row : bool);
        match st.provenance with
        | Some tbl ->
          let fact =
            Fact.make ~rel:t.rel ~peer:st.self (Array.to_list (decode_row st row))
          in
          let d =
            if agg then { fact; rule = plan.Plan.rule; premises = [] }
            else
              { fact; rule = plan.Plan.source; premises = premises_of_env st plan env }
          in
          Fact_tbl.replace tbl fact d
        | None -> ()
      end)

(* Residual rule shipped at a delegation point: the instantiated head
   plus the substituted body suffix starting at [pos]. *)
let residual_rule st (plan : Plan.t) env pos =
  let sigma = Plan.subst_of_env plan ~decode:st.decode env in
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
      binding = Array.map (fun s -> Intern.canon st.ids env.(s)) m.Plan.resid;
    }
  in
  if not (Hit_tbl.mem st.suspensions key) then
    Hit_tbl.add st.suspensions key
      {
        residual = residual_rule st plan env m.Plan.pos;
        source = plan.Plan.source;
        label = plan.Plan.label;
      }

(* An argument's id: a constant's is cached per run. *)
let arg_id st env = function
  | Plan.Const c -> Plan.const_id st.ids c
  | Plan.Slot s -> env.(s)

(* Fill [key] from [srcs], canonical; [false] when some id is foreign
   to the pool (or unbound), so nothing stored can match. *)
let rec fill_key st env (srcs : Plan.arg array) (key : int array) k =
  k >= Array.length srcs
  ||
  let id = Intern.canon st.ids (arg_id st env srcs.(k)) in
  key.(k) <- id;
  id >= 0 && fill_key st env srcs key (k + 1)

let rec has_unbound env (args : Plan.arg array) i =
  i < Array.length args
  && ((match args.(i) with Plan.Slot s -> env.(s) = Plan.unbound | Plan.Const _ -> false)
     || has_unbound env args (i + 1))

(* Do the repeated free positions of the row in [slot] hold the ids
   their first occurrences bound? *)
let rec checks_hold env relation slot (checks : (int * int) array) j =
  j >= Array.length checks
  ||
  let i, s = checks.(j) in
  env.(s) = Relation.id relation slot i && checks_hold env relation slot checks (j + 1)

(* A step's row callback before its first probe: never called. *)
let no_row (_ : int) = ()

(* Empties [st.on_rows] for an execution of [n] steps. *)
let clear_rows st n =
  if Array.length st.on_rows < n then st.on_rows <- Array.make n no_row
  else Array.fill st.on_rows 0 n no_row

(* Execute a compiled plan. [emit env] is called on every complete
   valuation; [delta_pos] marks the literal that reads the delta. *)
let exec_plan st (plan : Plan.t) ~delta_pos ~emit =
  let env = Array.make (max plan.Plan.nslots 1) Plan.unbound in
  clear_rows st (List.length plan.Plan.steps);
  let slot_names = plan.Plan.slot_names in
  let decode = st.decode in
  let rec step steps =
    match steps with
    | [] -> emit env
    | Plan.Cmp (op, e1, e2, lit) :: rest -> (
      match
        ( Plan.eval_cexpr ~decode e1 env ~slot_names,
          Plan.eval_cexpr ~decode e2 env ~slot_names )
      with
      | Ok v1, Ok v2 -> if Literal.eval_cmp op v1 v2 then step rest
      | Error e, _ | _, Error e ->
        report st (Runtime_error.Expr_failed { error = e; literal = lit }))
    | Plan.Assign (s, e, lit) :: rest -> (
      match Plan.eval_cexpr ~decode e env ~slot_names with
      | Error e -> report st (Runtime_error.Expr_failed { error = e; literal = lit })
      | Ok v ->
        let bound = env.(s) in
        if bound <> Plan.unbound then (if Value.equal v (decode bound) then step rest)
        else begin
          env.(s) <- Intern.encode st.ids v;
          step rest;
          env.(s) <- Plan.unbound
        end)
    | Plan.Match m :: rest ->
      if m.Plan.neg then (if neg_holds m then step rest) else match_pos m rest

  and neg_holds (m : Plan.match_step) =
    match resolve_peer st plan env m.Plan.peer with
    | Peer_bad v ->
      report st (Runtime_error.Not_a_name { value = v; atom = m.Plan.atom });
      false
    | Peer_unbound x ->
      report st (Runtime_error.Unbound_at_eval { var = x; where = "negated atom" });
      false
    | Remote p ->
      report st (Runtime_error.Remote_negation { peer = p; atom = m.Plan.atom });
      false
    | Self -> (
      match resolve st plan env m.Plan.rel with
      | RBad v ->
        report st (Runtime_error.Not_a_name { value = v; atom = m.Plan.atom });
        false
      | RUnbound x ->
        report st
          (Runtime_error.Unbound_at_eval { var = x; where = "negated atom" });
        false
      | RName c ->
        let args = m.Plan.args in
        if has_unbound env args 0 then begin
          report st
            (Runtime_error.Unbound_at_eval { var = "?"; where = "negated atom" });
          false
        end
        else (
          match Database.find st.db c with
          | None -> true
          | Some info ->
            info.Database.arity <> Array.length args
            (* A foreign id: the atom is stored nowhere. *)
            || (not (fill_key st env args m.Plan.key 0))
            || not (Relation.mem_ids info.Database.data m.Plan.key)))

  and match_pos (m : Plan.match_step) rest =
    match resolve_peer st plan env m.Plan.peer with
    | Peer_bad v ->
      report st (Runtime_error.Not_a_name { value = v; atom = m.Plan.atom })
    | Peer_unbound x ->
      report st (Runtime_error.Unbound_at_eval { var = x; where = "peer position" })
    | Remote p ->
      (* Delegation boundary: ship the residual rule to [p]. *)
      suspend st plan m env p
    | Self -> (
      let use_delta =
        match delta_pos with Some p -> p = m.Plan.pos | None -> false
      in
      let arity = Array.length m.Plan.args in
      match m.Plan.rel with
      | Plan.Fixed c -> match_named m rest ~use_delta ~arity c
      | Plan.Name_slot s -> (
        match resolve st plan env m.Plan.rel with
        | RBad v ->
          report st (Runtime_error.Not_a_name { value = v; atom = m.Plan.atom })
        | RName c -> match_named m rest ~use_delta ~arity c
        | RUnbound _ ->
          List.iter
            (fun (name, relation) ->
              env.(s) <- Intern.encode st.ids (Value.String name);
              match_in m rest relation;
              env.(s) <- Plan.unbound)
            (readable_relations st ~use_delta ~arity)))

  (* Fixed (or bound) relation name: exactly one source, looked up
     directly — no intermediate list. *)
  and match_named m rest ~use_delta ~arity c =
    if use_delta then (
      match Hashtbl.find_opt st.delta c with
      | Some r when Relation.arity r = arity -> match_in m rest r
      | Some _ | None -> ())
    else
      match Database.find st.db c with
      | Some info when info.Database.arity = arity ->
        match_in m rest info.Database.data
      | Some _ | None -> ()

  (* The binding pattern is static (plan.bpos/bsrc): fill the step's
     key buffer with ids, then let the store walk the matching rows,
     whose ids bind and check slots directly. A step with a fixed
     relation name probes one relation all execution long (the delta
     or the store's), so past the first step, where one execution may
     probe many times, its row callback is made once per execution. *)
  and match_in m rest relation =
    if fill_key st env m.Plan.bsrc m.Plan.key 0 then
      let k = m.Plan.pos in
      let kept = match m.Plan.rel with Plan.Fixed _ -> k > 0 | Plan.Name_slot _ -> false in
      let rows =
        if kept && st.on_rows.(k) != no_row then st.on_rows.(k)
        else begin
          let rows slot =
            let binds = m.Plan.out_binds in
            for j = 0 to Array.length binds - 1 do
              let i, s = binds.(j) in
              env.(s) <- Relation.id relation slot i
            done;
            if checks_hold env relation slot m.Plan.out_checks 0 then step rest;
            for j = 0 to Array.length binds - 1 do
              env.(snd binds.(j)) <- Plan.unbound
            done
          in
          if kept then st.on_rows.(k) <- rows;
          rows
        end
      in
      Relation.lookup_key relation m.Plan.bpos m.Plan.key rows
  in
  step plan.Plan.steps

(* A complete valuation of [plan]: its head row, built in the plan's
   buffer, routed to [dest]. A head whose names are constants resolves
   its destination once per execution ([cache]). *)
let emit_rule st (plan : Plan.t) cache env =
  let dest =
    match !cache with
    | Some d -> d
    | None ->
      let d = head_dest st plan env in
      (match plan.Plan.head_rel, plan.Plan.head_peer with
      | Plan.Fixed _, Plan.Fixed _ -> cache := Some d
      | _, _ -> ());
      d
  in
  match dest with
  | Unroutable e -> report st e
  | Local _ | Message _ | Store_failed _ ->
    let row = plan.Plan.row and args = plan.Plan.head_args in
    let complete = ref true in
    for i = 0 to Array.length args - 1 do
      let id = arg_id st env args.(i) in
      if id = Plan.unbound then complete := false;
      row.(i) <- id
    done;
    if !complete then dispatch st plan ~agg:false dest row env
    else
      report st
        (Runtime_error.Unbound_at_eval
           { var = String.concat "," (Atom.vars plan.Plan.rule.Rule.head);
             where = "rule head" })

let eval_plan st ~delta_pos (plan : Plan.t) =
  let cache = ref None in
  exec_plan st plan ~delta_pos ~emit:(fun env -> emit_rule st plan cache env)

(* {1 Aggregate rules} *)

let statically_local ~self (rule : Rule.t) =
  List.for_all
    (fun lit ->
      match lit with
      | Literal.Pos a | Literal.Neg a -> Term.as_name a.Atom.peer = Some self
      | Literal.Cmp _ | Literal.Assign _ -> true)
    rule.Rule.body

(* Valuations group by the ids of the head's grouping positions; the
   aggregated values are decoded only to be combined. The pool does not
   grow while one rule's valuations are collected and grouped, so equal
   values have equal ids throughout. *)
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
        Hashtbl.replace sigmas (Array.copy env) ());
    let args = plan.Plan.head_args in
    let aggs = Array.of_list rule.Rule.aggs in
    let groups = Hashtbl.create 16 in
    Hashtbl.iter
      (fun env () ->
        match
          ( resolve st plan env plan.Plan.head_rel,
            resolve st plan env plan.Plan.head_peer )
        with
        | RName rel, RName peer ->
          (* Grouping positions hold their ids, aggregate positions
             [unbound]. Safety guarantees grouping slots are bound. *)
          let valid = ref true in
          let key =
            Array.mapi
              (fun i a ->
                if List.mem_assoc i rule.Rule.aggs then Plan.unbound
                else begin
                  let id = arg_id st env a in
                  if id = Plan.unbound then valid := false;
                  Intern.canon st.ids id
                end)
              args
          in
          if not !valid then
            report st
              (Runtime_error.Unbound_at_eval { var = "?"; where = "aggregate head" })
          else begin
            let values = Array.map (fun (i, _) -> arg_id st env args.(i)) aggs in
            match Hashtbl.find_opt groups (rel, peer, key) with
            | None -> Hashtbl.replace groups (rel, peer, key) (ref [ values ])
            | Some l -> l := values :: !l
          end
        | _, _ ->
          report st
            (Runtime_error.Unbound_at_eval { var = "?"; where = "aggregate head" }))
      sigmas;
    Hashtbl.iter
      (fun (rel, peer, key) collected ->
        (* Every aggregate's value, or the first one's error. *)
        let computed =
          Array.fold_right
            (fun r acc ->
              match r, acc with
              | Ok v, Ok vs -> Ok (v :: vs)
              | Error msg, _ | Ok _, Error msg -> Error msg)
            (Array.mapi
               (fun k (_, (spec : Aggregate.spec)) ->
                 Aggregate.apply spec.Aggregate.op
                   (List.filter_map
                      (fun values ->
                        let id = values.(k) in
                        if id = Plan.unbound then None else Some (st.decode id))
                      !collected))
               aggs)
            (Ok [])
        in
        match computed with
        | Error msg ->
          report st (Runtime_error.Store_error { rel = "<aggregate>"; message = msg })
        | Ok vs ->
          let row = plan.Plan.row in
          Array.blit key 0 row 0 (Array.length key);
          List.iteri (fun k v -> row.(fst aggs.(k)) <- Intern.encode st.ids v) vs;
          let dest =
            if String.equal peer st.self then local_dest st rel ~arity:(Array.length row)
            else Message (rel, peer)
          in
          dispatch st plan ~agg:true dest row [||])
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

(* A rule's first run: aggregates once, up front, other rules over the
   whole store. *)
let run_member st (m : Prog.member) =
  if Rule.is_aggregate m.Prog.source.Prog.rule then eval_agg_plan st m.Prog.base
  else eval_plan st ~delta_pos:None m.Prog.base

let run_stratum ?seed st (stratum : Prog.stratum) =
  (* The previous stratum ended on an empty [delta_next]. *)
  advance st;
  (match seed with
  | None ->
    (* Aggregate rules read complete lower strata, so they run once, up
       front; their outputs then feed the stratum's fixpoint normally.
       Iteration 1 then evaluates every other rule in full. *)
    List.iter (fun p -> eval_agg_plan st p) stratum.Prog.agg_plans;
    List.iter (fun p -> eval_plan st ~delta_pos:None p) stratum.Prog.plans
  | Some { tuples; fresh } ->
    (* Delta staging: the database already holds the previous fixpoint
       and the seed tuples; the first iteration is one semi-naive pass
       driven by exactly the new tuples, plus a first run of each rule
       new since that fixpoint. Aggregates read only guarded relations,
       which the seed leaves as they were, so their outputs stand. *)
    List.iter
      (fun (rel, tuple) ->
        ignore
          (Relation.insert (delta_relation st rel ~arity:(Tuple.arity tuple)) tuple
            : bool))
      tuples;
    advance st;
    seminaive_iteration st stratum;
    if fresh <> [] then
      List.iter
        (fun (m : Prog.member) -> if List.mem m.Prog.source.Prog.id fresh then run_member st m)
        stratum.Prog.members);
  st.iterations <- st.iterations + 1;
  let rec loop () =
    if Hashtbl.length st.delta_next = 0 then ()
    else begin
      Wdl_obs.Obs.observe st.delta_hist
        (float_of_int
           (Hashtbl.fold
              (fun _ r acc -> acc + Relation.cardinal r)
              st.delta_next 0));
      advance st;
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
      Prog.compile ~self ~intensional:(Database.is_intensional db)
        (Prog.sources rules)
  in
  match compiled with
  | Error e -> Error e
  | Ok prog ->
    let h = match h with Some h -> h | None -> handles ~self in
    let ids = Intern.scratch (Database.pool db) in
    let st =
      {
        self;
        db;
        ids;
        decode = Intern.decode ids;
        self_id = Plan.unbound;
        delta = Hashtbl.create 8;
        delta_next = Hashtbl.create 8;
        gen = 0;
        targets = Hashtbl.create 8;
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
        on_rows = Array.make 8 no_row;
      }
    in
    (* A higher stratum reads complete lower strata, which a seeded
       pass does not rebuild. *)
    if Option.is_some seed && Array.length prog.Prog.strata > 1 then
      invalid_arg "Fixpoint.run: seed for a program of more than one stratum";
    Wdl_obs.Obs.time h.stage_hist (fun () ->
        Array.iter (run_stratum ?seed st) prog.Prog.strata);
    give_back st st.delta;
    give_back st st.delta_next;
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
