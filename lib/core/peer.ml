open Wdl_syntax
open Wdl_store
module Builtin = Wdl_builtin.Builtin

module Rules = Wdl_eval.Rules

module Fact_tbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

module Sset = Set.Make (String)

(* The order of [Fixpoint.result.suspensions]: by target, then rule. *)
let compare_delegation (d1, r1) (d2, r2) =
  match String.compare d1 d2 with 0 -> Rule.compare r1 r2 | c -> c

type shed_policy = Drop_newest | Drop_oldest

(* Why a stage takes the full path. *)
type full_reason =
  [ `Provenance | `Builtin | `Error | `Session | `Rule_change | `Delete
  | `Nonadditive_inbox | `Strata | `Guarded ]

(* Precedence order: a stage with several reasons counts the first.
   The peer's own features come first, then what ended the run of
   additive inputs (the gravest first), then the inbox, then the
   program's shape and where the new facts lie. *)
let full_reasons : full_reason list =
  [ `Provenance; `Builtin; `Error; `Session; `Rule_change; `Delete;
    `Nonadditive_inbox; `Strata; `Guarded ]

let reason_label : full_reason -> string = function
  | `Provenance -> "provenance"
  | `Builtin -> "builtin"
  | `Error -> "error"
  | `Session -> "session"
  | `Rule_change -> "rule_change"
  | `Delete -> "delete"
  | `Nonadditive_inbox -> "nonadditive_inbox"
  | `Strata -> "strata"
  | `Guarded -> "guarded"

let reason_rank r =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = r then i else go (i + 1) rest
  in
  go 0 full_reasons

(* What the inputs did since the last completed stage: exactly the
   fresh insertions [adds] and the installs of the sinks with ids
   [fresh], or something no seeded pass can follow. *)
type run = Additive of { adds : Fact.t list; fresh : int list } | Broken of full_reason

let shed_policy_string = function
  | Drop_newest -> "drop-newest"
  | Drop_oldest -> "drop-oldest"

type t = {
  name : string;
  db : Database.t;
  acl : Acl.t;
  authz : Authz.t;
  mutable enforce_authz : bool;
  trace : Trace.t;
  mutable track_provenance : bool;
  prov : Wdl_eval.Fixpoint.derivation Fact_tbl.t;
  mutable journal : Journal.t option;
  (* monotone counters *)
  mutable n_stages : int;
  mutable n_iterations : int;
  mutable n_derivations : int;
  mutable n_sent : int;
  mutable n_received : int;
  mutable n_installed : int;
  mutable n_retracted : int;
  mutable n_rejected : int;
  mutable n_errors : int;
  mutable n_analysis_warnings : int;
  inbox : Message.t Queue.t;
  inbox_capacity : int;
  shed : shed_policy;
  mutable n_shed : int;
  rules : Rules.t;  (* own rules, delegations, the compiled program *)
  mutable induced_pending : Fact.t list;
  remote_cache : (string, Fact.t list) Hashtbl.t;  (* src -> last batch *)
  last_batches : (string, Fact.t list) Hashtbl.t;  (* dst -> sorted batch *)
  batch_origins : (string, Sset.t) Hashtbl.t;
      (* dst -> ids of the rules whose evaluation fed that batch *)
  mutable last_delegations : (string * Rule.t) list;
      (* (target, rule) sent, sorted like [Fixpoint.result.suspensions] *)
  mutable stage_no : int;
  mutable dirty : bool;
  mutable last_errors : Wdl_eval.Runtime_error.t list;
  (* Delta staging. While [run] is [Additive], the next stage may keep
     the previous intensional state and seed semi-naive with just the
     new facts and rules ([prepare] has the rest of the gate). Any
     deletion, other rule change, cache eviction, session reset,
     restore or stage that reported runtime errors breaks the run,
     forcing the next stage to recompute from scratch. *)
  mutable run : run;
  mutable n_delta_stages : int;
  n_full_stages : int array;  (* by [reason_rank] *)
  eval_handles : Wdl_eval.Fixpoint.handles;
  (* Builtin relation modules (time, windows, TTL, sketches): private
     state keyed by relation name, ticked at every stage boundary.
     [clock] feeds wall-clock horizons and the time module; tests and
     benchmarks inject a deterministic one. *)
  builtins : Builtin.Registry.t;
  mutable clock : unit -> float;
  mutable n_builtin_ticks : int;
  mutable n_builtin_expired : int;
}

(* Re-export the monotone counters through the metrics registry as
   per-peer callback series, sampled at scrape time.  A later peer
   created with the same name replaces the callbacks. *)
let register_metrics t =
  let field ?(kind = `Counter) name help read =
    Wdl_obs.Obs.on_collect ~help ~labels:[ ("peer", t.name) ] ~kind name
      (fun () -> float_of_int (read ()))
  in
  field "wdl_peer_stages_total" "Stages run by this peer" (fun () ->
      t.n_stages);
  field "wdl_peer_iterations_total" "Fixpoint iterations across all stages"
    (fun () -> t.n_iterations);
  field "wdl_peer_derivations_total" "Head derivations across all stages"
    (fun () -> t.n_derivations);
  field "wdl_peer_messages_sent_total" "Messages this peer sent" (fun () ->
      t.n_sent);
  field "wdl_peer_messages_received_total" "Messages this peer consumed"
    (fun () -> t.n_received);
  field "wdl_peer_delegations_installed_total" "Delegations installed"
    (fun () -> t.n_installed);
  field "wdl_peer_delegations_retracted_total" "Delegations retracted"
    (fun () -> t.n_retracted);
  field "wdl_peer_delegations_rejected_total" "Delegations rejected"
    (fun () -> t.n_rejected);
  field "wdl_peer_runtime_errors_total" "Runtime errors reported by stages"
    (fun () -> t.n_errors);
  field "wdl_analysis_warnings_total"
    "Static-analysis warnings on rules accepted by this peer" (fun () ->
      t.n_analysis_warnings);
  field "wdl_peer_trace_events_total"
    "Trace events recorded (including ones beyond the ring's capacity)"
    (fun () -> Trace.count t.trace);
  field "wdl_eval_delta_stages_total"
    "Stages evaluated by delta staging (retained fixpoint + seeded \
     semi-naive pass) instead of full recomputation" (fun () ->
      t.n_delta_stages);
  List.iter
    (fun r ->
      Wdl_obs.Obs.on_collect
        ~help:"Stages recomputed from scratch, by the first reason that applied"
        ~labels:[ ("peer", t.name); ("reason", reason_label r) ]
        ~kind:`Counter "wdl_eval_full_stage_total" (fun () ->
          float_of_int t.n_full_stages.(reason_rank r)))
    full_reasons;
  field ~kind:`Gauge "wdl_store_interned_values"
    "Distinct values interned by this peer's store pool" (fun () ->
      Database.interned_count t.db);
  field ~kind:`Gauge "wdl_store_memory_bytes"
    "Approximate heap footprint of this peer's tuple store" (fun () ->
      Database.memory_bytes t.db);
  field "wdl_sys_inbox_shed_total"
    "Messages dropped because this peer's bounded inbox was full"
    (fun () -> t.n_shed);
  field ~kind:`Gauge "wdl_sys_inbox_depth" "Messages waiting in this peer's inbox"
    (fun () -> Queue.length t.inbox);
  let builtin_field ~kind name help read =
    field ~kind name help (fun () -> read (Builtin.Registry.totals t.builtins))
  in
  field "wdl_builtin_ticks_total"
    "Stage-boundary builtin-module ticks that changed a materialization"
    (fun () -> t.n_builtin_ticks);
  field "wdl_builtin_expired_total"
    "Tuples auto-retracted by builtin-module expiry (windows, TTL)"
    (fun () -> t.n_builtin_expired);
  builtin_field ~kind:`Counter "wdl_builtin_writes_total"
    "Writes accepted by this peer's builtin relation modules"
    (fun (s : Builtin.stats) -> s.Builtin.writes);
  builtin_field ~kind:`Counter "wdl_builtin_dropped_total"
    "Writes dropped as duplicates by sketch modules (bloom)"
    (fun s -> s.Builtin.dropped);
  builtin_field ~kind:`Gauge "wdl_builtin_entries"
    "Live private-state entries across this peer's builtin modules"
    (fun s -> s.Builtin.entries);
  builtin_field ~kind:`Gauge "wdl_builtin_memory_bytes"
    "Approximate private-state footprint of this peer's builtin modules"
    (fun s -> s.Builtin.memory_bytes)

(* A rule head naming a read-only builtin relation (time) would fail
   on every derivation; reject it at install time instead. *)
let builtin_head_error ~self builtins (rule : Rule.t) =
  match rule.Rule.head.Atom.rel, rule.Rule.head.Atom.peer with
  | Term.Const (Value.String rel), Term.Const (Value.String peer)
    when peer = self -> (
    match Builtin.Registry.find builtins rel with
    | Some inst when not inst.Builtin.writable ->
      Some
        (Printf.sprintf
           "rule head writes the read-only builtin relation %s (builtin %s)"
           rel inst.Builtin.bkind)
    | Some _ | None -> None)
  | _ -> None

let create ?policy ?trace_capacity ?(inbox_capacity = max_int)
    ?(shed = Drop_newest) name =
  if name = "" then invalid_arg "Peer.create: empty name";
  if inbox_capacity < 1 then
    invalid_arg "Peer.create: inbox_capacity must be at least 1";
  let db = Database.create () and builtins = Builtin.Registry.create () in
  let t = {
    name;
    db;
    acl = Acl.create ?policy ();
    authz = Authz.create ();
    enforce_authz = false;
    trace = Trace.create ?capacity:trace_capacity ();
    track_provenance = false;
    prov = Fact_tbl.create 64;
    journal = None;
    n_stages = 0;
    n_iterations = 0;
    n_derivations = 0;
    n_sent = 0;
    n_received = 0;
    n_installed = 0;
    n_retracted = 0;
    n_rejected = 0;
    n_errors = 0;
    n_analysis_warnings = 0;
    inbox = Queue.create ();
    inbox_capacity;
    shed;
    n_shed = 0;
    rules =
      Rules.create ~self:name ~intensional:(Database.is_intensional db)
        ~head_error:(builtin_head_error ~self:name builtins);
    induced_pending = [];
    remote_cache = Hashtbl.create 8;
    last_batches = Hashtbl.create 8;
    batch_origins = Hashtbl.create 8;
    last_delegations = [];
    stage_no = 0;
    dirty = false;
    last_errors = [];
    (* The first stage of any peer (fresh or restored) is a full one. *)
    run = Broken `Session;
    n_delta_stages = 0;
    n_full_stages = Array.make (List.length full_reasons) 0;
    eval_handles = Wdl_eval.Fixpoint.handles ~self:name;
    builtins;
    clock = (fun () -> Wdl_obs.Obs.now_us () /. 1e6);
    n_builtin_ticks = 0;
    n_builtin_expired = 0;
  }
  in
  register_metrics t;
  t

let name t = t.name
let database t = t.db

(* Ends the additive run, keeping the graver reason when it already
   ended. *)
let break_run t reason =
  match t.run with
  | Broken r when reason_rank r <= reason_rank reason -> ()
  | Additive _ | Broken _ -> t.run <- Broken reason

let note_add t fact =
  match t.run with
  | Additive r -> t.run <- Additive { r with adds = fact :: r.adds }
  | Broken _ -> ()

(* A rule-set change ends the current additive run: a new (or
   retracted) rule can derive facts no seeded pass would find, unless
   it is an installed sink ([fresh] is its id), which the seeded pass
   runs once. *)
let rules_changed ?fresh t =
  t.dirty <- true;
  match fresh, t.run with
  | Some id, Additive r -> t.run <- Additive { r with fresh = id :: r.fresh }
  | Some _, Broken _ -> ()
  | None, _ -> break_run t `Rule_change

let set_journal t j = t.journal <- j
let journal t = t.journal
let journal_entry t e = Option.iter (fun j -> Journal.append j e) t.journal

(* Every trace event also feeds the monotone counters. *)
let record_event t e =
  (match e with
  | Trace.Message_sent _ -> t.n_sent <- t.n_sent + 1
  | Trace.Message_received _ -> t.n_received <- t.n_received + 1
  | Trace.Delegation_installed _ -> t.n_installed <- t.n_installed + 1
  | Trace.Delegation_retracted _ -> t.n_retracted <- t.n_retracted + 1
  | Trace.Delegation_rejected _ -> t.n_rejected <- t.n_rejected + 1
  | Trace.Stage_end { derivations; iterations; _ } ->
    t.n_stages <- t.n_stages + 1;
    t.n_derivations <- t.n_derivations + derivations;
    t.n_iterations <- t.n_iterations + iterations
  | Trace.Runtime_errors { errors; _ } ->
    t.n_errors <- t.n_errors + List.length errors
  | Trace.Analysis_warning _ ->
    t.n_analysis_warnings <- t.n_analysis_warnings + 1
  | Trace.Builtin_tick { expired; _ } ->
    t.n_builtin_ticks <- t.n_builtin_ticks + 1;
    t.n_builtin_expired <- t.n_builtin_expired + expired
  | Trace.Stage_start _ | Trace.Fact_inserted _ | Trace.Fact_deleted _
  | Trace.Delegation_pending _ | Trace.Rule_added _ | Trace.Rule_removed _
  | Trace.Link_dead _ | Trace.Peer_status _ | Trace.Inbox_shed _
  | Trace.Dead_lettered _ ->
    ());
  Trace.record t.trace e

let acl t = t.acl
let authz t = t.authz
let builtins t = t.builtins
let set_clock t f = t.clock <- f
let set_enforce_authz t b = t.enforce_authz <- b
let enforcing_authz t = t.enforce_authz
let trace t = t.trace
let stage_number t = t.stage_no
let rules t = Rules.own_rules t.rules
let delegated_rules t = Rules.delegations t.rules
let all_rules t = Rules.held t.rules
let rule_id t rule = Rules.label t.rules rule
let flow t = Wdl_analysis.Flow.of_labeled ~self:t.name (Rules.labels t.rules)
let intensional t rel = Database.is_intensional t.db rel

(* A rule the peer already holds as its own is not added twice.
   Accepted rules still get a static look: delegation hygiene and
   redundancy warnings land in the trace (and the
   wdl_analysis_warnings_total counter), never block installation. *)
let add_rule t rule =
  if Rules.mem t.rules Rules.Own rule then Ok ()
  else
  match Rules.admit t.rules rule with
  | Error msg -> Error msg
  | Ok () ->
    let kind_of rel peer = if peer = t.name then Database.kind t.db rel else None in
    let warnings =
      Wdl_analysis.Analysis.added_rule_warnings ~self:t.name ~kind_of
        ~existing:(all_rules t) rule
    in
    ignore (Rules.add t.rules Rules.Own rule : int);
    rules_changed t;
    record_event t (Trace.Rule_added { peer = t.name; rule });
    List.iter
      (fun (d : Wdl_analysis.Diagnostic.t) ->
        record_event t
          (Trace.Analysis_warning
             { peer = t.name; code = d.code; message = d.message }))
      warnings;
    Ok ()

let remove_rule t rule =
  Rules.remove t.rules Rules.Own rule
  && begin
    rules_changed t;
    record_event t (Trace.Rule_removed { peer = t.name; rule });
    true
  end

(* Guarded write path for builtin relations. Deliberately not
   journaled: module state is time-dependent and restarts rebuild it
   empty (expiry stamps and sketch bits cannot be replayed). The stage
   stamp is the stage the write becomes visible at — the next one. *)
let builtin_write t (inst : Builtin.instance) op (fact : Fact.t) =
  let tuple = Tuple.of_list fact.Fact.args in
  match
    inst.Builtin.write ~stage:(t.stage_no + 1) ~now:(t.clock ()) op tuple
  with
  | Error e -> Error e
  | Ok changed ->
    (* topk and cms defer materialization to the stage's flush, so any
       accepted write is work for them; other kinds report the change
       directly (a ttl stamp refresh is not work — expiry is handled
       by the tick, which runs before the quiescence check). *)
    (match inst.Builtin.bkind with
    | "topk" | "cms" -> t.dirty <- true
    | _ -> if changed then t.dirty <- true);
    if changed then
      record_event t
        (match op with
        | Builtin.Insert -> Trace.Fact_inserted { peer = t.name; fact }
        | Builtin.Delete -> Trace.Fact_deleted { peer = t.name; fact });
    Ok ()

let insert t (fact : Fact.t) =
  if fact.Fact.peer <> t.name then
    Error
      (Printf.sprintf "fact %s targets peer %s, not this peer (%s)"
         (Format.asprintf "%a" Fact.pp fact)
         fact.Fact.peer t.name)
  else if
    List.exists
      (function Value.Float x -> Float.is_nan x | _ -> false)
      fact.Fact.args
  then
    (* NaN has no literal: it could not be journaled, snapshotted or
       sent. *)
    Error (Printf.sprintf "fact %s holds NaN" (Fact.to_string fact))
  else
    match Builtin.Registry.find t.builtins fact.Fact.rel with
    | Some inst -> builtin_write t inst Builtin.Insert fact
    | None ->
  if intensional t fact.Fact.rel then
    Error
      (Printf.sprintf "relation %s is intensional (a view); it cannot be updated"
         fact.Fact.rel)
  else
    let tuple = Tuple.of_list fact.Fact.args in
    match Database.insert t.db ~rel:fact.Fact.rel tuple with
    | Error e -> Error (Format.asprintf "%a" Database.pp_error e)
    | Ok fresh ->
      if fresh then begin
        t.dirty <- true;
        note_add t fact;
        journal_entry t (Journal.Insert fact);
        record_event t (Trace.Fact_inserted { peer = t.name; fact })
      end;
      Ok ()

let delete t (fact : Fact.t) =
  if fact.Fact.peer <> t.name then
    Error
      (Printf.sprintf "fact targets peer %s, not this peer (%s)" fact.Fact.peer
         t.name)
  else
    match Builtin.Registry.find t.builtins fact.Fact.rel with
    | Some inst -> builtin_write t inst Builtin.Delete fact
    | None ->
  if intensional t fact.Fact.rel then
    Error
      (Printf.sprintf "relation %s is intensional (a view); it cannot be updated"
         fact.Fact.rel)
  else
    let tuple = Tuple.of_list fact.Fact.args in
    match Database.delete t.db ~rel:fact.Fact.rel tuple with
    | Error e -> Error (Format.asprintf "%a" Database.pp_error e)
    | Ok removed ->
      if removed then begin
        t.dirty <- true;
        break_run t `Delete;
        journal_entry t (Journal.Delete fact);
        record_event t (Trace.Fact_deleted { peer = t.name; fact })
      end;
      Ok ()

let load_program t (program : Program.t) =
  let step i stmt =
    let where msg =
      Error (Format.asprintf "statement %d (%a): %s" (i + 1) Program.pp_statement stmt msg)
    in
    match stmt with
    | Program.Decl d ->
      if d.Decl.peer <> t.name then
        where (Printf.sprintf "declaration targets peer %s" d.Decl.peer)
      else if
        (* A declaration arriving after rules can flip a relation to
           intensional and silently close a cycle through negation the
           rules were checked without. Re-check stratification against
           the candidate kind map before committing the declaration. *)
        d.Decl.kind = Decl.Intensional
        && (not (intensional t d.Decl.rel))
        && not (Rules.stratifies_if_intensional t.rules d.Decl.rel)
      then
        where
          (Format.asprintf "declaring %s intensional would break \
                            stratification of the installed rules"
             d.Decl.rel)
      else (
        match Builtin.validate d with
        | Error msg -> where msg
        | Ok () ->
          let existed = Database.find t.db d.Decl.rel <> None in
          (match Database.declare t.db d with
          | Ok info -> (
            (* A declaration can turn a name intensional, which changes
               stratification for rules mentioning it. *)
            Rules.invalidate t.rules;
            break_run t `Rule_change;
            match d.Decl.builtin with
            | None ->
              if Builtin.Registry.mem t.builtins d.Decl.rel then
                where
                  (Printf.sprintf
                     "%s is a builtin relation; redeclare it with its \
                      builtin form"
                     d.Decl.rel)
              else begin
                journal_entry t (Journal.Declare d);
                Ok ()
              end
            | Some _ -> (
              match Builtin.Registry.find t.builtins d.Decl.rel with
              | Some inst when Decl.equal inst.Builtin.decl d ->
                (* Idempotent re-declaration keeps the module state. *)
                Ok ()
              | Some inst ->
                where
                  (Format.asprintf
                     "conflicts with the installed builtin declaration \
                      %a" Decl.pp inst.Builtin.decl)
              | None ->
                if existed then
                  where
                    (Printf.sprintf
                       "%s already exists as a plain relation; builtin \
                        configuration must come with its first \
                        declaration"
                       d.Decl.rel)
                else (
                  match
                    Builtin.Registry.register t.builtins ~decl:d
                      ~data:info.Database.data
                  with
                  | Error msg -> where msg
                  | Ok _ ->
                    journal_entry t (Journal.Declare d);
                    Ok ())))
          | Error e -> where (Format.asprintf "%a" Database.pp_error e)))
    | Program.Fact f -> (
      match insert t f with Ok () -> Ok () | Error msg -> where msg)
    | Program.Rule r -> (
      match add_rule t r with Ok () -> Ok () | Error msg -> where msg)
  in
  let rec go i = function
    | [] -> Ok ()
    | stmt :: rest -> (
      match step i stmt with Ok () -> go (i + 1) rest | Error _ as e -> e)
  in
  go 0 program

let load_string t src = Result.bind (Parser.program src) (load_program t)

let query t rel =
  match Database.find t.db rel with
  | None -> []
  | Some info ->
    List.map
      (fun tuple -> Fact.make ~rel ~peer:t.name (Tuple.to_list tuple))
      (Relation.to_sorted_list info.Database.data)

let relation_names t =
  List.map (fun (i : Database.info) -> i.Database.name) (Database.relations t.db)

type answer = {
  columns : string list;
  rows : Value.t list list;
  requires_delegation : (string * Rule.t) list;
  errors : Wdl_eval.Runtime_error.t list;
}

let ask t src =
  match Parser.rule src with
  | Error msg -> Error msg
  | Ok rule -> (
    match Safety.check_rule rule with
    | Error errs -> Error (Safety.errors_to_string errs)
    | Ok () ->
      let columns =
        List.mapi
          (fun i term ->
            match List.assoc_opt i rule.Rule.aggs with
            | Some spec -> Format.asprintf "%a" Wdl_syntax.Aggregate.pp spec
            | None -> Format.asprintf "%a" Term.pp term)
          rule.Rule.head.Atom.args
      in
      let db = Database.copy t.db in
      (* A result relation name no program can clash with. *)
      let rec fresh_name i =
        let name = Printf.sprintf "query result #%d" i in
        if Database.find db name = None then name else fresh_name (i + 1)
      in
      let qrel = fresh_name 0 in
      (match
         Database.declare db
           (Decl.make ~kind:Decl.Intensional ~rel:qrel ~peer:t.name
              (List.map (Printf.sprintf "c%d")
                 (List.init (List.length columns) Fun.id)))
       with
      | Ok _ -> ()
      | Error _ -> assert false);
      let qrule =
        Rule.make_agg ~aggs:rule.Rule.aggs
          ~head:(Atom.app qrel t.name rule.Rule.head.Atom.args)
          ~body:rule.Rule.body
      in
      match
        Wdl_eval.Fixpoint.run ~self:t.name db (all_rules t @ [ qrule ])
      with
      | Error e -> Error (Format.asprintf "%a" Wdl_eval.Stratify.pp_error e)
      | Ok result ->
        let rows =
          match Database.find db qrel with
          | None -> []
          | Some info ->
            List.map Tuple.to_list
              (Relation.to_sorted_list info.Database.data)
        in
        Ok
          {
            columns;
            rows;
            requires_delegation = result.Wdl_eval.Fixpoint.suspensions;
            errors = result.Wdl_eval.Fixpoint.errors;
          })

(* {1 Delegation control} *)

let authz_allows t ~src rule =
  (not t.enforce_authz)
  ||
  match
    Authz.check_delegation t.authz ~self:t.name ~rules:(all_rules t)
      ~intensional:(intensional t) ~reader:src rule
  with
  | Ok () -> true
  | Error rel ->
    record_event t
      (Trace.Delegation_rejected
         {
           peer = t.name;
           src;
           rule;
           reason = Printf.sprintf "%s may not read %s" src rel;
         });
    false

let install_delegation t ~src rule =
  if Rules.mem t.rules (Rules.Delegated src) rule then false
  else if not (authz_allows t ~src rule) then false
  else
    match Rules.admit t.rules rule with
    | Error reason ->
      record_event t
        (Trace.Delegation_rejected { peer = t.name; src; rule; reason });
      false
    | Ok () ->
      let id = Rules.add t.rules (Rules.Delegated src) rule in
      rules_changed ?fresh:(if Rules.sink t.rules rule then Some id else None) t;
      record_event t (Trace.Delegation_installed { peer = t.name; src; rule });
      true

(* Uninstall one delegation, forgetting its label; false when it is not
   installed. *)
let drop_delegation t ~src rule =
  Rules.remove t.rules (Rules.Delegated src) rule
  && begin
    rules_changed t;
    record_event t (Trace.Delegation_retracted { peer = t.name; src; rule });
    true
  end

let record_store_error t rel message =
  t.last_errors <-
    Wdl_eval.Runtime_error.Store_error { rel; message } :: t.last_errors

(* The store write behind every stage input: true iff [tuple] is new.
   A store error is recorded in [last_errors] instead of raised. *)
let insert_tuple t rel tuple =
  match Database.insert t.db ~rel tuple with
  | Ok fresh -> fresh
  | Error e ->
    record_store_error t rel (Format.asprintf "%a" Database.pp_error e);
    false

let apply_extensional t (fact : Fact.t) =
  match Builtin.Registry.find t.builtins fact.Fact.rel with
  | Some inst -> (
    (* Induced heads and remote updates for a builtin relation go
       through its guarded write path, like local inserts. *)
    match builtin_write t inst Builtin.Insert fact with
    | Ok () -> ()
    | Error msg -> record_store_error t fact.Fact.rel msg)
  | None ->
    if insert_tuple t fact.Fact.rel (Tuple.of_list fact.Fact.args) then begin
      note_add t fact;
      journal_entry t (Journal.Insert fact);
      record_event t (Trace.Fact_inserted { peer = t.name; fact })
    end

(* {1 Peer lifecycle}

   [forget_origin] is the receiver-side half of a peer's death (its
   cached batch's facts were only live while the source maintained
   them), [forget_destination] the sender-side half, and
   [reset_session] the latter towards everyone (peer.mli). *)

let forget_origin t ~src =
  let doomed = List.filter (fun (s, _) -> s = src) (delegated_rules t) in
  List.iter (fun (_, r) -> ignore (drop_delegation t ~src r : bool)) doomed;
  List.iter
    (fun (s, r) -> if s = src then ignore (Acl.retract_pending t.acl ~src r))
    (Acl.pending t.acl);
  Rules.forget_labels t.rules ~src;
  (* Messages from [src] still queued would bring its delegations and
     batch back at the next stage. Their extensional facts are updates
     the transport has already delivered and nothing will re-send:
     apply them now, drop the rest. *)
  let kept = Queue.create () in
  Queue.iter
    (fun (m : Message.t) ->
      if m.Message.src <> src then Queue.push m kept
      else
        List.iter
          (fun (f : Fact.t) ->
            if not (intensional t f.Fact.rel) then apply_extensional t f)
          (Option.value ~default:[] m.Message.facts))
    t.inbox;
  Queue.clear t.inbox;
  Queue.transfer kept t.inbox;
  if Hashtbl.mem t.remote_cache src then begin
    Hashtbl.remove t.remote_cache src;
    t.dirty <- true;
    (* Evicting a cache removes the intensional facts it carried. *)
    break_run t `Session
  end;
  List.length doomed

let forget_destination t ~dst =
  let had_batch = Hashtbl.mem t.last_batches dst in
  Hashtbl.remove t.last_batches dst;
  Hashtbl.remove t.batch_origins dst;
  let sent, kept = List.partition (fun (d, _) -> d = dst) t.last_delegations in
  t.last_delegations <- kept;
  if had_batch || sent <> [] then begin
    t.dirty <- true;
    (* A delta stage can only extend the last sent batch; with that
       memory dropped, the next stage must rebuild it from scratch. *)
    break_run t `Session
  end

let reset_session t =
  Hashtbl.reset t.last_batches;
  Hashtbl.reset t.batch_origins;
  t.last_delegations <- [];
  t.dirty <- true;
  break_run t `Session

(* {1 Why-provenance} *)

type explanation =
  | Base
  | Derived of Wdl_eval.Fixpoint.derivation
  | Received of string list
  | Unknown

(* Toggling provenance marks the peer dirty: callers gating on
   [has_work] must run the next stage to (re)populate or drop the
   derivation table. *)
let set_track_provenance t b =
  if b <> t.track_provenance then t.dirty <- true;
  t.track_provenance <- b
let tracking_provenance t = t.track_provenance

let explain t (fact : Fact.t) =
  if fact.Fact.peer <> t.name then Unknown
  else
    match Fact_tbl.find_opt t.prov fact with
    | Some d -> Derived d
    | None ->
      let stored =
        (not (intensional t fact.Fact.rel))
        && Database.mem t.db ~rel:fact.Fact.rel (Tuple.of_list fact.Fact.args)
      in
      if stored then Base
      else
        let sources =
          Hashtbl.fold
            (fun src batch acc ->
              if List.exists (Fact.equal fact) batch then src :: acc else acc)
            t.remote_cache []
          |> List.sort String.compare
        in
        if sources <> [] then Received sources else Unknown

let explain_to_string ?(max_depth = 8) t fact =
  let buf = Buffer.create 256 in
  let rec go depth visited fact =
    let indent = String.make (depth * 2) ' ' in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (indent ^ s ^ "\n")) fmt in
    let fact_s = Format.asprintf "%a" Fact.pp fact in
    if List.exists (Fact.equal fact) visited then line "%s [cycle]" fact_s
    else if depth > max_depth then line "%s [...]" fact_s
    else
      match explain t fact with
      | Base -> line "%s [stored]" fact_s
      | Unknown -> line "%s [unknown]" fact_s
      | Received sources ->
        line "%s [received from %s]" fact_s (String.concat ", " sources)
      | Derived d ->
        line "%s" fact_s;
        line "  by %s" (Format.asprintf "%a" Rule.pp d.Wdl_eval.Fixpoint.rule);
        List.iter
          (fun premise -> go (depth + 1) (fact :: visited) premise)
          d.Wdl_eval.Fixpoint.premises
  in
  go 0 [] fact;
  Buffer.contents buf

let readers t rel =
  Authz.readers t.authz ~self:t.name ~rules:(all_rules t)
    ~intensional:(intensional t) rel

let can_read t ~reader rel =
  Authz.can_read t.authz ~self:t.name ~rules:(all_rules t)
    ~intensional:(intensional t) ~reader rel

let pending_delegations t = Acl.pending t.acl

let accept_delegation t ~src rule =
  Acl.accept t.acl ~src rule && install_delegation t ~src rule

let reject_delegation t ~src rule =
  let was = Acl.reject t.acl ~src rule in
  if was then
    record_event t
      (Trace.Delegation_rejected
         { peer = t.name; src; rule; reason = "rejected by user" });
  was

let accept_all_delegations t =
  List.fold_left
    (fun n (src, rule) -> if install_delegation t ~src rule then n + 1 else n)
    0
    (Acl.accept_all t.acl)

(* {1 Persistence}

   The snapshot is one parseable program: a counted [meta@snapshot]
   header followed by sections in a fixed order. Marker facts carry the
   non-program state (trust entries, delegation origins, cached remote
   batches, already-sent state). *)

let snapshot t =
  let buf = Buffer.create 4096 in
  let stmt pp v =
    Buffer.add_string buf (Pp_util.one_line pp v);
    Buffer.add_string buf ";\n"
  in
  let fact f =
    Fact.add_to_buffer buf f;
    Buffer.add_string buf ";\n"
  in
  let marker rel args = fact (Fact.make ~rel ~peer:"snapshot" args) in
  let trust_entries = Acl.explicit t.acl in
  let decls =
    List.map
      (fun (info : Database.info) ->
        let cols =
          if info.Database.cols = [] then
            List.init info.Database.arity (Printf.sprintf "c%d")
          else info.Database.cols
        in
        (* Re-attach the builtin configuration so the declaration
           round-trips through the parser on restore. *)
        let builtin =
          Option.bind (Builtin.Registry.find t.builtins info.Database.name)
            (fun inst -> inst.Builtin.decl.Decl.builtin)
        in
        Decl.make ?builtin ~kind:info.Database.kind ~rel:info.Database.name
          ~peer:t.name cols)
      (Database.relations t.db)
  in
  let ext_facts =
    List.concat_map
      (fun (info : Database.info) ->
        match info.Database.kind with
        | Decl.Intensional -> []
        | Decl.Extensional ->
          (* Builtin materializations are not dumped: their private
             state (stamps, sketch bits) cannot be replayed, so a
             restored module starts empty, like after a crash. *)
          if Builtin.Registry.mem t.builtins info.Database.name then []
          else
            List.map
              (fun tuple ->
                Fact.make ~rel:info.Database.name ~peer:t.name
                  (Tuple.to_list tuple))
              (Relation.to_sorted_list info.Database.data))
      (Database.relations t.db)
  in
  let own = rules t in
  let delegated = delegated_rules t in
  let pending = Acl.pending t.acl in
  let sorted_tbl tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let cache = sorted_tbl t.remote_cache in
  let sent = t.last_delegations in
  let batches = sorted_tbl t.last_batches in
  let authz_entries = Authz.entries t.authz in
  let policy = match Acl.policy t.acl with Acl.Open -> "open" | Acl.Closed -> "closed" in
  marker "meta"
    (Value.String t.name :: Value.Int t.stage_no :: Value.String policy
     :: Value.Bool t.enforce_authz
     :: List.map
          (fun n -> Value.Int n)
          List.[ length authz_entries; length trust_entries; length decls;
                 length ext_facts; length own; length delegated; length pending;
                 length cache; length sent; length batches ]);
  List.iter
    (fun (rel, kind, policy) ->
      let kind_s = match kind with `Stored -> "stored" | `Override -> "override" in
      let tail =
        match policy with
        | Authz.Everyone -> [ Value.Bool true ]
        | Authz.Only l -> Value.Bool false :: List.map (fun p -> Value.String p) l
      in
      marker "authz" (Value.String rel :: Value.String kind_s :: tail))
    authz_entries;
  List.iter
    (fun (p, b) -> marker "trust" [ Value.String p; Value.Bool b ])
    trust_entries;
  let tagged_rule tag (peer, r) =
    marker tag [ Value.String peer ];
    stmt Rule.pp r
  in
  let batch (peer, facts) =
    marker "batch" [ Value.String peer; Value.Int (List.length facts) ];
    List.iter fact facts
  in
  List.iter (fun d -> stmt Decl.pp d) decls;
  List.iter fact ext_facts;
  List.iter (fun r -> stmt Rule.pp r) own;
  List.iter (tagged_rule "from") delegated;
  List.iter (tagged_rule "from") pending;
  List.iter batch cache;
  List.iter (tagged_rule "sent") sent;
  List.iter batch batches;
  Buffer.contents buf

(* Counted-section reader over the parsed statement stream. *)
module Restore_reader = struct
  type nonrec state = { mutable stmts : Program.statement list }

  let ( let* ) = Result.bind

  let next st what =
    match st.stmts with
    | [] -> Error (Printf.sprintf "snapshot truncated: expected %s" what)
    | s :: rest ->
      st.stmts <- rest;
      Ok s

  let typed pick st what =
    let* s = next st what in
    Option.to_result (pick s)
      ~none:(Printf.sprintf "snapshot corrupt: expected %s" what)

  let fact = typed (function Program.Fact f -> Some f | _ -> None)
  let rule = typed (function Program.Rule r -> Some r | _ -> None)
  let decl = typed (function Program.Decl d -> Some d | _ -> None)

  let marker st rel what =
    let* f = fact st what in
    if f.Fact.rel = rel && f.Fact.peer = "snapshot" then Ok f.Fact.args
    else Error (Printf.sprintf "snapshot corrupt: expected %s marker" what)

  let rec times n f acc st =
    if n <= 0 then Ok (List.rev acc)
    else
      let* x = f st in
      times (n - 1) f (x :: acc) st

  (* A rule behind a [tag] marker naming a peer. *)
  let tagged_rule tag what st =
    let* args = marker st tag (Printf.sprintf "a %s marker" tag) in
    let* r = rule st what in
    match args with
    | [ Value.String peer ] -> Ok (peer, r)
    | _ -> Error (Printf.sprintf "snapshot corrupt: bad %s marker" tag)

  let batch st =
    let* args = marker st "batch" "a batch marker" in
    match args with
    | [ Value.String src; Value.Int k ] ->
      let* facts = times k (fun st -> fact st "a cached fact") [] st in
      Ok (src, facts)
    | _ -> Error "snapshot corrupt: bad batch marker"

  (* [f] on each element, stopping at the first error. *)
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = f x in
      each f rest
end

let restore text =
  let open Restore_reader in
  let ( let* ) = Result.bind in
  let* program = Parser.program text in
  let st = { stmts = program } in
  let* meta = marker st "meta" "the snapshot header" in
  match meta with
  | [ Value.String name; Value.Int stage_no; Value.String policy;
      Value.Bool enforce_authz; Value.Int n_authz;
      Value.Int n_trust; Value.Int n_decl; Value.Int n_fact; Value.Int n_rule;
      Value.Int n_deleg; Value.Int n_pending; Value.Int n_cache;
      Value.Int n_sent; Value.Int n_batch ] ->
    let* policy =
      match policy with
      | "open" -> Ok Acl.Open
      | "closed" -> Ok Acl.Closed
      | other -> Error ("snapshot corrupt: unknown policy " ^ other)
    in
    let t = create ~policy name in
    t.enforce_authz <- enforce_authz;
    let* authz_entries =
      times n_authz (fun st -> marker st "authz" "an authz entry") [] st
    in
    let* () =
      each
        (function
          | Value.String rel :: Value.String kind :: Value.Bool everyone :: peers ->
            let* policy =
              if everyone then Ok Authz.Everyone
              else
                List.fold_left
                  (fun acc v ->
                    let* l = acc in
                    match v with
                    | Value.String p -> Ok (p :: l)
                    | _ -> Error "snapshot corrupt: bad authz peer")
                  (Ok []) peers
                |> Result.map (fun l -> Authz.Only l)
            in
            (match kind with
            | "stored" -> Authz.set_policy t.authz ~rel policy; Ok ()
            | "override" -> Authz.declassify t.authz ~rel policy; Ok ()
            | _ -> Error "snapshot corrupt: bad authz kind")
          | _ -> Error "snapshot corrupt: bad authz entry")
        authz_entries
    in
    let* trust_entries =
      times n_trust (fun st -> marker st "trust" "a trust entry") [] st
    in
    let* () =
      each
        (function
          | [ Value.String p; Value.Bool b ] ->
            if b then Acl.trust t.acl p else Acl.untrust t.acl p;
            Ok ()
          | _ -> Error "snapshot corrupt: bad trust entry")
        trust_entries
    in
    let* decls = times n_decl (fun st -> decl st "a declaration") [] st in
    let* () =
      each
        (fun (d : Decl.t) ->
          match Database.declare t.db d with
          | Ok info -> (
            match d.Decl.builtin with
            | None -> Ok ()
            | Some _ ->
              (* Modules restart empty: stamps and sketch bits cannot
                 be reconstructed from a materialization dump. *)
              Result.map ignore
                (Builtin.Registry.register t.builtins ~decl:d
                   ~data:info.Database.data))
          | Error e -> Error (Format.asprintf "%a" Database.pp_error e))
        decls
    in
    let* facts = times n_fact (fun st -> fact st "an extensional fact") [] st in
    let* () =
      each
        (fun (f : Fact.t) ->
          match Database.insert t.db ~rel:f.Fact.rel (Tuple.of_list f.Fact.args) with
          | Ok _ -> Ok ()
          | Error e -> Error (Format.asprintf "%a" Database.pp_error e))
        facts
    in
    let* own = times n_rule (fun st -> rule st "an own rule") [] st in
    List.iter (fun r -> ignore (Rules.add t.rules Rules.Own r : int)) own;
    let* delegated = times n_deleg (tagged_rule "from" "a delegated rule") [] st in
    List.iter
      (fun (src, r) -> ignore (Rules.add t.rules (Rules.Delegated src) r : int))
      delegated;
    let* pending = times n_pending (tagged_rule "from" "a delegated rule") [] st in
    List.iter (fun (src, r) -> Acl.enqueue t.acl ~src r) pending;
    let* cache = times n_cache batch [] st in
    List.iter (fun (src, b) -> Hashtbl.replace t.remote_cache src b) cache;
    let* sent = times n_sent (tagged_rule "sent" "a sent delegation") [] st in
    t.last_delegations <- List.sort_uniq compare_delegation sent;
    let* batches = times n_batch batch [] st in
    List.iter (fun (dst, b) -> Hashtbl.replace t.last_batches dst b) batches;
    if st.stmts <> [] then Error "snapshot corrupt: trailing statements"
    else begin
      t.stage_no <- stage_no;
      (* The first stage after a restart recomputes all views. *)
      t.dirty <- true;
      Ok t
    end
  | _ -> Error "snapshot corrupt: bad header"

(* {1 The stage loop} *)

(* Bounded inbox: when full, shed per policy instead of growing without
   bound. Shedding loses that message's content permanently at this
   peer (the transport already considers it delivered) — senders using
   the diff protocol re-send their current batch on the next change, so
   extensional state reconverges; use {!shed_policy} Drop_oldest when
   freshest-wins matters. *)
let receive t msg =
  if Queue.length t.inbox >= t.inbox_capacity then begin
    (match t.shed with
    | Drop_newest -> ()  (* the arriving message is the casualty *)
    | Drop_oldest ->
      ignore (Queue.pop t.inbox);
      Queue.push msg t.inbox);
    t.n_shed <- t.n_shed + 1;
    record_event t
      (Trace.Inbox_shed { peer = t.name; policy = shed_policy_string t.shed })
  end
  else Queue.push msg t.inbox

let inbox_length t = Queue.length t.inbox
let sheds t = t.n_shed
let last_errors t = t.last_errors

type stats = {
  stages : int;
  fixpoint_iterations : int;
  derivations : int;
  messages_sent : int;
  messages_received : int;
  delegations_installed : int;
  delegations_retracted : int;
  delegations_rejected : int;
  runtime_errors : int;
  delta_stages : int;
  full_stages : (string * int) list;
}

let stats t =
  {
    stages = t.n_stages;
    fixpoint_iterations = t.n_iterations;
    derivations = t.n_derivations;
    messages_sent = t.n_sent;
    messages_received = t.n_received;
    delegations_installed = t.n_installed;
    delegations_retracted = t.n_retracted;
    delegations_rejected = t.n_rejected;
    runtime_errors = t.n_errors;
    delta_stages = t.n_delta_stages;
    full_stages =
      List.map (fun r -> (reason_label r, t.n_full_stages.(reason_rank r))) full_reasons;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "stages=%d iterations=%d derivations=%d sent=%d received=%d \
     installed=%d retracted=%d rejected=%d errors=%d"
    s.stages s.fixpoint_iterations s.derivations s.messages_sent
    s.messages_received s.delegations_installed s.delegations_retracted
    s.delegations_rejected s.runtime_errors

let has_work t =
  t.dirty || t.induced_pending <> [] || not (Queue.is_empty t.inbox)

let process_message t (msg : Message.t) =
  let src = msg.Message.src in
  record_event t (Trace.Message_received { msg });
  (match msg.Message.facts with
  | None -> ()
  | Some batch ->
    Hashtbl.replace t.remote_cache src batch;
    (* Facts for extensional relations are updates: they persist.
       Facts for intensional relations live in the cache and are
       re-installed at every stage start while the source maintains
       them in its batch. Unknown relations auto-create extensional. *)
    List.iter
      (fun fact ->
        if not (intensional t fact.Fact.rel) then apply_extensional t fact)
      batch);
  (* Origin metadata rides index-aligned with the installs; record it
     before the approval gate so a later [accept_delegation] still
     finds it. A mismatched count means a sender without the metadata
     (or a truncated frame) — ids then fall back to ["src#?"]. A
     re-announced install can bring an installed rule its label (lost on
     restore). *)
  if
    msg.Message.install_origins <> []
    && List.compare_lengths msg.Message.install_origins msg.Message.installs = 0
  then
    List.iter2 (Rules.set_label t.rules ~src) msg.Message.installs
      msg.Message.install_origins;
  List.iter
    (fun rule ->
      (* Re-announced installs (rejoin reconciliation, retransmission
         across a crash) must not re-queue an already-installed rule
         for approval. *)
      if not (Rules.mem t.rules (Rules.Delegated src) rule) then
        match Acl.submit t.acl ~src rule with
        | `Installed -> ignore (install_delegation t ~src rule)
        | `Pending ->
          record_event t (Trace.Delegation_pending { peer = t.name; src; rule }))
    msg.Message.installs;
  List.iter
    (fun rule ->
      if not (drop_delegation t ~src rule) then
        ignore (Acl.retract_pending t.acl ~src rule))
    msg.Message.retracts

let refill_intensional t =
  Database.clear_intensional t.db;
  (* Pre-size each target relation for the whole refill: one growth
     step per relation instead of a log-series of rehashes when the
     cached batches are large. *)
  let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _src batch ->
      List.iter
        (fun (fact : Fact.t) ->
          if intensional t fact.Fact.rel then
            Hashtbl.replace counts fact.Fact.rel
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts fact.Fact.rel)))
        batch)
    t.remote_cache;
  Hashtbl.iter
    (fun rel extra ->
      match Database.find t.db rel with
      | Some info -> Relation.reserve info.Database.data extra
      | None -> ())
    counts;
  Hashtbl.iter
    (fun _src batch ->
      List.iter
        (fun (fact : Fact.t) ->
          if intensional t fact.Fact.rel then
            ignore
              (insert_tuple t fact.Fact.rel (Tuple.of_list fact.Fact.args)
                : bool))
        batch)
    t.remote_cache

let group_facts_by_dst facts =
  let by_dst = Hashtbl.create 8 in
  List.iter
    (fun (f : Fact.t) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_dst f.Fact.peer) in
      Hashtbl.replace by_dst f.Fact.peer (f :: cur))
    facts;
  by_dst

let live_cardinal t rel =
  match Database.find t.db rel with
  | Some i -> Relation.cardinal i.Database.data
  | None -> 0

(* The facts a message's batch adds over the cached batch from the
   same source, accumulated onto [acc] — or [None] when the batch drops
   a cached fact. Both batches are sorted by [Fact.compare] (the sender
   sorts before caching and sending), so one linear merge walk
   decides; unsorted input merely falls back to [None], which costs a
   full stage but never an unsound delta one. The message's installs
   and retracts are judged where they change the rule set
   ([rules_changed]). *)
let batch_additions t (msg : Message.t) acc =
  match msg.Message.facts with
  | None -> Some acc
  | Some batch ->
    let cached =
      Option.value ~default:[] (Hashtbl.find_opt t.remote_cache msg.Message.src)
    in
    let rec walk old batch acc =
      match (old, batch) with
      | [], rest -> Some (List.rev_append rest acc)
      | _ :: _, [] -> None
      | (o :: os as old), b :: bs ->
        let c = Fact.compare b o in
        if c = 0 then walk os bs acc
        else if c < 0 then walk old bs (b :: acc)
        else None
    in
    walk cached batch acc

(* {2 The stage, phase by phase}

   [stage] runs [tick], [ingest], [prepare], [evaluate] and [emit] in
   that order: the builtin tick, then §2's load inputs → fixpoint →
   send, with the delta-or-full choice between loading and
   evaluating. *)

(* How [evaluate] runs the fixpoint: the stage's program, fetched
   once, and either one semi-naive pass seeded with exactly the new
   tuples and rules over the retained fixpoint, or ([seed = None]) a
   recompute from scratch. *)
type prepared = {
  program : (Wdl_eval.Program.t, Wdl_eval.Stratify.error) result;
  seed : Wdl_eval.Fixpoint.seed option;
}

(* tick: builtin modules advance to [stage_no] — time refresh, window
   and TTL expiry — and a change marks the peer dirty. *)
let tick t ~stage_no =
  if not (Builtin.Registry.is_empty t.builtins) then begin
    let changed, expired =
      Builtin.Registry.tick_all t.builtins ~stage:stage_no ~now:(t.clock ())
    in
    List.iter
      (fun (rel, tuple) ->
        let fact = Fact.make ~rel ~peer:t.name (Tuple.to_list tuple) in
        record_event t (Trace.Fact_deleted { peer = t.name; fact }))
      expired;
    if changed then begin
      record_event t
        (Trace.Builtin_tick
           { peer = t.name; stage = stage_no; expired = List.length expired });
      t.dirty <- true
    end
  end

(* ingest: applies the pending inductive updates and the inbox, and
   returns the facts the inbox batches add over the cached ones — [None]
   when some message is not purely additive. Each source's cached batch
   is read just before [process_message] replaces it. *)
let ingest t =
  List.iter (apply_extensional t) t.induced_pending;
  t.induced_pending <- [];
  let inbox_adds =
    Queue.fold
      (fun adds msg ->
        let adds = Option.bind adds (batch_additions t msg) in
        process_message t msg;
        adds)
      (Some []) t.inbox
  in
  Queue.clear t.inbox;
  inbox_adds

(* The part of the delta gate judged before the program is fetched:
   the peer's features, then the run of inputs since the last stage,
   then the inbox. [Ok] carries what the seed would hold. *)
let seedable t inbox_adds =
  if t.track_provenance then Error `Provenance
  else if not (Builtin.Registry.is_empty t.builtins) then Error `Builtin
  else
    match (t.run, inbox_adds) with
    | Broken reason, _ -> Error reason
    | Additive _, None -> Error `Nonadditive_inbox
    | Additive { adds; fresh }, Some inbox -> Ok (adds, fresh, inbox)

(* prepare: seeds the stage when the peer has neither provenance nor
   builtins, every change since the last completed stage is additive —
   fresh local or induced insertions, inbox batches extending the
   cached ones, installed sinks — the program has one stratum, and no
   new fact lies in a guarded relation (Program.guarded). The previous
   fixpoint is then a sub-fixpoint of the next, so the intensional
   store stays and only the new intensional inbox facts enter it.
   Otherwise the stage is full, counted under the first reason in
   [full_reasons] that applies: intensional state is reloaded from the
   remote caches. Aggregate builtins then rematerialize, so the
   fixpoint reads one consistent snapshot. The program, fetched once,
   is planned against the store as the stage loads it, except where
   the gate needs the program to decide: a stage it sends full
   ([strata], [guarded]) is planned against the retained store. *)
let prepare t inbox_adds =
  let full reason =
    let k = reason_rank reason in
    t.n_full_stages.(k) <- t.n_full_stages.(k) + 1;
    refill_intensional t
  in
  let program () = Rules.program t.rules ~stats:(live_cardinal t) in
  let prepared =
    match seedable t inbox_adds with
    | Error reason ->
      full reason;
      { program = program (); seed = None }
    | Ok (adds, fresh, inbox) -> (
      let inserted =
        List.filter_map
          (fun (f : Fact.t) ->
            if not (intensional t f.Fact.rel) then None
            else
              let tuple = Tuple.of_list f.Fact.args in
              if insert_tuple t f.Fact.rel tuple then Some (f.Fact.rel, tuple)
              else None)
          inbox
      in
      let pair (f : Fact.t) = (f.Fact.rel, Tuple.of_list f.Fact.args) in
      let tuples = List.rev_append inserted (List.rev_map pair adds) in
      let program = program () in
      let reason =
        match program with
        | Error _ -> Some `Error
        | Ok p when Array.length p.Wdl_eval.Program.strata > 1 -> Some `Strata
        | Ok p when List.exists (fun (rel, _) -> Wdl_eval.Program.guarded p rel) tuples ->
          Some `Guarded
        | Ok _ -> None
      in
      match reason with
      | Some reason ->
        full reason;
        { program; seed = None }
      | None ->
        t.n_delta_stages <- t.n_delta_stages + 1;
        { program; seed = Some { Wdl_eval.Fixpoint.tuples; fresh } })
  in
  ignore (Builtin.Registry.flush_all t.builtins : bool);
  prepared

(* evaluate: runs the fixpoint (against the cached compiled program
   while it is valid) and settles the post-fixpoint state — provenance,
   errors, inductive updates, the next additive run. [None] when the
   program does not stratify. *)
let evaluate t prepared =
  match
    Result.bind prepared.program (fun program ->
        Wdl_eval.Fixpoint.run ~record_provenance:t.track_provenance
          ?seed:prepared.seed ~program ~handles:t.eval_handles ~self:t.name
          t.db [])
  with
  | Error e ->
    (* The fixpoint did not run: retained intensional state is not a
       fixpoint of anything, so the next stage must be a full one. *)
    t.run <- Broken `Error;
    record_store_error t "<program>"
      (Format.asprintf "%a" Wdl_eval.Stratify.pp_error e);
    None
  | Ok result ->
    if t.track_provenance then begin
      Fact_tbl.reset t.prov;
      List.iter
        (fun (d : Wdl_eval.Fixpoint.derivation) ->
          Fact_tbl.replace t.prov d.Wdl_eval.Fixpoint.fact d)
        result.Wdl_eval.Fixpoint.provenance
    end;
    t.last_errors <- result.Wdl_eval.Fixpoint.errors @ t.last_errors;
    if t.last_errors <> [] then
      record_event t
        (Trace.Runtime_errors { peer = t.name; errors = t.last_errors });
    (* Inductive updates: only genuinely new facts carry to the next
       stage, otherwise a stable program would never quiesce. *)
    t.induced_pending <-
      List.filter
        (fun (f : Fact.t) ->
          not (Database.mem t.db ~rel:f.Fact.rel (Tuple.of_list f.Fact.args)))
        result.Wdl_eval.Fixpoint.induced;
    (* A completed stage starts a fresh additive run, unless it
       reported runtime errors: a seeded pass only meets the new
       tuples, so it would drop the errors the retained state still
       causes. *)
    t.run <-
      (if result.Wdl_eval.Fixpoint.errors = [] then Additive { adds = []; fresh = [] }
       else Broken `Error);
    Some result

(* emit: the messages that bring every destination up to this stage's
   outputs — fact batches diffed against [last_batches], delegations
   against [last_delegations]. A seeded stage's outputs are the
   previous ones plus what it derived — nothing its seed could reach
   is read under negation or aggregation, so its outputs only grow — a
   full stage's are what it derived; the mode only picks that base. *)
let emit t ~stage_no prepared (result : Wdl_eval.Fixpoint.result) =
  let delta = Option.is_some prepared.seed in
  let by_dst = group_facts_by_dst result.Wdl_eval.Fixpoint.messages in
  let set_of tbl dst =
    Option.value ~default:Sset.empty (Hashtbl.find_opt tbl dst)
  in
  (* Origin attribution for this stage's emissions: the labels of the
     rules that fed each destination's batch. Diagnostic — it tags
     outbound messages for the knowledge-flow oracle and never affects
     what is sent. *)
  let stage_origins =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (dst, label) -> Hashtbl.replace tbl dst (Sset.add label (set_of tbl dst)))
      result.Wdl_eval.Fixpoint.origins;
    set_of tbl
  in
  (* [dst]'s new batch and its origins, or [None] when the batch is
     unchanged. A delta stage only extends batches, so one without fresh
     facts for [dst] leaves its batch as it was. *)
  let fact_part dst =
    let fresh = Option.value ~default:[] (Hashtbl.find_opt by_dst dst) in
    if delta && fresh = [] then None
    else
      let last =
        Option.value ~default:[] (Hashtbl.find_opt t.last_batches dst)
      in
      let base, base_origins =
        if delta then (last, set_of t.batch_origins dst) else ([], Sset.empty)
      in
      let batch = List.sort_uniq Fact.compare (List.rev_append fresh base) in
      if List.equal Fact.equal batch last then None
      else begin
        let origins = Sset.union base_origins (stage_origins dst) in
        Hashtbl.replace t.last_batches dst batch;
        Hashtbl.replace t.batch_origins dst origins;
        Some (batch, origins)
      end
  in
  (* The delegation diff: one merge walk of the sent list and this
     stage's suspensions, both sorted by [compare_delegation]. Each
     install carries the label of the rule that shipped it. A delta
     stage only adds suspensions, so it retracts nothing. *)
  let installs = Hashtbl.create 8 and retracts = Hashtbl.create 8 in
  let add tbl dst x =
    Hashtbl.replace tbl dst (x :: Option.value ~default:[] (Hashtbl.find_opt tbl dst))
  in
  let rec diff sent fresh acc =
    match (sent, fresh) with
    | [], [] -> List.rev acc
    | s :: sent', [] -> retract s sent' fresh acc
    | [], (k, label) :: fresh' -> install k label sent fresh' acc
    | s :: sent', (k, label) :: fresh' ->
      let c = compare_delegation s k in
      if c = 0 then diff sent' fresh' (s :: acc)
      else if c < 0 then retract s sent' fresh acc
      else install k label sent fresh' acc
  and install ((dst, rule) as k) label sent fresh acc =
    add installs dst (rule, label);
    diff sent fresh (k :: acc)
  and retract ((dst, rule) as s) sent fresh acc =
    if delta then diff sent fresh (s :: acc)
    else begin
      add retracts dst rule;
      diff sent fresh acc
    end
  in
  t.last_delegations <-
    diff t.last_delegations result.Wdl_eval.Fixpoint.susp_sources [];
  let for_dst tbl dst = List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl dst)) in
  (* Every destination whose batch or delegations may have changed:
     fresh facts, a previously non-empty batch, a delegation diff. *)
  let dsts =
    Hashtbl.fold
      (fun dst batch acc -> if batch <> [] then Sset.add dst acc else acc)
      t.last_batches
      (Hashtbl.fold (fun dst _ -> Sset.add dst) by_dst Sset.empty)
  in
  let dsts = Hashtbl.fold (fun dst _ -> Sset.add dst) installs dsts in
  let dsts = Hashtbl.fold (fun dst _ -> Sset.add dst) retracts dsts in
  let messages =
    Sset.fold
      (fun dst acc ->
        let facts = fact_part dst in
        let installs_for = for_dst installs dst in
        let msg =
          Message.make ~src:t.name ~dst ~stage:stage_no
            ~facts:(Option.map fst facts) ~installs:(List.map fst installs_for)
            ~retracts:(for_dst retracts dst)
            ~fact_origins:
              (match facts with
              | None -> []
              | Some (_, origins) -> Sset.elements origins)
            ~install_origins:(List.map snd installs_for)
            ()
        in
        if Message.is_empty msg then acc else msg :: acc)
      dsts []
  in
  List.iter (fun msg -> record_event t (Trace.Message_sent { msg })) messages;
  messages

(* An idle stage is an ordinary one: its outputs equal the previous
   stage's, so it emits nothing. A program that does not stratify ends
   the stage after [evaluate]. *)
let stage t =
  let stage_no = t.stage_no + 1 in
  tick t ~stage_no;
  t.last_errors <- [];
  record_event t (Trace.Stage_start { peer = t.name; stage = stage_no });
  let prepared = prepare t (ingest t) in
  let outbound, derivations, iterations =
    match evaluate t prepared with
    | None -> ([], 0, 0)
    | Some r ->
      ( emit t ~stage_no prepared r,
        r.Wdl_eval.Fixpoint.derivations,
        r.Wdl_eval.Fixpoint.iterations )
  in
  record_event t
    (Trace.Stage_end
       { peer = t.name; stage = stage_no; derivations; iterations });
  t.stage_no <- stage_no;
  t.dirty <- false;
  outbound
