(* Bound before [open Wdl_syntax], which has its own [Program]. *)
module Prog = Program

open Wdl_syntax

type holder = Own | Delegated of string

module Key_tbl = Hashtbl.Make (struct
  type t = holder * Rule.t

  let equal (h1, r1) (h2, r2) = h1 = h2 && Rule.equal r1 r2
  let hash x = Hashtbl.hash_param 64 128 x
end)

module Rule_tbl = Hashtbl.Make (struct
  type t = Rule.t

  let equal = Rule.equal
  let hash x = Hashtbl.hash_param 64 128 x
end)

module Imap = Map.Make (Int)

type t = {
  self : string;
  intensional : string -> bool;
  head_error : Rule.t -> string option;
  mutable seq : int;
  mutable held : (holder * Rule.t) Imap.t;  (* id -> entry *)
  ids : int Key_tbl.t;  (* entry -> id *)
  holders : int Rule_tbl.t;
      (* rule -> how many entries are structurally it *)
  origin_labels : string Key_tbl.t;
      (* (Delegated src, rule) -> the origin's id for the rule that
         shipped it, taken from the install's origin metadata *)
  (* The compiled-program cache. [None] forces a full compile at the
     next [program] call. Sinks installed or retracted since are queued
     in [sinks_in] (newest first) and [sinks_out] (ids) and patched in
     at that call. *)
  mutable program : Prog.t option;
  mutable sinks_in : Prog.source list;
  mutable sinks_out : int list;
  mutable n_cache_hits : int;
  mutable n_replans : int;
}

let register_metrics t =
  let counter name help read =
    Wdl_obs.Obs.on_collect ~help ~labels:[ ("peer", t.self) ] ~kind:`Counter
      name (fun () -> float_of_int (read ()))
  in
  counter "wdl_eval_program_cache_hits_total"
    "Stages served by the cached compiled program, patched or not (no \
     restratification, no replan)" (fun () -> t.n_cache_hits);
  counter "wdl_eval_replans_total"
    "Replans forced by a relation crossing a cardinality band that changed \
     some rule's join order (rule set unchanged)" (fun () -> t.n_replans)

let create ~self ~intensional ~head_error =
  let t = {
    self;
    intensional;
    head_error;
    seq = 0;
    held = Imap.empty;
    ids = Key_tbl.create 16;
    holders = Rule_tbl.create 16;
    origin_labels = Key_tbl.create 16;
    program = None;
    sinks_in = [];
    sinks_out = [];
    n_cache_hits = 0;
    n_replans = 0;
  }
  in
  register_metrics t;
  t

(* {1 The held rules} *)

(* The entries [pick] keeps, as (id, what it keeps), by id. *)
let entries t pick = Imap.bindings (Imap.filter_map (fun _ e -> pick e) t.held)
let own t = entries t (function Own, r -> Some r | Delegated _, _ -> None)

let delegated t =
  entries t (function Delegated src, r -> Some (src, r) | Own, _ -> None)

let own_rules t = List.map snd (own t)
let delegations t = List.map snd (delegated t)
let held t = own_rules t @ List.map snd (delegations t)
let mem t holder rule = Key_tbl.mem t.ids (holder, rule)

let sink t rule = Stratify.is_sink ~self:t.self ~intensional:t.intensional rule

(* {1 Labels} *)

let origin_label t src rule =
  match Key_tbl.find_opt t.origin_labels (Delegated src, rule) with
  | Some label -> label
  | None -> src ^ "#?"

(* Every entry as (id, its own label, rule): own rules by position,
   then delegations by id. *)
let labeled t =
  List.mapi (fun k (id, r) -> (id, Printf.sprintf "%s#%d" t.self (k + 1), r)) (own t)
  @ List.map (fun (id, (src, r)) -> (id, origin_label t src r, r)) (delegated t)

let labels t = List.map (fun (_, label, r) -> (label, r)) (labeled t)

let label t rule =
  List.find_map
    (fun (_, label, r) -> if Rule.equal r rule then Some label else None)
    (labeled t)

let sources t =
  let first = Rule_tbl.create 16 in
  List.map
    (fun (id, label, rule) ->
      if not (Rule_tbl.mem first rule) then Rule_tbl.add first rule label;
      { Prog.id; label = Rule_tbl.find first rule; rule })
    (labeled t)

(* {1 Invalidation, the patch queue and relabels} *)

let invalidate t =
  t.program <- None;
  t.sinks_in <- [];
  t.sinks_out <- []

(* A sink coming or going is queued while there is a program to
   patch. *)
let queue t change =
  if Option.is_some t.program then
    match change with
    | `In source -> t.sinks_in <- source :: t.sinks_in
    | `Out id -> t.sinks_out <- id :: t.sinks_out

let set_label t ~src rule label =
  let key = (Delegated src, rule) in
  (* The program resolved the old label at compile time. *)
  if Key_tbl.mem t.ids key && Key_tbl.find_opt t.origin_labels key <> Some label
  then invalidate t;
  Key_tbl.replace t.origin_labels key label

let forget_labels t ~src =
  Key_tbl.filter_map_inplace
    (fun (holder, _) label -> if holder = Delegated src then None else Some label)
    t.origin_labels

(* {1 Admission} *)

let aggregate_local_error t rule =
  if Rule.is_aggregate rule && not (Fixpoint.statically_local ~self:t.self rule)
  then
    Some
      "aggregate rules must be entirely local: every body atom's peer must \
       name this peer"
  else None

(* A candidate rule set must stratify: rejecting at install time keeps
   every stage's fixpoint well-defined. The held set always stratifies,
   and a sink adds no dependency edge, so a sink needs no check. *)
let admit t rule =
  match Safety.check_rule rule with
  | Error errs -> Error (Safety.errors_to_string errs)
  | Ok () -> (
    match List.find_map (fun check -> check rule) [ aggregate_local_error t; t.head_error ] with
    | Some msg -> Error msg
    | None ->
      if sink t rule then Ok ()
      else
        match Stratify.compute ~self:t.self ~intensional:t.intensional (held t @ [ rule ]) with
        | Ok _ -> Ok ()
        | Error e -> Error (Format.asprintf "%a" Stratify.pp_error e))

let stratifies_if_intensional t rel =
  let intensional r = r = rel || t.intensional r in
  Result.is_ok (Stratify.compute ~self:t.self ~intensional (held t))

(* {1 Adding and removing}

   Own rules always recompile: their labels are positions. A delegation
   that is a sink with no twin (whose label it would share) is patched
   in or out; anything else recompiles. *)

(* The rule's holder count after an entry comes ([d = 1]) or goes
   ([d = -1]). *)
let count t rule d =
  let n = Option.value ~default:0 (Rule_tbl.find_opt t.holders rule) + d in
  if n = 0 then Rule_tbl.remove t.holders rule
  else Rule_tbl.replace t.holders rule n;
  n

let add t holder rule =
  match Key_tbl.find_opt t.ids (holder, rule) with
  | Some id -> id
  | None ->
    t.seq <- t.seq + 1;
    let id = t.seq in
    Key_tbl.replace t.ids (holder, rule) id;
    t.held <- Imap.add id (holder, rule) t.held;
    let twins = count t rule 1 - 1 in
    (match holder with
    | Delegated src when twins = 0 && sink t rule ->
      queue t (`In { Prog.id; label = origin_label t src rule; rule })
    | Own | Delegated _ -> invalidate t);
    id

let remove t holder rule =
  Key_tbl.remove t.origin_labels (holder, rule);
  match Key_tbl.find_opt t.ids (holder, rule) with
  | None -> false
  | Some id ->
    Key_tbl.remove t.ids (holder, rule);
    t.held <- Imap.remove id t.held;
    let twins = count t rule (-1) in
    (match holder with
    | Delegated _ when twins = 0 && sink t rule -> queue t (`Out id)
    | Own | Delegated _ -> invalidate t);
    true

(* {1 The compiled program} *)

let compile_histogram t kind =
  Wdl_obs.Obs.histogram
    ~labels:[ ("peer", t.self); ("kind", kind) ]
    ~buckets:Wdl_obs.Obs.latency_buckets "wdl_eval_compile_microseconds"

let compile_span t kind f = Wdl_obs.Obs.time (compile_histogram t kind) f

(* Only re-planning is timed, and one that changes some order counts as
   a replan, anything else as a cache hit. *)
let program t ~stats =
  let self = t.self in
  match t.program with
  | None ->
    let compiled =
      compile_span t "full" (fun () ->
          Prog.compile ~stats ~self ~intensional:t.intensional (sources t))
    in
    t.program <- Result.to_option compiled;
    compiled
  | Some p ->
    let p =
      if t.sinks_in = [] && t.sinks_out = [] then p
      else
        compile_span t "patch" (fun () ->
            Prog.patch ~stats ~self p ~add:(List.rev t.sinks_in)
              ~remove:t.sinks_out)
    in
    t.sinks_in <- [];
    t.sinks_out <- [];
    let started = Wdl_obs.Obs.now_us () in
    let p, changed =
      match Prog.replan ~self ~stats p with
      | None -> (p, false)
      | Some replanned ->
        Wdl_obs.Obs.observe (compile_histogram t "replan")
          (Wdl_obs.Obs.now_us () -. started);
        replanned
    in
    if changed then t.n_replans <- t.n_replans + 1
    else t.n_cache_hits <- t.n_cache_hits + 1;
    t.program <- Some p;
    Ok p
