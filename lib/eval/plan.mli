(** Compiled rule plans.

    Interpreting a rule walks its AST for every candidate tuple,
    substituting atoms and threading persistent maps. A plan compiles
    the rule once per fixpoint: variables become integer {e slots} in a
    mutable environment, atoms become argument-pattern arrays, and
    relation/peer terms become resolved names or slot references. The
    evaluator ({!Fixpoint}) executes plans with a binding trail, so a
    tuple match costs array reads and writes instead of allocations.

    {b Environments hold ids.} A slot environment is an [int array]:
    each bound slot holds an id of the run's {!Wdl_store.Intern.scratch}
    (a pool id, or a scratch id for a value the pool lacks), an
    unbound one holds {!unbound}. Probe keys and head rows are ids too;
    values are decoded only where the evaluator needs them (comparisons,
    assignments, residual rules, remote and inductive heads, provenance,
    errors). Each plan carries its own probe-key and head-row buffers
    and caches its constants' ids per run, so a plan must not run in
    two evaluations at once.

    Compilation is purely structural — the paper's left-to-right
    semantics, dynamic delegation boundary and safety guarantees are
    untouched. *)

open Wdl_syntax

type slot = int

type const = {
  value : Value.t;
  mutable run : int;  (** {!Wdl_store.Intern.serial} [id] was resolved in *)
  mutable id : int;  (** [value]'s id in that run; see {!const_id} *)
}
(** A rule constant with its per-run id cache. *)

type arg =
  | Const of const
  | Slot of slot

val unbound : int
(** The environment entry of an unbound slot ([-1]: never an id). *)

type name_ref =
  | Fixed of string   (** constant relation/peer name *)
  | Name_slot of slot (** variable: resolved (or bound) at run time *)

type cexpr =
  | CConst of Value.t
  | CSlot of slot
  | CAdd of cexpr * cexpr
  | CSub of cexpr * cexpr
  | CMul of cexpr * cexpr
  | CDiv of cexpr * cexpr

type match_step = {
  pos : int;  (** literal index in the plan's body (delta position) *)
  neg : bool;
  rel : name_ref;
  peer : name_ref;
  args : arg array;
  atom : Atom.t;  (** the source atom, for error reports *)
  bpos : int array;
      (** statically constrained argument positions, ascending: a plan
          is a linear step sequence, so which slots are bound when a
          step runs is known at compile time *)
  bsrc : arg array;  (** key sources aligned with [bpos] *)
  out_binds : (int * slot) array;
      (** free positions binding a slot (first occurrence in the atom) *)
  out_checks : (int * slot) array;
      (** repeated free slots: equality checks against [out_binds] *)
  resid : slot array;
      (** for a positive atom, the slots of the variables a residual
          shipped at this step keeps (the head's and those of the body
          from [pos] on), ordered by variable name: every plan of one
          rule lists the same variables here, so their values key a
          delegation boundary hit; empty for a negated atom *)
  key : int array;
      (** probe-key buffer the evaluator fills: aligned with [bsrc] for
          a positive atom, with [args] for a negated one *)
}

type step =
  | Match of match_step
  | Cmp of Literal.cmpop * cexpr * cexpr * Literal.t
  | Assign of slot * cexpr * Literal.t

type t = {
  rule : Rule.t;  (** the body the plan executes (possibly reordered) *)
  source : Rule.t;
      (** the rule as written — provenance and diagnostics show this *)
  id : int;  (** the rule's identity in its program ({!Program.source}) *)
  label : string;
      (** the rule's diagnostic label: what origin tags name it by *)
  steps : step list;
  head_rel : name_ref;
  head_peer : name_ref;
  head_args : arg array;
  nslots : int;
  slot_names : string array;  (** slot -> source variable name *)
  premise_patterns : (name_ref * name_ref * arg array) list;
      (** positive body atoms of [source], in written order, for
          provenance instantiation *)
  row : int array;  (** head-row buffer the evaluator fills *)
}

val compile : ?source:Rule.t -> ?id:int -> ?label:string -> Rule.t -> t
(** [source] (default: the rule itself) is the rule as the user wrote
    it, kept for provenance when the compiled body was reordered.
    [id] (default 0) and [label] (default [""]) are stored verbatim. *)

val order_body :
  ?bound:string list -> self:string -> stats:(string -> int) -> Rule.t -> Rule.t
(** Cost-based join ordering: the WDL031 greedy local-prefix reorder
    promoted from lint hint to compiler, picking the cheapest eligible
    literal at each step using [stats] (live relation cardinalities,
    0 for unknown relations) and bound-position selectivity. Ties
    resolve to source order, so with a constant [stats] the result is
    exactly the WDL031 hint. Aggregate rules and rules whose reorder
    fails the safety check are returned unchanged.

    [bound] names variables already bound before the body's first
    literal and makes the body a {e fragment}: {!Program} pins a delta
    literal ahead of a fragment ordered with that literal's variables
    bound. A fragment is not a rule on its own, so it skips the safety
    check, and literals it cannot place trail in source order; the
    caller checks the rule it assembles. *)

val const_id : Wdl_store.Intern.scratch -> const -> int
(** The constant's id in the run that owns the scratch table: resolved
    on the run's first use and cached, and re-checked against the pool
    while it is a scratch id, so it is the pool id as soon as the pool
    holds the value. *)

val subst_of_env : t -> decode:(int -> Value.t) -> int array -> Subst.t
(** The bound slots as a substitution, values decoded (used to build
    residual rules at delegation points — rare, so allocation there is
    fine). *)

val instantiate_args :
  decode:(int -> Value.t) -> arg array -> int array -> Value.t array option
(** The arguments' values; [None] if any slot is unbound. *)

val eval_cexpr :
  decode:(int -> Value.t) ->
  cexpr ->
  int array ->
  slot_names:string array ->
  (Value.t, Expr.error) result
