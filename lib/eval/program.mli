(** A compiled rule program: stratification and compiled plans, cached
    so repeated stages stop paying [Stratify.compute] + [Plan.compile]
    for an unchanged rule set.

    A program is built from {e sources}: each rule with an int id and a
    diagnostic label, which every plan compiled from it carries. The
    evaluator reports message origins and delegation sources by label,
    so tagging an emission never touches the rule's structure.

    A [t] is immutable, up to the probe buffers and per-run constant
    ids its plans carry for the evaluator ({!Plan}). Besides
    {!compile}, two cheaper operations
    derive a new program from an old one:
    - {!patch} adds or removes {!Stratify.is_sink} rules (no local
      intensional head, no negation, no aggregate). A
      sink adds no dependency edge and [Stratify] places it in the last
      stratum, so the patched program has every other rule in the
      stratum, with the plans, that {!compile} would give it. {e Patch
      invariant}: a program patched from [compile sources] holds,
      stratum by stratum and in order, the rules of [compile sources'],
      where [sources'] is [sources] with the sink appended or removed;
      only join orders planned against older statistics may differ.
    - {!replan} re-orders, with fresh statistics, only the rules whose
      orders read a relation that left the cardinality band it was
      planned against, and re-indexes only the strata where some base
      or delta-first order changed.
    Plans are kept per rule ({!member}), each with the bands it was
    planned against, so both touch only the rules they concern.

    Each stratum also carries the {e activation index} driving
    semi-naive scheduling: an inverted index from body-relation name to
    the [(plan, body position)] pairs reading that relation at that
    position. During iterations 2+, only activations whose delta
    relation actually received tuples need to run — a plan whose delta
    position reads relation [c] can derive nothing new when the
    previous iteration produced no [c] tuples, yet executing it still
    costs the full enumeration of the body prefix before that position.
    Positions whose relation is a {e variable} may read any delta and
    live in [wildcard]; they run every iteration.

    An activation in [by_rel] carries its own {e delta-first} plan when
    its delta literal and every literal before it are statically local
    ([@self]): the delta literal at position 0, then the rest of the
    plan's local prefix ordered by {!Plan.order_body} with the delta's
    variables bound, then the suffix — from the first literal that is
    not statically local on — unchanged. A new tuple thus probes the
    indexed relations instead of scanning them to find the delta.
    {e Boundary invariant}: the local prefix holds the same literals as
    the base plan's, so the same variables are bound when a run reaches
    the suffix, and residuals, suspensions and origin tags are the base
    plan's. Where the assembled rule fails [Safety.check_rule] (a
    prefix literal the ordering could not place shows that way), the
    activation keeps the base plan, as do wildcard activations,
    aggregate plans and iteration 1's [plans]. *)

open Wdl_syntax

type source = {
  id : int;  (** unique within the program *)
  label : string;  (** what origin tags name the rule by *)
  rule : Rule.t;
}

val sources : Rule.t list -> source list
(** Ids [0..n-1] by position, labels ["#k"] with [k] the 1-based
    position: for callers with a bare rule list. *)

type activation = {
  plan : Plan.t;  (** the base plan, or its delta-first variant *)
  pos : int;  (** body position of the positive atom reading the delta *)
}

type read = {
  rel : string option;  (** the delta relation; [None]: a relation variable *)
  at : int;  (** the atom's position in the base plan *)
  act : activation;
}

type member = {
  source : source;
  base : Plan.t;  (** ordered by the statistics it was compiled with *)
  reads : read list;  (** one per positive body atom, in base order *)
  bands : (string * int) list;
      (** the power-of-two cardinality band of each relation its orders
          read, under the statistics they were planned with (bit length
          of the cardinal, 0 when empty) *)
}
(** One rule's compiled plans. *)

type stratum = {
  members : member list;  (** the stratum's rules, in evaluation order *)
  agg_plans : Plan.t list;  (** aggregate rules, run once before the fixpoint *)
  plans : Plan.t list;      (** non-aggregate plans, iteration-1 order *)
  by_rel : (string, activation list) Hashtbl.t;
      (** delta-relation name -> activations statically reading it *)
  wildcard : activation list;
      (** activations whose relation position is a variable *)
  n_activations : int;  (** total (plan, pos) pairs in this stratum *)
  n_plans : int;  (** compiled plans, delta-first variants included *)
}

type guard
(** The relations a run's new facts must avoid for a seeded pass to be
    exact ({!guarded}). *)

type t = {
  strata : stratum array;  (** bottom-up stratification order *)
  guard : guard;
}

val guarded : t -> string -> bool
(** Whether [rel] is {e guarded}: a local relation that a negated
    literal or an aggregate body reads, or one a rule whose head may be
    a guarded local intensional relation reads in its local body
    prefix (the set is closed backwards through such rules; a head
    with a relation variable may be any local intensional relation).
    Every relation is guarded when some guarded read, or some atom the
    closure reaches, has a relation variable. A monotone program guards
    nothing. Facts that avoid the guard cannot change what a negation
    or an aggregate reads in a run, so over a one-stratum program they
    only add to its fixpoint ({!Fixpoint.run}'s [seed]). Extensional
    heads are not followed: their facts reach the store at the next
    stage, as that stage's new facts. *)

val compile :
  ?stats:(string -> int) ->
  self:string ->
  intensional:(string -> bool) ->
  source list ->
  (t, Stratify.error) result
(** Stratify and compile the sources' rules, each stratum in source
    order. [intensional] must be the same relation-kind predicate the
    evaluating database will answer. [stats] (live relation
    cardinalities) makes {!Plan.order_body} reorder each rule body
    before plan compilation; plans keep the original rule as their
    [source]. Without it, base plans follow the written order and
    delta-first plans order their prefix with constant statistics
    (source order among eligible literals); their bands are those of
    empty relations. *)

val patch :
  ?stats:(string -> int) ->
  self:string ->
  t ->
  add:source list ->
  remove:int list ->
  t
(** Append the plans of the [add] sinks, in order, to the last stratum,
    then drop every rule whose id is in [remove] (an added one
    included) with its plans. Each touched stratum is re-indexed once.
    The caller guarantees that every added rule is a sink under the
    [intensional] the program was compiled with and has an id the
    program does not hold. Exact for sinks (see the patch invariant);
    removing any other rule may leave the stratification stale. A
    sink leaves the guard as it was, so the patched program keeps
    it. *)

val replan : self:string -> stats:(string -> int) -> t -> (t * bool) option
(** Re-derive, under [stats], the base and delta-first orders of every
    rule with a recorded band that [stats] no longer gives; recompile
    the rules whose order changed and re-band the others. [None] when
    every band holds: the program stays valid as it is. Otherwise the
    re-planned program, and whether some order changed. *)

val plan_count : t -> int
(** Total compiled plans across strata, delta-first variants included
    (observability/tests). *)
