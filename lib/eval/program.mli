(** A compiled rule program: stratification and compiled plans, cached
    so repeated stages stop paying [Stratify.compute] + [Plan.compile]
    for an unchanged rule set.

    A [t] is immutable once built. Callers that cache one (notably
    [Peer]) key it on a {e rule-set version counter}: any change to the
    rule set (rule added/removed, delegation installed/retracted) or to
    the relation-kind map (a declaration can turn a name intensional,
    which changes stratification) must bump the version, so a cached
    program whose [version] no longer matches is recompiled.

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

type activation = {
  plan : Plan.t;  (** the base plan, or its delta-first variant *)
  pos : int;  (** body position of the positive atom reading the delta *)
}

type stratum = {
  agg_plans : Plan.t list;  (** aggregate rules, run once before the fixpoint *)
  plans : Plan.t list;      (** non-aggregate plans, iteration-1 order *)
  by_rel : (string, activation list) Hashtbl.t;
      (** delta-relation name -> activations statically reading it *)
  wildcard : activation list;
      (** activations whose relation position is a variable *)
  n_activations : int;  (** total (plan, pos) pairs in this stratum *)
  n_plans : int;  (** compiled plans, delta-first variants included *)
}

type t = {
  version : int;
  rules : Rule.t list;     (** the rules this program was compiled from *)
  strata : stratum array;  (** bottom-up stratification order *)
}

val compile :
  ?version:int ->
  ?stats:(string -> int) ->
  self:string ->
  intensional:(string -> bool) ->
  Rule.t list ->
  (t, Stratify.error) result
(** Stratify and compile [rules]. [intensional] must be the same
    relation-kind predicate the evaluating database will answer;
    [version] (default 0) is stored verbatim for cache keying.
    [stats] (live relation cardinalities) makes {!Plan.order_body}
    reorder each rule body before plan compilation; plans keep the
    original rule as their [source]. Without it, base plans follow the
    written order and delta-first plans order their prefix with
    constant statistics (source order among eligible literals). *)

val version : t -> int
val rules : t -> Rule.t list

val plan_count : t -> int
(** Total compiled plans across strata, delta-first variants included
    (observability/tests). *)
