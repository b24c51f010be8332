(** Stratification of a peer's current rule set.

    Rules change at run time (delegation installs/retracts them), so
    stratification is recomputed whenever the rule set changes. The
    analysis is conservative in the presence of the paper's relation
    and peer variables:

    - an atom whose relation is a variable may read {e any} local
      intensional relation;
    - a head whose relation or peer is a variable may derive into
      {e any} local intensional relation;
    - body literals at or after the first atom whose peer is a constant
      remote name never run locally and contribute no dependencies.

    A rule set whose dependency graph has a cycle through negation is
    rejected (the demo system did not implement negation at all; we
    implement the standard stratified semantics).

    A {e sink} ({!is_sink}) derives into no local intensional relation
    and negates and aggregates nothing, so it contributes no edge to the
    dependency graph. [compute] places every sink in the {e last}
    stratum, where each relation it reads is complete. Adding a sink to
    a rule set that stratifies therefore always stratifies, with every
    other rule in the stratum it had and the sink appended to the last
    one; removing a sink is the converse. Peers install and retract
    sinks (most delegations) on that basis without recomputing. *)

open Wdl_syntax

type error =
  | Negative_cycle of string list
      (** intensional relation names involved in the cycle *)

val pp_error : Format.formatter -> error -> unit

type t = {
  strata : Rule.t list array;  (** rules grouped by stratum, in order *)
}

val compute :
  self:string ->
  intensional:(string -> bool) ->
  Rule.t list ->
  (t, error) result
(** [intensional rel] must say whether a local relation name is (or
    would be) intensional; unknown relations auto-create as extensional
    and should answer [false]. Within a stratum, rules keep their order
    in the input list. *)

val assign :
  self:string ->
  intensional:(string -> bool) ->
  Rule.t list ->
  (int list, error) result
(** Each rule's stratum, in input order: what {!compute} groups by. *)

val is_sink : self:string -> intensional:(string -> bool) -> Rule.t -> bool
(** Whether the rule is a sink: its head has no {!head_node} (a remote
    or extensional head), and its body has no negated literal and it
    has no aggregate. *)

(** {1 Dependency introspection}

    The nodes a rule contributes to the stratification graph, exposed
    so diagnostics (the [WDL010] negative-cycle trace in
    [Wdl_analysis]) can point at the specific rules closing a cycle
    instead of only listing the relations involved. *)

type node =
  | Rel of string  (** one local intensional relation *)
  | Star           (** a variable relation/peer: any of them *)

val head_node : self:string -> intensional:(string -> bool) -> Atom.t -> node option
(** The node a rule head derives into, or [None] when it cannot derive
    locally (remote constant head, or a non-intensional relation). *)

val body_deps :
  self:string ->
  intensional:(string -> bool) ->
  Literal.t list ->
  (node * bool) list
(** Nodes read by the locally-evaluated body prefix (literals past a
    definitely-remote atom never run locally), with [true] marking a
    dependency under negation. *)
