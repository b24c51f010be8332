(** A peer's rule set: its own rules and the delegations other peers
    installed (arXiv 1307.8269), with rule identity, admission and the
    compiled program.

    {b Identity.} Every rule entering the set gets an int id from one
    sequence. A rule's {e label} is what origin tags name it by: an own
    rule is ["self#k"], [k] its 1-based position among own rules; a
    delegation is the origin's id for the rule that shipped it
    ({!set_label}), or ["origin#?"] when none is known. {e Twins}, rules
    that are structurally one, share the label of the first holder (own
    rules first, then delegations by id), so a delivery names one rule
    whichever copy derived it.

    {b The compiled program} is cached across calls to {!program}.
    Installing or retracting a sink delegation ({!Stratify.is_sink},
    which most delegations are) with no twin patches it
    ({!Program.patch}); any other rule change, a relabel or an
    {!invalidate} recompiles it. Join ordering is cost-based: rule
    bodies are reordered at compile time by live relation cardinalities
    (the WDL031 greedy reorder promoted into the planner). Each compiled
    rule keeps the power-of-two cardinality band of every relation its
    orders read; each call re-plans only the rules with a band that
    moved ({!Program.replan}), so a relation no rule reads never costs a
    check. A call where some order changed is counted in
    [wdl_eval_replans_total{peer=...}], any other call served by the
    cached program in [wdl_eval_program_cache_hits_total]. Compile time
    is observed per kind ([full], [patch], and [replan] for calls where
    a band moved) in [wdl_eval_compile_microseconds{peer=...,kind=...}]. *)

(* No [open Wdl_syntax] here: it would shadow this library's [Program]. *)
module Rule := Wdl_syntax.Rule

type holder = Own | Delegated of string  (** by this origin peer *)
type t

val create :
  self:string ->
  intensional:(string -> bool) ->
  head_error:(Rule.t -> string option) ->
  t
(** An empty set for peer [self]; its two counters replace those of an
    earlier set for [self]. [intensional] answers the peer's relation
    kinds; [head_error] is the peer's own check of a rule head, run by
    {!admit}. *)

(** {1 Admission} *)

val admit : t -> Rule.t -> (unit, string) result
(** The checks every rule entering the set passes, in order: safety,
    aggregate locality (every body atom at [self]), [head_error], and
    stratification of the held rules plus this one (skipped for a sink,
    which adds no dependency edge). *)

val stratifies_if_intensional : t -> string -> bool
(** Whether the held rules still stratify once [rel] is intensional. *)

(** {1 The held rules} *)

val mem : t -> holder -> Rule.t -> bool

val add : t -> holder -> Rule.t -> unit
(** Holds the rule, unless [holder] holds a structurally equal one.
    Unchecked: {!admit} first. *)

val remove : t -> holder -> Rule.t -> bool
(** [false] when [holder] does not hold the rule. A delegation's label
    is forgotten either way. *)

val own_rules : t -> Rule.t list
(** In addition order. *)

val delegations : t -> (string * Rule.t) list
(** [(origin, rule)], oldest first. *)

val held : t -> Rule.t list
(** Own rules, then delegations. *)

val monotone : t -> bool
(** No held rule negates or aggregates ({!Stratify.monotone}): derived
    facts then only accumulate, so a previous stage's fixpoint stays
    valid under purely additive inputs, and the program is one stratum,
    as {!Fixpoint.run}'s [seed] requires. *)

(** {1 Labels} *)

val set_label : t -> src:string -> Rule.t -> string -> unit
(** Records the origin's id for a delegation from [src], installed or
    still pending approval. A new label for an installed delegation
    recompiles the program. *)

val forget_labels : t -> src:string -> unit

val labels : t -> (string * Rule.t) list
(** Every held rule with its own label (twins unshared), own rules
    first. *)

val label : t -> Rule.t -> string option
(** The label the compiled program tags the rule with; [None] when it
    is not held. *)

val sources : t -> Program.source list
(** What {!program} compiles: the held rules with their ids and labels,
    twins sharing one. *)

(** {1 The compiled program} *)

val invalidate : t -> unit
(** The next {!program} call compiles in full: for a change outside the
    rule set, such as a declaration turning a name intensional. *)

val program : t -> stats:(string -> int) -> (Program.t, Stratify.error) result
(** The program for a stage, [stats] giving live cardinalities. *)
