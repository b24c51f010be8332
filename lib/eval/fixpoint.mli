(** One-stage local evaluation: the middle step of the paper's
    three-step peer computation (load inputs → {e fixpoint} → emit).

    The evaluator runs the peer's current rules over its database,
    left-to-right. What a rule produces depends on where its terms
    resolve at run time:

    - a completed valuation whose head is a {e local intensional}
      relation is deduced immediately (visible within the fixpoint);
    - a head in a {e local extensional} relation is an inductive
      update, returned in [induced] and applied at the next stage;
    - a head on a {e remote peer} is an asynchronous message;
    - reaching a body atom whose peer resolves to a {e remote} name
      suspends the valuation: the residual rule (substitution applied,
      remaining literals kept) is returned in [suspensions] — these
      become the paper's delegations.

    Evaluation is semi-naive with rule-activation scheduling; see
    {!run}.

    {b Ids end to end.} Plans bind, probe and insert the database
    pool's ids ({!Plan}); a run gives values the pool lacks (constants,
    assignment results, enumerated relation names) scratch ids of its
    own {!Wdl_store.Intern.scratch}, so probes never grow the pool and
    a remote head's values never enter it. Only storing a view fact
    interns. Values are decoded at the edges alone: comparisons and
    assignments, residual rules, remote and inductive heads,
    provenance, errors and aggregate combination. Delegation-hit and
    aggregate grouping keys are id arrays. *)

(* No [open Wdl_syntax] here: it would shadow this library's [Program]
   module with the syntax-level one of the same name. *)

type derivation = {
  fact : Wdl_syntax.Fact.t;
  rule : Wdl_syntax.Rule.t;
  premises : Wdl_syntax.Fact.t list;
      (** the ground positive body atoms of one supporting valuation *)
}

(** What one run produced besides its new local intensional facts,
    which it inserts into the database, where every caller reads
    them. *)
type result = {
  induced : Wdl_syntax.Fact.t list;
      (** local extensional insertions for next stage *)
  messages : Wdl_syntax.Fact.t list;
      (** facts whose [peer] field is the destination *)
  suspensions : (string * Wdl_syntax.Rule.t) list;
      (** (target peer, residual rule), deduplicated *)
  origins : (string * string) list;
      (** (destination peer, rule label) for every remote head
          emission — the attribution behind message origin tags and
          the knowledge-flow runtime oracle *)
  susp_sources : ((string * Wdl_syntax.Rule.t) * string) list;
      (** per suspension, in the same order as [suspensions], the label
          of the rule whose evaluation shipped the residual; when
          several did, the one whose rule (as written) is smallest by
          [Rule.compare], independent of evaluation order *)
  errors : Runtime_error.t list;
  iterations : int;       (** fixpoint iterations summed over strata *)
  derivations : int;      (** successful head instantiations, incl. dups *)
  provenance : derivation list;
      (** one why-provenance entry per deduced fact, when requested;
          aggregate-rule facts carry no premises *)
}

val statically_local : self:string -> Wdl_syntax.Rule.t -> bool
(** Whether every body atom's peer is the constant [self] — the
    precondition for aggregate rules, which may never suspend into a
    delegation. *)

type handles
(** Pre-resolved per-peer metric instruments. *)

val handles : self:string -> handles
(** Resolve the evaluator's instruments for one peer once; pass the
    bundle to {!run} to keep registry lookups off the per-stage path.
    After a registry clear, resolve a fresh bundle. *)

type seed = {
  tuples : (string * Wdl_store.Tuple.t) list;
      (** the new tuples, already stored *)
  fresh : int list;
      (** ids of the rules the program gained since the retained
          fixpoint *)
}
(** What a seeded run starts from; see {!run}. *)

val run :
  ?record_provenance:bool ->
  ?seed:seed ->
  ?program:Program.t ->
  ?handles:handles ->
  self:string ->
  Wdl_store.Database.t ->
  Wdl_syntax.Rule.t list ->
  (result, Stratify.error) Stdlib.result
(** Mutates the database's intensional relations. The caller is
    responsible for {!Wdl_store.Database.clear_intensional} at stage
    start and for applying [induced] at the next stage.

    [seed] switches the run to {e delta staging}: instead of clearing
    intensional state and evaluating every rule from scratch, the
    database is taken to already hold a fixpoint of the program without
    the [fresh] rules over the inputs without the seed tuples (which
    the caller has just inserted), and evaluation starts with one
    semi-naive pass over exactly those tuples, plus one run of each
    [fresh] rule over the whole store. Aggregate rules do not run
    again. The [result] then contains only facts, messages and
    suspensions derivable from the new tuples and rules — everything
    previously derived is retained in the database untouched. Exact
    when the program has one stratum, no seed tuple lies in a
    {!Program.guarded} relation, the inputs only grew, and every fresh
    rule is a sink ({!Stratify.is_sink}): what negations and
    aggregates read is then what the retained fixpoint read, so the
    new fixpoint only adds to it. The caller is responsible for that
    gate (see [Peer.stage]). Raises [Invalid_argument] for a seed
    with a program of more than one stratum.

    [program], when given, must have been compiled (see
    {!Program.compile}, possibly patched since) against a database
    whose relation kinds match [db]'s — the [rules] argument is then
    ignored and the cached stratification and plans are used directly,
    saving the per-call [Stratify.compute] + [Plan.compile] work.
    {!Rules} caches one program and patches it as its rule set changes.
    Without [program], [rules] are compiled with {!Program.sources}'
    ids and labels.

    Attribution is by rule identity: [origins] and [susp_sources] name
    rules by their plans' labels, and a delegation boundary hit is
    keyed by (target, rule id, literal, values of the variables the
    residual keeps), so the residual rule is built once per distinct
    binding. Structural comparison of residuals runs once, when the
    result is assembled.

    Semi-naive iterations after the first execute only the
    [(plan, delta position)] pairs whose delta relation is non-empty
    (rule-activation scheduling). A skipped pair would read an empty
    delta and derive nothing, so scheduling never changes results.

    Every result list is sorted canonically, so journals, snapshots
    and trace fact order depend only on the result sets, never on
    hash-table iteration order. *)
