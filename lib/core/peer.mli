(** A WebdamLog peer: named state (a database), a program (rules), an
    inbox, and the stage loop of §2:

    + load the inputs received from remote peers since the previous
      stage (facts and delegation installs/retracts);
    + run a fixpoint computation of the current program;
    + send facts (updates) and rules (delegation diffs) to other peers.

    Peers are fully autonomous: a peer never reads another peer's
    state; everything crosses through {!Message}. *)

open Wdl_syntax

type t

type shed_policy = Drop_newest | Drop_oldest
(** What a full bounded inbox sheds: the arriving message
    ([Drop_newest]) or the oldest queued one ([Drop_oldest]). The
    third classic policy, block-sender, lives at the transport layer:
    {!Wdl_net.Reliable.config}[.max_window] parks a congested link's
    sends instead of dropping anything. *)

val shed_policy_string : shed_policy -> string

val create :
  ?policy:Acl.policy ->
  ?trace_capacity:int ->
  ?inbox_capacity:int ->
  ?shed:shed_policy ->
  string ->
  t
(** [inbox_capacity] (default unbounded) bounds {!receive}'s queue:
    beyond it, messages are shed per [shed] (default [Drop_newest]),
    counted in [wdl_sys_inbox_shed_total{peer=...}] and traced as
    [Inbox_shed] — one hot sender cannot OOM a slow peer.
    Raises [Invalid_argument] on an empty name.

    Every peer runs the one evaluation engine. Per-destination fact
    batches are sent only when they changed; semi-naive iterations skip
    plans whose delta relations are empty. The compiled program is
    cached across stages by the peer's rule set ({!Wdl_eval.Rules}). *)

val name : t -> string
val database : t -> Wdl_store.Database.t
val acl : t -> Acl.t
val trace : t -> Trace.t
val stage_number : t -> int

(** {1 Builtin relation modules} *)

val builtins : t -> Wdl_builtin.Builtin.Registry.t
(** Modules behind [builtin <kind> rel\@peer(...)] declarations. They
    tick as each stage opens (time refresh, window/TTL expiry — traced
    as {!Trace.Builtin_tick} plus one {!Trace.Fact_deleted} per expired
    tuple) and aggregate kinds rematerialize after the stage's inputs
    are applied. {!insert}/{!delete} and received facts for a builtin
    relation are routed through the module's guarded write path;
    builtin writes are never journaled, so a restored peer's modules
    start empty. *)

val set_clock : t -> (unit -> float) -> unit
(** Clock (seconds, may be virtual) read at stage boundaries and on
    builtin writes; wall-clock horizons ([seconds=T]) compare these
    stamps. Defaults to {!Wdl_obs.Obs.now_us} scaled to seconds.
    Injecting a deterministic clock makes time-based expiry
    reproducible in tests and simulations. *)

(** {1 Access control (§2 model)} *)

val authz : t -> Authz.t
(** Discretionary policies and declassifications live here; derived
    view policies are computed against the peer's current rules. *)

val set_enforce_authz : t -> bool -> unit
(** When on, installing a delegation from [src] additionally requires
    [src] to be able to read every local relation the rule's
    locally-evaluated prefix mentions. Off by default (the 2013 demo
    enforced only the pending-queue model). *)

val enforcing_authz : t -> bool

val readers : t -> string -> Authz.policy
(** Effective policy of a relation: stored for extensional relations,
    declassified or provenance-derived for views. *)

val can_read : t -> reader:string -> string -> bool

(** {1 Program management} *)

val load_program : t -> Program.t -> (unit, string) result
(** Declarations, then facts (which must target this peer's extensional
    relations), then rules (safety-checked, then checked for a negation
    cycle against the current rule set). Partial failure leaves earlier
    statements applied; the message says which statement failed. *)

val load_string : t -> string -> (unit, string) result
(** Parse + {!load_program}. *)

val add_rule : t -> Rule.t -> (unit, string) result
(** Add an own rule: safety-checked, checked for a negation cycle
    against the current rule set, then evaluated from the next stage.
    Adding a rule the peer already holds as its own (structurally
    equal) is [Ok ()] and changes nothing: no event, no recompile. *)

val remove_rule : t -> Rule.t -> bool
val rules : t -> Rule.t list
(** Own rules, in addition order. *)

val delegated_rules : t -> (string * Rule.t) list
(** Installed delegations as [(origin, rule)], oldest first. *)

val rule_id : t -> Rule.t -> string option
(** Diagnostic id of an installed rule, or [None] if unknown: its
    label ({!Wdl_eval.Rules}). Own rules are ["name#k"], the ids
    {!Wdl_analysis.Flow.build} assigns to a file's rules; delegated
    rules answer with the id of the origin rule whose evaluation
    shipped them, or ["origin#?"] after a restore, which loses that
    metadata. Outbound messages are tagged with these ids
    ({!Message.t}[.fact_origins]/[.install_origins]): each compiled plan
    carries its rule's id as its label, so tagging never compares
    rules. *)

val flow : t -> Wdl_analysis.Flow.t
(** Knowledge-flow graph of the peer's current program — own rules
    plus installed delegations, labeled with the same ids {!rule_id}
    returns. The static half of the runtime oracle: for every tagged
    delivery [(origin, dst)] this peer emits,
    {!Wdl_analysis.Flow.rule_sends} on [origin] must cover [dst]. *)

(** {1 Data management (the GUI's surface)} *)

val insert : t -> Fact.t -> (unit, string) result
(** A local update to an extensional relation; visible at the next
    stage the peer runs. Rejects facts for other peers, for views, and
    facts holding a NaN float. *)

val delete : t -> Fact.t -> (unit, string) result

val query : t -> string -> Fact.t list
(** Current contents of a relation, sorted; empty if unknown. Views
    reflect the last completed stage. *)

val relation_names : t -> string list

(** {1 Why-provenance}

    When tracking is on, every stage records one supporting derivation
    per view fact; the paper's access-control model (§2) motivates
    keeping provenance around, and it doubles as a debugger for rule
    programs. *)

type explanation =
  | Base  (** stored extensional fact *)
  | Derived of Wdl_eval.Fixpoint.derivation
  | Received of string list
      (** remote per-stage fact, cached from these sources *)
  | Unknown

val set_track_provenance : t -> bool -> unit
val tracking_provenance : t -> bool

val explain : t -> Fact.t -> explanation
(** One step; premises of a [Derived] answer can be explained in turn. *)

val explain_to_string : ?max_depth:int -> t -> Fact.t -> string
(** Recursive rendering of the derivation tree (default depth 8),
    cycle-safe. *)

type answer = {
  columns : string list;  (** printed head argument terms, in order *)
  rows : Value.t list list;  (** sorted, duplicate-free *)
  requires_delegation : (string * Rule.t) list;
      (** residuals an installed version of this query would send *)
  errors : Wdl_eval.Runtime_error.t list;
}

val ask : t -> string -> (answer, string) result
(** The demo's Query tab (§4): evaluates an ad-hoc rule — e.g.
    [q@Jules($n) :- pictures@Jules($i,$n,$o,$d), rate@Jules($i,5)] —
    against a {e snapshot} of the peer's state, together with the
    peer's current program. Live state, delegations and messages are
    untouched; body atoms that resolve to remote peers are reported in
    [requires_delegation] instead of being evaluated. *)

(** {1 Delegation control (§4)} *)

val pending_delegations : t -> (string * Rule.t) list
val accept_delegation : t -> src:string -> Rule.t -> bool
val reject_delegation : t -> src:string -> Rule.t -> bool
val accept_all_delegations : t -> int
(** Returns how many were installed. *)

(** {1 The stage loop} *)

val receive : t -> Message.t -> unit
(** Queues a message for the next stage; sheds it (or the oldest
    queued one) when the bounded inbox is full. *)

val inbox_length : t -> int
val sheds : t -> int
(** Messages shed by the bounded inbox since creation. *)

(** {1 Peer lifecycle}

    The two halves of "death is a transition, not a leak"
    ({!System.evict_peer} calls them; they are exposed for custom
    runtimes). *)

val forget_origin : t -> src:string -> int
(** Receiver-side cleanup when [src] dies or rejoins: retracts every
    delegation it installed here (traced, counted), drops its
    pending-approval entries, its cached per-stage batch and the
    installs, retracts and intensional facts of its messages still
    queued in the inbox. Extensional facts it sent, including those in
    queued messages (applied and journaled here), are genuine updates
    and persist. Returns the number of delegations retracted. *)

val forget_destination : t -> dst:string -> unit
(** Sender-side cleanup: drops the diff protocol's memory of what was
    sent to [dst] (last fact batch, delegation set), so the next stage
    re-sends current state from scratch — receivers apply it
    idempotently. Needed both for name reuse and to reconcile with a
    peer that rejoined without its session state. *)

val reset_session : t -> unit
(** {!forget_destination} towards every destination: a rejoining peer
    calls this so its delegations and batches are re-announced to a
    world that may have evicted it while it was down. *)

(** {1 Persistence}

    A peer is someone's laptop (§4): it stops and restarts. A snapshot
    captures everything needed to resume — declarations, extensional
    facts, own rules, installed delegations with their origins, the
    pending-approval queue, the cached remote view batches and the
    stage counter — as a parseable text file in the wire format. *)

val journal : t -> Wdl_store.Journal.t option
val set_journal : t -> Wdl_store.Journal.t option -> unit
(** Attaches a write-ahead journal: every subsequent base-data change
    (declarations, extensional inserts/deletes — local, inductive or
    received) is appended. {!Persist} composes this with snapshots into
    checkpoint + WAL durability. *)

val snapshot : t -> string

(** Rebuilds a peer from {!snapshot} output. Intensional contents are
    not stored: the first stage after restore recomputes them. *)
val restore : string -> (t, string) result
val has_work : t -> bool
(** Whether running a stage could change anything: non-empty inbox,
    pending inductive updates, or local edits since the last stage.
    Callers gate {!stage} on it; [System.round] stages only such
    peers. *)

val stage : t -> Message.t list
(** Runs one stage and returns the outbound messages. An idle stage
    (no {!has_work}) is an ordinary one: builtins tick and the stage
    number advances; a peer the delta gate admits runs an empty seed,
    any other recomputes. It emits nothing and leaves relations and
    fixpoint errors as they were, since a stage is a deterministic
    function of (extensional db, remote cache, rules).

    {b The delta gate.} A stage keeps the previous fixpoint and runs
    one semi-naive pass seeded with its new facts (and a first run of
    each newly installed sink delegation) when the peer tracks no
    provenance and holds no builtin module, every input since the last
    completed stage only added (local and induced insertions, inbox
    batches extending the cached ones, installs of
    {!Wdl_eval.Stratify.is_sink} rules), the program has one stratum
    and no new fact lies in a {!Wdl_eval.Program.guarded} relation.
    Otherwise it recomputes from scratch; {!stats}[.full_stages] says
    why. *)

val last_errors : t -> Wdl_eval.Runtime_error.t list
(** Runtime errors of the last stage. *)

(** {1 Metrics} *)

type stats = {
  stages : int;
  fixpoint_iterations : int;  (** summed over stages *)
  derivations : int;          (** head instantiations, incl. duplicates *)
  messages_sent : int;
  messages_received : int;
  delegations_installed : int;
  delegations_retracted : int;
  delegations_rejected : int;
  runtime_errors : int;
  delta_stages : int;  (** stages seeded over the retained fixpoint *)
  full_stages : (string * int) list;
      (** stages recomputed from scratch, by reason, in precedence
          order: [provenance] (the peer tracks provenance), [builtin]
          (it holds builtin modules), [error] (the last stage reported
          runtime errors or its program did not stratify), [session]
          (first stage, restore, or a session reset or forget),
          [rule_change] (an own rule, a declaration, or an install
          that is not a sink, or a retract), [delete] (a local
          deletion), [nonadditive_inbox] (a batch dropped a cached
          fact), [strata] (the program has more than one stratum),
          [guarded] (a new fact lies in a guarded relation,
          {!Wdl_eval.Program.guarded}). A stage counts under the first
          that applies. With [delta_stages] they sum to [stages]. *)
}

val stats : t -> stats
(** Monotone counters since creation (not persisted by snapshots). *)

val pp_stats : Format.formatter -> stats -> unit
