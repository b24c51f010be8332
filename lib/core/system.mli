(** A system of peers wired through a transport — the runtime used to
    reproduce the paper's topologies (Fig. 2: Émilien's and Jules'
    laptops plus the sigmod cloud peer).

    Time advances in {e rounds}: in each round every peer that has work
    runs one stage, its messages enter the transport, the clock
    advances by one unit, and deliverable messages land in inboxes.
    Peers remain autonomous — a peer with nothing to do skips the
    round, exactly like an idle laptop. *)

type t

val create :
  ?transport:Message.t Wdl_net.Transport.t ->
  ?drop_unknown:bool ->
  ?membership:Membership.config ->
  ?dead_letter_capacity:int ->
  unit ->
  t
(** Default transport: {!Wdl_net.Inmem} sized with {!Message.size}.
    Each round's outbox is coalesced per destination into one
    [send_many] — the delivery schedule is unchanged (everything still
    lands in the same round; per-stage observability is preserved),
    only the number of wire units drops; a singleton group is a plain
    [send], not counted as a batch. [drop_unknown] controls messages to
    peers this system doesn't host: dropped when using the default
    in-process transport (they could never be delivered), sent
    otherwise (over TCP the peer may live in another process).

    [membership] configures the failure detector
    ({!Membership.default_config}: detection off — explicit signals
    only). [dead_letter_capacity] (default 256) bounds the buffer
    parking messages addressed to dead destinations; beyond it the
    oldest letter is discarded. *)

val add_peer :
  t ->
  ?policy:Acl.policy ->
  ?inbox_capacity:int ->
  ?shed:Peer.shed_policy ->
  string ->
  Peer.t
(** Raises [Invalid_argument] if the name is already taken. The
    optional arguments are forwarded to {!Peer.create}. *)

val adopt_peer : t -> Peer.t -> unit
(** Registers an existing peer (e.g. one rebuilt by {!Persist.recover})
    instead of creating a fresh one, and reconciles the rejoin: stale
    transport session state under the name is purged, parked dead
    letters are replayed, and a dead membership entry revives. Then,
    as on a death, each side drops what the other had pushed
    ({!Peer.forget_origin} both ways between the newcomer and every
    registered peer): the newcomer's restored caches and delegations
    from them, and their delegations from its previous incarnation.
    Finally both sides re-announce: the peer's own diff-protocol
    memory is reset and every other peer forgets its state towards
    it. Under a [Closed] policy the re-announced delegations go back
    to the pending queue, as after an eviction. Raises
    [Invalid_argument] if the name is taken. *)

val remove_peer : t -> string -> unit
(** Unregisters a peer: it stops staging and stops draining its inbox
    — the system-level half of a crash. Unknown names are ignored.
    The name is safe to reuse: remaining peers forget their
    diff-protocol state towards it and purgers (see {!wire_reliable})
    drop its transport session state. Its membership entry remains,
    unregistered — the failure detector (or an explicit
    {!evict_peer}) decides whether the silence means death.
    Re-register the recovered peer with {!adopt_peer}. *)

val evict_peer : t -> string -> unit
(** {!remove_peer} plus an immediate death transition: every remaining
    peer retracts the delegations the evicted peer installed and drops
    its cached batch; future messages to it are dead-lettered. A later
    {!adopt_peer} (or, for remote names, hearing from the peer again)
    revives it and re-announces state both ways. *)

val peer : t -> string -> Peer.t
(** Raises [Not_found]. *)

val find_peer : t -> string -> Peer.t option
val peers : t -> Peer.t list
(** In registration order. *)

val transport : t -> Message.t Wdl_net.Transport.t
val rounds : t -> int

(** {1 Peer lifecycle}

    Liveness is piggy-backed on existing traffic: every drained
    message refreshes its source in the membership view, peers hosted
    here are refreshed every round, and (when
    {!Membership.config}[.probe_every] asks for it) silent remote
    names are probed with empty heartbeat messages — absorbed by the
    receiving system without waking any peer. Any registered peer
    declaring an extensional [sys_peers] relation gets the view
    materialised into it as [(name, status)] facts. *)

val membership_view : t -> (string * Membership.status) list
(** Sorted by name; registered peers plus every name messages were
    addressed to or heard from. *)

val membership_status : t -> string -> Membership.status option

val sync_members : t -> unit
(** Forces the [sys_peers] materialisation (it otherwise happens on
    every membership transition). *)

val wire_reliable : t -> Message.t Wdl_net.Reliable.control -> unit
(** Wires a reliable session layer into the lifecycle: its give-ups
    ({!Wdl_net.Reliable.on_dead}) are traced as [Link_dead] and mark
    the destination dead in the membership view (suspect, for a
    registered — demonstrably alive — peer), and removing a peer
    purges its link state ({!Wdl_net.Reliable.forget}) so the name can
    be reused. *)

val note_link_dead : t -> src:string -> dst:string -> unit
(** The {!wire_reliable} callback, exposed for custom wiring. *)

val evictions : t -> int
(** Death transitions applied (each retracts the dead peer's
    delegations everywhere). *)

val dead_letters : t -> int
(** Messages currently parked for dead destinations (replayed when the
    destination revives; parked letters do not block {!quiescent}). *)

val dead_lettered : t -> int
(** Total messages ever parked. *)

val trace : t -> Trace.t
(** The system-level event ring: [Peer_status], [Link_dead] and
    [Dead_lettered] events land here (peer-level events stay in each
    peer's own trace). *)

val on_round : t -> (unit -> unit) -> unit
(** Registers a hook run at the start of every round, before stages —
    wrappers use this to synchronise with their backing service. *)

val round : t -> int
(** Runs one round; returns the number of messages sent in it. *)

val quiescent : t -> bool
(** No peer has work and no message is in flight. *)

val run : ?max_rounds:int -> t -> (int, string) result
(** Rounds until {!quiescent}; [Ok n] is the number of rounds used.
    Default [max_rounds] is 10_000; exceeding it returns [Error]. *)

val messages_sent : t -> int
(** Transport-level counter since creation. *)

val messages_dropped : t -> int
(** Messages addressed to peers this system does not know. *)

val transport_errors : t -> int
(** Exceptions that escaped the transport during send or drain and
    were swallowed by the round loop (the message or inbox read is
    abandoned; well-behaved transports park and retry internally
    instead, so this stays 0). *)
