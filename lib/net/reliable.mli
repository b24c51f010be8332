(** Reliable session layer: exactly-once, per-link-FIFO delivery over
    any lossy, duplicating, reordering or partitioned transport.

    WebdamLog's semantics make remote head derivations asynchronous
    messages between autonomous peers (§4); the engine above assumes
    they eventually arrive, once, in the order each link sent them.
    {!wrap} upgrades a best-effort ['a envelope Transport.t] to that
    contract:

    - every data message carries a per-(src,dst) {e sequence number};
    - the receiver dedups against its cumulative delivery counter and
      an out-of-order buffer, restoring per-link FIFO;
    - {e cumulative acks} ride on every data frame and on a pure-ack
      frame emitted by [drain] when something new (or a duplicate —
      evidence of a lost ack) landed;
    - unacked messages are retransmitted on [advance] with exponential
      backoff and jitter, driven by the transport clock;
    - after [max_attempts] expiries of one message the whole link is
      {e given up}: its window is dropped (so the system can quiesce)
      and the dead peer is surfaced through {!on_dead}/{!dead_links}.

    The wrapper's [pending] includes unacked messages, so
    [System.quiescent] only holds once every message is acknowledged —
    convergence really is convergence. Counters land in the wrapper's
    own {!Netstats} ([retransmits], [dup_dropped], [acked],
    [send_failures] for given-up windows). *)

type 'a envelope = {
  env_src : string;  (** sending peer — [drain] hides it, so it rides inside *)
  env_inc : int;
      (** the link's incarnation when the envelope was built: bumped by
          each {!forget} of either endpoint. [drain] drops an envelope
          from an older incarnation, and follows a newer one (the other
          end's control forgot the link): it drops what it received on
          the link and renumbers its unacked sends from 1 *)
  env_seq : int;  (** 1-based per-(src,dst) sequence; 0 for a pure ack *)
  env_ack : int;
      (** cumulative: highest contiguous seq the sender has delivered
          on the reverse link *)
  env_payload : 'a option;  (** [None] for a pure ack *)
}

type config = {
  rto : float;  (** initial retransmission timeout, in clock units *)
  backoff : float;  (** multiplier applied per expiry *)
  max_rto : float;  (** backoff ceiling *)
  rto_jitter : float;
      (** each deadline is scattered by [±rto_jitter] (fraction) to
          de-synchronise retransmission bursts *)
  max_attempts : int;
      (** give-up threshold: attempts per message before the link is
          declared dead *)
  max_window : int;
      (** per-link send-window bound (block-sender backpressure): once
          this many messages are in flight unacked, further sends are
          parked in an overflow queue and promoted in order as acks
          free slots.  Parked messages count as [pending]; the
          [wdl_net_window_stalls_total] counter tracks parks. *)
  max_held : int;
      (** receiver reorder-buffer bound: a frame arriving more than
          this far beyond the contiguous frontier is dropped
          ([wdl_net_reorder_dropped_total]) and recovered by the
          sender's retransmission once the gap closes *)
}

val default_config : config
(** [rto = 4.0] (four {!Webdamlog.System} rounds), [backoff = 2.0],
    [max_rto = 64.0], [rto_jitter = 0.25], [max_attempts = 30] — long
    enough patience to ride out a multi-hundred-round partition.
    [max_window] and [max_held] default to [max_int]: unbounded, the
    pre-backpressure behaviour. *)

type 'a control

val wrap :
  ?config:config ->
  ?seed:int ->
  'a envelope Transport.t ->
  'a Transport.t * 'a control
(** [wrap inner] returns the upgraded transport plus a handle for
    inspection. The inner transport carries {!envelope}s: use
    {!Wdl_net.Simnet.create}/{!Wdl_net.Inmem.create} directly (they
    are payload-generic), or {!Webdamlog.Wire.envelope_transport} to
    run over {!Tcp} bytes. [seed] (default 11) drives deadline
    jitter deterministically. *)

val unacked : 'a control -> int
(** Messages sent but not yet covered by a cumulative ack. *)

val queued : 'a control -> int
(** Messages parked in overflow queues behind full send windows. *)

val delivered_from : 'a control -> src:string -> dst:string -> int
(** Highest contiguous sequence delivered on a directed link. *)

val dead_links : 'a control -> (string * string) list
(** Directed [(src, dst)] links given up on, oldest first. *)

val on_dead : 'a control -> (src:string -> dst:string -> unit) -> unit
(** Replaces the dead-peer callback. Fired once per link, at the
    [advance] that crossed the give-up threshold. Even without a
    callback a dead link is never silent: the give-up always
    increments [wdl_net_dead_links_total{transport="reliable"}] and
    lands in {!dead_links}; {!Webdamlog.System.wire_reliable}
    additionally routes it into the system's membership view and
    trace. *)

val forget : 'a control -> string -> unit
(** Drops every directed link (send windows, overflow queues, receiver
    dedup/reorder state, dead-link entries) whose source or destination
    is the named peer, and bumps the incarnation of each such link. Call
    when a peer is removed so its name can be reused: a reborn peer
    restarts its sequences at 1, which stale receiver counters would
    otherwise swallow as duplicates, and a stale in-flight ack for an
    old seq would otherwise retire the new session's message of the
    same number. With one control per process (e.g. over {!Tcp}), the
    other end learns the new incarnation from the first envelope it
    receives and follows it; a data envelope from its older one is
    dropped and answered with an ack that carries the new one. *)

val revive : 'a control -> src:string -> dst:string -> unit
(** Clears the given-up state of a link (e.g. after the operator
    restarted the peer); messages sent from then on retransmit
    normally again. The dropped window is gone — re-send at the
    application layer if needed. *)

val stats : 'a control -> Netstats.t
(** Same counters the wrapped transport's [stats] returns. *)
