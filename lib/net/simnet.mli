(** Discrete-event simulated network.

    Each message is stamped with a delivery time [now + latency] where
    latency is [base_latency ± jitter] for the link, drawn from a
    deterministic seeded generator; it becomes deliverable once the
    clock passes the stamp. With per-link jitter, messages from
    different sources interleave and reorder exactly as on the paper's
    LAN-plus-cloud topology (Fig. 2). Jitter above half the time
    between two sends on a link reorders that link too, which the
    engine's diff protocol does not tolerate: run such schedules under
    {!Reliable}, which restores per-link FIFO.

    [latency] overrides the per-link base latency; reflexive links
    (src = dst) are always instantaneous.

    Fault injection (all deterministic under the seed): [duplicate]
    delivers extra copies, [loss] silently drops copies, {!partition}
    holds a link, and {!crash} takes a whole peer down — the failure
    menu the {!Reliable} session layer is built to absorb. *)

type control

val create :
  ?sizer:('a -> int) ->
  ?seed:int ->
  ?base_latency:float ->
  ?jitter:float ->
  ?duplicate:float ->
  ?loss:float ->
  ?latency:(src:string -> dst:string -> float) ->
  unit ->
  'a Transport.t
(** Defaults: [seed = 42], [base_latency = 1.0], [jitter = 0.25],
    [duplicate = 0.0], [loss = 0.0]. [duplicate] is the probability
    that a message is delivered twice (with independent latencies) —
    at-least-once delivery, the failure mode the engine's idempotent
    batch/install semantics must absorb. [loss] is the independent
    probability that each enqueued copy (original or duplicate)
    vanishes — at-most-once delivery, which only a retransmitting
    layer above ({!Reliable}) can hide. *)

val create_with_control :
  ?sizer:('a -> int) ->
  ?seed:int ->
  ?base_latency:float ->
  ?jitter:float ->
  ?duplicate:float ->
  ?loss:float ->
  ?latency:(src:string -> dst:string -> float) ->
  unit ->
  'a Transport.t * control
(** Like {!create}, plus a handle for injecting partitions and
    crashes. *)

val partition : control -> between:string -> and_:string -> unit
(** Cuts both directions of the link: messages sent while the link is
    down are held (a disconnected laptop's TCP retries, not losses)
    and released when {!heal} is called. *)

val heal : control -> between:string -> and_:string -> unit
val partitioned : control -> between:string -> and_:string -> bool

val crash : control -> string -> unit
(** Takes a peer down: its undelivered inbox is lost, and until
    {!restart} every message to or from it is dropped (a dead process
    loses its kernel buffers; connections to it are refused). *)

val restart : control -> string -> unit
val crashed : control -> string -> bool

val messages_lost : control -> int
(** Copies dropped so far by loss injection and crashes. *)
