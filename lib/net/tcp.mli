(** TCP transport: frames of bytes between processes over real sockets
    (the paper's deployment runs peers on two laptops and a cloud
    host; this transport is what {!Inmem}/{!Simnet} simulate).

    One {!create} per process: it listens on a local port and serves
    every peer hosted by the process. Remote peers are located through
    {!register}. A connection to each registered endpoint is opened
    once and reused for every subsequent frame —
    no connect-per-send, no shutdown-per-frame — and a [send_many]
    batch rides the wire as one write. Outbound connections set
    [TCP_NODELAY]: the engine never batches across rounds (DESIGN.md
    S26), so a frame must leave when it is written rather than wait
    for the ACK of the connection's previous frame (Nagle's
    algorithm). [drain] never blocks: it accepts pending connections
    and reads whatever bytes each open connection has ready into
    per-connection buffers, so a stalled writer delays only its own
    frames (no head-of-line blocking). An endpoint owns one read
    buffer, allocated by {!create} and reused by every read, so a
    drain that finds nothing allocates no buffer.

    Failure handling: a connect or write that fails (ECONNREFUSED,
    EHOSTUNREACH, timeout) never escapes as an exception — the send is
    counted in [Netstats.send_failures] and parked in a
    deadline-ordered heap for retry with exponential backoff,
    re-attempted on every [drain]/[pending] until it succeeds (counted
    as a retransmit) or [max_retries] is exhausted, at which point it
    is dropped and counted in {!dead_letters}. A destination that is
    neither registered nor known to live in this process (it has never
    drained here) parks the same way rather than silently accumulating
    in a queue nobody reads. Connects are bounded by
    [connect_timeout]; a sender silent mid-frame for longer than
    [read_timeout] loses the partial frame and its connection.
    At-least/at-most-once gaps left by this best-effort discipline are
    what {!Reliable} (over {!Webdamlog.Wire.envelope_transport})
    closes.

    The [wdl_net_pending] gauge reads the queue lengths and the parked
    count without pumping: a metrics scrape never accepts, reads or
    retries a send.

    The payload is an opaque string — the engine's message codec is
    {!Webdamlog.Wire}. *)

type endpoint = { host : string; port : int }

type control

val create :
  ?sizer:(string -> int) ->
  ?port:int ->
  ?connect_timeout:float ->
  ?read_timeout:float ->
  ?retry_delay:float ->
  ?max_retries:int ->
  unit ->
  string Transport.t * control
(** Listens on [127.0.0.1:port] (default [0]: ephemeral). Defaults:
    [connect_timeout = 5.0] s,
    [read_timeout = 5.0] s, [retry_delay = 0.05] s (doubling per
    attempt, capped), [max_retries = 24]. *)

val port : control -> int

val register : control -> peer:string -> endpoint -> unit
(** Where to connect for [peer]. A peer served by this same process
    needs no registration: frames to it short-circuit locally once it
    has drained (before its first drain they sit parked, flushed the
    moment it does). *)

val parked_sends : control -> int
(** Sends currently awaiting a backoff retry. *)

val dead_letters : control -> int
(** Parked sends dropped after [max_retries] — misrouted or
    permanently unreachable destinations. *)

val conns_opened : control -> int
(** Outbound connections opened since [create]. *)

val conns_reused : control -> int
(** Sends that rode an already-open connection. *)

val close : control -> unit
