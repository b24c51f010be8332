(** Wire codec: {!Message} values as compact binary frames.

    A frame opens with a version byte and a kind byte, then a string
    table holding every name, string value and origin label the frame
    mentions, once each; everything after it refers to strings by their
    table index. Counts and table indices are unsigned LEB128 varints,
    ints (stage, incarnation, sequence numbers, values) are zigzag
    varints, and a float is its 8 IEEE bytes, little-endian.

    {v
    frame    ::= version=1  kind  table  body
    table    ::= n  (len bytes) x n
    body     ::= n  section x n                     kind 0: batch
               | src inc seq ack  (0 | 1 section)   kind 1: envelope
    section  ::= src dst stage nf ni nr nfo nio
                 origin x (nfo + nio)  fact x (nf - 1)
                 rule x ni  rule x nr               installs, then retracts
    fact     ::= rel peer n  value x n
    value    ::= 0 int | 1 float | 2 string | 3 (false) | 4 (true)
    rule     ::= atom  n literal x n  n (pos op var) x n   aggregates
    atom     ::= term term  n term x n              relation, peer, args
    term     ::= value | 5 var
    literal  ::= 0 atom | 1 atom | 2 cmp expr expr | 3 var expr
    expr     ::= value | 5 var | (6 | 7 | 8 | 9) expr expr   + - * /
    v}

    [src], [dst], [rel], [peer], [origin], [var], [op] and a string
    value are table indices. [nf] is 0 when the message carries no fact
    batch ([facts = None]) and k + 1 for a batch of k facts. An
    aggregate's [op] is its name ([count], [sum], ...); [cmp] indexes
    [=, !=, <, <=, >, >=]. Rules travel as trees, so no frame is ever
    parsed as WebdamLog text.

    Decoding is total and bounded: every count and length is checked
    against the bytes left before anything is allocated for it, so a
    corrupt frame cannot claim more items than it has bytes. A wrong
    version or kind, an unknown tag, a string index out of range, an
    empty relation or peer name in a fact, a NaN, a truncated frame and
    trailing bytes are all [Error]s. *)

val batch : Message.t list -> string
(** Everything queued for one destination in a round, as one frame
    (a single message is a frame of one section). *)

val unbatch : string -> (Message.t list, string) result
(** Inverse of {!batch}. Total: any input gives [Ok] or [Error]. *)

val transport : string Wdl_net.Transport.t -> Message.t Wdl_net.Transport.t
(** Lifts a byte transport (typically {!Wdl_net.Tcp}) into a
    {!Message} transport. [send_many] coalesces the batch into one
    {!batch} frame — one byte send, one wire unit. Frames that fail
    to decode are dropped (a malformed frame from the outside world
    must not kill the peer) and counted in
    [wdl_net_undecodable_frames_total{transport="wire"}]. Encoding and
    decoding times land in [wdl_wire_encode_microseconds] and
    [wdl_wire_decode_microseconds], labelled [transport="wire"]. *)

(** {1 Reliable-session envelopes}

    {!Wdl_net.Reliable} stamps messages with incarnation, sequence and
    ack metadata; an envelope frame carries it as its header, followed
    by the message section (absent for a pure ack). *)

val encode_envelope : Message.t Wdl_net.Reliable.envelope -> string

val decode_envelope : string -> (Message.t Wdl_net.Reliable.envelope, string) result
(** Total, like {!unbatch}. *)

val envelope_transport :
  string Wdl_net.Transport.t ->
  Message.t Wdl_net.Reliable.envelope Wdl_net.Transport.t
(** Lifts a byte transport (typically {!Wdl_net.Tcp}) to envelope
    frames, ready for {!Wdl_net.Reliable.wrap}:
    [Reliable.wrap (Wire.envelope_transport tcp)] is an exactly-once
    [Message.t] transport over real sockets. Undecodable frames are
    dropped and counted in
    [wdl_net_undecodable_frames_total{transport="envelope"}]; codec
    times are labelled [transport="envelope"]. *)
