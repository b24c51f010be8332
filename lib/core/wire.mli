(** Wire codec: {!Message} values as self-describing text frames.

    A frame is itself a parseable WebdamLog program: a [header@wire]
    fact carrying source, destination, stage and section counts,
    followed by the fact batch and the delegation install/retract
    rules in order. Re-using the language's own reader/printer keeps
    the codec total on every message the engine can produce.

    {!transport} lifts any byte transport (typically
    {!Wdl_net.Tcp}) into a {!Message} transport. *)

val encode : Message.t -> string
val decode : string -> (Message.t, string) result

(** {1 Batch frames}

    Everything queued for one destination in a round can ride as one
    frame: a [batch@wire(version, count)] fact followed by [count]
    ordinary message sections. The version tag keeps the format
    evolvable; a singleton batch is emitted as a plain single-message
    frame, and {!unbatch} accepts both shapes — so old and new
    processes interoperate in either direction. *)

val batch : Message.t list -> string

val unbatch : string -> (Message.t list, string) result
(** Inverse of {!batch}; a bare single-message frame (the pre-batching
    format) decodes as a singleton list. *)

val transport : string Wdl_net.Transport.t -> Message.t Wdl_net.Transport.t
(** Frames that fail to decode are dropped (counted nowhere: a
    malformed frame from the outside world must not kill the peer).
    [send_many] coalesces the batch into one {!batch} frame — one byte
    send, one wire unit. *)

(** {1 Reliable-session envelopes}

    {!Wdl_net.Reliable} stamps messages with incarnation, sequence and
    ack metadata; these frames carry it as one extra [envelope@wire]
    fact line ahead of the normal message frame (absent for a pure
    ack), keeping the whole envelope parseable WebdamLog text. The
    incarnation field appears only once a link has been forgotten, so
    a first session's header keeps the four fields older decoders
    read; both forms decode. *)

val encode_envelope : Message.t Wdl_net.Reliable.envelope -> string
val decode_envelope : string -> (Message.t Wdl_net.Reliable.envelope, string) result

val envelope_transport :
  string Wdl_net.Transport.t ->
  Message.t Wdl_net.Reliable.envelope Wdl_net.Transport.t
(** Lifts a byte transport (typically {!Wdl_net.Tcp}) to envelope
    frames, ready for {!Wdl_net.Reliable.wrap}:
    [Reliable.wrap (Wire.envelope_transport tcp)] is an exactly-once
    [Message.t] transport over real sockets. Undecodable frames are
    dropped. *)
