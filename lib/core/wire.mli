(** Wire codec: {!Message} values as self-describing text frames.

    A frame is itself a parseable WebdamLog program, one statement per
    line. Re-using the language's own reader keeps the codec total on
    every message the engine can produce; facts are written by
    {!Wdl_syntax.Fact.add_to_buffer}, rules by the rule printer.

    {v
    frame    ::= batch@wire(n);  section x n
    section  ::= header@wire(src, dst, stage, nf, ni, nr, nfo, nio);
                 origins@wire(id, ...);     only when nfo + nio > 0
                 fact x nf                  nf = -1: no fact batch
                 rule x ni  rule x nr       installs, then retracts
    envelope ::= envelope@wire(src, inc, seq, ack, has);  section if has
    v}

    The count [n] detects a frame cut between two sections. *)

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
    [wdl_net_undecodable_frames_total{transport="wire"}]. *)

(** {1 Reliable-session envelopes}

    {!Wdl_net.Reliable} stamps messages with incarnation, sequence and
    ack metadata; these frames carry it as one [envelope@wire] fact
    line ahead of the message section (absent for a pure ack), keeping
    the whole envelope parseable WebdamLog text. *)

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
    [wdl_net_undecodable_frames_total{transport="envelope"}]. *)
