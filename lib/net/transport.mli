(** Transports: how peer-to-peer messages travel.

    A transport is a first-class record, generic in the payload type;
    the WebdamLog engine instantiates it with its message type. Two
    in-process implementations are provided ({!Inmem}, {!Simnet});
    {!Tcp} carries length-prefixed strings across real sockets.

    Delivery is per-link FIFO in {!Inmem}; {!Simnet} can delay and
    reorder across links, which is what a real WAN does to autonomous
    peers (§4 runs peers on two laptops and a cloud host). *)

type 'a t = {
  send : src:string -> dst:string -> 'a -> unit;
  send_many : dst:string -> (string * 'a) list -> unit;
      (** Deliver every [(src, payload)] of one round destined to one
          peer as a single wire unit (one envelope / one connection
          write), preserving list order. Semantically equivalent to
          [send]-ing each element; transports exploit the coalescing
          for throughput ({!Tcp} persistent connections, one {!Simnet}
          latency draw, batched {!Reliable} retransmits). *)
  drain : string -> 'a list;
      (** Messages currently deliverable to a peer, oldest first;
          removes them from the transport. *)
  pending : unit -> int;
      (** Messages accepted but not yet drained (in flight + queued). *)
  advance : float -> unit;
      (** Advances simulated time (no-op for non-simulated transports). *)
  now : unit -> float;
  stats : unit -> Netstats.t;
}

val send : 'a t -> src:string -> dst:string -> 'a -> unit
val send_many : 'a t -> dst:string -> (string * 'a) list -> unit
val drain : 'a t -> string -> 'a list
