(** Inter-peer messages: the third step of a peer's stage sends facts
    (updates) and rules (delegations) to other peers (§2).

    One message per (source, destination, stage) carries:

    - [facts]: the {e complete} batch of facts currently derived by the
      source for the destination, or [None] when the batch is unchanged
      since the last one sent (the destination then keeps its cached
      copy). The destination persists facts aimed at its extensional
      relations and treats facts aimed at intensional relations as
      valid only while the source keeps them in its batch — the PODS'11
      "one stage at the receiver" semantics made quiescence-friendly.
    - [installs]/[retracts]: the delegation diff — residual rules that
      appeared/disappeared at the source since its previous stage.
    - [fact_origins]/[install_origins]: diagnostic metadata — ids of
      the source's rules whose evaluation produced the fact batch
      (resp. one id per install, index-aligned). They feed the
      knowledge-flow oracle ({!Wdl_analysis.Flow}) and cost two zero
      count bytes on the wire when empty. *)

open Wdl_syntax

type t = {
  src : string;
  dst : string;
  stage : int;  (** source's stage counter when emitted *)
  facts : Fact.t list option;
  installs : Rule.t list;
  retracts : Rule.t list;
  fact_origins : string list;
      (** sorted ids of rules contributing to [facts] *)
  install_origins : string list;
      (** index-aligned with [installs]; [[]] when unknown *)
}

val make :
  src:string ->
  dst:string ->
  stage:int ->
  ?facts:Fact.t list option ->
  ?installs:Rule.t list ->
  ?retracts:Rule.t list ->
  ?fact_origins:string list ->
  ?install_origins:string list ->
  unit ->
  t

val is_empty : t -> bool

val size : t -> int
(** The size in bytes of the message's text rendering — one-line
    facts and rules plus a small fixed header overhead — which the
    in-process transports ({!Wdl_net.Inmem}, {!Wdl_net.Simnet}) count
    as its size. It is not the binary frame's size ([Wire] frames are
    measured by their byte length). Origin metadata is deliberately
    excluded — it is diagnostic and must not perturb backpressure
    accounting. *)

val pp : Format.formatter -> t -> unit
