(** Aggregation specs for rule heads.

    Aggregation is a substrate feature (Bud/Bloom has native
    aggregates; WebdamLog's 2011 core does not), surfaced as head
    syntax: {v rank@p($owner, count($id)) :- pics@p($id, $owner) v}
    A rule with aggregate positions groups its complete valuations by
    the remaining head arguments and emits one fact per group. Like
    negation, aggregation reads its body completely, so such rules are
    stratified below their consumers (see {!Wdl_eval.Stratify}). *)

type op = Count | Sum | Min | Max | Avg

type spec = {
  op : op;
  var : string;  (** the aggregated body variable *)
}

val op_name : op -> string
val op_of_name : string -> op option
val pp : Format.formatter -> spec -> unit

val apply : op -> Value.t list -> (Value.t, string) result
(** Aggregates a non-empty multiset. [Count] accepts any values;
    [Sum]/[Min]/[Max] need numbers (mixing int and float promotes to
    float); [Avg] is always a float. The [Error] carries a
    human-readable reason. The result does not depend on the list's
    order: values are combined in {!Value.compare} order, so float sums
    round the same way and a [Min]/[Max] tie between [1] and [1.]
    resolves the same way however an evaluator enumerated the group. *)
