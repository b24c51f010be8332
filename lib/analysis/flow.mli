(** Whole-system knowledge-flow analysis.

    Builds a cross-peer dataflow graph whose nodes are [relation@peer]
    and whose edges come from rule body→head flow, with delegation
    hops (residual rules shipped at an evaluation boundary) recorded
    on each edge. Peers bound only by a peer {e variable} are
    abstracted as the ⊤ peer [Any]; transitive reachability over the
    graph answers "which peers may learn facts derived from relation
    X, and via which rule chain". The abstraction over-approximates
    the runtime delegation semantics — checked by the QCheck
    differential in [test_flow.ml] against live [Peer] origin tags. *)

open Wdl_syntax

type peer = Named of string | Any

type node = { n_rel : string option; n_peer : peer }
(** [n_rel = None] abstracts a relation-variable head. *)

type edge = {
  e_src : node;
  e_dst : node;
  e_via : peer list;  (** delegation hop targets the bindings ship through *)
  e_rule : string;  (** id of the rule inducing this edge *)
}

type rule_info = {
  r_id : string;  (** ["self#k"], [k] 1-based in program order *)
  r_self : string;
  r_file : string option;
  r_rule : Rule.t;
  r_span : Span.t option;
  r_hops : (int * peer) list;
      (** body index at which evaluation hops to a new peer *)
  r_head : node;
  r_invents : bool;  (** head relation or peer is a variable *)
}

type t = { edges : edge list; rules : rule_info list; selves : string list }

type source = {
  src_self : string;
  src_file : string option;
  src_rules : (Rule.t * Span.t option) list;
}

val build : source list -> t
(** One source per program file; rule ids are assigned ["self#k"] in
    order, matching the ids a live [Peer] assigns at install time. *)

val of_labeled : self:string -> (string * Rule.t) list -> t
(** Rules with caller-chosen ids, all executing at [self] — how a live
    [Peer] exposes its program (own rules plus installed delegations,
    which keep the id of the origin rule that shipped them). *)

val rule_info : t -> string -> rule_info option

type reach = {
  start : node;
  reached : (node * edge list) list;
      (** each reached node with a witness rule path (BFS order;
          excludes the start itself) *)
  via_peers : (peer * edge list) list;
      (** delegation-hop targets encountered, with witness *)
}

val reachable : t -> node -> reach

val reach_peers : reach -> string list * bool
(** Sorted named peers that may learn the data, and whether the ⊤ peer
    (an unbounded, run-time-determined set) is among them. *)

val witness : reach -> peer:peer -> edge list option

val rule_sends : t -> string -> string list * bool
(** Peers a single rule's execution may deliver messages to: head peer
    plus all delegation-hop targets. [(named, any)]. The runtime
    oracle checks every observed [(origin_rule, dst_peer)] delivery
    against this set. *)

val relations : t -> (string * string) list
(** Concrete [relation, peer] nodes mentioned in the graph, sorted. *)

val node_of_atom : Atom.t -> node
val node_matches : node -> node -> bool
val node_name : node -> string
val peer_name : peer -> string
val path_ids : edge list -> string list

val render_text : t -> string
val render_json : t -> string
val render_dot : t -> string
