(** Parsed statements with their source {!Span}s attached.

    The plain AST ({!Program}, {!Rule}, {!Atom}, …) stays span-free —
    it circulates through evaluation, wire messages and snapshots where
    positions are meaningless — so the parser produces this parallel
    located form instead, and {!strip} recovers the plain program. *)

type 'a loc = { node : 'a; span : Span.t }

type rule = {
  rule : Rule.t;
  span : Span.t;          (** the whole statement *)
  head_span : Span.t;     (** the head atom *)
  lit_spans : Span.t list;(** one span per body literal, in order *)
}

type statement =
  | Decl of Decl.t loc
  | Fact of Fact.t loc
  | Rule of rule

type program = statement list

val strip : program -> Program.t

val lit_span : rule -> int -> Span.t
(** Span of body literal [i]; falls back to the rule's span when the
    index is out of range (e.g. on a rewritten rule). *)
