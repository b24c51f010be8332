(** Recursive-descent parser for WebdamLog concrete syntax.

    {v
    // declarations
    ext pictures@Jules(id, name, owner, data);
    int attendeePictures@Jules(id, name, owner, data);

    // a fact
    pictures@sigmod(32, "sea.jpg", "Émilien", "100...");

    // a rule with a peer variable (delegation happens at evaluation)
    attendeePictures@Jules($id, $name, $owner, $data) :-
      selectedAttendee@Jules($attendee),
      pictures@$attendee($id, $name, $owner, $data);
    v}

    Statements are separated by [;] (optional before end of input).
    Builtin literals: [not a@p(…)], [$x := expr], [e1 < e2] (also
    [<=], [>], [>=], [==]/[=], [!=]).

    Builtin relation modules are declared with a contextual keyword —
    [builtin window recent@p(item) with size=8] — parsed only when the
    token after [builtin] is not [@], so relations named [builtin]
    keep working. *)

exception Error of string * Lexer.pos

val parse_program : string -> Program.t
val parse_rule : string -> Rule.t
val parse_fact : string -> Fact.t
val parse_atom : string -> Atom.t
val parse_literal : string -> Literal.t

val program : string -> (Program.t, string) result
val rule : string -> (Rule.t, string) result
val fact : string -> (Fact.t, string) result
(** [Error msg] carries a ["line L, col C: …"] message. *)

val program_located :
  ?file:string -> string -> (Located.program, string * Lexer.pos) result
(** Like {!program}, but every statement keeps the {!Span} of its
    tokens ([file] defaults to ["<string>"]); feed the result to
    [Wdl_analysis] for spanned diagnostics. The error keeps the raw
    message and position so callers can render it as a diagnostic. *)
