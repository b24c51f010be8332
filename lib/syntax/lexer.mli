(** Hand-written lexer for WebdamLog concrete syntax.

    Identifiers may contain non-ASCII bytes (the paper's peers are
    named [Émilien]); comments are [// …], [# …] and [/* … */]. *)

type token =
  | IDENT of string       (** bare name: relation, peer, or symbol *)
  | VAR of string         (** [$x], payload without the [$] *)
  | INT of int            (** [max_int + 1], alone or after a unary
                              minus, is [INT min_int] *)
  | FLOAT of float
  | STRING of string      (** unescaped payload *)
  | BOOL of bool
  | KW_EXT                (** [ext] *)
  | KW_INT                (** [int] *)
  | KW_NOT                (** [not] *)
  | LPAREN | RPAREN | COMMA | AT | SEMI
  | COLONDASH             (** [:-] *)
  | ASSIGN                (** [:=] *)
  | EQ2 | NEQ | LT | LE | GT | GE
  | PLUS | MINUS | STAR | SLASH
  | EOF

type pos = { line : int; col : int }

exception Error of string * pos

type state
(** Incremental lexing state over one source string. *)

val init : string -> state

val next_token : state -> token * pos
(** Raises {!Error} on malformed input; returns [EOF] (repeatedly) at
    the end of input. The parser pulls tokens on demand instead of
    materialising a list: on large inputs (batch frames, journals) a
    full token list outlives minor GC cycles and the whole of it gets
    promoted, which made parsing superlinear in input size. *)

val next_token_sp : state -> token * pos * pos
(** Like {!next_token} but additionally returns the position just past
    the token — the raw material for source {!Span}s. *)

val tokenize : string -> (token * pos) list
(** Raises {!Error} on malformed input; the resulting list always ends
    with [EOF]. Convenience for tests — parsing goes through
    {!next_token}. *)

val pp_token : Format.formatter -> token -> unit
