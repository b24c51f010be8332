(** Ground data values carried in WebdamLog facts.

    Peer and relation names are ordinary [String] values: when a data
    variable bound to ["Émilien"] is used in peer position (the paper's
    [pictures@$attendee]), the string is interpreted as a peer name. *)

type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the value in re-parseable concrete syntax: strings quoted
    and escaped, floats in their shortest exact decimal form (always
    with a [.] or an exponent, the infinities as [1e999] and [-1e999]).
    NaN has no literal; it is kept out of relations and expressions. *)

val pp : Format.formatter -> t -> unit
(** {!add_to_buffer}'s rendering, as one unbreakable token. *)

val to_string : t -> string

val as_name : t -> string option
(** [as_name v] is the peer/relation name denoted by [v], if any.
    Only non-empty strings denote names. *)

val type_name : t -> string
(** "int", "float", "string" or "bool" — used in error messages. *)
