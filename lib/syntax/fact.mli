(** Ground facts: [rel@peer(v1, …, vn)]. *)

type t = private {
  rel : string;
  peer : string;
  args : Value.t list;
}

val make : rel:string -> peer:string -> Value.t list -> t
(** Raises [Invalid_argument] if [rel] or [peer] is empty. *)

val arity : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the one-line rendering of {!pp} (no line breaks at any
    width): the one writer behind journal lines, snapshots and
    [Message.size]. Wire frames are binary ([Webdamlog.Wire]) and do
    not use it. A QCheck property pins it to [Pp_util.one_line pp]. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh string. *)

val pp_bare_name : Format.formatter -> string -> unit
(** Prints a relation/peer name bare when identifier-like, quoted
    otherwise. *)
