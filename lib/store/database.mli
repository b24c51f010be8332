(** A peer-local database: the relations owned by one peer, keyed by
    relation name.

    Relations carry their {!Wdl_syntax.Decl.kind}: extensional
    relations persist across stages and receive updates; intensional
    relations are views recomputed at every stage. Receiving a fact for
    an unknown relation creates it (extensional, arity taken from the
    fact) — this is the paper's run-time discovery of new relations. *)

open Wdl_syntax

type info = {
  name : string;
  kind : Decl.kind;
  arity : int;
  cols : string list;  (** may be empty for auto-created relations *)
  data : Relation.t;
}

type t

type error =
  | Arity_mismatch of { rel : string; expected : int; got : int }
  | Kind_mismatch of { rel : string; declared : Decl.kind }

val pp_error : Format.formatter -> error -> unit

val create : unit -> t

val pool : t -> Intern.t
(** The intern pool shared by every relation of this database (and by
    per-run delta relations). *)

val interned_count : t -> int
(** Distinct values interned by this database's pool. *)

val memory_bytes : t -> int
(** Approximate heap footprint: every relation's storage plus the
    shared pool. Feeds the [wdl_store_memory_bytes] gauge. *)

val declare : t -> Decl.t -> (info, error) result
(** Idempotent when the declaration matches the existing one. *)

val ensure : t -> rel:string -> arity:int -> (info, error) result
(** Finds the relation, auto-creating it as extensional if unknown. *)

val find : t -> string -> info option
val kind : t -> string -> Decl.kind option

val is_intensional : t -> string -> bool
(** [false] for an unknown name: unknown relations auto-create
    extensional. *)

val insert : t -> rel:string -> Tuple.t -> (bool, error) result
(** Auto-creates unknown relations. [Ok true] iff the tuple is new. *)

val delete : t -> rel:string -> Tuple.t -> (bool, error) result

val mem : t -> rel:string -> Tuple.t -> bool
(** Whether the tuple is currently stored (false for unknown relations
    and arity mismatches). *)

val relations : t -> info list
(** All relations, sorted by name — the range of relation variables. *)

val fold : (info -> 'a -> 'a) -> t -> 'a -> 'a
val clear_intensional : t -> unit
(** Empties every intensional relation (start of a stage). *)

val take_scratch : t -> rel:string -> arity:int -> Relation.t
(** An empty relation over {!pool}, without indexes: storage for an
    evaluation's delta of [rel]. It reuses a relation given back with
    {!give_scratch} when there is one, so repeated evaluations stop
    reallocating (and regrowing) their deltas. *)

val give_scratch : t -> rel:string -> Relation.t -> unit
(** Clear a relation {!take_scratch} handed out and keep its storage for
    the next call. The database holds it until then. *)

val copy : t -> t
(** Deep copy: relations, kinds, contents and the intern pool (same
    ids, {!Intern.copy}); no scratch storage. Used to evaluate ad-hoc queries without
    touching live state, pool included. *)

val pp : peer:string -> Format.formatter -> t -> unit
(** Dump as re-parseable facts, sorted. *)
