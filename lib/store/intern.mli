(** A value intern pool: a bijection between {!Wdl_syntax.Value.t} and
    dense small ints, shared by every relation of one database.

    {b Pool invariant.} The pool holds only values some relation
    stored: {!intern} is called on the insert paths alone, and every
    read, probe or membership test resolves through the read-only
    {!find}. A value the pool does not hold is therefore in no relation
    sharing it, so a probe for it answers "no match" without looking.
    An evaluation that binds values the pool may lack (constants,
    computed values, relation names) gives them run-scoped
    {!type-scratch} ids instead, which never touch the pool.

    Interning turns tuple storage and comparison into flat int-array
    work: two interned values are equal iff their ids are equal, a row
    hash is a few integer multiplies, and an index key is an [int
    array] projection — no boxed traversal on any hot path.

    The pool is append-only: ids are never reused, so a pool may be
    shared freely across relations and per-iteration delta relations
    (sharing is what makes cross-relation joins pure int comparisons).
    A database copy gets its own {!copy}, so work on the copy never
    grows the original's pool. A pool lives as long as its database;
    dropping every relation drops the pool with it. *)

type t

val create : unit -> t

val intern : t -> Wdl_syntax.Value.t -> int
(** Get the id for a value, assigning the next dense id on first
    sight. O(1) amortised. [-0.] and [0.] share one id, which decodes
    to [0.]. *)

val find : t -> Wdl_syntax.Value.t -> int option
(** The id if the value was ever interned — never grows the pool. A
    [None] answer proves the value is absent from {e every} relation
    sharing this pool (negative probes stay allocation-free). *)

val find_all : t -> Wdl_syntax.Value.t array -> int array option
(** {!find} on each value: the ids in order, or [None] when some value
    was never interned (so no tuple holding it is stored). How a caller
    holding values builds a {!Relation.lookup_key} key. *)

val value : t -> int -> Wdl_syntax.Value.t
(** Inverse mapping. Raises [Invalid_argument] on an id never handed
    out. *)

val copy : t -> t
(** An independent pool with the same ids: interning into the copy
    never grows the original. *)

val size : t -> int
(** Distinct values interned so far. *)

val memory_bytes : t -> int
(** Approximate heap footprint: forward table, reverse array, and the
    pooled values themselves (strings dominate). *)

(** {1 Run-scoped scratch ids}

    One evaluation's view of the pool. Pool ids ([>= 0]) keep their
    meaning; a value foreign to the pool gets a {e scratch id}
    ([<= -2]) from a table private to this [scratch]. [-1] is never an
    id: callers use it as an
    "unbound" sentinel. Within one [scratch], equal values get equal
    ids as long as the pool does not grow in between; when it does
    (a run stores a value it first saw as foreign), {!canon} maps the
    old scratch id to the new pool id. *)

type scratch

val scratch : t -> scratch
(** A fresh, empty scratch table over the pool. *)

val serial : scratch -> int
(** Distinct for every {!val-scratch} ever created in this process:
    keys caches of ids that are valid for one run only. *)

val encode : scratch -> Wdl_syntax.Value.t -> int
(** The value's pool id, or its scratch id. Never grows the pool. *)

val decode : scratch -> int -> Wdl_syntax.Value.t
(** Inverse of {!encode}, for pool ids and this table's scratch ids. *)

val canon : scratch -> int -> int
(** A pool id (and [-1]) unchanged; a scratch id mapped to the value's
    pool id if the pool holds the value by now, else unchanged. A
    result below [-1] is a value no relation over the pool stores. *)

val settle : scratch -> int -> int
(** The pool id of the value [id] denotes, interning it if needed. For
    insert paths only: the value is about to be stored. *)
