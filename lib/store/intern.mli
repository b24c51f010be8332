(** A value intern pool: a bijection between {!Wdl_syntax.Value.t} and
    dense small ints, shared by every relation of one database.

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
