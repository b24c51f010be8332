(** A relation instance: a set of same-arity tuples stored columnar
    over an intern pool.

    Internally every tuple is a flat run of interned ids in one [int
    array] (plus the caller's boxed tuple for zero-cost hand-back), so
    dedup, index keys and bound scans are pure int work. Binding
    pattern indexes on positions [{i1 < … < ik}] map the interned
    projection to the matching slots:

    - {!lookup_key} (the compiled-plan path) builds indexes eagerly
      and {e pin} them — the planner asked, so reuse is certain;
    - {!lookup} (the ad-hoc path) builds an index only from the second
      probe of a signature on — one-off probes scan;
    - at most a fixed number of indexes live per relation; crossing the
      cap evicts the least-used unpinned one (both counted by
      [wdl_store_index_builds_total] / [wdl_store_index_evictions_total]).

    [~indexing:false] disables index creation (used for one-iteration
    delta relations). *)

type t

val create : ?pool:Intern.t -> ?indexing:bool -> arity:int -> unit -> t
(** [pool] (default: a private fresh pool) is the intern table backing
    this relation; relations of one database share one pool so joins
    compare ids, not values. *)

val arity : t -> int
val pool : t -> Intern.t
val cardinal : t -> int
val is_empty : t -> bool

val insert : t -> Tuple.t -> bool
(** [true] iff the tuple was not already present. Each value costs
    exactly one pool probe (find-or-add); dedup compares interned
    rows. Raises [Invalid_argument] on arity mismatch. *)

val reserve : t -> int -> unit
(** [reserve r extra] pre-sizes slot storage and the dedup table for
    [extra] further inserts, so a batch load pays one growth instead
    of O(log n) doubling rehashes. *)

val delete : t -> Tuple.t -> bool
(** [true] iff the tuple was present. Never grows the pool. *)

val mem : t -> Tuple.t -> bool
val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list
(** In unspecified order. *)

val to_sorted_list : t -> Tuple.t list

val lookup : t -> (int * Wdl_syntax.Value.t) list -> (Tuple.t -> unit) -> unit
(** [lookup rel bound f] calls [f] on every tuple agreeing with the
    [(position, value)] constraints. [bound] may be empty (full
    scan). Ad-hoc path: indexes materialise only for repeated
    signatures. *)

val lookup_key :
  t -> int array -> Wdl_syntax.Value.t array -> (Tuple.t -> unit) -> unit
(** [lookup_key rel positions key f]: the compiled-plan fast path.
    [positions] must be sorted ascending and [key] aligned with it.
    Builds (and pins) the index for [positions] once the relation
    crosses the index threshold. A key value foreign to the pool
    answers instantly: nothing can match. *)

val clear : t -> unit
val copy : t -> t
(** Deep copy sharing the pool. Indexes are copied, not dropped — a
    snapshot answers its first lookup at full speed. *)

val index_count : t -> int
(** Number of materialised indexes (observability for tests/bench). *)

val index_uses : t -> (int list * int) list
(** [(positions, use count)] per index. *)

val memory_bytes : t -> int
(** Approximate heap footprint of rows, dedup table, boxed spines and
    index structures (pool excluded — it is shared). *)

val builds_total : int ref
(** Process-wide index builds (mirrors [wdl_store_index_builds_total]). *)

val evictions_total : int ref
