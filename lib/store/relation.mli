(** A relation instance: a set of same-arity tuples stored columnar
    over an intern pool.

    Every tuple is kept once, as a flat run of interned ids in one
    [int array] slot, so dedup, index keys and bound scans are pure
    int work. Reads decode through the pool: {!value} reads one column
    of a slot, {!iter}/{!fold}/{!to_list} build whole tuples.

    {!lookup_key} is the one lookup. It takes its key as pool ids and
    serves a binding pattern on positions [{i1 < … < ik}] from an
    index mapping the interned projection to the matching slots, built
    on the pattern's first probe once the relation holds 16 tuples
    (counted by [wdl_store_index_builds_total]) and kept for the
    relation's lifetime. [~indexing:false] disables index creation
    (used for one-iteration delta relations).

    {b Ids.} The [*_ids] entry points, {!lookup_key} and {!id} speak
    the relation's pool ids ({!Intern}): the compiled evaluator binds,
    probes and inserts ids and decodes only at its edges. A caller
    holding values resolves a key through the read-only {!Intern.find}
    on {!pool}; a value it does not find is stored in no relation over
    that pool, so the answer is "no match" without a probe. Only
    {!insert} interns, so the pool holds only values some relation
    stored. *)

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

val insert_ids : t -> int array -> bool
(** {!insert} for a row that is already interned: [ids] holds the
    tuple's pool ids ([>= 0], from {!pool}), one per column. The row is
    copied, so the caller may reuse its buffer. No pool probe, no
    tuple. *)

val reserve : t -> int -> unit
(** [reserve r extra] pre-sizes slot storage and the dedup table for
    [extra] further inserts, so a batch load pays one growth instead
    of O(log n) doubling rehashes. *)

val delete : t -> Tuple.t -> bool
(** [true] iff the tuple was present. Never grows the pool. *)

val mem : t -> Tuple.t -> bool

val mem_ids : t -> int array -> bool
(** {!mem} for a row of pool ids. *)

val id : t -> int -> int -> int
(** [id r slot i] is the pool id in column [i] of the tuple in [slot],
    as handed to a {!lookup_key} callback. Valid until that slot is
    deleted. *)

val value : t -> int -> int -> Wdl_syntax.Value.t
(** [value r slot i] is {!id} decoded through the pool. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list
(** In unspecified order. *)

val to_sorted_list : t -> Tuple.t list
(** In {!Tuple.compare} order. *)

val lookup_key : t -> int array -> int array -> (int -> unit) -> unit
(** [lookup_key rel positions key f] calls [f] on the slot of every
    tuple whose columns [positions] hold the pool ids [key]; read its
    columns with {!id} or {!value}. [positions] must be sorted
    ascending and [key] aligned with it; empty [positions] scans every
    tuple. A negative id matches nothing, but costs a scan or an index
    probe: a caller that knows its key is foreign skips the call. *)

val clear : t -> unit
(** Empty the relation, keeping its storage (and index skeletons). Costs
    the tuples it held, not the capacity it grew to. *)

val copy : pool:Intern.t -> t -> t
(** Deep copy whose values resolve through [pool], which must be
    [pool r] (shared) or an {!Intern.copy} of it (independent). Indexes
    are copied, not dropped — a snapshot answers its first lookup at
    full speed. *)

val index_count : t -> int
(** Number of materialised indexes (observability for tests/bench). *)

val memory_bytes : t -> int
(** Approximate heap footprint of rows, dedup table and index
    structures (pool excluded — it is shared). *)

val builds_total : int ref
(** Process-wide index builds (mirrors [wdl_store_index_builds_total]). *)
