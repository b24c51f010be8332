module Value = Wdl_syntax.Value

(* Interned columnar storage.

   A relation keeps each tuple once, as its interned image: [rows] is a
   flat [int array] with [arity] consecutive pool ids per slot. Dedup,
   index keys and bound scans are pure int work. The compiled
   evaluator stays in ids: it probes with id keys, reads ids with [id]
   and inserts id rows with [insert_ids]. Value reads decode through
   the pool — [value] one column at a time, whole tuples for
   [iter]/[fold]/[to_list].

   Slots are recycled through a free list; [live] marks which slots
   hold a tuple. Set-semantics dedup is an open-addressing table of
   slot ids hashed over the interned row: [insert] interns each value
   exactly once (find-or-add) and every subsequent compare is int
   work — one array, no per-entry allocation. *)

(* Growable int vector (index buckets, free list). *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n >= Array.length v.a then begin
      let bigger = Array.make (max 4 (2 * v.n)) 0 in
      Array.blit v.a 0 bigger 0 v.n;
      v.a <- bigger
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let pop v =
    v.n <- v.n - 1;
    v.a.(v.n)

  (* Swap-remove the first occurrence of [x]; no-op if absent. *)
  let remove v x =
    let rec go i =
      if i < v.n then
        if v.a.(i) = x then begin
          v.n <- v.n - 1;
          v.a.(i) <- v.a.(v.n)
        end
        else go (i + 1)
    in
    go 0

  let copy v = { a = Array.copy v.a; n = v.n }
end

(* Int-array keys (index projections, position signatures). *)
module Ikey = struct
  type t = int array

  let rec equal_from (a : int array) b i =
    i >= Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

  let equal a b = a == b || (Array.length a = Array.length b && equal_from a b 0)

  (* FNV-1a over the ids. *)
  let hash a =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193
    done;
    !h land max_int
end

module Ikey_tbl = Hashtbl.Make (Ikey)

type index = {
  positions : int array;  (** sorted *)
  buckets : Ivec.t Ikey_tbl.t;  (** projection key -> slots *)
}

type t = {
  arity : int;
  indexing : bool;
  pool : Intern.t;
  scratch : int array;  (** arity-sized intern buffer for [insert] *)
  mutable rows : int array;  (** capacity * arity interned ids *)
  mutable live : Bytes.t;  (** '\001' iff the slot holds a tuple *)
  mutable limit : int;  (** slots ever allocated (high-water mark) *)
  mutable n : int;  (** live tuples *)
  free : Ivec.t;  (** recycled slots *)
  mutable table : int array;  (** dedup: slot, -1 empty, -2 tombstone *)
  mutable entries : int;  (** live + tombstone dedup entries *)
  mutable indexes : index list;
}

(* Below this size a scan is cheaper than building an index. *)
let index_threshold = 16

let create ?pool ?(indexing = true) ~arity () =
  let pool = match pool with Some p -> p | None -> Intern.create () in
  {
    arity;
    indexing;
    pool;
    scratch = Array.make arity 0;
    rows = Array.make (16 * arity) 0;
    live = Bytes.make 16 '\000';
    limit = 0;
    n = 0;
    free = Ivec.create ();
    table = Array.make 32 (-1);
    entries = 0;
    indexes = [];
  }

let arity r = r.arity
let pool r = r.pool
let cardinal r = r.n
let is_empty r = r.n = 0

(* {2 Dedup table}

   Keyed on the *interned row*: insert resolves each value through the
   pool exactly once (find-or-add — a duplicate's values are already
   pooled, so duplicates never grow it) and dedup lookups then compare
   flat ints. [mem]/[delete] resolve ids with the read-only
   [Intern.find]: a value foreign to the pool cannot be stored here, so
   the answer is immediate and the pool never grows on the query
   path. *)

(* FNV-1a over [arity] ids starting at [off]. *)
let row_hash rows off arity =
  let h = ref 0x811c9dc5 in
  for i = 0 to arity - 1 do
    h := (!h lxor Array.unsafe_get rows (off + i)) * 0x01000193
  done;
  !h land max_int

(* The dedup probe runs once per insert and per membership test, so its
   loops are top-level functions: no closure is allocated per call. *)
let rec row_equal rows off (ids : int array) i =
  i >= Array.length ids
  || (Array.unsafe_get rows (off + i) = ids.(i) && row_equal rows off ids (i + 1))

let rec probe_from r (ids : int array) mask i =
  match r.table.(i) with
  | -1 -> -1
  | s when s >= 0 && row_equal r.rows (s * r.arity) ids 0 -> i
  | _ -> probe_from r ids mask ((i + 1) land mask)

(* Table position holding the row equal to [ids] (hash [h]), or -1. *)
let find_pos_ids r (ids : int array) h =
  let mask = Array.length r.table - 1 in
  probe_from r ids mask (h land mask)

(* Interned image of [t] without growing the pool; [None] when some
   value is foreign (hence [t] cannot be stored here). *)
let resolve_row r (t : Tuple.t) =
  if Array.length t <> r.arity then None else Intern.find_all r.pool t

(* Put [slot] (known absent) at the first free cell from [i]; true iff
   a fresh cell was consumed. *)
let rec put_from table mask i slot =
  if table.(i) < 0 then begin
    let fresh = table.(i) = -1 in
    table.(i) <- slot;
    fresh
  end
  else put_from table mask ((i + 1) land mask) slot

let table_put table mask hash slot = put_from table mask (hash land mask) slot

(* Rebuild the dedup table at [size] cells (sweeps tombstones). *)
let rehash_to r size =
  let fresh = Array.make size (-1) in
  let mask = size - 1 in
  for s = 0 to r.limit - 1 do
    if Bytes.unsafe_get r.live s <> '\000' then
      ignore (table_put fresh mask (row_hash r.rows (s * r.arity) r.arity) s)
  done;
  r.table <- fresh;
  r.entries <- r.n

(* Grow (or just sweep tombstones from) the dedup table. *)
let rehash r =
  let cap = Array.length r.table in
  rehash_to r (if 3 * r.n >= cap then 2 * cap else cap)

(* {2 Indexes} *)

let index_key r positions slot =
  let off = slot * r.arity in
  Array.map (fun p -> r.rows.(off + p)) positions

let index_add r idx slot =
  let key = index_key r idx.positions slot in
  let bucket =
    match Ikey_tbl.find_opt idx.buckets key with
    | Some b -> b
    | None ->
      let b = Ivec.create () in
      Ikey_tbl.add idx.buckets key b;
      b
  in
  Ivec.push bucket slot

let index_remove r idx slot =
  let key = index_key r idx.positions slot in
  match Ikey_tbl.find_opt idx.buckets key with
  | None -> ()
  | Some b ->
    Ivec.remove b slot;
    if b.Ivec.n = 0 then Ikey_tbl.remove idx.buckets key

let builds_total = ref 0

(* Metrics are process-global monotone counts; resolving the
   instrument per build is fine — builds are rare by design. *)
let count_build () =
  incr builds_total;
  Wdl_obs.Obs.inc
    (Wdl_obs.Obs.counter
       ~help:"Relation binding-pattern indexes materialised"
       "wdl_store_index_builds_total")

let build_index r positions =
  count_build ();
  let idx = { positions; buckets = Ikey_tbl.create 64 } in
  for s = 0 to r.limit - 1 do
    if Bytes.unsafe_get r.live s <> '\000' then index_add r idx s
  done;
  r.indexes <- idx :: r.indexes;
  idx

(* {2 Updates} *)

let grow_slots_to r want =
  let cap = Bytes.length r.live in
  let cap' = ref (max 16 cap) in
  while !cap' < want do
    cap' := 2 * !cap'
  done;
  let cap' = !cap' in
  if cap' > cap then begin
    let rows = Array.make (cap' * r.arity) 0 in
    Array.blit r.rows 0 rows 0 (cap * r.arity);
    r.rows <- rows;
    let live = Bytes.make cap' '\000' in
    Bytes.blit r.live 0 live 0 cap;
    r.live <- live
  end

let grow_slots r = grow_slots_to r (Bytes.length r.live + 1)

let reserve r extra =
  let want = r.n + extra in
  grow_slots_to r want;
  let tcap = Array.length r.table in
  if 2 * want >= tcap then begin
    let size = ref tcap in
    while 2 * want >= !size do
      size := 2 * !size
    done;
    rehash_to r !size
  end

let insert_ids r (ids : int array) =
  let h = Ikey.hash ids in
  if find_pos_ids r ids h >= 0 then false
  else begin
    if 2 * (r.entries + 1) >= Array.length r.table then rehash r;
    let slot =
      if r.free.Ivec.n > 0 then Ivec.pop r.free
      else begin
        if r.limit >= Bytes.length r.live then grow_slots r;
        let s = r.limit in
        r.limit <- r.limit + 1;
        s
      end
    in
    Array.blit ids 0 r.rows (slot * r.arity) r.arity;
    Bytes.unsafe_set r.live slot '\001';
    if table_put r.table (Array.length r.table - 1) h slot then
      r.entries <- r.entries + 1;
    r.n <- r.n + 1;
    List.iter (fun idx -> index_add r idx slot) r.indexes;
    true
  end

let insert r t =
  if Array.length t <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation.insert: arity mismatch (expected %d, got %d)"
         r.arity (Array.length t));
  (* One pool probe per value: find-or-add up front, then every dedup
     compare is on the ids (duplicates re-find existing pool entries,
     so the pool still only ever holds stored values). *)
  let ids = r.scratch in
  for i = 0 to r.arity - 1 do
    ids.(i) <- Intern.intern r.pool t.(i)
  done;
  insert_ids r ids

let delete r t =
  match resolve_row r t with
  | None -> false
  | Some ids -> (
    match find_pos_ids r ids (Ikey.hash ids) with
    | -1 -> false
    | pos ->
      let slot = r.table.(pos) in
      List.iter (fun idx -> index_remove r idx slot) r.indexes;
      r.table.(pos) <- -2;
      Bytes.unsafe_set r.live slot '\000';
      Ivec.push r.free slot;
      r.n <- r.n - 1;
      true)

let mem_ids r (ids : int array) = find_pos_ids r ids (Ikey.hash ids) >= 0

let mem r t =
  match resolve_row r t with
  | None -> false
  | Some ids -> mem_ids r ids

(* {2 Reads} *)

let id r slot i = r.rows.((slot * r.arity) + i)

let value r slot i = Intern.value r.pool (id r slot i)

let iter f r =
  for s = 0 to r.limit - 1 do
    if Bytes.unsafe_get r.live s <> '\000' then f (Array.init r.arity (value r s))
  done

let fold f r acc =
  let acc = ref acc in
  iter (fun t -> acc := f t !acc) r;
  !acc

let to_list r = fold List.cons r []

(* Sort the live slots in place on their column values, then decode
   each tuple once into the result: the sort allocates nothing, which
   matters on the read paths that dump whole views. Equal ids are
   equal values, so only differing columns are decoded to compare. *)
let to_sorted_list r =
  let slots = Array.make r.n 0 in
  let k = ref 0 in
  for s = 0 to r.limit - 1 do
    if Bytes.unsafe_get r.live s <> '\000' then begin
      slots.(!k) <- s;
      incr k
    end
  done;
  let compare_slots a b =
    let rec go i =
      if i >= r.arity then 0
      else
        let x = r.rows.((a * r.arity) + i) and y = r.rows.((b * r.arity) + i) in
        if x = y then go (i + 1)
        else Value.compare (Intern.value r.pool x) (Intern.value r.pool y)
    in
    go 0
  in
  Array.sort compare_slots slots;
  Array.fold_right (fun s acc -> Array.init r.arity (value r s) :: acc) slots []

(* Does the row at [off] hold [key] at [positions], from the [k]th on?
   Top-level, so a scan allocates no closure per row. *)
let rec row_matches rows off (positions : int array) (key : int array) k =
  k >= Array.length positions
  || rows.(off + positions.(k)) = key.(k)
     && row_matches rows off positions key (k + 1)

(* Scan live rows on interned ids. *)
let scan_ids r positions key f =
  for s = 0 to r.limit - 1 do
    if
      Bytes.unsafe_get r.live s <> '\000'
      && row_matches r.rows (s * r.arity) positions key 0
    then f s
  done

(* Exception-based find: a probe allocates no option. *)
let probe_bucket idx (key : int array) f =
  match Ikey_tbl.find idx.buckets key with
  | exception Not_found -> ()
  | b ->
    for k = 0 to b.Ivec.n - 1 do
      f b.Ivec.a.(k)
    done

(* The caller (a compiled plan) knows its bound positions statically
   and will probe the same signature for every candidate binding, so
   the index is built on first use once the relation is big enough,
   and kept. *)
let rec lookup_in r indexes (positions : int array) (key : int array) f =
  match indexes with
  | idx :: rest ->
    if Ikey.equal idx.positions positions then probe_bucket idx key f
    else lookup_in r rest positions key f
  | [] ->
    if r.indexing && Array.length positions > 0 && r.n >= index_threshold then
      probe_bucket (build_index r positions) key f
    else scan_ids r positions key f

let lookup_key r positions key f = lookup_in r r.indexes positions key f

(* {2 Lifecycle} *)

(* Empty the dedup cell holding [slot], probing from [i]. *)
let rec unput table mask i slot =
  if table.(i) = slot then table.(i) <- -1
  else unput table mask ((i + 1) land mask) slot

let clear r =
  (* Without tombstones, emptying each live row's cell empties the
     table, so a clear costs the rows, not the capacity: a relation
     that once grew large (a reused delta) clears small contents
     cheaply. A table with tombstones, or well filled, is refilled
     whole. *)
  let size = Array.length r.table in
  if r.entries = r.n && 8 * r.n < size then
    for s = 0 to r.limit - 1 do
      if Bytes.unsafe_get r.live s <> '\000' then
        unput r.table (size - 1) (row_hash r.rows (s * r.arity) r.arity land (size - 1)) s
    done
  else Array.fill r.table 0 size (-1);
  Bytes.fill r.live 0 r.limit '\000';
  r.limit <- 0;
  r.n <- 0;
  r.free.Ivec.n <- 0;
  r.entries <- 0;
  (* Keep index skeletons: a planner hint survives the per-stage clear
     of intensional relations, so refills re-index incrementally, into
     tables that keep the capacity they grew to. *)
  List.iter (fun idx -> Ikey_tbl.clear idx.buckets) r.indexes

let copy_index idx =
  let buckets = Ikey_tbl.create (Ikey_tbl.length idx.buckets) in
  Ikey_tbl.iter (fun k v -> Ikey_tbl.add buckets k (Ivec.copy v)) idx.buckets;
  { idx with buckets }

let copy ~pool r =
  {
    r with
    pool;
    scratch = Array.copy r.scratch;
    rows = Array.copy r.rows;
    live = Bytes.copy r.live;
    free = Ivec.copy r.free;
    table = Array.copy r.table;
    indexes = List.map copy_index r.indexes;
  }

let index_count r = List.length r.indexes

let memory_bytes r =
  let base =
    8 * (Array.length r.rows + Array.length r.table) + Bytes.length r.live
  in
  List.fold_left
    (fun acc idx ->
      Ikey_tbl.fold
        (fun k v acc -> acc + (8 * (Array.length k + Array.length v.Ivec.a)) + 48)
        idx.buckets acc)
    base r.indexes
