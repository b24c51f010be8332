module Value = Wdl_syntax.Value

module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  (* Physical equality first: the same boxed value is re-interned many
     times (every insert of a tuple whose values are already pooled). *)
  let equal a b = a == b || Value.equal a b

  (* Not [Value.hash]: that hashes a freshly boxed [(tag, payload)]
     pair, an allocation per probe, and the pool probes once per value
     per insert.  Hashing the payload directly and folding the tag in
     allocates nothing; the table is private to the pool, so the hash
     only has to agree with [equal] here. *)
  let hash = function
    | Value.Int x -> 0x2545 lxor Hashtbl.hash x
    | Value.Float f -> 0x9d1c lxor Hashtbl.hash f
    | Value.String s -> 0x27d4 lxor Hashtbl.hash s
    | Value.Bool b -> 0xeb35 lxor Hashtbl.hash b
end)

type t = {
  fwd : int Value_tbl.t;
  mutable rev : Value.t array;
  mutable next : int;
  mutable value_bytes : int;
}

let create () =
  {
    fwd = Value_tbl.create 256;
    rev = Array.make 256 (Value.Int 0);
    next = 0;
    value_bytes = 0;
  }

(* Approximate heap words of one value, in bytes. *)
let bytes_of = function
  | Value.String s -> 24 + String.length s
  | Value.Int _ | Value.Bool _ -> 8
  | Value.Float _ -> 16

let intern t v =
  (* Exception-based find: the hit path (every duplicate re-insert)
     allocates nothing, where [find_opt] boxed an option per probe. *)
  match Value_tbl.find t.fwd v with
  | id -> id
  | exception Not_found ->
    let id = t.next in
    if id >= Array.length t.rev then begin
      let bigger = Array.make (2 * Array.length t.rev) (Value.Int 0) in
      Array.blit t.rev 0 bigger 0 id;
      t.rev <- bigger
    end;
    (* [-0.] and [0.] are equal, so they share an id; store the
       canonical [0.] whichever the first sight was. *)
    let v = match v with Value.Float 0. -> Value.Float 0. | v -> v in
    t.rev.(id) <- v;
    Value_tbl.add t.fwd v id;
    t.next <- id + 1;
    t.value_bytes <- t.value_bytes + bytes_of v;
    id

let find t v = Value_tbl.find_opt t.fwd v

let find_all t vs =
  let ids = Array.make (Array.length vs) 0 in
  let rec go i =
    i >= Array.length vs
    ||
    match Value_tbl.find t.fwd vs.(i) with
    | id ->
      ids.(i) <- id;
      go (i + 1)
    | exception Not_found -> false
  in
  if go 0 then Some ids else None

let copy t = { t with fwd = Value_tbl.copy t.fwd; rev = Array.copy t.rev }

let value t id =
  if id < 0 || id >= t.next then
    invalid_arg (Printf.sprintf "Intern.value: unknown id %d" id)
  else t.rev.(id)

let size t = t.next

let memory_bytes t =
  (* rev array + one forward-table entry (bucket + key + int) per value
     + the pooled values. *)
  (8 * Array.length t.rev) + (32 * t.next) + t.value_bytes

(* {1 Run-scoped scratch ids}

   An evaluation binds values the pool may not hold: rule constants,
   assignment results, relation names it enumerates. Interning them
   would grow the pool with values no relation stores; a scratch table
   gives each such value a negative id instead, private to one run.
   [-1] is left free for callers' "unbound" sentinel, so scratch ids
   start at [-2]. *)

type scratch = {
  base : t;
  serial : int;
  extra : int Value_tbl.t;  (* foreign value -> its scratch id *)
  mutable vals : Value.t array;  (* scratch id [-2 - k] decodes to [vals.(k)] *)
  mutable n : int;
}

let serials = ref 0

let scratch base =
  incr serials;
  { base; serial = !serials; extra = Value_tbl.create 8; vals = [||]; n = 0 }

let serial s = s.serial

let encode s v =
  match Value_tbl.find s.base.fwd v with
  | id -> id
  | exception Not_found -> (
    match Value_tbl.find s.extra v with
    | id -> id
    | exception Not_found ->
      if s.n >= Array.length s.vals then begin
        let bigger = Array.make (max 8 (2 * s.n)) (Value.Int 0) in
        Array.blit s.vals 0 bigger 0 s.n;
        s.vals <- bigger
      end;
      let v = match v with Value.Float 0. -> Value.Float 0. | v -> v in
      s.vals.(s.n) <- v;
      let id = -2 - s.n in
      Value_tbl.add s.extra v id;
      s.n <- s.n + 1;
      id)

let decode s id = if id >= 0 then value s.base id else s.vals.(-2 - id)

let canon s id =
  if id >= -1 then id
  else
    match Value_tbl.find s.base.fwd s.vals.(-2 - id) with
    | p -> p
    | exception Not_found -> id

let settle s id = if id >= 0 then id else intern s.base s.vals.(-2 - id)
