open Wdl_syntax
module Intern = Wdl_store.Intern

type slot = int

type const = { value : Value.t; mutable run : int; mutable id : int }

type arg =
  | Const of const
  | Slot of slot

let unbound = -1

type name_ref =
  | Fixed of string
  | Name_slot of slot

type cexpr =
  | CConst of Value.t
  | CSlot of slot
  | CAdd of cexpr * cexpr
  | CSub of cexpr * cexpr
  | CMul of cexpr * cexpr
  | CDiv of cexpr * cexpr

type match_step = {
  pos : int;
  neg : bool;
  rel : name_ref;
  peer : name_ref;
  args : arg array;
  atom : Atom.t;
  (* Static probe spec: which argument positions are constrained when
     this step runs (constants + slots bound by earlier steps), and
     what each remaining position does to the environment. Boundness
     at a step is static — a plan is a linear sequence — so the
     evaluator fills a flat key instead of re-deriving the binding
     pattern per candidate tuple. Empty for negated steps (they use
     full instantiation). *)
  bpos : int array;  (* constrained positions, ascending *)
  bsrc : arg array;  (* aligned key sources *)
  out_binds : (int * slot) array;  (* free positions: first occurrence *)
  out_checks : (int * slot) array;  (* repeated free slots: equality *)
  resid : slot array;
      (* slots of the variables a residual at this step keeps (head and
         body from [pos] on), by variable name: the same list for every
         plan of one rule, so it keys a boundary hit across them *)
  key : int array;
      (* probe-key buffer: aligned with [bsrc] for a positive step, with
         [args] for a negated one *)
}

type step =
  | Match of match_step
  | Cmp of Literal.cmpop * cexpr * cexpr * Literal.t
  | Assign of slot * cexpr * Literal.t

type t = {
  rule : Rule.t;  (** the body the plan executes (possibly reordered) *)
  source : Rule.t;  (** the rule as the user wrote it *)
  id : int;
  label : string;
  steps : step list;
  head_rel : name_ref;
  head_peer : name_ref;
  head_args : arg array;
  nslots : int;
  slot_names : string array;
  premise_patterns : (name_ref * name_ref * arg array) list;
  row : int array;  (* head-row buffer *)
}

type compiler = {
  mutable names : string list;  (* reverse slot order *)
  mutable count : int;
  tbl : (string, int) Hashtbl.t;
}

let slot_of c x =
  match Hashtbl.find_opt c.tbl x with
  | Some s -> s
  | None ->
    let s = c.count in
    c.count <- c.count + 1;
    c.names <- x :: c.names;
    Hashtbl.replace c.tbl x s;
    s

(* [run = 0] matches no scratch serial: resolved on first use. *)
let compile_term c = function
  | Term.Const v -> Const { value = v; run = 0; id = unbound }
  | Term.Var x -> Slot (slot_of c x)

let compile_name c = function
  | Term.Const v -> (
    match Value.as_name v with
    | Some n -> Fixed n
    (* Safety rejects non-name constants; keep a total fallback. *)
    | None -> Fixed (Value.to_string v))
  | Term.Var x -> Name_slot (slot_of c x)

let rec compile_expr c = function
  | Expr.Const v -> CConst v
  | Expr.Var x -> CSlot (slot_of c x)
  | Expr.Add (a, b) -> CAdd (compile_expr c a, compile_expr c b)
  | Expr.Sub (a, b) -> CSub (compile_expr c a, compile_expr c b)
  | Expr.Mul (a, b) -> CMul (compile_expr c a, compile_expr c b)
  | Expr.Div (a, b) -> CDiv (compile_expr c a, compile_expr c b)

let compile_atom c (a : Atom.t) =
  ( compile_name c a.Atom.rel,
    compile_name c a.Atom.peer,
    Array.of_list (List.map (compile_term c) a.Atom.args) )

let no_probe = ([||], [||], [||], [||])

(* The slots of the variables a residual shipped at literal [pos] keeps:
   the head's and those of the body from [pos] on, ordered by name so
   that plans with different slot numberings agree. *)
let residual_slots c (rule : Rule.t) pos =
  List.concat
    (Atom.vars rule.Rule.head
    :: List.filteri (fun i _ -> i >= pos) (List.map Literal.vars rule.Rule.body))
  |> List.sort_uniq String.compare
  |> List.filter_map (Hashtbl.find_opt c.tbl)
  |> Array.of_list

(* Classify a positive atom's argument positions against the set of
   slots bound before this step. The relation/peer name slots count as
   bound during the match: a name slot is either bound already or gets
   its value before any tuple is probed (peer resolution, relation
   enumeration). *)
let probe_spec bound (rel : name_ref) (peer : name_ref) (args : arg array) =
  (match rel with Name_slot s -> Hashtbl.replace bound s () | Fixed _ -> ());
  (match peer with Name_slot s -> Hashtbl.replace bound s () | Fixed _ -> ());
  let bpos = ref [] and bsrc = ref [] in
  let binds = ref [] and checks = ref [] in
  let fresh = Hashtbl.create 4 in
  Array.iteri
    (fun i a ->
      match a with
      | Const _ ->
        bpos := i :: !bpos;
        bsrc := a :: !bsrc
      | Slot s ->
        if Hashtbl.mem bound s then begin
          bpos := i :: !bpos;
          bsrc := a :: !bsrc
        end
        else if Hashtbl.mem fresh s then checks := (i, s) :: !checks
        else begin
          Hashtbl.replace fresh s ();
          binds := (i, s) :: !binds
        end)
    args;
  Hashtbl.iter (fun s () -> Hashtbl.replace bound s ()) fresh;
  ( Array.of_list (List.rev !bpos),
    Array.of_list (List.rev !bsrc),
    Array.of_list (List.rev !binds),
    Array.of_list (List.rev !checks) )

let compile ?source ?(id = 0) ?(label = "") (rule : Rule.t) =
  let c = { names = []; count = 0; tbl = Hashtbl.create 16 } in
  let bound = Hashtbl.create 16 in
  let steps =
    List.mapi
      (fun pos lit ->
        match lit with
        | Literal.Pos a ->
          let rel, peer, args = compile_atom c a in
          let bpos, bsrc, out_binds, out_checks =
            probe_spec bound rel peer args
          in
          Match
            { pos; neg = false; rel; peer; args; atom = a; bpos; bsrc;
              out_binds; out_checks; resid = [||];
              key = Array.make (Array.length bpos) unbound }
        | Literal.Neg a ->
          let rel, peer, args = compile_atom c a in
          let bpos, bsrc, out_binds, out_checks = no_probe in
          Match
            { pos; neg = true; rel; peer; args; atom = a; bpos; bsrc;
              out_binds; out_checks; resid = [||];
              key = Array.make (Array.length args) unbound }
        | Literal.Cmp (op, e1, e2) ->
          Cmp (op, compile_expr c e1, compile_expr c e2, lit)
        | Literal.Assign (x, e) ->
          (* Compile the expression first: safety guarantees its
             variables were bound earlier, so slot allocation order is
             irrelevant, but doing it first mirrors evaluation order. *)
          let ce = compile_expr c e in
          let s = slot_of c x in
          Hashtbl.replace bound s ();
          Assign (s, ce, lit))
      rule.Rule.body
  in
  let head_rel, head_peer, head_args = compile_atom c rule.Rule.head in
  (* Only a positive atom can be a delegation boundary. *)
  let steps =
    List.map
      (function
        | Match ({ neg = false; pos; _ } as m) ->
          Match { m with resid = residual_slots c rule pos }
        | step -> step)
      steps
  in
  let source = match source with Some s -> s | None -> rule in
  (* Written order, not step order: the same fact explains the same way
     whichever of a rule's plans derived it. [source] is a permutation
     of [rule]'s body, so each of its atoms has a step (usually the
     very same atom value, hence the physical test first). *)
  let premise_patterns =
    List.filter_map
      (function
        | Literal.Pos a ->
          List.find_map
            (function
              | Match { neg = false; atom; rel; peer; args; _ }
                when atom == a || Atom.equal atom a ->
                Some (rel, peer, args)
              | Match _ | Cmp _ | Assign _ -> None)
            steps
        | Literal.Neg _ | Literal.Cmp _ | Literal.Assign _ -> None)
      source.Rule.body
  in
  {
    rule;
    source;
    id;
    label;
    steps;
    head_rel;
    head_peer;
    head_args;
    nslots = c.count;
    slot_names = Array.of_list (List.rev c.names);
    premise_patterns;
    row = Array.make (Array.length head_args) unbound;
  }

(* {1 Cost-based body ordering}

   The WDL031 lint (Boundary.improve in the analysis library) computes
   a greedy maximal-local-prefix reorder and reports it as a hint.
   This is the same construction promoted into the compiler, with one
   change: among the literals eligible at each step, pick the {e
   cheapest} (estimated enumeration cost under current boundness)
   instead of the earliest. With no cardinality signal every literal
   costs the same and ties break toward source order, which makes the
   result exactly the WDL031 hint.

   Eligibility mirrors the evaluator's runtime rules: a positive atom
   needs a self peer and a bound (or constant) relation name; negation
   and comparisons need every variable bound; an assignment needs its
   expression bound and its target fresh. Anything never eligible —
   the delegation suffix — keeps its source order, preserving the
   paper's left-to-right delegation semantics on the residual. *)

let order_body ?bound ~self ~stats (r : Rule.t) =
  if Rule.is_aggregate r then r
  else
    let fragment = Option.is_some bound in
    let lits = Array.of_list r.Rule.body in
    let n = Array.length lits in
    if n <= 1 then r
    else begin
      let used = Array.make n false in
      let bound = ref (Option.value bound ~default:[]) in
      let is_bound x = List.mem x !bound in
      let bind x = if not (is_bound x) then bound := x :: !bound in
      let eligible = function
        | Literal.Cmp (_, e1, e2) ->
          List.for_all is_bound (Expr.vars e1 @ Expr.vars e2)
        | Literal.Assign (x, e) ->
          (not (is_bound x)) && List.for_all is_bound (Expr.vars e)
        | Literal.Pos a ->
          Term.as_name a.Atom.peer = Some self
          && List.for_all is_bound (Term.vars a.Atom.rel)
        | Literal.Neg a ->
          Term.as_name a.Atom.peer = Some self
          && List.for_all is_bound (Atom.vars a)
      in
      (* Filters are free; a negated atom is one membership probe; a
         positive atom enumerates its relation shrunk by a nominal
         selectivity of 4 per constrained position. *)
      let cost i =
        match lits.(i) with
        | Literal.Cmp _ | Literal.Assign _ -> 0.
        | Literal.Neg _ -> 0.5
        | Literal.Pos a ->
          let card =
            match Term.as_name a.Atom.rel with
            | Some rel -> float_of_int (stats rel)
            | None -> 1e9  (* relation variable: enumerates every relation *)
          in
          let constrained =
            List.fold_left
              (fun acc t ->
                match t with
                | Term.Const _ -> acc + 1
                | Term.Var x -> if is_bound x then acc + 1 else acc)
              0 a.Atom.args
          in
          Float.max 1. (card /. (4. ** float_of_int constrained))
      in
      let order = ref [] in
      let progress = ref true in
      while !progress do
        progress := false;
        let best = ref (-1) and best_cost = ref infinity in
        (* [downto] with [<=]: equal costs resolve to the smallest
           index — source order, the WDL031 tie-break. *)
        for i = n - 1 downto 0 do
          if (not used.(i)) && eligible lits.(i) then begin
            let ci = cost i in
            if ci <= !best_cost then begin
              best := i;
              best_cost := ci
            end
          end
        done;
        if !best >= 0 then begin
          let i = !best in
          used.(i) <- true;
          (match lits.(i) with
          | Literal.Pos a -> List.iter bind (Atom.vars a)
          | Literal.Assign (x, _) -> bind x
          | Literal.Neg _ | Literal.Cmp _ -> ());
          order := i :: !order;
          progress := true
        end
      done;
      let perm =
        List.rev !order @ (List.init n Fun.id |> List.filter (fun i -> not used.(i)))
      in
      if List.for_all2 ( = ) perm (List.init n Fun.id) then r
      else
        let body = List.map (fun i -> lits.(i)) perm in
        let reordered = Rule.make ~head:r.Rule.head ~body in
        (* The construction preserves safety (a literal only runs once
           its inputs are bound; the residual keeps its relative
           order), but verify rather than trust the argument. A
           fragment is not a rule on its own: its caller checks the
           rule it assembles around it. *)
        if fragment then reordered
        else
          match Safety.check_rule reordered with
          | Ok () -> reordered
          | Error _ -> r
    end

let const_id ids c =
  let serial = Intern.serial ids in
  if c.run <> serial then begin
    c.run <- serial;
    c.id <- Intern.encode ids c.value
  end
  else if c.id < 0 then c.id <- Intern.canon ids c.id;
  c.id

let subst_of_env plan ~decode env =
  let s = ref Subst.empty in
  Array.iteri
    (fun i id ->
      if id <> unbound then s := Subst.bind_exn plan.slot_names.(i) (decode id) !s)
    env;
  !s

let instantiate_args ~decode args env =
  let n = Array.length args in
  let out = Array.make n (Value.Int 0) in
  let ok = ref true in
  for i = 0 to n - 1 do
    match args.(i) with
    | Const c -> out.(i) <- c.value
    | Slot s ->
      let id = env.(s) in
      if id = unbound then ok := false else out.(i) <- decode id
  done;
  if !ok then Some out else None

let ( let* ) = Result.bind

let rec eval_cexpr ~decode e env ~slot_names =
  match e with
  | CConst v -> Ok v
  | CSlot s ->
    let id = env.(s) in
    if id = unbound then Error (Expr.Unbound_variable slot_names.(s))
    else Ok (decode id)
  | CAdd (a, b) -> binary ~decode Expr.add a b env ~slot_names
  | CSub (a, b) -> binary ~decode Expr.sub a b env ~slot_names
  | CMul (a, b) -> binary ~decode Expr.mul a b env ~slot_names
  | CDiv (a, b) -> binary ~decode Expr.div a b env ~slot_names

and binary ~decode op a b env ~slot_names =
  let* va = eval_cexpr ~decode a env ~slot_names in
  let* vb = eval_cexpr ~decode b env ~slot_names in
  op va vb
