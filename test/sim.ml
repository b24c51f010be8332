(* Deterministic-simulation harness: the one random system generator
   and runner behind every system-level property. A spec is 2-4 peers,
   phases of ops (the first loads the initial facts and rules) and one
   fault schedule; [run] applies each phase at a quiescent point.

   A tap on the transport records the last batch each peer sent to each
   destination, the delegations it installed there, and the last batch
   each peer received from each source. After every round, each peer
   that staged must agree with [Reference] run from scratch over its
   extensional relations plus the batches it had received: same views,
   batches and delegations. At each quiescent point every batch sent is
   the one its destination holds, every delegation is installed, and
   [Reference] re-run over each peer's state finds nothing left to
   deduce and every inductive update and shipped fact held.

   Soundness limits, which keep a faulty run's end state equal to the
   fault-free run's:
   - extensional heads take only the owner's local base relations, so
     no persistent fact depends on delivery order;
   - negation and aggregates read only local relations;
   - phases are applied at quiescent points;
   - builtin relations appear only in fault-free specs: window
     horizons count the peer's own stages, and faults move stage
     numbering (ROADMAP item 6);
   - no rule op falls between a checkpoint and its crash: the journal
     covers base data only (persist.mli), so a crash phase applies its
     rule ops first;
   - installs delivered straight to a peer appear only in specs
     without a crash: a rejoin drops what the other side installed,
     and the named source never re-announces a rule it did not
     derive. *)
open Wdl_syntax
open Webdamlog
open Wdl_net
module Database = Wdl_store.Database

(* {1 Specs} *)

type op =
  | Insert of int * string * Value.t list  (** peer, relation, args *)
  | Delete of int * string * Value.t list
  | Add_rule of int * int * int  (** owner, other peer, template *)
  | Drop_rule of int * int  (** owner, index into its current rules *)
  | Install of int * int * int
      (** target, source, template: the source's install of the
          template's rule, filled with [P] the target and [Q] the
          source, delivered straight to the target's inbox *)

type fault =
  | Clean  (** Inmem *)
  | Latency of int
      (** Simnet seed: 2 ± 1.5 rounds a hop reorders a link, so under
          Reliable, as the diff protocol needs FIFO links (S28) *)
  | Duplicate of int  (** Simnet seed: half the messages arrive twice *)
  | Lossy of { seed : int; loss : float; dup : float; phase : int;
               cut : int * int; at : int; len : int }
      (** Reliable over a lossy, duplicating Simnet; [at] rounds into
          [phase] the pair [cut] is partitioned for [len] rounds *)
  | Crash of { seed : int; loss : float; victim : int; phase : int;
               before : int; down : int }
      (** Reliable over a lossy Simnet; see [crash_phase] *)

type spec = { n_peers : int; builtins : bool; phases : op list list; fault : fault }

let peer_name i = Printf.sprintf "p%d" i

(* [P] and [Q] in a template stand for two peer names. *)
let fill text ~p ~q =
  String.concat ""
    (List.map
       (function 'P' -> p | 'Q' -> q | c -> String.make 1 c)
       (List.of_seq (String.to_seq text)))

(* Rule templates: [P] owns the rule, [Q] is the other peer. *)
let templates =
  [| (`Mono, "v@P($x) :- r@P($x);");
     (`Mono, "vv@P($x) :- v@P($x);");
     (`Mono, "pulled@P($x) :- data@Q($x);");
     (`Mono, "dyn@P($x) :- sel@P($a), data@$a($x);");
     (`Mono, "inboxr@Q($x) :- base@P($x);");
     (`Mono, "acc@P($x) :- r@P($x);");
     (`Mono, "big@P($x) :- data@P($x), $x >= 2;");
     (`Mono, "out@Q($x) :- r@P($x);");
     (`Mono, "relay@Q($x) :- data@Q($x), r@P($x);");
     (`Mono, "shift@P($y) :- r@P($x), $y := $x + 10;");
     (`Mono, "tc@P($x, $y) :- e@P($x, $y);");
     (`Mono, "tc@P($x, $z) :- tc@P($x, $y), e@P($y, $z);");
     (`Mono, "away@P($x) :- r@P($x), data@Q($x);");
     (`Mono, "anyof@P($n, $x) :- names@P($n), $n@P($x);");
     (`Nonmono, "fresh@P($x) :- data@P($x), not r@P($x);");
     (`Nonmono, "nv@P($x) :- data@P($x), not v@P($x);");
     (`Nonmono, "cnt@P(count($x)) :- r@P($x);");
     (`Nonmono, "mx@P($x, max($y)) :- e@P($x, $y);");
     (`Builtin, "recent@P($x) :- r@P($x);");
     (`Builtin, "seen@P($x) :- recent@P($x);");
     (`Builtin, "top@P($k, $n) :- hot@P($k, $n);") |]

let rule_text (o, q, t) = fill (snd templates.(t)) ~p:(peer_name o) ~q:(peer_name q)

(* Templates an [Install] draws from: shapes no owner ships as a
   delegation — a recursive rule, an aggregate (which guards [r], so
   the target's new [r] facts take full stages), an inductive head, a
   remote head, and a rule that delegates on to [Q]. *)
let install_pool =
  let index text =
    let rec find i = if snd templates.(i) = text then i else find (i + 1) in
    find 0
  in
  List.map index
    [ "tc@P($x, $y) :- e@P($x, $y);"; "tc@P($x, $z) :- tc@P($x, $y), e@P($y, $z);";
      "cnt@P(count($x)) :- r@P($x);"; "acc@P($x) :- r@P($x);"; "out@Q($x) :- r@P($x);";
      "away@P($x) :- r@P($x), data@Q($x);" ]

let int_rels =
  [ "v"; "vv"; "pulled"; "dyn"; "big"; "out"; "relay"; "shift"; "tc"; "away"; "anyof";
    "fresh"; "nv"; "cnt"; "mx"; "seen"; "top" ]

(* Relations held by builtin modules or fed from them: a window keeps
   a fact until it expires by stage count, whatever the base data
   does, and a restored peer re-registers its modules empty (S29). *)
let builtin_held = [ "recent"; "hot"; "seen"; "top" ]

let decls spec name =
  fill ~p:name ~q:""
    ("ext r@P(x); ext data@P(x); ext base@P(x); ext sel@P(a); ext e@P(x, y); \
      ext names@P(n); ext acc@P(x); ext inboxr@P(x); int v@P(x); int vv@P(x); \
      int pulled@P(x); int dyn@P(x); int big@P(x); int out@P(x); \
      int relay@P(x); int shift@P(x); int tc@P(x, y); int away@P(x); \
      int anyof@P(n, x); int fresh@P(x); int nv@P(x); int cnt@P(c); \
      int mx@P(x, m); int seen@P(x); int top@P(k, n);"
    ^
    if spec.builtins then
      " builtin window recent@P(x) with size=3; builtin topk hot@P(k, w) with \
       k=2, size=4;"
    else "")

(* {1 The generator} *)

open QCheck.Gen

let fact_gen ~n_peers ~builtins =
  let small = map (fun v -> Value.Int v) (int_range 0 4) in
  let one rel = map (fun v -> (rel, [ v ])) small in
  let peer = int_range 0 (n_peers - 1) in
  let* p = peer in
  let* rel, args =
    frequency
      ([ (3, one "r"); (3, one "data"); (2, one "base");
         (2, map2 (fun a b -> ("e", [ a; b ])) small small);
         (1, map (fun q -> ("sel", [ Value.String (peer_name q) ])) peer);
         (1, map (fun n -> ("names", [ Value.String n ])) (oneofl [ "r"; "data" ])) ]
      @
      if builtins then
        [ (1, map2 (fun k w -> ("hot", [ k; Value.Int w ])) small (int_range 1 3)) ]
      else [])
  in
  return (p, rel, args)

let rule_gen ~n_peers ~pool =
  let peer = int_range 0 (n_peers - 1) in
  map3 (fun o q t -> Add_rule (o, q, t)) peer peer (oneofl pool)

(* A later phase; deletes are drawn from the facts inserted so far (a
   top-k module refuses deletes, so its writes are never drawn). *)
let install_gen ~n_peers =
  let* target = int_range 0 (n_peers - 1) and* d = int_range 1 (n_peers - 1) in
  map (fun t -> Install (target, (target + d) mod n_peers, t)) (oneofl install_pool)

let phase_gen ~n_peers ~builtins ~installs ~pool inserted =
  let deletable = List.filter (fun (_, rel, _) -> rel <> "hot") inserted in
  let ins (p, rel, args) = Insert (p, rel, args) in
  let del (p, rel, args) = Delete (p, rel, args) in
  list_size (int_range 0 4)
    (frequency
       ([ (3, map ins (fact_gen ~n_peers ~builtins)); (1, rule_gen ~n_peers ~pool);
          (1, map2 (fun p i -> Drop_rule (p, i)) (int_range 0 (n_peers - 1)) nat) ]
       @ (if deletable = [] then [] else [ (2, map del (oneofl deletable)) ])
       @ if installs then [ (1, install_gen ~n_peers) ] else []))

let gen fault_gen =
  let* n_peers = int_range 2 4 in
  let* fault = fault_gen n_peers in
  let* builtins = if fault = Clean then map (( = ) 0) (int_range 0 3) else return false in
  (* About half the specs stay monotone, so their peers take the
     seeded delta path on additive stages. *)
  let* monotone = bool in
  let pool =
    List.filter
      (fun i ->
        match fst templates.(i) with
        | `Mono -> true
        | `Nonmono -> not monotone
        | `Builtin -> builtins)
      (List.init (Array.length templates) Fun.id)
  in
  let* facts = list_size (int_range 2 12) (fact_gen ~n_peers ~builtins) in
  let* rules = list_size (int_range 1 6) (rule_gen ~n_peers ~pool) in
  (* A rejoin drops the installs the other side pushed, and a source
     never re-announces an install it did not derive. *)
  let installs = match fault with Crash _ -> false | _ -> true in
  let rec later n inserted =
    if n = 0 then return []
    else
      let* ops = phase_gen ~n_peers ~builtins ~installs ~pool inserted in
      let added =
        List.filter_map (function Insert (p, r, a) -> Some (p, r, a) | _ -> None) ops
      in
      map (List.cons ops) (later (n - 1) (added @ inserted))
  in
  let* rest = int_range 1 4 >>= fun n -> later n facts in
  let first = List.map (fun (p, rel, args) -> Insert (p, rel, args)) facts @ rules in
  return { n_peers; builtins; phases = first :: rest; fault }

(* Fault generators, one per column of the matrix. *)
let seed = int_range 1 10_000
let clean _ = return Clean
let latency _ = map (fun s -> Latency s) seed
let duplicate _ = map (fun s -> Duplicate s) seed

let lossy n =
  let* seed = seed and* loss = float_range 0.0 0.4 and* dup = float_range 0.0 0.3 in
  let* phase = int_range 0 4 and* a = int_range 0 (n - 1) and* d = int_range 1 (n - 1) in
  let* at = int_range 0 8 and* len = int_range 1 30 in
  return (Lossy { seed; loss; dup; phase; cut = (a, (a + d) mod n); at; len })

let crash n =
  let* seed = seed and* loss = float_range 0.0 0.3 and* victim = int_range 0 (n - 1) in
  let* phase = int_range 0 4 and* before = int_range 0 3 in
  (* A third of the crashes restart at once, while the victim's last
     acks are still in flight. *)
  let* down = frequency [ (1, return 0); (2, int_range 1 20) ] in
  return (Crash { seed; loss; victim; phase; before; down })

let any_fault n = oneof [ clean n; latency n; duplicate n; lossy n; crash n ]

(* {1 Printing and shrinking} *)

let fact_text (p, rel, args) =
  Format.asprintf "%a" Fact.pp (Fact.make ~rel ~peer:(peer_name p) args)

let op_text = function
  | Insert (p, rel, args) -> "+ " ^ fact_text (p, rel, args) ^ ";"
  | Delete (p, rel, args) -> "- " ^ fact_text (p, rel, args) ^ ";"
  | Add_rule (o, q, t) -> Printf.sprintf "add at %s: %s" (peer_name o) (rule_text (o, q, t))
  | Drop_rule (o, i) -> Printf.sprintf "drop at %s: rule %d mod count" (peer_name o) i
  | Install (o, q, t) ->
    Printf.sprintf "install at %s from %s: %s" (peer_name o) (peer_name q) (rule_text (o, q, t))

let fault_text = function
  | Clean -> "none (inmem)"
  | Latency s -> Printf.sprintf "latency 2.0 jitter 1.5 under reliable, seed %d" s
  | Duplicate s -> Printf.sprintf "duplicate 0.5, seed %d" s
  | Lossy { seed; loss; dup; phase; cut = a, b; at; len } ->
    Printf.sprintf "loss %.2f dup %.2f under reliable, seed %d; phase %d: %d rounds, \
                    cut p%d|p%d for %d" loss dup seed phase at a b len
  | Crash { seed; loss; victim; phase; before; down } ->
    Printf.sprintf "loss %.2f dup 0.05 under reliable, seed %d; phase %d: crash p%d \
                    %d rounds in, %d down" loss seed phase victim before down

(* Each peer's first phase as a loadable .wdl program, then the later
   phases as op lists, then the fault schedule. *)
let print spec =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let first, later = match spec.phases with [] -> ([], []) | f :: l -> (f, l) in
  for i = 0 to spec.n_peers - 1 do
    add (Printf.sprintf "--- %s.wdl\n%s\n" (peer_name i) (decls spec (peer_name i)));
    List.iter
      (function
        | Insert (p, rel, args) when p = i -> add (fact_text (p, rel, args) ^ ";\n")
        | Add_rule (o, q, t) when o = i -> add (rule_text (o, q, t) ^ "\n")
        | _ -> ())
      first
  done;
  List.iteri
    (fun i ops ->
      add (Printf.sprintf "--- phase %d\n" (i + 1));
      List.iter (fun op -> add (op_text op ^ "\n")) ops)
    later;
  add ("--- faults: " ^ fault_text spec.fault ^ "\n");
  Buffer.contents buf

(* Drop whole later phases, then single ops from any phase. *)
let shrink spec yield =
  let with_phases phases = yield { spec with phases } in
  (match spec.phases with
  | first :: later -> QCheck.Shrink.list_spine later (fun l -> with_phases (first :: l))
  | [] -> ());
  List.iteri
    (fun i ops ->
      QCheck.Shrink.list_spine ops (fun ops ->
          with_phases (List.mapi (fun j o -> if i = j then ops else o) spec.phases)))
    spec.phases

let arb fault_gen = QCheck.make ~print ~shrink (gen fault_gen)

(* {1 The tap and the oracle} *)

let rule_key r = Format.asprintf "%a" Rule.pp r

type tap = {
  sent : (string * string, Fact.t list) Hashtbl.t;  (** (src, dst): last batch *)
  installed : (string * string * string, unit) Hashtbl.t;  (** (src, dst, rule) *)
  received : (string * string, Fact.t list) Hashtbl.t;  (** (dst, src): last batch *)
  mutable outbox : Message.t list;  (** sent in the current round *)
}

let tap_transport tap (inner : Message.t Transport.t) =
  let on_send (m : Message.t) =
    let key r = (m.Message.src, m.Message.dst, rule_key r) in
    tap.outbox <- m :: tap.outbox;
    Option.iter (Hashtbl.replace tap.sent (m.Message.src, m.Message.dst)) m.Message.facts;
    List.iter (fun r -> Hashtbl.replace tap.installed (key r) ()) m.Message.installs;
    List.iter (fun r -> Hashtbl.remove tap.installed (key r)) m.Message.retracts
  in
  let on_drain dst (m : Message.t) =
    Option.iter (Hashtbl.replace tap.received (dst, m.Message.src)) m.Message.facts
  in
  { inner with
    Transport.send = (fun ~src ~dst m -> on_send m; inner.Transport.send ~src ~dst m);
    send_many =
      (fun ~dst items ->
        List.iter (fun (_, m) -> on_send m) items;
        inner.Transport.send_many ~dst items);
    drain =
      (fun dst ->
        let msgs = inner.Transport.drain dst in
        List.iter (on_drain dst) msgs;
        msgs) }

(* The tap mirrors the diff protocol's memory: [remove_peer] makes
   every sender forget what it sent to [name]; [adopt_peer] also drops
   what [name] sent and what each side cached from the other. *)
let forget ?(rejoin = false) tap name =
  let drop tbl doomed =
    Hashtbl.fold (fun k _ acc -> if doomed k then k :: acc else acc) tbl []
    |> List.iter (Hashtbl.remove tbl)
  in
  let touches a b = b = name || (rejoin && a = name) in
  drop tap.sent (fun (src, dst) -> touches src dst);
  drop tap.installed (fun (src, dst, _) -> touches src dst);
  if rejoin then drop tap.received (fun (dst, src) -> touches dst src)

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt
let pairs_text l = String.concat "; " (List.map (fun (d, x) -> d ^ ": " ^ x) l)
let fact_key (f : Fact.t) = (f.Fact.peer, Format.asprintf "%a" Fact.pp f)

let intensional db =
  Database.fold
    (fun i acc -> if i.kind = Intensional then (i.name, i.data) :: acc else acc)
    db []
  |> List.sort compare
  |> List.map (fun (n, d) -> (n, Wdl_store.Relation.to_sorted_list d))

(* [p] after a stage that read [consumed], the (source, batch) pairs
   received before it, against Reference from scratch. *)
let agrees tap p consumed =
  let name = Peer.name p in
  let db = Database.copy (Peer.database p) in
  Database.clear_intensional db;
  List.iter
    (fun (f : Fact.t) ->
      if Database.kind db f.Fact.rel = Some Decl.Intensional then
        ignore (Database.insert db ~rel:f.Fact.rel (Wdl_store.Tuple.of_list f.Fact.args)))
    (List.concat_map snd consumed);
  (* The planner hoists local literals ahead of the first remote atom
     (S30), which moves the delegation boundary; with no cardinality
     signal [order_body] hoists exactly the same ones. *)
  let rules =
    List.map
      (Wdl_eval.Plan.order_body ~self:name ~stats:(fun _ -> 0))
      (Peer.rules p @ List.map snd (Peer.delegated_rules p))
  in
  match Wdl_eval.Reference.run ~self:name db rules with
  | Error _ -> violation "%s: the reference does not stratify its rules" name
  | Ok (r, _) ->
    if intensional db <> intensional (Peer.database p) then
      violation "%s: views differ from the reference's" name;
    let mine f = Hashtbl.fold (fun k v acc -> f k v @ acc) in
    let same what got want =
      let got = List.sort_uniq compare got and want = List.sort_uniq compare want in
      if got <> want then
        violation "%s: %s [%s] but the reference says [%s]" name what (pairs_text got)
          (pairs_text want)
    in
    same "sent"
      (mine (fun (src, _) b -> if src = name then List.map fact_key b else []) tap.sent [])
      (List.map fact_key r.Wdl_eval.Fixpoint.messages);
    same "holds delegations"
      (mine (fun (src, dst, rule) () -> if src = name then [ (dst, rule) ] else [])
         tap.installed [])
      (List.map (fun (dst, rule) -> (dst, rule_key rule)) r.Wdl_eval.Fixpoint.suspensions)

(* At a quiescent point every batch sent is the one its destination
   holds, and every delegation is installed at its target. *)
let closed tap sys =
  let keys b = List.sort_uniq compare (List.map fact_key b) in
  Hashtbl.iter
    (fun (src, dst) batch ->
      let got = Option.value ~default:[] (Hashtbl.find_opt tap.received (dst, src)) in
      if keys got <> keys batch then
        violation "quiescent, but %s does not hold the batch %s sent it" dst src)
    tap.sent;
  Hashtbl.iter
    (fun (src, dst, rule) () ->
      let at = Option.fold ~none:[] ~some:Peer.delegated_rules (System.find_peer sys dst) in
      if not (List.exists (fun (s, r) -> s = src && rule_key r = rule) at) then
        violation "quiescent, but %s's delegation %s is not installed at %s" src rule dst)
    tap.installed

(* At a quiescent point each peer's rules are closed over its state:
   [Reference] re-run over it deduces nothing new, and every inductive
   update and every fact it ships is held where it belongs, extensional
   facts in the store, view facts in the destination's views. *)
let closed_under_rules sys p =
  let name = Peer.name p in
  let rules =
    List.map
      (Wdl_eval.Plan.order_body ~self:name ~stats:(fun _ -> 0))
      (Peer.rules p @ List.map snd (Peer.delegated_rules p))
  in
  let holds (f : Fact.t) =
    match System.find_peer sys f.Fact.peer with
    | Some q -> List.exists (Fact.equal f) (Peer.query q f.Fact.rel)
    | None -> false
  in
  match Wdl_eval.Reference.run ~self:name (Database.copy (Peer.database p)) rules with
  | Error _ -> violation "%s: the reference does not stratify its rules" name
  | Ok (r, deduced) ->
    List.iter
      (fun f -> violation "quiescent, but %s still deduces %s" name (snd (fact_key f)))
      deduced;
    List.iter
      (fun f ->
        if not (holds f) then
          violation "quiescent, but %s's %s is not held at %s" name (snd (fact_key f))
            f.Fact.peer)
      (r.Wdl_eval.Fixpoint.induced @ r.Wdl_eval.Fixpoint.messages)

(* [true] iff some flow snapshot knows a rule [id] whose send set
   covers [dst]. Ids ending in "#?" (origin lost by a restore) are
   outside the oracle's contract. *)
let covered snaps id dst =
  String.ends_with ~suffix:"#?" id
  || List.exists
       (fun fl ->
         let named, any = Wdl_analysis.Flow.rule_sends fl id in
         any || List.mem dst named)
       snaps

(* {1 The runner} *)

type state = {
  sys : System.t;
  tap : tap;
  flow : bool;
  mutable snaps : Wdl_analysis.Flow.t list;
  mutable round : int;
  mutable phase : int;
  mutable inserted : string list;
      (* peers given a new local fact that have not staged since *)
}

let snapshot_flows st =
  st.snaps <- List.map Peer.flow (System.peers st.sys) @ st.snaps

let check_flow st (m : Message.t) =
  if List.compare_lengths m.Message.install_origins m.Message.installs <> 0 then
    violation "%s -> %s: install origins not aligned" m.Message.src m.Message.dst;
  List.iter
    (fun id ->
      if not (covered st.snaps id m.Message.dst) then
        violation "delivery (%s -> %s) not covered by a static send set" id m.Message.dst)
    (m.Message.fact_origins @ m.Message.install_origins)

(* Seeded stages that took a new local fact, run by peers holding a
   rule that negates or aggregates, over every run: the oracle must
   see the gate admit such stages. *)
let nonmono_seeded = ref 0

(* Every stage is seeded or full for one reason. *)
let stages_add_up p =
  let s = Peer.stats p in
  let full = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Peer.full_stages in
  if s.Peer.delta_stages + full <> s.Peer.stages then
    violation "%s: %d seeded and %d full stages, but %d stages" (Peer.name p)
      s.Peer.delta_stages full s.Peer.stages

let round st =
  st.round <- st.round + 1;
  let received = Hashtbl.copy st.tap.received in
  let stage p = (Peer.name p, Peer.stage_number p) in
  let stages = List.map stage (System.peers st.sys) in
  let seeded p = (Peer.name p, (Peer.stats p).Peer.delta_stages) in
  let seeded0 = List.map seeded (System.peers st.sys) in
  if st.flow then snapshot_flows st;
  st.tap.outbox <- [];
  ignore (System.round st.sys);
  if st.flow then begin
    snapshot_flows st;
    List.iter (check_flow st) st.tap.outbox
  end;
  List.iter
    (fun p ->
      let name = Peer.name p in
      stages_add_up p;
      if not (List.mem (stage p) stages) then begin
        if
          List.mem name st.inserted
          && (not (List.mem (seeded p) seeded0))
          && List.exists
               (fun r -> not (Wdl_eval.Stratify.monotone r))
               (Peer.rules p @ List.map snd (Peer.delegated_rules p))
        then incr nonmono_seeded;
        st.inserted <- List.filter (( <> ) name) st.inserted;
        agrees st.tap p
          (Hashtbl.fold
             (fun (dst, src) b acc -> if dst = name then (src, b) :: acc else acc)
             received [])
      end)
    (System.peers st.sys)

let rounds st n = for _ = 1 to n do round st done

let quiesce st =
  let limit = st.round + 3000 in
  while not (System.quiescent st.sys) do
    if st.round >= limit then violation "no quiescence within 3000 rounds";
    round st
  done;
  closed st.tap st.sys;
  List.iter (closed_under_rules st.sys) (System.peers st.sys)

let apply st op =
  let at i f = Option.iter f (System.find_peer st.sys (peer_name i)) in
  match op with
  | Insert (i, rel, args) ->
    at i (fun p ->
        let f = Fact.make ~rel ~peer:(peer_name i) args in
        if not (List.exists (Fact.equal f) (Peer.query p rel)) then
          st.inserted <- Peer.name p :: st.inserted;
        ignore (Peer.insert p f))
  | Delete (i, rel, args) ->
    at i (fun p -> ignore (Peer.delete p (Fact.make ~rel ~peer:(peer_name i) args)))
  | Add_rule (o, q, t) ->
    let rule = Result.get_ok (Parser.rule (rule_text (o, q, t))) in
    at o (fun p -> ignore (Peer.add_rule p rule))
  | Drop_rule (o, i) ->
    at o (fun p ->
        match Peer.rules p with
        | [] -> ()
        | rs -> ignore (Peer.remove_rule p (List.nth rs (i mod List.length rs))))
  | Install (o, q, t) ->
    let rule = Result.get_ok (Parser.rule (rule_text (o, q, t))) in
    at o (fun p ->
        Peer.receive p
          (Message.make ~src:(peer_name q) ~dst:(peer_name o) ~stage:0 ~installs:[ rule ] ()))

let is_rule_op = function
  | Add_rule _ | Drop_rule _ | Install _ -> true
  | Insert _ | Delete _ -> false
let close_journal p = Option.iter Wdl_store.Journal.close (Peer.journal p)

(* The phase's rule ops, a checkpoint of the victim, every base op
   (the victim's journaled), [before] rounds, the crash, [down] rounds
   down, then [Persist.recover] and [adopt_peer]. Every op lands
   before any stage, as in the fault-free run. *)
let crash_phase st net ~dir ~victim ~before ~down ops =
  let name = peer_name victim in
  let rule_ops, base_ops = List.partition is_rule_op ops in
  List.iter (apply st) rule_ops;
  let p = System.peer st.sys name in
  Persist.attach p ~dir;
  Persist.checkpoint p ~dir;
  List.iter (apply st) base_ops;
  rounds st before;
  Simnet.crash net name;
  System.remove_peer st.sys name;
  close_journal p;
  forget st.tap name;
  rounds st down;
  match Persist.recover ~dir ~fallback_name:name () with
  | Error e -> violation "recovering %s: %s" name e
  | Ok p ->
    Simnet.restart net name;
    System.adopt_peer st.sys p;
    forget ~rejoin:true st.tap name;
    quiesce st

(* Every relation and every installed delegation at every peer. *)
let dump sys =
  let delegations p =
    List.map (fun (s, r) -> Peer.name p ^ " runs for " ^ s ^ ": " ^ rule_key r)
      (Peer.delegated_rules p)
  in
  Album.dump sys
  ^ String.concat "\n" (List.sort compare (List.concat_map delegations (System.peers sys)))

let transport_of fault =
  let reliable ?base_latency ?jitter ~seed ~loss ~dup () =
    let inner, net =
      Simnet.create_with_control ~seed ?base_latency ?jitter ~loss ~duplicate:dup ()
    in
    let transport, ctl = Reliable.wrap ~seed:(seed + 1) inner in
    (transport, Some net, Some ctl)
  in
  match fault with
  | Clean -> (Inmem.create (), None, None)
  | Latency seed -> reliable ~base_latency:2.0 ~jitter:1.5 ~seed ~loss:0. ~dup:0. ()
  | Duplicate seed -> (Simnet.create ~seed ~duplicate:0.5 (), None, None)
  | Lossy l -> reliable ~seed:l.seed ~loss:l.loss ~dup:l.dup ()
  | Crash c -> reliable ~seed:c.seed ~loss:c.loss ~dup:0.05 ()

let phase_ops st spec net ~dir i ops =
  match (spec.fault, net) with
  | Crash c, Some net when c.phase = i ->
    crash_phase st net ~dir ~victim:c.victim ~before:c.before ~down:c.down ops
  | Lossy l, Some net when l.phase = i ->
    List.iter (apply st) ops;
    rounds st l.at;
    let a = peer_name (fst l.cut) and b = peer_name (snd l.cut) in
    Simnet.partition net ~between:a ~and_:b;
    rounds st l.len;
    Simnet.heal net ~between:a ~and_:b;
    quiesce st
  | _ ->
    List.iter (apply st) ops;
    quiesce st

(* Runs [spec] to its last quiescent point: the system, or the first
   violated invariant with its phase and round. [flow] adds the static
   send-set check on every message. *)
let run ?(flow = false) spec =
  Tmpdir.with_temp_dir @@ fun dir ->
  let transport, net, ctl = transport_of spec.fault in
  let tap =
    { sent = Hashtbl.create 16; installed = Hashtbl.create 16;
      received = Hashtbl.create 16; outbox = [] }
  in
  let sys = System.create ~transport:(tap_transport tap transport) ~drop_unknown:false () in
  Option.iter (System.wire_reliable sys) ctl;
  let st =
    { sys; tap; flow; snaps = []; round = 0; phase = 0; inserted = [] }
  in
  for i = 0 to spec.n_peers - 1 do
    let name = peer_name i in
    Result.get_ok (Peer.load_string (System.add_peer sys name) (decls spec name))
  done;
  let fault_phase =
    match spec.fault with Lossy { phase; _ } | Crash { phase; _ } -> phase | _ -> 0
  in
  let result =
    try
      for i = 0 to max (List.length spec.phases) (fault_phase + 1) - 1 do
        st.phase <- i;
        phase_ops st spec net ~dir i (Option.value ~default:[] (List.nth_opt spec.phases i))
      done;
      match ctl with
      | Some ctl when Reliable.dead_links ctl <> [] -> violation "gave up on a live link"
      | _ -> Ok sys
    with Violation msg ->
      Error (Printf.sprintf "phase %d, round %d: %s" st.phase st.round msg)
  in
  List.iter close_journal (System.peers sys);
  result

(* QCheck's view of a run: the system, or a failed test. *)
let run_exn ?flow spec =
  match run ?flow spec with Ok sys -> sys | Error e -> QCheck.Test.fail_report e

(* The end state [spec] reaches with no fault at all. *)
let fault_free spec = dump (run_exn { spec with fault = Clean })
