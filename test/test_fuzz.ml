(* Fuzzing the distributed engine: random multi-peer programs built
   from safe templates, checked against global invariants —
   quiescence, determinism, transport-independence (including
   duplicating networks), and snapshot stability. *)
open Wdl_syntax
open Webdamlog

(* {1 A random system specification} *)

type spec = {
  n_peers : int;
  facts : (int * string * int) list;  (* (peer, relation, value) *)
  selections : (int * int) list;      (* sel@p points at peer q *)
  rules : string list;                (* rendered with peer names inline *)
}

let peer_name i = Printf.sprintf "p%d" i

let spec_gen =
  QCheck.Gen.(
    let* n_peers = int_range 2 4 in
    let any_peer = int_range 0 (n_peers - 1) in
    let* facts =
      list_size (int_range 2 12)
        (let* p = any_peer in
         let* rel = oneofl [ "r"; "data"; "base" ] in
         let* v = int_range 0 4 in
         return (p, rel, v))
    in
    let* selections = list_size (int_range 0 4) (pair any_peer any_peer) in
    let rule_gen =
      let* p = any_peer in
      let* q = any_peer in
      let pn = peer_name p and qn = peer_name q in
      oneofl
        [
          (* local view *)
          Printf.sprintf "v@%s($x) :- r@%s($x);" pn pn;
          (* remote pull: delegation with a constant peer *)
          Printf.sprintf "pulled@%s($x) :- data@%s($x);" pn qn;
          (* dynamic delegation driven by sel facts *)
          Printf.sprintf "dyn@%s($x) :- sel@%s($a), data@$a($x);" pn pn;
          (* messaging: send local facts to q *)
          Printf.sprintf "inboxr@%s($x) :- base@%s($x);" qn pn;
          (* inductive local update *)
          Printf.sprintf "acc@%s($x) :- r@%s($x);" pn pn;
          (* builtin filter *)
          Printf.sprintf "big@%s($x) :- data@%s($x), $x >= 2;" pn pn;
          (* negation over extensional data *)
          Printf.sprintf "fresh@%s($x) :- data@%s($x), not r@%s($x);" pn pn pn;
          (* view chained on a view *)
          Printf.sprintf "vv@%s($x) :- v@%s($x);" pn pn;
        ]
    in
    let* rules = list_size (int_range 1 6) rule_gen in
    return { n_peers; facts; selections; rules })

let spec_print spec =
  Printf.sprintf "peers=%d facts=[%s] sels=[%s] rules:\n%s" spec.n_peers
    (String.concat "; "
       (List.map
          (fun (p, rel, v) -> Printf.sprintf "%s@%d=%d" rel p v)
          spec.facts))
    (String.concat "; "
       (List.map (fun (p, q) -> Printf.sprintf "%d->%d" p q) spec.selections))
    (String.concat "\n" spec.rules)

let spec_arb = QCheck.make ~print:spec_print spec_gen

(* Views must be declared intensional for the templates above. *)
let decls name =
  String.concat "\n"
    (List.map
       (fun rel -> Printf.sprintf "int %s@%s(x);" rel name)
       [ "v"; "pulled"; "dyn"; "big"; "fresh"; "vv" ])

let build ?transport spec =
  let sys = System.create ?transport ~drop_unknown:true () in
  let peers =
    List.init spec.n_peers (fun i -> System.add_peer sys (peer_name i))
  in
  List.iteri
    (fun i peer ->
      match Peer.load_string peer (decls (peer_name i)) with
      | Ok () -> ()
      | Error e -> failwith e)
    peers;
  List.iter
    (fun (p, rel, v) ->
      match
        Peer.insert (List.nth peers p)
          (Fact.make ~rel ~peer:(peer_name p) [ Value.Int v ])
      with
      | Ok () -> ()
      | Error e -> failwith e)
    spec.facts;
  List.iter
    (fun (p, q) ->
      match
        Peer.insert (List.nth peers p)
          (Fact.make ~rel:"sel" ~peer:(peer_name p)
             [ Value.String (peer_name q) ])
      with
      | Ok () -> ()
      | Error e -> failwith e)
    spec.selections;
  (* Rules are installed at the peer named in their head. *)
  List.iter
    (fun rule_src ->
      let rule =
        match Parser.rule rule_src with Ok r -> r | Error e -> failwith e
      in
      let owner =
        match Term.as_name rule.Rule.head.Atom.peer with
        | Some n -> n
        | None -> failwith "fuzz rules have constant head peers"
      in
      match Peer.add_rule (System.peer sys owner) rule with
      | Ok () -> ()
      | Error e -> failwith e)
    spec.rules;
  (sys, peers)

let dump peers =
  String.concat "\n"
    (List.map
       (fun p ->
         let facts =
           List.concat_map
             (fun rel ->
               List.map (Format.asprintf "%a" Fact.pp) (Peer.query p rel))
             (Peer.relation_names p)
         in
         let delegated =
           List.map
             (fun (src, r) -> src ^ ":" ^ Format.asprintf "%a" Rule.pp r)
             (Peer.delegated_rules p)
           |> List.sort String.compare
         in
         Peer.name p ^ "{" ^ String.concat ";" facts ^ "|"
         ^ String.concat ";" delegated ^ "}")
       peers)

let run_to_quiescence sys =
  match System.run ~max_rounds:500 sys with
  | Ok _ -> true
  | Error _ -> false

(* The reference oracle's view of a quiescent system: re-running
   [Reference] over a copy of [p]'s store (views kept, so remote facts
   stay) under [p]'s rules and installed delegations must find nothing
   left to do — no new view fact, every induced fact already stored,
   every message fact held by its destination, every residual rule
   installed at its target under [p]'s name. *)
let closed_under_rules sys p =
  let db = Wdl_store.Database.copy (Peer.database p) in
  let rules = Peer.rules p @ List.map snd (Peer.delegated_rules p) in
  let holds (f : Fact.t) =
    match System.find_peer sys f.Fact.peer with
    | Some q -> List.exists (Fact.equal f) (Peer.query q f.Fact.rel)
    | None -> false
  in
  match Wdl_eval.Reference.run ~self:(Peer.name p) db rules with
  | Error _ -> false
  | Ok r ->
    r.Wdl_eval.Fixpoint.deduced = []
    && List.for_all holds r.Wdl_eval.Fixpoint.induced
    && List.for_all holds r.Wdl_eval.Fixpoint.messages
    && List.for_all
         (fun (target, rule) ->
           match System.find_peer sys target with
           | Some q ->
             List.exists
               (fun (src, r') -> src = Peer.name p && Rule.equal rule r')
               (Peer.delegated_rules q)
           | None -> false)
         r.Wdl_eval.Fixpoint.suspensions

(* {1 Model-based check of the Wefeed application} *)

type feed_spec = {
  follows : (int * int) list;  (* user -> followee, over 4 users *)
  mutes : (int * int) list;
  posts : (int * int) list;  (* (author, id) *)
}

let feed_user i = Printf.sprintf "u%d" i

let feed_spec_gen =
  QCheck.Gen.(
    let u = int_range 0 3 in
    let* follows = list_size (int_range 0 6) (pair u u) in
    let* mutes = list_size (int_range 0 3) (pair u u) in
    let* posts = list_size (int_range 0 8) (pair u (int_range 1 50)) in
    return { follows; mutes; posts })

let feed_spec_print s =
  Printf.sprintf "follows=[%s] mutes=[%s] posts=[%s]"
    (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) s.follows))
    (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d!%d" a b) s.mutes))
    (String.concat ";" (List.map (fun (a, i) -> Printf.sprintf "%d#%d" a i) s.posts))

let feed_model_test =
  QCheck.Test.make ~count:60
    ~name:"Wefeed timelines equal the relational model"
    (QCheck.make ~print:feed_spec_print feed_spec_gen)
    (fun spec ->
      let t = Wdl_feed.Feed.create () in
      for i = 0 to 3 do
        ignore (Wdl_feed.Feed.add_user t (feed_user i))
      done;
      List.iter
        (fun (a, b) ->
          if a <> b then
            Wdl_feed.Feed.follow t ~user:(feed_user a) ~whom:(feed_user b))
        spec.follows;
      List.iter
        (fun (a, b) -> Wdl_feed.Feed.mute t ~user:(feed_user a) ~whom:(feed_user b))
        spec.mutes;
      let posts = List.sort_uniq compare spec.posts in
      List.iter
        (fun (a, id) ->
          Wdl_feed.Feed.post t ~author:(feed_user a) ~id
            ~text:(Printf.sprintf "t%d" id) ~topic:"k")
        posts;
      (match Wdl_feed.Feed.run t with Ok _ -> () | Error e -> failwith e);
      (* The model: u sees post (a, id) iff u follows a, a <> u, and u
         has not muted a. *)
      List.for_all
        (fun u ->
          let expected =
            List.filter
              (fun (a, _) ->
                a <> u
                && List.mem (u, a) spec.follows
                && not (List.mem (u, feed_user a)
                          (List.map (fun (x, y) -> (x, feed_user y)) spec.mutes)))
              posts
            |> List.map (fun (a, id) -> (feed_user a, id))
            |> List.sort_uniq compare
          in
          let got =
            Wdl_feed.Feed.timeline t ~user:(feed_user u)
            |> List.map (fun (e : Wdl_feed.Feed.entry) -> (e.author, e.id))
            |> List.sort_uniq compare
          in
          expected = got)
        [ 0; 1; 2; 3 ])

let parser_total_test =
  QCheck.Test.make ~count:500 ~name:"the parser is total on arbitrary bytes"
    (QCheck.make
       ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 60)))
    (fun junk ->
      match Parser.program junk with Ok _ | Error _ -> true)

let tests =
  [
    feed_model_test;
    parser_total_test;
    QCheck.Test.make ~count:60 ~name:"random systems quiesce" spec_arb
      (fun spec ->
        let sys, _ = build spec in
        run_to_quiescence sys);
    QCheck.Test.make ~count:40 ~name:"final state is deterministic" spec_arb
      (fun spec ->
        let go () =
          let sys, peers = build spec in
          ignore (run_to_quiescence sys);
          dump peers
        in
        go () = go ());
    QCheck.Test.make ~count:40
      ~name:"simulated latency and jitter do not change the outcome" spec_arb
      (fun spec ->
        let base =
          let sys, peers = build spec in
          ignore (run_to_quiescence sys);
          dump peers
        in
        let sim =
          let transport =
            Wdl_net.Simnet.create ~seed:9 ~base_latency:2.0 ~jitter:1.5 ()
          in
          let sys, peers = build ~transport spec in
          ignore (run_to_quiescence sys);
          dump peers
        in
        base = sim);
    QCheck.Test.make ~count:40
      ~name:"a duplicating network does not change the outcome" spec_arb
      (fun spec ->
        let base =
          let sys, peers = build spec in
          ignore (run_to_quiescence sys);
          dump peers
        in
        let dup =
          let transport =
            Wdl_net.Simnet.create ~seed:3 ~duplicate:0.5 ()
          in
          let sys, peers = build ~transport spec in
          ignore (run_to_quiescence sys);
          dump peers
        in
        base = dup);
    QCheck.Test.make ~count:30
      ~name:"quiescent state is closed under every peer's rules" spec_arb
      (fun spec ->
        let sys, peers = build spec in
        run_to_quiescence sys && List.for_all (closed_under_rules sys) peers);
    QCheck.Test.make ~count:30
      ~name:"snapshot/restore after quiescence preserves every peer" spec_arb
      (fun spec ->
        let sys, peers = build spec in
        ignore (run_to_quiescence sys);
        List.for_all
          (fun p ->
            match Peer.restore (Peer.snapshot p) with
            | Error _ -> false
            | Ok p' ->
              ignore (Peer.stage p');
              List.for_all
                (fun rel ->
                  List.equal Fact.equal (Peer.query p rel) (Peer.query p' rel))
                (Peer.relation_names p))
          peers);
    QCheck.Test.make ~count:30
      ~name:"deleting all base facts drains derived state" spec_arb
      (fun spec ->
        let sys, peers = build spec in
        ignore (run_to_quiescence sys);
        (* Remove every original fact and selection. *)
        List.iter
          (fun (p, rel, v) ->
            ignore
              (Peer.delete (List.nth peers p)
                 (Fact.make ~rel ~peer:(peer_name p) [ Value.Int v ])))
          spec.facts;
        List.iter
          (fun (p, q) ->
            ignore
              (Peer.delete (List.nth peers p)
                 (Fact.make ~rel:"sel" ~peer:(peer_name p)
                    [ Value.String (peer_name q) ])))
          spec.selections;
        ignore (run_to_quiescence sys);
        (* All views empty; every DATA-DRIVEN delegation retracted. A
           rule whose body starts with a remote atom delegates
           unconditionally (the paper's Julia->Jules rule stays
           installed), so only the sel-driven residuals must drain.
           Extensional relations may retain messaged/inductive facts
           (updates persist, by design). *)
        List.for_all
          (fun p ->
            List.for_all
              (fun rel -> Peer.query p rel = [])
              [ "v"; "pulled"; "dyn"; "big"; "fresh"; "vv" ]
            && List.for_all
                 (fun (_, (r : Rule.t)) ->
                   Term.as_name r.Rule.head.Atom.rel <> Some "dyn")
                 (Peer.delegated_rules p))
          peers);
  ]

let suite = List.map QCheck_alcotest.to_alcotest tests
