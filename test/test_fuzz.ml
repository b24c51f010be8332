(* Fuzzing the distributed engine: the [Sim] harness's random
   multi-peer systems checked against global invariants — quiescence,
   determinism, transport-independence (including duplicating
   networks), closure, snapshot stability and draining — plus a
   model-based check of Wefeed and the parser's totality. *)
open Wdl_syntax
open Webdamlog

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

(* Every relation and delegation left after deleting every base fact
   a spec inserted must be one that needs no base data: views
   empty (builtin windows excepted: they keep a fact until it expires),
   and each installed delegation one of its owner's rules verbatim, the
   unconditional kind a rule starting with a remote atom installs, or
   one the spec installed directly. *)
let drained spec sys =
  let installed =
    List.concat_map
      (List.filter_map (function
        | Sim.Install (o, q, t) -> Some (Sim.peer_name o, Sim.peer_name q, Sim.rule_text (o, q, t))
        | _ -> None))
      spec.Sim.phases
  in
  List.for_all
    (fun p ->
      List.for_all
        (fun rel -> List.mem rel Sim.builtin_held || Peer.query p rel = [])
        Sim.int_rels
      && List.for_all
           (fun (src, r) ->
             List.exists (Rule.equal r) (Peer.rules (System.peer sys src))
             || List.exists
                  (fun (o, q, text) ->
                    o = Peer.name p && q = src
                    && Rule.equal r (Result.get_ok (Parser.rule text)))
                  installed)
           (Peer.delegated_rules p))
    (System.peers sys)

let tests =
  [
    feed_model_test;
    parser_total_test;
    QCheck.Test.make ~count:60 ~long_factor:20 ~name:"random systems quiesce"
      (Sim.arb Sim.any_fault) (fun spec -> ignore (Sim.run_exn spec); true);
    QCheck.Test.make ~count:40 ~long_factor:20 ~name:"final state is deterministic"
      (Sim.arb Sim.any_fault) (fun spec ->
        Sim.dump (Sim.run_exn spec) = Sim.dump (Sim.run_exn spec));
    QCheck.Test.make ~count:40 ~long_factor:20
      ~name:"simulated latency and jitter do not change the outcome"
      (Sim.arb Sim.latency) (fun spec ->
        Sim.dump (Sim.run_exn spec) = Sim.fault_free spec);
    QCheck.Test.make ~count:40 ~long_factor:20
      ~name:"a duplicating network does not change the outcome"
      (Sim.arb Sim.duplicate) (fun spec ->
        Sim.dump (Sim.run_exn spec) = Sim.fault_free spec);
    (* [Sim.run] checks each peer against Reference after every round
       it stages in, and closure at every quiescent point. *)
    QCheck.Test.make ~count:30 ~long_factor:20
      ~name:"quiescent state is closed under every peer's rules"
      (Sim.arb Sim.clean) (fun spec -> ignore (Sim.run_exn spec); true);
    (* Builtin modules restart empty on restore, by design (S29). *)
    QCheck.Test.make ~count:30 ~long_factor:20
      ~name:"snapshot/restore after quiescence preserves every peer"
      (Sim.arb Sim.clean) (fun spec ->
        List.for_all
          (fun p ->
            match Peer.restore (Peer.snapshot p) with
            | Error _ -> false
            | Ok p' ->
              ignore (Peer.stage p');
              List.for_all
                (fun rel ->
                  List.mem rel Sim.builtin_held
                  || List.equal Fact.equal (Peer.query p rel) (Peer.query p' rel))
                (Peer.relation_names p))
          (System.peers (Sim.run_exn spec)));
    QCheck.Test.make ~count:30 ~long_factor:20
      ~name:"deleting all base facts drains derived state" (Sim.arb Sim.clean)
      (fun spec ->
        let delete = function Sim.Insert (p, r, a) -> Some (Sim.Delete (p, r, a)) | _ -> None in
        let deletes = List.concat_map (List.filter_map delete) spec.Sim.phases in
        drained spec (Sim.run_exn { spec with phases = spec.Sim.phases @ [ deletes ] }));
  ]

let suite = List.map QCheck_alcotest.to_alcotest tests
