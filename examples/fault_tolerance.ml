(* Reliable delivery under fault injection, end to end: the SIGMOD
   album scenario (§3) run over a simulated network that loses a
   quarter of its messages and duplicates a tenth, with a partition
   that heals and a peer that crashes mid-run and recovers from its
   write-ahead journal.

   The reliable session layer (lib/net/reliable.ml) wraps any
   transport with per-link sequence numbers, cumulative acks,
   retransmission with exponential backoff and receiver-side dedup —
   so the rule engine above it sees exactly-once, per-link-FIFO
   delivery and converges to the same state as on a perfect network.

   Run with: dune exec examples/fault_tolerance.exe *)

module Peer = Webdamlog.Peer
module System = Webdamlog.System
module Simnet = Wdl_net.Simnet
module Reliable = Wdl_net.Reliable
open Wdl_syntax

let ok = function Ok v -> v | Error e -> failwith e
let pf fmt = Format.printf fmt

let envelope_sizer e =
  match e.Reliable.env_payload with
  | Some m -> Webdamlog.Message.size m
  | None -> 8

let attendees = [ "alice"; "bob"; "carol" ]

(* A fresh directory under the system temp dir for bob's journal and
   checkpoint, removed with its contents when [f] returns or raises. *)
let with_temp_dir f =
  let dir = Filename.temp_file "wdl_ft_example" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* sigmod aggregates everyone's pictures into the conference album;
   every attendee mirrors the album back home. *)
let load sys =
  let sigmod = System.add_peer sys "sigmod" in
  ok
    (Peer.load_string sigmod
       (String.concat "\n"
          ("ext attendee@sigmod(a);"
           :: "int album@sigmod(id, name, owner);"
           :: "album@sigmod($i, $n, $a) :- attendee@sigmod($a), \
               pictures@$a($i, $n);"
           :: List.map
                (fun a -> Printf.sprintf "attendee@sigmod(%S);" a)
                attendees)));
  List.iter
    (fun a ->
      let p = System.add_peer sys a in
      ok
        (Peer.load_string p
           (Printf.sprintf
              {|ext pictures@%s(id, name);
                int myAlbum@%s(id, name, owner);
                pictures@%s(1, "%s_1.jpg");
                myAlbum@%s($i, $n, $o) :- album@sigmod($i, $n, $o);|}
              a a a a a)))
    attendees

let () =
  (* A hostile network: 25% loss, 10% duplication, deterministic. *)
  let inner, net =
    Simnet.create_with_control ~sizer:envelope_sizer ~seed:11 ~loss:0.25
      ~duplicate:0.10 ()
  in
  let transport, rctl = Reliable.wrap inner in
  (* drop_unknown:false — a message addressed to a crashed (removed)
     peer must stay queued for retransmission, because fact batches
     are only re-sent when they change. *)
  let sys = System.create ~transport ~drop_unknown:false () in
  load sys;

  pf "running the album scenario over a network with 25%% loss and \
      10%% duplication...@.";
  for _ = 1 to 3 do
    ignore (System.round sys)
  done;

  pf "partitioning sigmod from alice mid-run...@.";
  Simnet.partition net ~between:"sigmod" ~and_:"alice";
  for _ = 1 to 10 do
    ignore (System.round sys)
  done;
  Simnet.heal net ~between:"sigmod" ~and_:"alice";
  pf "partition healed.@.";

  (* Crash bob after checkpointing: his journal is his memory. *)
  with_temp_dir @@ fun dir ->
  Webdamlog.Persist.attach (System.peer sys "bob") ~dir;
  ignore (ok (System.run ~max_rounds:2000 sys));
  Webdamlog.Persist.checkpoint (System.peer sys "bob") ~dir;

  ok
    (Peer.insert (System.peer sys "bob")
       (Fact.make ~rel:"pictures" ~peer:"bob"
          [ Value.Int 2; Value.String "bob_2.jpg" ]));
  ignore (ok (System.run ~max_rounds:2000 sys));

  pf "@.crashing bob (journal at %s)...@." dir;
  Simnet.crash net "bob";
  System.remove_peer sys "bob";
  (* Life goes on while bob is down. *)
  ok
    (Peer.insert (System.peer sys "alice")
       (Fact.make ~rel:"pictures" ~peer:"alice"
          [ Value.Int 2; Value.String "alice_2.jpg" ]));
  for _ = 1 to 5 do
    ignore (System.round sys)
  done;

  pf "recovering bob from snapshot + journal...@.";
  let replayed = ref 0 in
  let bob =
    ok
      (Webdamlog.Persist.recover
         ~on_replay:(fun _ -> incr replayed)
         ~dir ~fallback_name:"bob" ())
  in
  pf "  %d journal entr%s replayed on top of the checkpoint@." !replayed
    (if !replayed = 1 then "y" else "ies");
  Simnet.restart net "bob";
  System.adopt_peer sys bob;
  ignore (ok (System.run ~max_rounds:2000 sys));

  pf "@.converged after %d rounds.@." (System.rounds sys);
  let album = List.length (Peer.query (System.peer sys "sigmod") "album") in
  pf "album@sigmod holds %d pictures (3 peers, alice and bob added one \
      each mid-run)@."
    album;
  List.iter
    (fun a ->
      pf "  myAlbum@%-6s mirrors %d@." a
        (List.length (Peer.query (System.peer sys a) "myAlbum")))
    attendees;

  let s = Reliable.stats rctl in
  pf "@.what the reliable layer absorbed:@.";
  pf "  %d message(s) lost or stuck in the partition (retransmitted)@."
    s.Wdl_net.Netstats.retransmits;
  pf "  %d duplicate(s) dropped at the receivers@."
    s.Wdl_net.Netstats.dup_dropped;
  pf "  %d lost by the simulated network in total@."
    (Simnet.messages_lost net);
  assert (album = 5);
  assert (Reliable.dead_links rctl = []);
  pf "@.the engine never saw any of it: exactly-once, in-order, \
      converged.@."
