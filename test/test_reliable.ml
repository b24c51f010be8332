(* Reliable session layer: exactly-once delivery over faulty links, and
   crash recovery of a peer from its journal. *)
open Wdl_syntax
open Wdl_net
open Webdamlog
open Check

(* {1 Transport-level unit tests} *)

(* An Inmem that silently eats the first [n] sends — deterministic
   loss, unlike Simnet's seeded coin. *)
let drop_first n =
  let inner : 'a Transport.t = Inmem.create () in
  let dropped = ref 0 in
  {
    inner with
    Transport.send =
      (fun ~src ~dst m ->
        if !dropped < n then incr dropped
        else inner.Transport.send ~src ~dst m);
  }

let fast = { Reliable.default_config with rto = 1.0; rto_jitter = 0. }

(* alice and bob as two processes: Reliable over Wire over Tcp, one
   control each, and a function that closes both sockets. *)
let tcp_pair ?config () =
  let bytes_a, ca = Tcp.create () in
  let bytes_b, cb = Tcp.create () in
  Tcp.register ca ~peer:"bob" { Tcp.host = "127.0.0.1"; port = Tcp.port cb };
  Tcp.register cb ~peer:"alice" { Tcp.host = "127.0.0.1"; port = Tcp.port ca };
  let ta, ctl_a = Reliable.wrap ?config (Wire.envelope_transport bytes_a) in
  let tb, ctl_b = Reliable.wrap ?config (Wire.envelope_transport bytes_b) in
  (ta, ctl_a, tb, ctl_b, fun () -> Tcp.close ca; Tcp.close cb)

let unit_tests =
  [
    tc "lost message is retransmitted, delivered once, then acked" (fun () ->
        let t, ctl = Reliable.wrap ~config:fast (drop_first 1) in
        t.Transport.send ~src:"a" ~dst:"b" "x";
        check_int "eaten" 0 (List.length (t.Transport.drain "b"));
        check_int "unacked" 1 (Reliable.unacked ctl);
        t.Transport.advance 1.1;
        Alcotest.check (Alcotest.list Alcotest.string) "retransmitted" [ "x" ]
          (t.Transport.drain "b");
        check_int "once only" 0 (List.length (t.Transport.drain "b"));
        (* b's cumulative ack rides a pure-ack frame drained by a. *)
        ignore (t.Transport.drain "a");
        check_int "acked" 0 (Reliable.unacked ctl);
        let s = t.Transport.stats () in
        check_int "retransmits counted" 1 s.Netstats.retransmits;
        check_int "ack counted" 1 s.Netstats.acked);
    tc "duplicated copies are deduped" (fun () ->
        let inner = Simnet.create ~jitter:0. ~duplicate:1.0 () in
        let t, _ = Reliable.wrap ~config:fast inner in
        t.Transport.send ~src:"a" ~dst:"b" 7;
        t.Transport.advance 1.0;
        Alcotest.check (Alcotest.list Alcotest.int) "one copy" [ 7 ]
          (t.Transport.drain "b");
        check_bool "dup counted" ((t.Transport.stats ()).Netstats.dup_dropped >= 1));
    tc "per-link FIFO survives inner reordering" (fun () ->
        (* Heavy jitter reorders Simnet's deliveries within the link;
           the sequence numbers restore send order. *)
        let inner = Simnet.create ~seed:3 ~base_latency:1.0 ~jitter:0.9 () in
        let t, _ = Reliable.wrap ~config:fast inner in
        for i = 1 to 8 do
          t.Transport.send ~src:"a" ~dst:"b" i
        done;
        let got = ref [] in
        for _ = 1 to 30 do
          t.Transport.advance 0.2;
          got := !got @ t.Transport.drain "b"
        done;
        Alcotest.check (Alcotest.list Alcotest.int) "in order"
          [ 1; 2; 3; 4; 5; 6; 7; 8 ] !got);
    tc "acks piggyback on reverse traffic" (fun () ->
        let t, ctl = Reliable.wrap ~config:fast (Inmem.create ()) in
        t.Transport.send ~src:"a" ~dst:"b" "ping";
        ignore (t.Transport.drain "b");
        t.Transport.send ~src:"b" ~dst:"a" "pong";
        (* a's drain processes the cumulative ack riding on "pong" (and
           the pure ack b emitted) — only "pong" itself stays unacked. *)
        ignore (t.Transport.drain "a");
        check_int "ping acked" 1 (Reliable.unacked ctl);
        ignore (t.Transport.drain "b");
        check_int "all quiet" 0 (Reliable.unacked ctl));
    tc "give-up surfaces a dead peer instead of blocking forever" (fun () ->
        (* "ghost" never drains, so nothing is ever acked. *)
        let t, ctl =
          Reliable.wrap
            ~config:{ fast with max_attempts = 3; max_rto = 2.0 }
            (Inmem.create ())
        in
        let died = ref [] in
        Reliable.on_dead ctl (fun ~src ~dst -> died := (src, dst) :: !died);
        t.Transport.send ~src:"a" ~dst:"ghost" "lost cause";
        for _ = 1 to 20 do
          t.Transport.advance 1.0
        done;
        check_bool "dead link signalled" (!died = [ ("a", "ghost") ]);
        check_bool "listed" (Reliable.dead_links ctl = [ ("a", "ghost") ]);
        check_int "window dropped, system can quiesce" 0
          (Reliable.unacked ctl);
        check_bool "counted as failures"
          ((t.Transport.stats ()).Netstats.send_failures >= 1);
        Reliable.revive ctl ~src:"a" ~dst:"ghost";
        check_bool "revived" (Reliable.dead_links ctl = []));
    tc "bounded send window parks excess sends, promotes on ack" (fun () ->
        (* Block-sender backpressure: only [max_window] envelopes may be
           in flight per link; the rest wait in the overflow queue and
           are promoted as acks open the window.  Nothing is dropped. *)
        let t, ctl =
          Reliable.wrap ~config:{ fast with max_window = 2 } (Inmem.create ())
        in
        for i = 1 to 5 do
          t.Transport.send ~src:"a" ~dst:"b" i
        done;
        check_int "window holds two" 2 (Reliable.unacked ctl);
        check_int "three parked" 3 (Reliable.queued ctl);
        check_int "stalls counted" 3 ((t.Transport.stats ()).Netstats.stalled);
        let got = ref [] in
        let steps = ref 0 in
        while t.Transport.pending () > 0 && !steps < 50 do
          incr steps;
          t.Transport.advance 1.0;
          got := !got @ t.Transport.drain "b";
          ignore (t.Transport.drain "a")
        done;
        Alcotest.check (Alcotest.list Alcotest.int) "all delivered, in order"
          [ 1; 2; 3; 4; 5 ] !got;
        check_int "nothing left parked" 0 (Reliable.queued ctl));
    tc "bounded reorder buffer sheds far frames; retransmits recover"
      (fun () ->
        (* With at most one held frame, heavily jittered deliveries
           overflow the reorder buffer and are shed — the retransmit
           path must still produce complete in-order delivery. *)
        let inner = Simnet.create ~seed:3 ~base_latency:1.0 ~jitter:0.9 () in
        let t, _ = Reliable.wrap ~config:{ fast with max_held = 1 } inner in
        for i = 1 to 8 do
          t.Transport.send ~src:"a" ~dst:"b" i
        done;
        let got = ref [] in
        for _ = 1 to 80 do
          t.Transport.advance 0.3;
          got := !got @ t.Transport.drain "b";
          ignore (t.Transport.drain "a")
        done;
        Alcotest.check (Alcotest.list Alcotest.int) "in order, complete"
          [ 1; 2; 3; 4; 5; 6; 7; 8 ] !got;
        check_bool "drops counted"
          ((t.Transport.stats ()).Netstats.reorder_dropped > 0));
    tc "forget clears both sides of a link so a reused name starts fresh"
      (fun () ->
        let t, ctl = Reliable.wrap ~config:fast (Inmem.create ()) in
        t.Transport.send ~src:"a" ~dst:"b" "old-1";
        t.Transport.send ~src:"a" ~dst:"b" "old-2";
        Alcotest.check (Alcotest.list Alcotest.string) "old incarnation"
          [ "old-1"; "old-2" ] (t.Transport.drain "b");
        Reliable.forget ctl "b";
        check_int "unacked state dropped" 0 (Reliable.unacked ctl);
        (* The next incarnation restarts at seq 1 — with stale receiver
           state (delivered = 2) this would be deduped as a duplicate. *)
        t.Transport.send ~src:"a" ~dst:"b" "new-1";
        Alcotest.check (Alcotest.list Alcotest.string) "fresh seq accepted"
          [ "new-1" ] (t.Transport.drain "b"));
    tc "give-up increments the dead-links metric" (fun () ->
        let sum name =
          List.fold_left
            (fun acc s ->
              if s.Wdl_obs.Obs.s_name = name then
                match s.Wdl_obs.Obs.s_value with
                | `Value v when not (Float.is_nan v) -> acc +. v
                | `Value _ | `Histogram _ -> acc
              else acc)
            0. (Wdl_obs.Obs.collect ())
        in
        let before = sum "wdl_net_dead_links_total" in
        let t, _ =
          Reliable.wrap
            ~config:{ fast with max_attempts = 2; max_rto = 1.0 }
            (Inmem.create ())
        in
        t.Transport.send ~src:"a" ~dst:"ghost" "x";
        for _ = 1 to 10 do
          t.Transport.advance 1.0
        done;
        check_bool "metric grew"
          (sum "wdl_net_dead_links_total" >= before +. 1.));
    tc "wire envelope codec round-trips" (fun () ->
        let m =
          Message.make ~src:"Jules" ~dst:"Émilien" ~stage:2
            ~facts:(Some [ Fact.make ~rel:"p" ~peer:"Émilien" [ Value.Int 1 ] ])
            ()
        in
        let e =
          {
            Reliable.env_src = "Jules";
            env_inc = 2;
            env_seq = 5;
            env_ack = 3;
            env_payload = Some m;
          }
        in
        let e' = ok' (Wire.decode_envelope (Wire.encode_envelope e)) in
        check_bool "src" (e'.Reliable.env_src = "Jules");
        check_int "incarnation" 2 e'.Reliable.env_inc;
        check_int "seq" 5 e'.Reliable.env_seq;
        check_int "ack" 3 e'.Reliable.env_ack;
        check_bool "payload survives"
          (match e'.Reliable.env_payload with
          | Some m' -> m'.Message.src = m.Message.src
          | None -> false);
        let a = { e with Reliable.env_seq = 0; env_payload = None } in
        let a' = ok' (Wire.decode_envelope (Wire.encode_envelope a)) in
        check_bool "pure ack" (a'.Reliable.env_payload = None);
        (* A first session's header has the same five fields, with
           incarnation 0. *)
        let a0 = { a with Reliable.env_inc = 0 } in
        let frame = Wire.encode_envelope a0 in
        (* version 1, envelope; one string; src 0, inc 0, seq 0, ack 3
           (zigzagged), no payload *)
        Alcotest.check Alcotest.string "one header shape"
          "\001\001\001\005Jules\000\000\000\006\000" frame;
        check_int "first session" 0
          (ok' (Wire.decode_envelope frame)).Reliable.env_inc;
        check_bool "the four-field header is malformed"
          (Result.is_error
             (Wire.decode_envelope "\001\001\001\005Jules\000\000\006\000"));
        check_bool "garbage rejected"
          (Result.is_error (Wire.decode_envelope "nope")));
    tc "reliable over tcp + wire: ack crosses processes" (fun () ->
        let ta, ctl_a, tb, _, close = tcp_pair () in
        let m = Message.make ~src:"alice" ~dst:"bob" ~stage:1 () in
        ta.Transport.send ~src:"alice" ~dst:"bob" m;
        check_int "delivered at bob" 1 (List.length (tb.Transport.drain "bob"));
        check_int "dedup on redrain" 0 (List.length (tb.Transport.drain "bob"));
        ignore (ta.Transport.drain "alice");
        check_int "acked across sockets" 0 (Reliable.unacked ctl_a);
        close ());
  ]

(* {1 Whole-system convergence under fault schedules} *)

let envelope_sizer e =
  match e.Reliable.env_payload with Some m -> Message.size m | None -> 8

let load_album = Album.load_album
let dump = Album.dump
let attendees = [ "alice"; "bob"; "carol" ]

let reference_dump ?(attendees = attendees) () =
  let sys = System.create () in
  load_album sys attendees;
  ignore (ok' (System.run sys));
  dump sys

(* One faulty run: loss + duplication + a mid-run partition that heals.
   [wrap_seed] seeds the reliable layer's deadline jitter; without it
   the layer uses its default seed. *)
let faulty_run ?(attendees = attendees) ?wrap_seed ?(max_rounds = 5000) ~seed
    ~loss ~duplicate ~part_at ~part_len () =
  let inner, net =
    Simnet.create_with_control ~sizer:envelope_sizer ~seed ~loss ~duplicate ()
  in
  let transport, rctl = Reliable.wrap ?seed:wrap_seed inner in
  let sys = System.create ~transport ~drop_unknown:true () in
  load_album sys attendees;
  for _ = 1 to part_at do
    ignore (System.round sys)
  done;
  Simnet.partition net ~between:"sigmod" ~and_:"alice";
  for _ = 1 to part_len do
    ignore (System.round sys)
  done;
  Simnet.heal net ~between:"sigmod" ~and_:"alice";
  match System.run ~max_rounds sys with
  | Error e -> Error e
  | Ok _ ->
    if Reliable.dead_links rctl <> [] then Error "gave up on a live link"
    else Ok (dump sys, Reliable.stats rctl, System.transport_errors sys)

(* Random programs, not just album, through the lossy column of the
   [Sim] fault matrix: loss, duplication and a healing partition under
   the reliable layer must end where the fault-free run does. *)
let convergence_prop =
  QCheck.Test.make ~count:25 ~long_factor:20
    ~name:"random loss/dup/partition schedules reach the Inmem fixpoint"
    (Sim.arb Sim.lossy) (fun spec ->
      Sim.dump (Sim.run_exn spec) = Sim.fault_free spec)

(* Seed 42, 25% loss, 10% duplication, sigmod|alice partitioned from
   round 3 for 12 rounds. Two rows: three attendees with a seeded
   reliable layer, and four attendees with the layer's default seed
   within 2000 rounds. *)
let acceptance =
  tc "25% loss + 10% dup + partition converges; faults were exercised"
    (fun () ->
      List.iter
        (fun (label, attendees, wrap_seed, max_rounds) ->
          let expected = reference_dump ~attendees () in
          match
            faulty_run ~attendees ?wrap_seed ~max_rounds ~seed:42 ~loss:0.25
              ~duplicate:0.10 ~part_at:3 ~part_len:12 ()
          with
          | Error e -> Alcotest.failf "%s: %s" label e
          | Ok (got, stats, errors) ->
            Alcotest.check Alcotest.string (label ^ ": byte-identical contents")
              expected got;
            check_bool (label ^ ": retransmits nonzero")
              (stats.Netstats.retransmits > 0);
            check_bool (label ^ ": dup_dropped nonzero")
              (stats.Netstats.dup_dropped > 0);
            check_int (label ^ ": no transport exceptions") 0 errors)
        [ ("3 attendees", attendees, Some 43, 5000);
          ("4 attendees", Album.attendees, None, 2000) ])

(* {1 Crash + journal recovery} *)

(* bob receives album entries into an EXTENSIONAL inbox (journaled), so
   a crash between checkpoints loses nothing the journal saw. *)
let load_crash_scenario attendees sys =
  load_album sys attendees;
  ok'
    (Peer.load_string (System.peer sys "bob") "ext inbox@bob(id, name);");
  ok'
    (Peer.load_string (System.peer sys "sigmod")
       "inbox@bob($i, $n) :- album@sigmod($i, $n, $o);")

let crash_run attendees dir =
  (* Reference: the same script with no crash, on Inmem. *)
  let ref_sys = System.create () in
  load_crash_scenario attendees ref_sys;
  ignore (ok' (System.run ref_sys));
  ok'
    (Peer.insert (System.peer ref_sys "alice")
       (Fact.make ~rel:"pictures" ~peer:"alice"
          [ Value.Int 3; Value.String "alice_3.jpg" ]));
  ignore (ok' (System.run ref_sys));
  ok'
    (Peer.insert (System.peer ref_sys "alice")
       (Fact.make ~rel:"pictures" ~peer:"alice"
          [ Value.Int 4; Value.String "alice_4.jpg" ]));
  ignore (ok' (System.run ref_sys));
  let expected = dump ref_sys in

  (* Faulty twin: lossy reliable simnet; bob journals, crashes after
     the first upload, recovers from checkpoint + journal tail. *)
  let inner, net =
    Simnet.create_with_control ~sizer:envelope_sizer ~seed:7 ~loss:0.2
      ~duplicate:0.1 ()
  in
  let transport, _rctl = Reliable.wrap inner in
  (* drop_unknown must stay off: while bob is crashed (unregistered),
     messages to him must enter the transport and be retransmitted
     until he returns — dropping them at the system layer would lose
     the batch forever (it is only re-sent on change). *)
  let sys = System.create ~transport ~drop_unknown:false () in
  load_crash_scenario attendees sys;
  Persist.attach (System.peer sys "bob") ~dir;
  ignore (ok' (System.run ~max_rounds:2000 sys));
  Persist.checkpoint (System.peer sys "bob") ~dir;

  (* Post-checkpoint activity lands in bob's journal only. *)
  ok'
    (Peer.insert (System.peer sys "alice")
       (Fact.make ~rel:"pictures" ~peer:"alice"
          [ Value.Int 3; Value.String "alice_3.jpg" ]));
  ignore (ok' (System.run ~max_rounds:2000 sys));
  let inbox_before = List.length (Peer.query (System.peer sys "bob") "inbox") in
  check_bool "bob saw post-checkpoint traffic" (inbox_before > 0);

  (* Crash: the process dies (peer object discarded, inbox lost). *)
  Simnet.crash net "bob";
  System.remove_peer sys "bob";
  (* The world keeps moving while bob is down. *)
  ok'
    (Peer.insert (System.peer sys "alice")
       (Fact.make ~rel:"pictures" ~peer:"alice"
          [ Value.Int 4; Value.String "alice_4.jpg" ]));
  for _ = 1 to 6 do
    ignore (System.round sys)
  done;

  (* Restart: journal replay restores pre-crash base state offline. *)
  let replayed = ref 0 in
  let bob =
    ok'
      (Persist.recover
         ~on_replay:(fun _ -> incr replayed)
         ~dir ~fallback_name:"bob" ())
  in
  check_bool "journal replayed entries" (!replayed > 0);
  check_int "journaled inbox survived the crash" inbox_before
    (List.length (Peer.query bob "inbox"));
  Simnet.restart net "bob";
  System.adopt_peer sys bob;
  (match System.run ~max_rounds:2000 sys with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check Alcotest.string "reconverged to the no-fault state" expected
    (dump sys)

(* Two casts: bob and alice alone, and the four-attendee album. *)
let crash_test () =
  List.iter
    (fun attendees -> Tmpdir.with_temp_dir (crash_run attendees))
    [ [ "alice"; "bob" ]; Album.attendees ]

(* {1 Crash and recovery over random programs}

   The crash column of the [Sim] fault matrix: a checkpointed peer
   takes journaled base ops, crashes, recovers from its journal and is
   adopted back, all under a lossy reliable layer wired into the
   lifecycle. The end state must equal the fault-free run's. *)
let churn_prop =
  QCheck.Test.make ~count:25 ~long_factor:20
    ~name:"random crash/restart schedules match the fault-free oracle"
    (Sim.arb Sim.crash) (fun spec ->
      Sim.dump (Sim.run_exn spec) = Sim.fault_free spec)

let churn_insert sys name id =
  ok'
    (Peer.insert (System.peer sys name)
       (Fact.make ~rel:"pictures" ~peer:name
          [ Value.Int id; Value.String (Printf.sprintf "%s_%d.jpg" name id) ]))

(* {1 Scripted churn under the full lifecycle}

   The album scenario with four attendees, the failure detector on and
   the reliable layer wired into the system lifecycle. A fixed schedule
   crashes two of five peers (40% churn) and recovers them from their
   journals, opens and heals a partition, and keeps inserting
   throughout under 25% loss and 10% duplication. Inserts aimed at a
   peer that is down wait for its rejoin. The end state must equal a
   fault-free Inmem run given the same inserts. *)

let chaos_load sys =
  load_album sys Album.attendees;
  (* A queryable membership view, and a hub-owned rule feeding a dead
     peer's extensional relation: the hub keeps deriving inbox facts
     while bob is down, so they are dead-lettered. *)
  ok'
    (Peer.load_string (System.peer sys "sigmod")
       "ext sys_peers@sigmod(name, status);");
  ok' (Peer.load_string (System.peer sys "bob") "ext inbox@bob(id, name);");
  ok'
    (Peer.load_string (System.peer sys "sigmod")
       "inbox@bob($i, $n) :- album@sigmod($i, $n, $o);")

let chaos_inserts =
  [ ("alice", 101); ("bob", 102); ("carol", 103); ("dave", 104);
    ("alice", 105); ("bob", 106); ("carol", 107); ("dave", 108);
    ("bob", 109) ]

let chaos_expected () =
  let sys = System.create ~drop_unknown:true () in
  chaos_load sys;
  ignore (ok' (System.run sys));
  List.iter (fun (a, id) -> churn_insert sys a id) chaos_inserts;
  ignore (ok' (System.run sys));
  System.sync_members sys;
  ignore (ok' (System.run sys));
  dump sys

let chaos_churn_test () =
  Tmpdir.with_temp_dir @@ fun base ->
  let dir_of a = Filename.concat base a in
  let inner, net =
    Simnet.create_with_control ~sizer:envelope_sizer ~seed:11 ~loss:0.25
      ~duplicate:0.10 ()
  in
  let config =
    { Reliable.default_config with
      rto = 2.0; max_rto = 8.0; max_attempts = 5; max_window = 64;
      max_held = 256 }
  in
  let transport, rctl = Reliable.wrap ~config inner in
  let sys =
    System.create ~transport ~drop_unknown:false
      ~membership:
        { Membership.suspect_after = 5; dead_after = 10; probe_every = 3 }
      ()
  in
  System.wire_reliable sys rctl;
  chaos_load sys;
  let run n = Result.is_ok (System.run ~max_rounds:n sys) in
  let converged = ref (run 2000) in
  (* Checkpoint every attendee once settled: recovery replays the
     journal on top of this snapshot. *)
  List.iter
    (fun a ->
      Persist.attach (System.peer sys a) ~dir:(dir_of a);
      Persist.checkpoint (System.peer sys a) ~dir:(dir_of a))
    Album.attendees;
  let down = Hashtbl.create 4 in
  let deferred = Hashtbl.create 4 in
  let insert a id =
    if Hashtbl.mem down a then
      Hashtbl.replace deferred a
        (id :: Option.value ~default:[] (Hashtbl.find_opt deferred a))
    else churn_insert sys a id
  in
  let crash a =
    Simnet.crash net a;
    System.remove_peer sys a;
    Hashtbl.replace down a ()
  in
  let recover a =
    let p = ok' (Persist.recover ~dir:(dir_of a) ~fallback_name:a ()) in
    Simnet.restart net a;
    System.adopt_peer sys p;
    Hashtbl.remove down a;
    List.iter (insert a)
      (List.rev (Option.value ~default:[] (Hashtbl.find_opt deferred a)));
    Hashtbl.remove deferred a
  in
  let events =
    [ (2, fun () -> insert "alice" 101);
      (4, fun () -> crash "bob");
      (6, fun () -> insert "bob" 102);
      (8, fun () -> Simnet.partition net ~between:"sigmod" ~and_:"carol");
      (9, fun () -> insert "carol" 103);
      (10, fun () -> crash "dave");
      (12, fun () -> insert "dave" 104);
      (16, fun () -> insert "alice" 105);
      (18, fun () -> Simnet.heal net ~between:"sigmod" ~and_:"carol");
      (20, fun () -> insert "bob" 106);
      (24, fun () -> recover "bob");
      (26, fun () -> insert "carol" 107);
      (30, fun () -> recover "dave");
      (32, fun () -> insert "dave" 108);
      (34, fun () -> insert "bob" 109) ]
  in
  for s = 1 to 40 do
    List.iter (fun (r, f) -> if r = s then f ()) events;
    ignore (System.round sys)
  done;
  converged := !converged && run 3000;
  System.sync_members sys;
  converged := !converged && run 500;
  let stats = (System.transport sys).Transport.stats () in
  check_bool "40% churn + faults converged" !converged;
  Alcotest.check Alcotest.string "state byte-identical to fault-free oracle"
    (chaos_expected ()) (dump sys);
  check_bool "dead peers evicted" (System.evictions sys >= 2);
  check_bool "messages to dead peers dead-lettered"
    (System.dead_lettered sys > 0);
  check_int "dead letters flushed on rejoin" 0 (System.dead_letters sys);
  check_bool "retransmits nonzero" (stats.Netstats.retransmits > 0);
  check_bool "dup_dropped nonzero" (stats.Netstats.dup_dropped > 0);
  check_int "round loop saw no transport exceptions" 0
    (System.transport_errors sys)

(* The rejoin trace at the transport: p0 acks p2's seq 1 and crashes
   with the ack in flight; its link state is forgotten; p2's first send
   of the new session (seq 1 again) is lost to the crash; then the
   stale ack=1 reaches p2. It must not retire the new seq 1. *)
let stale_ack_test =
  tc "a stale ack from a previous incarnation cannot prune the new session"
    (fun () ->
      let inner, net = Simnet.create_with_control ~jitter:0. () in
      let t, ctl = Reliable.wrap ~config:{ fast with rto = 2.0 } inner in
      t.Transport.send ~src:"p2" ~dst:"p0" "old";
      t.Transport.advance 1.0;
      Alcotest.check (Alcotest.list Alcotest.string) "old session delivered"
        [ "old" ] (t.Transport.drain "p0");
      Simnet.crash net "p0";
      Reliable.forget ctl "p0";
      t.Transport.send ~src:"p2" ~dst:"p0" "new";
      Simnet.restart net "p0";
      t.Transport.advance 1.0;
      ignore (t.Transport.drain "p2");
      check_int "new seq 1 still unacked" 1 (Reliable.unacked ctl);
      let got = ref [] in
      for _ = 1 to 5 do
        t.Transport.advance 1.0;
        got := !got @ t.Transport.drain "p0";
        ignore (t.Transport.drain "p2")
      done;
      Alcotest.check (Alcotest.list Alcotest.string) "retransmitted"
        [ "new" ] !got;
      check_int "then acked" 0 (Reliable.unacked ctl))

(* Each process has its own control, so only one side counts a
   forget; the other must follow the newer incarnation. *)
let tcp_forget_test =
  tc "reliable over tcp + wire: one side forgets, both reconverge" (fun () ->
      (* Each process has its own control, so only alice's counts the
         forget (say alice was re-adopted there). bob must follow the
         newer incarnation: take alice's new seq 1 as new, and resend
         its unacked message under the numbering alice now expects. *)
      let ta, ctl_a, tb, ctl_b, close = tcp_pair ~config:fast () in
      let msg src dst stage = Message.make ~src ~dst ~stage () in
      let got_a = ref [] and got_b = ref [] in
      let settle () =
        let n = ref 0 in
        while
          !n < 200 && (!n = 0 || Reliable.unacked ctl_a + Reliable.unacked ctl_b > 0)
        do
          incr n;
          ta.Transport.advance 0.5;
          tb.Transport.advance 0.5;
          got_a := !got_a @ ta.Transport.drain "alice";
          got_b := !got_b @ tb.Transport.drain "bob";
          Unix.sleepf 0.002
        done
      in
      let stages l = List.map (fun m -> m.Message.stage) !l in
      ta.Transport.send ~src:"alice" ~dst:"bob" (msg "alice" "bob" 1);
      tb.Transport.send ~src:"bob" ~dst:"alice" (msg "bob" "alice" 2);
      settle ();
      Reliable.forget ctl_a "alice";
      tb.Transport.send ~src:"bob" ~dst:"alice" (msg "bob" "alice" 3);
      ta.Transport.send ~src:"alice" ~dst:"bob" (msg "alice" "bob" 4);
      settle ();
      Alcotest.check (Alcotest.list Alcotest.int) "bob got both sessions"
        [ 1; 4 ] (stages got_b);
      Alcotest.check (Alcotest.list Alcotest.int) "alice got both sessions"
        [ 2; 3 ] (stages got_a);
      check_int "all acked" 0 (Reliable.unacked ctl_a + Reliable.unacked ctl_b);
      check_bool "no link given up"
        (Reliable.dead_links ctl_a = [] && Reliable.dead_links ctl_b = []);
      close ())

let suite =
  unit_tests
  @ [ acceptance; QCheck_alcotest.to_alcotest convergence_prop;
      tc "crash, journal recovery, reconvergence" crash_test;
      QCheck_alcotest.to_alcotest churn_prop;
      tc "40% churn, crashes, partition, loss: equals the fault-free oracle"
        chaos_churn_test; stale_ack_test; tcp_forget_test ]
