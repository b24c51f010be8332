(* Benchmark harness: regenerates the paper experiments of
   EXPERIMENTS.md.

   The demo paper has no quantitative tables, so the experiment set is
   (a) its figures/scenarios turned into measured, checked runs
   (F2/F3/D1/D3/D4) and (b) the engine characterisation in the spirit
   of the companion technical report (T2, T3, T5-T7, A2, FT). One
   Bechamel test per experiment measures wall time;
   count-based columns (rounds, messages, bytes) come from
   instrumented single runs. End-to-end timings with medians and
   spreads live in wdlbench/; correctness checks live in test/.

   dune exec bench/main.exe            -- everything
   dune exec bench/main.exe -- t2 t5   -- a subset *)

open Bechamel
open Wdl_syntax
module Peer = Webdamlog.Peer
module System = Webdamlog.System

let ok = function Ok v -> v | Error e -> failwith e
let pf fmt = Format.printf fmt

(* {1 Timing helpers} *)

let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]

let cfg =
  Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~kde:None
    ~stabilize:false ()

(* Returns (name, nanoseconds-per-run) sorted by name. *)
let measure (test : Test.t) =
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name v acc ->
      let ns =
        match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_ns ns =
  if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

let header title = pf "@.=== %s ===@." title

(* {1 Workload builders} *)

let tc_rules =
  [ Parser.parse_rule "tc@p($x,$y) :- edge@p($x,$y)";
    Parser.parse_rule "tc@p($x,$z) :- tc@p($x,$y), edge@p($y,$z)" ]

let edge_db edges =
  let db = Wdl_store.Database.create () in
  (match
     Wdl_store.Database.declare db
       (Decl.make ~kind:Decl.Intensional ~rel:"tc" ~peer:"p" [ "x"; "y" ])
   with
  | Ok _ -> ()
  | Error _ -> failwith "declare failed");
  List.iter
    (fun (a, b) ->
      match
        Wdl_store.Database.insert db ~rel:"edge"
          (Wdl_store.Tuple.of_list [ Value.Int a; Value.Int b ])
      with
      | Ok _ -> ()
      | Error _ -> failwith "insert failed")
    edges;
  db

(* {1 T2: delegation vs shipping the relation} *)

let t2_setup ~variant ~n_data ~n_sel () =
  let sys = System.create () in
  let p = System.add_peer sys "p" in
  let q = System.add_peer sys "q" in
  let buf = Buffer.create 4096 in
  for i = 0 to n_data - 1 do
    Buffer.add_string buf (Printf.sprintf "data@q(%d, %d);\n" i (i * i))
  done;
  ok (Peer.load_string q (Buffer.contents buf));
  let bufp = Buffer.create 256 in
  Buffer.add_string bufp "int v@p(x, y);\n";
  for i = 0 to n_sel - 1 do
    Buffer.add_string bufp (Printf.sprintf "sel@p(%d);\n" (i * (n_data / n_sel)))
  done;
  (match variant with
  | `Delegate ->
    Buffer.add_string bufp "v@p($x, $y) :- sel@p($x), data@q($x, $y);\n"
  | `Ship ->
    Buffer.add_string bufp "v@p($x, $y) :- sel@p($x), mirror@p($x, $y);\n";
    ok (Peer.load_string q "mirror@p($x, $y) :- data@q($x, $y);\n"));
  ok (Peer.load_string p (Buffer.contents bufp));
  sys

let t2 () =
  header "T2  delegated join vs shipped relation (1024 data tuples at q)";
  pf "%-12s %-10s %8s %10s %12s %12s@." "selectivity" "variant" "rounds"
    "messages" "bytes" "time";
  List.iter
    (fun n_sel ->
      List.iter
        (fun variant ->
          let label =
            Printf.sprintf "%s sel=%d"
              (match variant with `Delegate -> "delegate" | `Ship -> "ship")
              n_sel
          in
          let test =
            Test.make ~name:label
              (Staged.stage (fun () ->
                   ignore
                     (ok (System.run (t2_setup ~variant ~n_data:1024 ~n_sel ())))))
          in
          let ns = match measure test with (_, v) :: _ -> v | [] -> nan in
          let sys = t2_setup ~variant ~n_data:1024 ~n_sel () in
          let rounds = ok (System.run sys) in
          let stats = (System.transport sys).Wdl_net.Transport.stats () in
          pf "%-12d %-10s %8d %10d %12d %12s@." n_sel
            (match variant with `Delegate -> "delegate" | `Ship -> "ship")
            rounds stats.Wdl_net.Netstats.sent stats.Wdl_net.Netstats.bytes
            (pp_ns ns))
        [ `Delegate; `Ship ])
    [ 1; 16; 256; 1024 ]

(* {1 T3: peer scaling (generalised Fig. 2 star)} *)

let t3_setup ~attendees () =
  let env = Wdl_wepic.Wepic.create () in
  Wdl_wepic.Workload.populate env
    { Wdl_wepic.Workload.default with attendees; pictures_per_attendee = 4 };
  env

let t3 () =
  header "T3  Wepic star topology scaling (4 pictures per attendee)";
  pf "%-10s %8s %10s %12s %14s@." "attendees" "rounds" "messages" "bytes" "time";
  List.iter
    (fun attendees ->
      let label = Printf.sprintf "attendees=%d" attendees in
      let test =
        Test.make ~name:label
          (Staged.stage (fun () ->
               ignore (ok (Wdl_wepic.Wepic.run (t3_setup ~attendees ())))))
      in
      let ns = match measure test with (_, v) :: _ -> v | [] -> nan in
      let env = t3_setup ~attendees () in
      let rounds = ok (Wdl_wepic.Wepic.run env) in
      let stats =
        (System.transport (Wdl_wepic.Wepic.system env)).Wdl_net.Transport.stats ()
      in
      pf "%-10d %8d %10d %12d %14s@." attendees rounds
        stats.Wdl_net.Netstats.sent stats.Wdl_net.Netstats.bytes (pp_ns ns))
    [ 2; 4; 8; 16 ]

(* {1 T5: distributed transitive closure through delegation} *)

let t5_setup ~peers () =
  let sys = System.create () in
  let name i = Printf.sprintf "n%d" i in
  for i = 0 to peers - 1 do
    let p = System.add_peer sys (name i) in
    if i < peers - 1 then
      ok
        (Peer.load_string p
           (Printf.sprintf {|ext next@%s(peer); next@%s("%s");|} (name i)
              (name i)
              (name (i + 1))))
    else ok (Peer.load_string p (Printf.sprintf "ext next@%s(peer);" (name i)))
  done;
  ok
    (Peer.load_string (System.peer sys "n0")
       {|int reach@n0(peer);
         reach@n0($q) :- next@n0($q);
         reach@n0($r) :- reach@n0($q), next@$q($r);|});
  sys

let t5 () =
  header "T5  distributed reachability along a chain of peers";
  pf "%-8s %8s %10s %10s %14s@." "peers" "rounds" "messages" "|reach|" "time";
  List.iter
    (fun peers ->
      let label = Printf.sprintf "peers=%d" peers in
      let test =
        Test.make ~name:label
          (Staged.stage (fun () -> ignore (ok (System.run (t5_setup ~peers ())))))
      in
      let ns = match measure test with (_, v) :: _ -> v | [] -> nan in
      let sys = t5_setup ~peers () in
      let rounds = ok (System.run sys) in
      pf "%-8d %8d %10d %10d %14s@." peers rounds (System.messages_sent sys)
        (List.length (Peer.query (System.peer sys "n0") "reach"))
        (pp_ns ns))
    [ 2; 4; 8; 16 ]

(* {1 T6: transport: payload size and latency sensitivity} *)

let t6 () =
  header "T6  transport: payload size and simulated latency";
  pf "%-16s %10s %12s %12s@." "payload bytes" "messages" "total bytes" "rounds";
  List.iter
    (fun payload_bytes ->
      let env = Wdl_wepic.Wepic.create () in
      Wdl_wepic.Workload.populate env
        { Wdl_wepic.Workload.default with
          attendees = 4; pictures_per_attendee = 4; payload_bytes };
      let rounds = ok (Wdl_wepic.Wepic.run env) in
      let stats =
        (System.transport (Wdl_wepic.Wepic.system env)).Wdl_net.Transport.stats ()
      in
      pf "%-16d %10d %12d %12d@." payload_bytes stats.Wdl_net.Netstats.sent
        stats.Wdl_net.Netstats.bytes rounds)
    [ 64; 1024; 8192 ];
  pf "@.%-16s %8s %12s@." "base latency" "rounds" "sim time";
  List.iter
    (fun base_latency ->
      let transport =
        Wdl_net.Simnet.create ~sizer:Webdamlog.Message.size ~seed:1 ~base_latency ()
      in
      let env = Wdl_wepic.Wepic.create ~transport () in
      Wdl_wepic.Workload.populate env
        { Wdl_wepic.Workload.default with attendees = 4; pictures_per_attendee = 4 };
      let rounds = ok (Wdl_wepic.Wepic.run env) in
      pf "%-16.1f %8d %12.1f@." base_latency rounds
        (transport.Wdl_net.Transport.now ()))
    [ 0.5; 2.0; 8.0 ]

(* {1 F2: Fig. 2 propagation} *)

let f2_setup () =
  let env = Wdl_wepic.Wepic.create () in
  ignore (Wdl_wepic.Wepic.add_attendee env "Emilien");
  ignore (Wdl_wepic.Wepic.add_attendee env "Jules");
  env

let f2 () =
  header "F2  Fig. 2: upload at Emilien -> sigmod -> Facebook group";
  let env = f2_setup () in
  ignore (ok (Wdl_wepic.Wepic.run env));
  Wdl_wepic.Wepic.upload_picture env ~attendee:"Emilien" ~id:32 ~name:"sea.jpg"
    ~data:"100...";
  Wdl_wepic.Wepic.authorize_facebook env ~attendee:"Emilien" ~id:32;
  let before = System.messages_sent (Wdl_wepic.Wepic.system env) in
  let rounds = ok (Wdl_wepic.Wepic.run env) in
  let after = System.messages_sent (Wdl_wepic.Wepic.system env) in
  pf "rounds to full propagation: %d   messages: %d@." rounds (after - before);
  pf "pictures@sigmod: %d   facebook group: %d@."
    (List.length (Wdl_wepic.Wepic.pictures_at_sigmod env))
    (List.length (Wdl_wepic.Wepic.pictures_on_facebook env));
  let test =
    Test.make ~name:"fig2 propagation"
      (Staged.stage (fun () ->
           let env = f2_setup () in
           Wdl_wepic.Wepic.upload_picture env ~attendee:"Emilien" ~id:32
             ~name:"sea.jpg" ~data:"100...";
           Wdl_wepic.Wepic.authorize_facebook env ~attendee:"Emilien" ~id:32;
           ignore (ok (Wdl_wepic.Wepic.run env))))
  in
  match measure test with
  | (_, ns) :: _ -> pf "end-to-end scenario time: %s@." (pp_ns ns)
  | [] -> ()

(* {1 F3: Fig. 3 delegation control} *)

let f3_setup ~trusted () =
  let sys = System.create () in
  let jules =
    System.add_peer sys
      ~policy:(if trusted then Webdamlog.Acl.Open else Webdamlog.Acl.Closed)
      "Jules"
  in
  let julia = System.add_peer sys "Julia" in
  ok (Peer.load_string jules "ext pictures@Jules(i); pictures@Jules(7);");
  ok
    (Peer.load_string julia
       "int mine@Julia(i); mine@Julia($i) :- pictures@Jules($i);");
  (sys, jules, julia)

let f3 () =
  header "F3  Fig. 3: control of delegation";
  let sys, jules, julia = f3_setup ~trusted:false () in
  ignore (ok (System.run sys));
  pf "untrusted: view=%d pending=%d@."
    (List.length (Peer.query julia "mine"))
    (List.length (Peer.pending_delegations jules));
  ignore (Peer.accept_all_delegations jules);
  ignore (ok (System.run sys));
  pf "after accept: view=%d installed=%d@."
    (List.length (Peer.query julia "mine"))
    (List.length (Peer.delegated_rules jules));
  let time trusted =
    let label = if trusted then "trusted path" else "pending+accept path" in
    let test =
      Test.make ~name:label
        (Staged.stage (fun () ->
             let sys, jules, _ = f3_setup ~trusted () in
             ignore (ok (System.run sys));
             if not trusted then begin
               ignore (Peer.accept_all_delegations jules);
               ignore (ok (System.run sys))
             end))
    in
    match measure test with (_, ns) :: _ -> ns | [] -> nan
  in
  let open_ns = time true and closed_ns = time false in
  pf "trusted install: %s   pending+accept: %s (overhead %.1f%%)@."
    (pp_ns open_ns) (pp_ns closed_ns)
    ((closed_ns -. open_ns) /. open_ns *. 100.)

(* {1 D1: Facebook interaction} *)

let d1 () =
  header "D1  authorized-only publication to the Facebook group";
  pf "%-12s %-12s %10s@." "pictures" "authorized" "published";
  List.iter
    (fun (n, auth) ->
      let env = f2_setup () in
      for i = 1 to n do
        Wdl_wepic.Wepic.upload_picture env ~attendee:"Emilien" ~id:i
          ~name:(Printf.sprintf "p%d.jpg" i) ~data:"d";
        if i <= auth then
          Wdl_wepic.Wepic.authorize_facebook env ~attendee:"Emilien" ~id:i
      done;
      ignore (ok (Wdl_wepic.Wepic.run env));
      pf "%-12d %-12d %10d@." n auth
        (List.length (Wdl_wepic.Wepic.pictures_on_facebook env)))
    [ (8, 0); (8, 3); (8, 8) ]

(* {1 D3: protocol routing} *)

let d3 () =
  header "D3  transfer routed by the recipient's communicate preference";
  let env = Wdl_wepic.Wepic.create () in
  let recipients = [ ("r_email", "email"); ("r_wepic", "wepic") ] in
  ignore (Wdl_wepic.Wepic.add_attendee env "sender");
  List.iter
    (fun (name, proto) ->
      ignore (Wdl_wepic.Wepic.add_attendee env name);
      Wdl_wepic.Wepic.set_protocol env ~attendee:name ~protocol:proto)
    recipients;
  Wdl_wepic.Wepic.upload_picture env ~attendee:"sender" ~id:1 ~name:"x.jpg"
    ~data:"d";
  List.iter
    (fun (name, _) ->
      Wdl_wepic.Wepic.select_attendee env ~viewer:"sender" ~attendee:name)
    recipients;
  Wdl_wepic.Wepic.select_picture env ~viewer:"sender" ~name:"x.jpg" ~id:1
    ~owner:"sender";
  ignore (ok (Wdl_wepic.Wepic.run env));
  pf "emails sent: %d@."
    (Wdl_wrappers.Email.total_sent (Wdl_wepic.Wepic.email env));
  pf "wepic-relation deliveries: %d@."
    (List.length (Peer.query (Wdl_wepic.Wepic.attendee env "r_wepic") "wepic"));
  pf "email recipient inbox: %d@."
    (List.length (Wdl_wrappers.Email.inbox (Wdl_wepic.Wepic.email env) "r_email"))

(* {1 T7: substrate microbenchmarks} *)

let t7 () =
  header "T7  substrate microbenchmarks";
  let sample_program =
    {|ext pictures@Jules(id, name, owner, data);
      pictures@Jules(32, "sea.jpg", "Emilien", "100...");
      attendeePictures@Jules($id, $n, $o, $d) :-
        selectedAttendee@Jules($a), pictures@$a($id, $n, $o, $d),
        rate@$o($id, 5), $id > 0;|}
  in
  let sample_msg =
    Webdamlog.Message.make ~src:"Jules" ~dst:"Emilien" ~stage:3
      ~facts:
        (Some
           (List.init 10 (fun i ->
                Fact.make ~rel:"pictures" ~peer:"Emilien"
                  [ Value.Int i; Value.String "pic.jpg"; Value.String "o";
                    Value.String (String.make 64 'x') ])))
      ~installs:
        [ Parser.parse_rule "a@Emilien($x) :- b@Emilien($x), c@Emilien($x)" ]
      ()
  in
  let frame = Webdamlog.Wire.batch [ sample_msg ] in
  (* What a Wepic peer ships: ten [pictures] facts with an id, a file
     name, the owner and a 64-byte payload. *)
  let wepic_msg =
    Webdamlog.Message.make ~src:"Jules" ~dst:"Emilien" ~stage:3
      ~facts:
        (Some
           (List.init 10 (fun i ->
                Fact.make ~rel:"pictures" ~peer:"Emilien"
                  [ Value.Int (10_000 + i);
                    Value.String (Printf.sprintf "pic_%d.jpg" i);
                    Value.String (if i mod 2 = 0 then "Jules" else "Julia");
                    Value.String (Wdl_wepic.Workload.payload ~seed:i ~bytes:64) ])))
      ()
  in
  let wepic_frame = Webdamlog.Wire.batch [ wepic_msg ] in
  let plan_rule =
    Parser.parse_rule
      "v@p($x, $z) :- a@p($x, $y), b@p($y, $z), not c@p($x), $z > 0"
  in
  let rel = Wdl_store.Relation.create ~arity:2 () in
  let counter = ref 0 in
  let cases =
    [
      ( "parse 4-statement program",
        fun () -> ignore (Parser.parse_program sample_program) );
      ( "wire encode (10 facts + 1 rule)",
        fun () -> ignore (Webdamlog.Wire.batch [ sample_msg ]) );
      ("wire decode", fun () -> ignore (Webdamlog.Wire.unbatch frame));
      ( "wire encode (Wepic 10-fact frame)",
        fun () -> ignore (Webdamlog.Wire.batch [ wepic_msg ]) );
      ( "wire decode (Wepic 10-fact frame)",
        fun () -> ignore (Webdamlog.Wire.unbatch wepic_frame) );
      ("plan compile", fun () -> ignore (Wdl_eval.Plan.compile plan_rule));
      ( "relation insert (fresh tuples)",
        fun () ->
          incr counter;
          ignore
            (Wdl_store.Relation.insert rel
               (Wdl_store.Tuple.of_list [ Value.Int !counter; Value.Int 0 ])) );
    ]
  in
  pf "%-36s %14s@." "operation" "time";
  List.iter
    (fun (label, f) ->
      let test = Test.make ~name:label (Staged.stage f) in
      match measure test with
      | (_, ns) :: _ -> pf "%-36s %14s@." label (pp_ns ns)
      | [] -> ())
    cases;
  let dir = Filename.temp_file "wdl_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let wal = Filename.concat dir "bench.wal" in
  (* The directory goes even when the measurement raises. *)
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists wal then Sys.remove wal;
      Sys.rmdir dir)
    (fun () ->
      let j = Wdl_store.Journal.open_ wal in
      let jn = ref 0 in
      let test =
        Test.make ~name:"journal append (flushed)"
          (Staged.stage (fun () ->
               incr jn;
               Wdl_store.Journal.append j
                 (Wdl_store.Journal.Insert
                    (Fact.make ~rel:"m" ~peer:"p" [ Value.Int !jn ]))))
      in
      Fun.protect
        ~finally:(fun () -> Wdl_store.Journal.close j)
        (fun () ->
          match measure test with
          | (_, ns) :: _ ->
            pf "%-36s %14s@." "journal append (flushed)" (pp_ns ns)
          | [] -> ()))

(* {1 A2: compiled plans vs the reference evaluator} *)

let a2 () =
  header "A2  ablation: compiled plans vs the substitution-based oracle";
  pf "%-22s %14s %14s %9s@." "workload" "compiled" "reference" "speedup";
  List.iter
    (fun (label, edges) ->
      let time run =
        let db = edge_db edges in
        let test =
          Test.make ~name:label
            (Staged.stage (fun () ->
                 Wdl_store.Database.clear_intensional db;
                 match run ~self:"p" db tc_rules with
                 | Ok _ -> ()
                 | Error _ -> failwith "fixpoint failed"))
        in
        match measure test with (_, ns) :: _ -> ns | [] -> nan
      in
      let compiled =
        time (fun ~self db rules -> Wdl_eval.Fixpoint.run ~self db rules)
      in
      let reference =
        time (fun ~self db rules -> Wdl_eval.Reference.run ~self db rules)
      in
      pf "%-22s %14s %14s %8.1fx@." label (pp_ns compiled) (pp_ns reference)
        (reference /. compiled))
    [ ("chain n=64", Wdl_wepic.Workload.chain_edges ~n:64);
      ("random n=96 e=192", Wdl_wepic.Workload.random_edges ~seed:5 ~nodes:96 ~edges:192) ]

(* {1 D4: Wefeed fan-out (the second application under load)} *)

let d4_setup ~followers ~posts () =
  let t = Wdl_feed.Feed.create () in
  ignore (Wdl_feed.Feed.add_user t "author");
  for i = 1 to followers do
    let name = Printf.sprintf "reader%d" i in
    ignore (Wdl_feed.Feed.add_user t name);
    Wdl_feed.Feed.follow t ~user:name ~whom:"author"
  done;
  for p = 1 to posts do
    Wdl_feed.Feed.post t ~author:"author" ~id:p
      ~text:(Printf.sprintf "post %d" p) ~topic:"t"
  done;
  t

let d4 () =
  header "D4  Wefeed: one author fanning out to N followers (8 posts)";
  pf "%-10s %8s %10s %12s %14s@." "followers" "rounds" "messages" "bytes" "time";
  List.iter
    (fun followers ->
      let label = Printf.sprintf "followers=%d" followers in
      let test =
        Test.make ~name:label
          (Staged.stage (fun () ->
               ignore (ok (Wdl_feed.Feed.run (d4_setup ~followers ~posts:8 ())))))
      in
      let ns = match measure test with (_, v) :: _ -> v | [] -> nan in
      let t = d4_setup ~followers ~posts:8 () in
      let rounds = ok (Wdl_feed.Feed.run t) in
      let stats =
        (System.transport (Wdl_feed.Feed.system t)).Wdl_net.Transport.stats ()
      in
      pf "%-10d %8d %10d %12d %14s@." followers rounds
        stats.Wdl_net.Netstats.sent stats.Wdl_net.Netstats.bytes (pp_ns ns))
    [ 2; 8; 32 ]

(* {1 FT: the reliable session layer — overhead and fault tolerance} *)

module Simnet = Wdl_net.Simnet
module Reliable = Wdl_net.Reliable

let envelope_sizer e =
  match e.Reliable.env_payload with
  | Some m -> Webdamlog.Message.size m
  | None -> 8

(* The album/attendee delegation scenario: sigmod aggregates everyone's
   pictures; every attendee mirrors the album back. Delegations and
   fact batches cross every link in both directions. *)
let ft_attendees = [ "alice"; "bob"; "carol"; "dave" ]

let ft_load sys =
  let sigmod = System.add_peer sys "sigmod" in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "ext attendee@sigmod(a);\nint album@sigmod(id, name, owner);\n";
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "attendee@sigmod(%S);\n" a))
    ft_attendees;
  Buffer.add_string buf
    "album@sigmod($i, $n, $a) :- attendee@sigmod($a), pictures@$a($i, $n);\n";
  ok (Peer.load_string sigmod (Buffer.contents buf));
  List.iter
    (fun a ->
      let p = System.add_peer sys a in
      ok
        (Peer.load_string p
           (Printf.sprintf
              {|ext pictures@%s(id, name);
                int myAlbum@%s(id, name, owner);
                pictures@%s(1, "%s_1.jpg");
                pictures@%s(2, "%s_2.jpg");
                myAlbum@%s($i, $n, $o) :- album@sigmod($i, $n, $o);|}
              a a a a a a a)))
    ft_attendees

let ft_variants =
  [ ("inmem", `Inmem); ("simnet raw", `Raw); ("reliable clean", `Clean);
    ("reliable 25%loss+10%dup", `Faulty) ]

let ft_setup variant () =
  let transport =
    match variant with
    | `Inmem -> Wdl_net.Inmem.create ~sizer:Webdamlog.Message.size ()
    | `Raw -> Simnet.create ~sizer:Webdamlog.Message.size ~seed:42 ()
    | `Clean ->
      fst (Reliable.wrap (Simnet.create ~sizer:envelope_sizer ~seed:42 ()))
    | `Faulty ->
      fst
        (Reliable.wrap
           (Simnet.create ~sizer:envelope_sizer ~seed:42 ~loss:0.25
              ~duplicate:0.10 ()))
  in
  let sys = System.create ~transport ~drop_unknown:true () in
  ft_load sys;
  sys

let ft () =
  header "FT  reliable session layer vs raw transport (album scenario)";
  pf "%-26s %8s %10s %12s %12s %12s %14s@." "variant" "rounds" "messages"
    "retransmit" "dup_drop" "acked" "time";
  let times = ref [] in
  List.iter
    (fun (label, variant) ->
      let test =
        Test.make ~name:label
          (Staged.stage (fun () ->
               ignore (ok (System.run (ft_setup variant ())))))
      in
      let ns = match measure test with (_, v) :: _ -> v | [] -> nan in
      times := (label, ns) :: !times;
      let sys = ft_setup variant () in
      let rounds = ok (System.run sys) in
      let stats = (System.transport sys).Wdl_net.Transport.stats () in
      pf "%-26s %8d %10d %12d %12d %12d %14s@." label rounds
        stats.Wdl_net.Netstats.sent stats.Wdl_net.Netstats.retransmits
        stats.Wdl_net.Netstats.dup_dropped stats.Wdl_net.Netstats.acked
        (pp_ns ns))
    ft_variants;
  match
    (List.assoc_opt "simnet raw" !times, List.assoc_opt "reliable clean" !times)
  with
  | Some raw, Some clean ->
    pf "reliable-layer overhead on a clean network: %.1f%%@."
      ((clean -. raw) /. raw *. 100.)
  | _ -> ()

let experiments =
  [ ("t2", t2); ("t3", t3); ("t5", t5); ("t6", t6); ("t7", t7);
    ("a2", a2); ("f2", f2); ("f3", f3); ("d1", d1);
    ("d3", d3); ("d4", d4); ("ft", ft) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> List.map String.lowercase_ascii names
    | _ -> List.map fst experiments
  in
  (match
     List.filter (fun name -> not (List.mem_assoc name experiments)) requested
   with
  | [] -> ()
  | unknown ->
    pf "unknown experiment %s (known: %s)@."
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst experiments));
    exit 2);
  List.iter (fun name -> (List.assoc name experiments) ()) requested;
  pf "@.done.@."
