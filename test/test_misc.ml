(* Cross-cutting coverage: adapters, counters, small contracts. *)
open Wdl_syntax
open Webdamlog
open Check

let suite =
  [
    tc "wire transport adapter drops malformed frames" (fun () ->
        let dropped () =
          Wdl_obs.Obs.counter_value
            (Wdl_obs.Obs.counter ~labels:[ ("transport", "wire") ]
               "wdl_net_undecodable_frames_total")
        in
        let timed op =
          Wdl_obs.Obs.histogram_count
            (Wdl_obs.Obs.histogram ~labels:[ ("transport", "wire") ]
               ("wdl_wire_" ^ op ^ "_microseconds"))
        in
        let bytes = Wdl_net.Inmem.create () in
        let msgs = Wire.transport bytes in
        let before = dropped () in
        let encoded = timed "encode" and decoded = timed "decode" in
        bytes.Wdl_net.Transport.send ~src:"a" ~dst:"b" "not a frame at all";
        msgs.Wdl_net.Transport.send ~src:"a" ~dst:"b"
          (Message.make ~src:"a" ~dst:"b" ~stage:1 ~facts:(Some []) ());
        let delivered = msgs.Wdl_net.Transport.drain "b" in
        check_int "only the valid one" 1 (List.length delivered);
        check_int "the dropped frame is counted" 1 (dropped () - before);
        check_int "one frame encoded" 1 (timed "encode" - encoded);
        check_int "both frames timed in decode" 2 (timed "decode" - decoded));
    tc "httpd turns handler exceptions into 500s" (fun () ->
        let server = Wdl_web.Httpd.start (fun _ -> failwith "boom") in
        Fun.protect
          ~finally:(fun () -> Wdl_web.Httpd.stop server)
          (fun () ->
            let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close sock)
              (fun () ->
                Unix.connect sock
                  (Unix.ADDR_INET
                     (Unix.inet_addr_loopback, Wdl_web.Httpd.port server));
                let req = "GET / HTTP/1.1\r\nHost: x\r\n\r\n" in
                ignore (Unix.write_substring sock req 0 (String.length req));
                Unix.shutdown sock Unix.SHUTDOWN_SEND;
                ignore (Wdl_web.Httpd.poll server);
                let buf = Bytes.create 4096 in
                let n = Unix.read sock buf 0 4096 in
                let resp = Bytes.sub_string buf 0 n in
                check_bool "500" (Str_helper.contains resp "500"))));
    tc "system counters: rounds, sent, dropped" (fun () ->
        let sys = System.create () in
        let p = System.add_peer sys "p" in
        ok' (Peer.load_string p "a@p(1); out@ghost($x) :- a@p($x);");
        check_int "no rounds yet" 0 (System.rounds sys);
        ignore (ok' (System.run sys));
        check_bool "rounds advanced" (System.rounds sys > 0);
        check_int "nothing actually sent" 0 (System.messages_sent sys);
        check_int "ghost drop counted" 1 (System.messages_dropped sys));
    tc "adopt_peer refuses duplicates" (fun () ->
        let sys = System.create () in
        ignore (System.add_peer sys "p");
        let stray = Peer.create "p" in
        check_bool "raises"
          (try System.adopt_peer sys stray; false
           with Invalid_argument _ -> true));
    tc "simnet partition control is symmetric and idempotent" (fun () ->
        let _t, net = Wdl_net.Simnet.create_with_control () in
        Wdl_net.Simnet.partition net ~between:"a" ~and_:"b";
        Wdl_net.Simnet.partition net ~between:"b" ~and_:"a";
        check_bool "down both ways"
          (Wdl_net.Simnet.partitioned net ~between:"b" ~and_:"a");
        Wdl_net.Simnet.heal net ~between:"a" ~and_:"b";
        Wdl_net.Simnet.heal net ~between:"a" ~and_:"b";
        check_bool "up" (not (Wdl_net.Simnet.partitioned net ~between:"a" ~and_:"b")));
    tc "querying a view before any stage ran is empty, not an error" (fun () ->
        let p = Peer.create "p" in
        ok' (Peer.load_string p "int v@p(x); a@p(1); v@p($x) :- a@p($x);");
        check_int "empty" 0 (List.length (Peer.query p "v"));
        ignore (Peer.stage p);
        check_int "filled" 1 (List.length (Peer.query p "v")));
    tc "receive marks work; stage consumes it" (fun () ->
        let p = Peer.create "p" in
        ignore (Peer.stage p);
        check_bool "idle" (not (Peer.has_work p));
        Peer.receive p
          (Message.make ~src:"q" ~dst:"p" ~stage:1
             ~facts:(Some [ Fact.make ~rel:"m" ~peer:"p" [ Value.Int 1 ] ])
             ());
        check_bool "work" (Peer.has_work p);
        ignore (Peer.stage p);
        check_bool "consumed" (not (Peer.has_work p));
        check_int "fact landed" 1 (List.length (Peer.query p "m")));
    tc "classify describe covers every head/body shape" (fun () ->
        List.iter
          (fun (src, needle) ->
            let c =
              Classify.classify ~self:"p"
                ~intensional:(fun r -> r = "v")
                (Parser.parse_rule src)
            in
            check_bool needle (Str_helper.contains (Classify.describe c) needle))
          [ ("v@p($x) :- a@p($x)", "view rule");
            ("b@p($x) :- a@p($x)", "update rule");
            ("out@q($x) :- a@p($x)", "messaging rule");
            ("$r@$q($x) :- n@p($r), m@p($q), a@p($x)", "dynamic head");
            ("v@p($x) :- a@p($x), b@q($x)", "delegates at literal 2");
            ("v@p($x) :- n@p($a), b@$a($x)", "dynamic from literal 2") ]);
    tc "decl kinds print and parse" (fun () ->
        let p = Parser.parse_program "ext a@p(); int b@p(x);" in
        let printed = Format.asprintf "%a" Program.pp p in
        check_bool "roundtrip"
          (match Parser.program printed with
          | Ok p' -> List.length p' = 2
          | Error _ -> false));
    tc "peer stats count the whole lifecycle" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys "Jules" in
        let emilien = System.add_peer sys "Emilien" in
        ok'
          (Peer.load_string jules
             {|ext sel@Jules(a); int view@Jules(i); sel@Jules("Emilien");
               view@Jules($i) :- sel@Jules($a), pics@$a($i);|});
        ok' (Peer.load_string emilien "ext pics@Emilien(i); pics@Emilien(1);");
        ignore (ok' (System.run sys));
        let js = Peer.stats jules and es = Peer.stats emilien in
        check_bool "jules staged" (js.Peer.stages > 0);
        check_bool "jules sent the delegation" (js.Peer.messages_sent > 0);
        check_int "emilien installed once" 1 es.Peer.delegations_installed;
        check_bool "emilien received" (es.Peer.messages_received > 0);
        check_bool "derivations counted" (es.Peer.derivations > 0);
        check_int "no errors" 0 (js.Peer.runtime_errors + es.Peer.runtime_errors);
        (* Retraction counted too. *)
        ok'
          (Peer.delete jules
             (Fact.make ~rel:"sel" ~peer:"Jules" [ Value.String "Emilien" ]));
        ignore (ok' (System.run sys));
        check_int "retracted" 1 (Peer.stats emilien).Peer.delegations_retracted;
        check_bool "pp_stats prints"
          (String.length (Format.asprintf "%a" Peer.pp_stats js) > 0));
    tc "message wire frames include unicode peers" (fun () ->
        let m =
          Message.make ~src:"Émilien" ~dst:"Jules" ~stage:1
            ~facts:(Some [ Fact.make ~rel:"pictures" ~peer:"Jules" [ Value.String "café" ] ])
            ()
        in
        match Wire.unbatch (Wire.batch [ m ]) with
        | Ok [ m' ] -> Alcotest.check Alcotest.string "src" "Émilien" m'.Message.src
        | Ok _ -> Alcotest.fail "wrong arity"
        | Error e -> Alcotest.fail e);
  ]
