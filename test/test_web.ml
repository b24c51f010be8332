(* The Web interface: HTTP substrate + Wepic-style UI handler. *)
open Webdamlog
module Httpd = Wdl_web.Httpd
module Ui = Wdl_web.Ui

open Check

(* A blocking one-shot HTTP client over a raw socket. The server's poll
   runs in this same process, so: connect+send, poll, then read. *)
let http server ~meth ~path ?(body = "") () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Httpd.port server));
      let request =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Type: \
           application/x-www-form-urlencoded\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      ignore (Unix.write_substring sock request 0 (String.length request));
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      ignore (Httpd.poll server);
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec read () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          read ()
        end
      in
      (try read () with Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
      Buffer.contents buf)

let status response =
  match String.split_on_char ' ' response with
  | _ :: code :: _ -> int_of_string_opt code |> Option.value ~default:(-1)
  | _ -> -1

let with_ui f =
  let sys = System.create () in
  let jules = System.add_peer sys "Jules" in
  ok'
    (Peer.load_string jules
       {|ext pictures@Jules(id, name); int v@Jules(id);
         pictures@Jules(1, "sea.jpg");
         v@Jules($i) :- pictures@Jules($i, $n);|});
  let settle () = ignore (System.run sys) in
  settle ();
  let server = Httpd.start (Ui.handler sys ~settle) in
  Fun.protect ~finally:(fun () -> Httpd.stop server) (fun () -> f sys jules server)

let suite =
  [
    tc "url_decode and html_escape" (fun () ->
        Alcotest.check Alcotest.string "decode" "a b&c=é"
          (Httpd.url_decode "a+b%26c%3D%C3%A9");
        Alcotest.check Alcotest.string "escape" "&lt;a&gt;&amp;&quot;"
          (Httpd.html_escape "<a>&\""));
    tc "form_values parses urlencoded bodies" (fun () ->
        check_bool "pairs"
          (Httpd.form_values "a=1&b=two+words&flag"
          = [ ("a", "1"); ("b", "two words"); ("flag", "") ]));
    tc "GET / lists peers" (fun () ->
        with_ui (fun _ _ server ->
            let resp = http server ~meth:"GET" ~path:"/" () in
            check_int "200" 200 (status resp);
            check_bool "lists Jules" (Str_helper.contains resp "Jules")));
    tc "GET /peer/NAME renders relations and program" (fun () ->
        with_ui (fun _ _ server ->
            let resp = http server ~meth:"GET" ~path:"/peer/Jules" () in
            check_int "200" 200 (status resp);
            check_bool "facts" (Str_helper.contains resp "sea.jpg");
            check_bool "view" (Str_helper.contains resp "v@Jules");
            check_bool "rule shown"
              (Str_helper.contains resp "pictures@Jules($i, $n)")));
    tc "unknown paths and peers give 404" (fun () ->
        with_ui (fun _ _ server ->
            check_int "path" 404 (status (http server ~meth:"GET" ~path:"/nope" ()));
            check_int "peer" 404
              (status (http server ~meth:"GET" ~path:"/peer/ghost" ()))));
    tc "POST statement inserts and redirects" (fun () ->
        with_ui (fun _ jules server ->
            let resp =
              http server ~meth:"POST" ~path:"/peer/Jules/statement"
                ~body:"stmt=pictures%40Jules(2%2C%20%22talk.jpg%22)%3B" ()
            in
            check_int "303" 303 (status resp);
            check_int "inserted" 2 (List.length (Peer.query jules "pictures"));
            check_int "view settled" 2 (List.length (Peer.query jules "v"))));
    tc "bad statements give 400" (fun () ->
        with_ui (fun _ _ server ->
            check_int "400" 400
              (status
                 (http server ~meth:"POST" ~path:"/peer/Jules/statement"
                    ~body:"stmt=%24broken" ()))));
    tc "GET query runs the Query tab" (fun () ->
        with_ui (fun _ _ server ->
            let resp =
              http server ~meth:"GET"
                ~path:"/peer/Jules/query?q=q%40Jules(%24n)%20%3A-%20pictures%40Jules(%24i%2C%20%24n)"
                ()
            in
            check_int "200" 200 (status resp);
            check_bool "row" (Str_helper.contains resp "sea.jpg")));
    tc "GET /metrics exposes Prometheus text with engine metrics" (fun () ->
        Wdl_obs.Obs.clear Wdl_obs.Obs.default;
        with_ui (fun _ _ server ->
            let resp = http server ~meth:"GET" ~path:"/metrics" () in
            check_int "200" 200 (status resp);
            check_bool "content type"
              (Str_helper.contains resp "text/plain; version=0.0.4");
            List.iter
              (fun needle ->
                check_bool needle (Str_helper.contains resp needle))
              [
                (* stage-duration histogram *)
                "# TYPE wdl_eval_stage_duration_microseconds histogram";
                "wdl_eval_stage_duration_microseconds_bucket{peer=\"Jules\",le=\"+Inf\"}";
                "wdl_eval_stage_duration_microseconds_count{peer=\"Jules\"}";
                (* per-peer derivation counter *)
                "wdl_peer_derivations_total{peer=\"Jules\"} 1";
                (* every Netstats field, re-exported *)
                "wdl_net_sent_total{transport=\"inmem\"}";
                "wdl_net_delivered_total{transport=\"inmem\"}";
                "wdl_net_bytes_total{transport=\"inmem\"}";
                "wdl_net_retransmits_total{transport=\"inmem\"}";
                "wdl_net_dup_dropped_total{transport=\"inmem\"}";
                "wdl_net_send_failures_total{transport=\"inmem\"}";
                "wdl_net_acked_total{transport=\"inmem\"}";
                "wdl_net_pending{transport=\"inmem\"}";
                (* system counters *)
                "# TYPE wdl_system_rounds_total counter";
              ]));
    tc "GET /trace.json returns chrome trace events" (fun () ->
        with_ui (fun _ _ server ->
            let resp = http server ~meth:"GET" ~path:"/trace.json" () in
            check_int "200" 200 (status resp);
            check_bool "content type"
              (Str_helper.contains resp "application/json");
            check_bool "envelope" (Str_helper.contains resp "\"traceEvents\":[");
            check_bool "stage pair" (Str_helper.contains resp "\"ph\":\"B\"");
            check_bool "fact instant"
              (Str_helper.contains resp "fact_inserted")));
    tc "pending delegations can be accepted through the UI" (fun () ->
        let sys = System.create () in
        let jules = System.add_peer sys ~policy:Acl.Closed "Jules" in
        let julia = System.add_peer sys "Julia" in
        ok' (Peer.load_string jules "ext pictures@Jules(i); pictures@Jules(7);");
        ok'
          (Peer.load_string julia
             "int mine@Julia(i); mine@Julia($i) :- pictures@Jules($i);");
        let settle () = ignore (System.run sys) in
        settle ();
        let server = Httpd.start (Ui.handler sys ~settle) in
        Fun.protect
          ~finally:(fun () -> Httpd.stop server)
          (fun () ->
            let peer_page = http server ~meth:"GET" ~path:"/peer/Jules" () in
            check_bool "notification shown"
              (Str_helper.contains peer_page "asks to install");
            let src, rule = List.hd (Peer.pending_delegations jules) in
            let body =
              Printf.sprintf "src=%s&rule=%s" src
                (String.concat ""
                   (List.map
                      (fun c ->
                        Printf.sprintf "%%%02X" (Char.code c))
                      (List.init
                         (String.length (Format.asprintf "%a" Wdl_syntax.Rule.pp rule))
                         (String.get (Format.asprintf "%a" Wdl_syntax.Rule.pp rule)))))
            in
            let resp =
              http server ~meth:"POST" ~path:"/peer/Jules/accept" ~body ()
            in
            check_int "303" 303 (status resp);
            check_int "installed" 1 (List.length (Peer.delegated_rules jules));
            check_int "flows" 1 (List.length (Peer.query julia "mine"))));
  ]
