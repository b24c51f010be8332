open Wdl_net
open Check

let suite =
  [
    tc "inmem: immediate FIFO delivery" (fun () ->
        let t = Inmem.create () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        t.Transport.send ~src:"a" ~dst:"b" 2;
        Alcotest.check (Alcotest.list Alcotest.int) "fifo" [ 1; 2 ]
          (t.Transport.drain "b");
        check_int "empty" 0 (List.length (t.Transport.drain "b")));
    tc "inmem: per-destination inboxes" (fun () ->
        let t = Inmem.create () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        t.Transport.send ~src:"a" ~dst:"c" 2;
        check_int "b" 1 (List.length (t.Transport.drain "b"));
        check_int "c" 1 (List.length (t.Transport.drain "c")));
    tc "inmem: stats and sizer" (fun () ->
        let t = Inmem.create ~sizer:(fun n -> n) () in
        t.Transport.send ~src:"a" ~dst:"b" 10;
        t.Transport.send ~src:"a" ~dst:"b" 5;
        let s = t.Transport.stats () in
        check_int "sent" 2 s.Netstats.sent;
        check_int "bytes" 15 s.Netstats.bytes;
        ignore (t.Transport.drain "b");
        check_int "delivered" 2 (t.Transport.stats ()).Netstats.delivered);
    tc "inmem: pending counts undrained messages" (fun () ->
        let t = Inmem.create () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        check_int "one" 1 (t.Transport.pending ());
        ignore (t.Transport.drain "b");
        check_int "zero" 0 (t.Transport.pending ()));
    tc "simnet: nothing delivered before latency elapses" (fun () ->
        let t = Simnet.create ~jitter:0. ~base_latency:2.0 () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        check_int "t0" 0 (List.length (t.Transport.drain "b"));
        t.Transport.advance 1.0;
        check_int "t1" 0 (List.length (t.Transport.drain "b"));
        t.Transport.advance 1.0;
        check_int "t2" 1 (List.length (t.Transport.drain "b")));
    tc "simnet: reflexive links are instantaneous" (fun () ->
        let t = Simnet.create ~base_latency:5.0 () in
        t.Transport.send ~src:"a" ~dst:"a" 1;
        check_int "self" 1 (List.length (t.Transport.drain "a")));
    tc "simnet: deterministic under a fixed seed" (fun () ->
        let run () =
          let t = Simnet.create ~seed:7 ~base_latency:1.0 ~jitter:0.5 () in
          for i = 0 to 9 do
            t.Transport.send ~src:"a" ~dst:"b" i
          done;
          t.Transport.advance 1.5;
          t.Transport.drain "b"
        in
        check_bool "same order" (run () = run ()));
    tc "simnet: per-link latency function" (fun () ->
        let t =
          Simnet.create ~jitter:0.
            ~latency:(fun ~src ~dst:_ -> if src = "far" then 10. else 1.)
            ()
        in
        t.Transport.send ~src:"far" ~dst:"b" 1;
        t.Transport.send ~src:"near" ~dst:"b" 2;
        t.Transport.advance 1.0;
        Alcotest.check (Alcotest.list Alcotest.int) "near only" [ 2 ]
          (t.Transport.drain "b");
        t.Transport.advance 9.0;
        Alcotest.check (Alcotest.list Alcotest.int) "far arrives" [ 1 ]
          (t.Transport.drain "b"));
    tc "simnet: equal stamps preserve send order" (fun () ->
        let t = Simnet.create ~jitter:0. ~base_latency:1.0 () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        t.Transport.send ~src:"a" ~dst:"b" 2;
        t.Transport.advance 1.0;
        Alcotest.check (Alcotest.list Alcotest.int) "fifo" [ 1; 2 ]
          (t.Transport.drain "b"));
    tc "simnet: loss drops copies and counts them" (fun () ->
        let t, ctl = Simnet.create_with_control ~jitter:0. ~loss:1.0 () in
        for i = 1 to 5 do
          t.Transport.send ~src:"a" ~dst:"b" i
        done;
        t.Transport.advance 1.0;
        check_int "all lost" 0 (List.length (t.Transport.drain "b"));
        check_int "counted" 5 (Simnet.messages_lost ctl);
        check_int "sent still counted" 5 (t.Transport.stats ()).Netstats.sent);
    tc "simnet: partial loss is deterministic under the seed" (fun () ->
        let run () =
          let t = Simnet.create ~seed:9 ~jitter:0. ~loss:0.5 () in
          for i = 1 to 20 do
            t.Transport.send ~src:"a" ~dst:"b" i
          done;
          t.Transport.advance 1.0;
          t.Transport.drain "b"
        in
        let got = run () in
        check_bool "some lost" (List.length got < 20);
        check_bool "some survive" (List.length got > 0);
        check_bool "replayable" (got = run ()));
    tc "simnet: a crashed peer loses its inbox and all traffic" (fun () ->
        let t, ctl = Simnet.create_with_control ~jitter:0. () in
        t.Transport.send ~src:"a" ~dst:"b" 1;
        Simnet.crash ctl "b";
        check_bool "crashed" (Simnet.crashed ctl "b");
        t.Transport.send ~src:"a" ~dst:"b" 2;  (* dropped: b is down *)
        t.Transport.send ~src:"b" ~dst:"a" 3;  (* dropped: b cannot send *)
        t.Transport.advance 1.0;
        check_int "nothing at b" 0 (List.length (t.Transport.drain "b"));
        check_int "nothing from b" 0 (List.length (t.Transport.drain "a"));
        check_int "inbox + both directions lost" 3 (Simnet.messages_lost ctl);
        Simnet.restart ctl "b";
        t.Transport.send ~src:"a" ~dst:"b" 4;
        t.Transport.advance 1.0;
        Alcotest.check (Alcotest.list Alcotest.int) "delivery resumes" [ 4 ]
          (t.Transport.drain "b"));
    tc "tcp: unreachable peer does not raise; send is parked and counted"
      (fun () ->
        (* Grab a port that is certainly closed by binding and
           releasing it. *)
        let dead_t, dead_c = Tcp.create () in
        let dead_port = Tcp.port dead_c in
        ignore dead_t;
        Tcp.close dead_c;
        let t, c = Tcp.create ~connect_timeout:0.5 ~retry_delay:0.01 () in
        Tcp.register c ~peer:"gone"
          { Tcp.host = "127.0.0.1"; port = dead_port };
        t.Transport.send ~src:"a" ~dst:"gone" "hello?";  (* must not raise *)
        check_bool "failure counted"
          ((t.Transport.stats ()).Netstats.send_failures >= 1);
        check_int "parked for retry" 1 (Tcp.parked_sends c);
        check_bool "pending includes parked" (t.Transport.pending () >= 1);
        Tcp.close c);
    tc "send_many: batches deliver in order and are counted (all transports)"
      (fun () ->
        let check_transport label (t : int Transport.t) advance =
          t.Transport.send_many ~dst:"b" [ ("a", 1); ("c", 2); ("a", 3) ];
          t.Transport.send_many ~dst:"b" [];
          advance t;
          Alcotest.check
            (Alcotest.list Alcotest.int)
            (label ^ ": in order") [ 1; 2; 3 ] (t.Transport.drain "b");
          check_int (label ^ ": batches counted") 2
            (t.Transport.stats ()).Netstats.batches;
          check_int (label ^ ": messages counted") 3
            (t.Transport.stats ()).Netstats.sent
        in
        check_transport "inmem" (Inmem.create ()) (fun _ -> ());
        check_transport "simnet"
          (Simnet.create ~jitter:0. ())
          (fun t -> t.Transport.advance 1.0));
    tc "unregistered destination: inmem/simnet keep it drainable, not lost"
      (fun () ->
        (* In-process transports have no registry: a name nobody drained
           yet still accumulates and delivers on its first drain. *)
        let ti : int Transport.t = Inmem.create () in
        ti.Transport.send ~src:"a" ~dst:"nobody" 1;
        check_int "inmem pending" 1 (ti.Transport.pending ());
        check_int "inmem delivers" 1 (List.length (ti.Transport.drain "nobody"));
        let ts : int Transport.t = Simnet.create ~jitter:0. () in
        ts.Transport.send ~src:"a" ~dst:"nobody" 1;
        ts.Transport.advance 1.0;
        check_int "simnet delivers" 1 (List.length (ts.Transport.drain "nobody")));
    tc "tcp: unregistered remote destination dead-letters, no silent queue"
      (fun () ->
        (* Misconfigured peer name: neither registered nor ever drained
           here. It must not sit in a local queue forever inflating
           [pending] — it parks, retries, and becomes a dead letter. *)
        let t, c = Tcp.create ~retry_delay:0.005 ~max_retries:2 () in
        t.Transport.send ~src:"a" ~dst:"no such peer" "hello?";
        check_int "parked, not silently queued" 1 (Tcp.parked_sends c);
        check_bool "pending visible" (t.Transport.pending () >= 1);
        (* Let the backoff deadlines pass, pumping via [pending]. *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Tcp.parked_sends c > 0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01;
          ignore (t.Transport.pending ())
        done;
        check_int "gave up" 0 (Tcp.parked_sends c);
        check_int "dead letter counted" 1 (Tcp.dead_letters c);
        check_bool "failure surfaced"
          ((t.Transport.stats ()).Netstats.send_failures >= 1);
        check_int "nothing left pending" 0 (t.Transport.pending ());
        Tcp.close c);
    tc "tcp: parking a few thousand sends stays fast (heap, not list)"
      (fun () ->
        let t, c = Tcp.create () in
        let n = 3000 in
        let t0 = Unix.gettimeofday () in
        for i = 1 to n do
          t.Transport.send ~src:"a" ~dst:"late" (string_of_int i)
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        check_int "all parked" n (Tcp.parked_sends c);
        check_bool "no quadratic blowup" (elapsed < 2.0);
        (* The destination turns out to live here: its first drain
           flushes the whole backlog, in send order. *)
        let got = t.Transport.drain "late" in
        check_int "all flushed" n (List.length got);
        check_bool "in order"
          (got = List.init n (fun i -> string_of_int (i + 1)));
        check_int "heap empty" 0 (Tcp.parked_sends c);
        Tcp.close c);
    tc "tcp: read_all is bounded; a stalled writer only loses its frame"
      (fun () ->
        let t, c = Tcp.create ~read_timeout:0.15 () in
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Tcp.port c));
        (* Half a frame, and the write side stays open forever. *)
        ignore (Unix.write_substring sock "5\n" 0 2);
        let t0 = Unix.gettimeofday () in
        let got = t.Transport.drain "whoever" in
        let elapsed = Unix.gettimeofday () -. t0 in
        Unix.close sock;
        check_int "partial frame dropped" 0 (List.length got);
        check_bool "returned promptly, not hung" (elapsed < 2.0);
        (* The transport still works afterwards. *)
        t.Transport.send ~src:"a" ~dst:"b" "still alive";
        Alcotest.check (Alcotest.list Alcotest.string) "subsequent frames ok"
          [ "still alive" ] (t.Transport.drain "b");
        Tcp.close c);
    tc "tcp: a metrics scrape reads wdl_net_pending without pumping"
      (fun () ->
        (* With zero retries the first pump past the backoff deadline
           dead-letters the send; a scrape must not be that pump. *)
        let t, c = Tcp.create ~retry_delay:0.001 ~max_retries:0 () in
        t.Transport.send ~src:"a" ~dst:"no such peer" "hello?";
        Unix.sleepf 0.01;
        let pending =
          List.find_map
            (fun (s : Wdl_obs.Obs.sample) ->
              match s.s_value with
              | `Value v
                when s.s_name = "wdl_net_pending"
                     && List.mem ("transport", "tcp") s.s_labels ->
                Some v
              | _ -> None)
            (Wdl_obs.Obs.collect ())
        in
        Alcotest.(check (option (float 0.))) "gauge counts the parked send"
          (Some 1.) pending;
        check_int "still parked" 1 (Tcp.parked_sends c);
        check_int "no dead letter" 0 (Tcp.dead_letters c);
        Tcp.close c);
    tc "tcp: an idle drain allocates nothing on the major heap" (fun () ->
        let ta, ca = Tcp.create () in
        let tb, cb = Tcp.create () in
        Tcp.register ca ~peer:"bob"
          { Tcp.host = "127.0.0.1"; port = Tcp.port cb };
        ta.Transport.send ~src:"alice" ~dst:"bob" "hi";
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec await () =
          match tb.Transport.drain "bob" with
          | [] when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.001;
            await ()
          | got -> got
        in
        Alcotest.(check (list string)) "frame over the open connection"
          [ "hi" ] (await ());
        let direct () =
          let s = Gc.quick_stat () in
          s.Gc.major_words -. s.Gc.promoted_words
        in
        let before = direct () in
        for _ = 1 to 1000 do
          ignore (tb.Transport.drain "bob")
        done;
        let bytes = (direct () -. before) *. float_of_int (Sys.word_size / 8) in
        check_bool
          (Printf.sprintf "direct major allocation %.0f bytes < 1 MiB" bytes)
          (bytes < 1048576.);
        Tcp.close ca;
        Tcp.close cb);
    tc "tcp: frames larger than the read buffer arrive intact, in order"
      (fun () ->
        (* Two senders share the receiver's one read buffer; payloads
           of 200 KiB (over three buffer fills, newlines included)
           interleave with small frames on both connections. *)
        let rx, crx = Tcp.create () in
        let senders =
          List.map
            (fun name ->
              let t, c = Tcp.create () in
              Tcp.register c ~peer:"rx"
                { Tcp.host = "127.0.0.1"; port = Tcp.port crx };
              (name, t, c))
            [ "s1"; "s2" ]
        in
        let payload name i =
          let head = Printf.sprintf "%s#%d:" name i in
          if name = "s1" = (i mod 2 = 0) then
            head
            ^ String.init (200 * 1024) (fun k ->
                  Char.chr (((k * 31) + i) land 255))
          else head ^ "small"
        in
        let rounds = 4 in
        let got = ref [] in
        let drain () = got := !got @ rx.Transport.drain "rx" in
        for i = 0 to rounds - 1 do
          List.iter
            (fun (name, t, _) ->
              t.Transport.send ~src:name ~dst:"rx" (payload name i))
            senders;
          drain ()
        done;
        let total = rounds * List.length senders in
        let deadline = Unix.gettimeofday () +. 10.0 in
        while List.length !got < total && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001;
          drain ()
        done;
        check_int "every frame arrived" total (List.length !got);
        List.iter
          (fun (name, _, c) ->
            let mine =
              List.filter
                (fun p -> String.starts_with ~prefix:(name ^ "#") p)
                !got
            in
            check_bool (name ^ ": byte-equal, in send order")
              (mine = List.init rounds (payload name));
            Tcp.close c)
          senders;
        Tcp.close crx);
  ]
