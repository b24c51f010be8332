(* Write-ahead journal + checkpoint recovery (Persist). *)
open Wdl_syntax
open Webdamlog
module Journal = Wdl_store.Journal

open Check

let fact i = Fact.make ~rel:"m" ~peer:"p" [ Value.Int i ]

let suite =
  [
    tc "journal: append and replay round-trip" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let file = Filename.concat dir "j.wal" in
        let j = Journal.open_ file in
        let entries =
          [ Journal.Declare (Decl.make ~kind:Decl.Extensional ~rel:"m" ~peer:"p" [ "x" ]);
            Journal.Insert (fact 1);
            Journal.Insert (Fact.make ~rel:"m" ~peer:"p" [ Value.String "é\"x" ]);
            Journal.Insert (Fact.make ~rel:"m" ~peer:"p" [ Value.Float neg_infinity ]);
            Journal.Delete (fact 1) ]
        in
        List.iter (Journal.append j) entries;
        Journal.close j;
        let replayed = ok' (Journal.replay file) in
        check_bool "equal" (List.equal Journal.entry_equal entries replayed));
    tc "journal: long statements never wrap across lines" (fun () ->
        (* Break hints outside a box split at max-indent; the one-line
           renderer must defeat that (regression). *)
        Tmpdir.with_temp_dir @@ fun dir ->
        let file = Filename.concat dir "long.wal" in
        let j = Journal.open_ file in
        let long_fact =
          Fact.make ~rel:"pictures" ~peer:"p"
            [ Value.Int 1; Value.String (String.make 500 'x');
              Value.String (String.make 300 'y'); Value.String "Émilien" ]
        in
        let wide_decl =
          Decl.make ~kind:Decl.Extensional ~rel:"widerelationname" ~peer:"p"
            (List.init 20 (Printf.sprintf "columnnumber%d"))
        in
        Journal.append j (Journal.Declare wide_decl);
        Journal.append j (Journal.Insert long_fact);
        Journal.close j;
        let replayed = ok' (Journal.replay file) in
        check_int "two entries" 2 (List.length replayed);
        check_bool "fact intact"
          (List.exists (Journal.entry_equal (Journal.Insert long_fact)) replayed));
    tc "journal: missing file is empty" (fun () ->
        check_bool "empty" (Journal.replay "/nonexistent/journal.wal" = Ok []));
    tc "journal: torn final line is tolerated" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let file = Filename.concat dir "torn.wal" in
        let j = Journal.open_ file in
        Journal.append j (Journal.Insert (fact 1));
        Journal.close j;
        let oc = open_out_gen [ Open_append ] 0o644 file in
        output_string oc "+ m@p(2";  (* crash mid-write: no ';', no newline *)
        close_out oc;
        let replayed = ok' (Journal.replay file) in
        check_int "only the complete entry" 1 (List.length replayed));
    tc "journal: torn line followed by trailing blank lines is tolerated"
      (fun () ->
        (* A crash can tear the line AND leave a stray newline behind;
           this used to return a spurious fatal Error. *)
        Tmpdir.with_temp_dir @@ fun dir ->
        let file = Filename.concat dir "torn_blank.wal" in
        let oc = open_out_bin file in
        output_string oc "+ m@p(1);\n+ m@p(2\n\n";
        close_out oc;
        let replayed = ok' (Journal.replay file) in
        check_int "only the complete entry" 1 (List.length replayed));
    tc "journal: repair cuts the torn tail so later appends replay cleanly"
      (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let p = Peer.create "p" in
        Persist.attach p ~dir;
        ok' (Peer.load_string p "ext m@p(x); m@p(1);");
        (* Crash mid-append: a partial line with no ';' and no newline.
           Without repair, recovery reopened with Open_append and the
           next entry was concatenated onto this line — losing both. *)
        let file = Filename.concat dir "journal.wal" in
        let oc = open_out_gen [ Open_append ] 0o644 file in
        output_string oc "+ m@p(2";
        close_out oc;
        let p' = ok' (Persist.recover ~dir ~fallback_name:"p" ()) in
        check_int "torn entry lost, complete one kept" 1
          (List.length (Peer.query p' "m"));
        ok' (Peer.insert p' (fact 3));
        let p'' = ok' (Persist.recover ~dir ~fallback_name:"p" ()) in
        check_int "clean replay sees old and new" 2
          (List.length (Peer.query p'' "m"));
        check_bool "post-recovery append survived"
          (List.exists (Fact.equal (fact 3)) (Peer.query p'' "m")));
    tc "journal: corruption in the middle is an error" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let file = Filename.concat dir "bad.wal" in
        let oc = open_out_bin file in
        output_string oc "+ m@p(1);\nGARBAGE\n+ m@p(2);\n";
        close_out oc;
        check_bool "error" (Result.is_error (Journal.replay file)));
    tc "journal: truncate empties the log" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let file = Filename.concat dir "t.wal" in
        let j = Journal.open_ file in
        Journal.append j (Journal.Insert (fact 1));
        Journal.truncate j;
        Journal.append j (Journal.Insert (fact 2));
        Journal.close j;
        let replayed = ok' (Journal.replay file) in
        check_bool "only post-truncate" (List.equal Journal.entry_equal replayed [ Journal.Insert (fact 2) ]));
    tc "journal: inductive updates land in canonical order" (fun () ->
        (* The extensional head makes each derivation an inductive
           update, so the run takes several stages; the edges are
           written anti-sorted and [reach] crosses cardinality bands
           (replanning mid-run). Whatever order the planner finds facts
           in, each stage's insertions must hit the journal sorted —
           the planner may only change how facts are found, never
           which facts, or their order, reach the base data. *)
        Tmpdir.with_temp_dir @@ fun dir ->
        let file = Filename.concat dir "j.wal" in
        let p = Peer.create "p" in
        Peer.set_journal p (Some (Journal.open_ file));
        ok'
          (Peer.load_string p
             "ext e@p(x,y); ext reach@p(x);\n\
              reach@p(1);\n\
              e@p(1,4); e@p(1,3); e@p(1,2); e@p(4,6); e@p(2,5);\n\
              reach@p($y) :- reach@p($x), e@p($x,$y);");
        let n = ref 0 in
        while Peer.has_work p && !n < 50 do
          ignore (Peer.stage p);
          incr n
        done;
        Option.iter Journal.close (Peer.journal p);
        let reached =
          List.filter_map
            (function
              | Journal.Insert { Fact.rel = "reach"; args = [ Value.Int i ]; _ } ->
                Some i
              | _ -> None)
            (ok' (Journal.replay file))
        in
        check_bool "reach journaled stage by stage, sorted"
          (reached = [ 1; 2; 3; 4; 5; 6 ]));
    tc "persist: recover a never-checkpointed peer from its journal" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let p = Peer.create "p" in
        Persist.attach p ~dir;
        ok' (Peer.load_string p "ext m@p(x); m@p(1); m@p(2);");
        ok' (Peer.delete p (fact 1));
        (* no checkpoint, "crash", recover *)
        let p' = ok' (Persist.recover ~dir ~fallback_name:"p" ()) in
        check_int "facts" 1 (List.length (Peer.query p' "m"));
        check_bool "right one" (List.hd (Peer.query p' "m") |> Fact.equal (fact 2)));
    tc "persist: checkpoint + journal tail" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let p = Peer.create "p" in
        Persist.attach p ~dir;
        ok' (Peer.load_string p "ext m@p(x); int v@p(x); m@p(1); v@p($x) :- m@p($x);");
        ignore (Peer.stage p);
        Persist.checkpoint p ~dir;
        (* post-checkpoint changes live only in the journal *)
        ok' (Peer.insert p (fact 2));
        let p' = ok' (Persist.recover ~dir ~fallback_name:"p" ()) in
        check_int "both facts" 2 (List.length (Peer.query p' "m"));
        check_int "rules survive via snapshot" 1 (List.length (Peer.rules p'));
        ignore (Peer.stage p');
        check_int "views recompute" 2 (List.length (Peer.query p' "v")));
    tc "persist: induced and received facts are journaled" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let sys = System.create () in
        let p = System.add_peer sys "p" in
        let q = System.add_peer sys "q" in
        Persist.attach q ~dir;
        ok' (Peer.load_string p "ext a@p(x); a@p(5); stored@q($x) :- a@p($x);");
        ok' (Peer.load_string q "ext stored@q(x); ext b@q(x); b@q($x) :- stored@q($x);");
        ignore (ok' (System.run sys));
        check_int "received" 1 (List.length (Peer.query q "stored"));
        check_int "induced" 1 (List.length (Peer.query q "b"));
        (* recover q alone: both kinds of fact are in its journal *)
        let q' = ok' (Persist.recover ~dir ~fallback_name:"q" ()) in
        check_int "received recovered" 1 (List.length (Peer.query q' "stored"));
        check_int "induced recovered" 1 (List.length (Peer.query q' "b")));
    tc "persist: recovery keeps journaling" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let p = Peer.create "p" in
        Persist.attach p ~dir;
        ok' (Peer.load_string p "ext m@p(x); m@p(1);");
        let p' = ok' (Persist.recover ~dir ~fallback_name:"p" ()) in
        ok' (Peer.insert p' (fact 2));
        let p'' = ok' (Persist.recover ~dir ~fallback_name:"p" ()) in
        check_int "all facts" 2 (List.length (Peer.query p'' "m")));
    tc "persist: double recovery is idempotent" (fun () ->
        Tmpdir.with_temp_dir @@ fun dir ->
        let p = Peer.create "p" in
        Persist.attach p ~dir;
        ok' (Peer.load_string p "ext m@p(x); m@p(1); m@p(2);");
        ok' (Peer.delete p (fact 2));
        let once = ok' (Persist.recover ~dir ~fallback_name:"p" ()) in
        let twice = ok' (Persist.recover ~dir ~fallback_name:"p" ()) in
        check_bool "same"
          (List.equal Fact.equal (Peer.query once "m") (Peer.query twice "m")));
  ]
