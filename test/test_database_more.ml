(* Additional store coverage: multi-pattern indexes, copies, dumps. *)
open Wdl_syntax
open Wdl_store
open Check

let t ints = Tuple.of_list (List.map (fun n -> Value.Int n) ints)

let collect = Test_store.collect_lookup

let suite =
  [
    tc "distinct binding patterns build distinct indexes" (fun () ->
        let r = Relation.create ~arity:3 () in
        for i = 0 to 99 do
          ignore (Relation.insert r (t [ i mod 4; i mod 5; i ]))
        done;
        (* Past the threshold, a signature's first probe builds its
           index. *)
        ignore (collect r [ (0, Value.Int 1) ]);
        ignore (collect r [ (1, Value.Int 2) ]);
        ignore (collect r [ (0, Value.Int 1); (1, Value.Int 2) ]);
        check_int "three indexes" 3 (Relation.index_count r);
        (* Reusing a pattern does not create another. *)
        ignore (collect r [ (0, Value.Int 3) ]);
        check_int "still three" 3 (Relation.index_count r));
    tc "clear drops data, keeps index skeletons usable" (fun () ->
        let r = Relation.create ~arity:2 () in
        for i = 0 to 49 do
          ignore (Relation.insert r (t [ i mod 3; i ]))
        done;
        ignore (collect r [ (0, Value.Int 1) ]);
        check_bool "indexed" (Relation.index_count r > 0);
        Relation.clear r;
        check_int "empty" 0 (Relation.cardinal r);
        (* Usable again after clear. *)
        ignore (Relation.insert r (t [ 1; 2 ]));
        check_int "hit" 1 (List.length (collect r [ (0, Value.Int 1) ])));
    tc "copy preserves indexes and stays independent" (fun () ->
        let r = Relation.create ~arity:2 () in
        for i = 0 to 49 do
          ignore (Relation.insert r (t [ i mod 3; i ]))
        done;
        ignore (collect r [ (0, Value.Int 1) ]);
        check_bool "indexed" (Relation.index_count r > 0);
        let builds = !Relation.builds_total in
        let c = Relation.copy ~pool:(Relation.pool r) r in
        (* Regression (satellite): copy used to drop every index, so a
           snapshot's first lookup triggered a rebuild storm. *)
        check_int "copy keeps the indexes" (Relation.index_count r)
          (Relation.index_count c);
        check_int "lookup on the copy answers without rebuilding" 17
          (List.length (collect c [ (0, Value.Int 1) ]));
        check_int "no index build on the copy path" builds !Relation.builds_total;
        ignore (Relation.delete c (t [ 1; 1 ]));
        check_bool "original keeps the tuple" (Relation.mem r (t [ 1; 1 ]));
        check_int "copy dropped it" 16 (List.length (collect c [ (0, Value.Int 1) ])));
    tc "database copy is deep" (fun () ->
        let db = Database.create () in
        ignore (Database.insert db ~rel:"m" (t [ 1 ]));
        let db' = Database.copy db in
        ignore (Database.insert db' ~rel:"m" (t [ 2 ]));
        ignore (Database.insert db' ~rel:"fresh" (t [ 3 ]));
        check_bool "original unchanged" (not (Database.mem db ~rel:"m" (t [ 2 ])));
        check_bool "no fresh in original" (Database.find db "fresh" = None));
    tc "database pp dumps re-parseable facts" (fun () ->
        let db = Database.create () in
        ignore (Database.insert db ~rel:"m" (t [ 2 ]));
        ignore (Database.insert db ~rel:"m" (t [ 1 ]));
        let dump = Format.asprintf "%a" (Database.pp ~peer:"p") db in
        match Parser.program dump with
        | Ok stmts -> check_int "two facts" 2 (List.length stmts)
        | Error e -> Alcotest.fail e);
    tc "empty binding list scans everything" (fun () ->
        let r = Relation.create ~arity:1 () in
        for i = 0 to 9 do
          ignore (Relation.insert r (t [ i ]))
        done;
        check_int "all" 10 (List.length (collect r [])));
    tc "lookup on a value-mismatched type finds nothing" (fun () ->
        let r = Relation.create ~arity:1 () in
        ignore (Relation.insert r (t [ 1 ]));
        check_int "string key" 0
          (List.length (collect r [ (0, Value.String "1") ])));
  ]
