open Wdl_syntax
open Wdl_store
open Check

let t ints = Tuple.of_list (List.map (fun n -> Value.Int n) ints)

(* Every tuple matching the [(position, value)] constraints, decoded
   from the slots [Relation.lookup_key] hands back, sorted; the key is
   resolved to pool ids first. *)
let collect_lookup rel bound =
  let bound = List.sort compare bound in
  let acc = ref [] in
  (* A value the pool never saw matches nothing. *)
  (match
     Intern.find_all (Relation.pool rel) (Array.of_list (List.map snd bound))
   with
  | None -> ()
  | Some key ->
    Relation.lookup_key rel
      (Array.of_list (List.map fst bound))
      key
      (fun slot ->
        acc := Array.init (Relation.arity rel) (Relation.value rel slot) :: !acc));
  List.sort Tuple.compare !acc

let suite =
  [
    tc "tuple: equal/compare/hash" (fun () ->
        check_bool "equal" (Tuple.equal (t [ 1; 2 ]) (t [ 1; 2 ]));
        check_bool "diff" (not (Tuple.equal (t [ 1; 2 ]) (t [ 1; 3 ])));
        check_bool "arity order" (Tuple.compare (t [ 1 ]) (t [ 1; 1 ]) < 0);
        check_int "hash" (Tuple.hash (t [ 5; 6 ])) (Tuple.hash (t [ 5; 6 ])));
    tc "relation: insert is set semantics" (fun () ->
        let r = Relation.create ~arity:2 () in
        check_bool "new" (Relation.insert r (t [ 1; 2 ]));
        check_bool "dup" (not (Relation.insert r (t [ 1; 2 ])));
        check_int "card" 1 (Relation.cardinal r));
    tc "relation: arity mismatch raises" (fun () ->
        let r = Relation.create ~arity:2 () in
        check_bool "raises"
          (try ignore (Relation.insert r (t [ 1 ])); false
           with Invalid_argument _ -> true));
    tc "relation: delete" (fun () ->
        let r = Relation.create ~arity:1 () in
        ignore (Relation.insert r (t [ 1 ]));
        check_bool "removed" (Relation.delete r (t [ 1 ]));
        check_bool "absent" (not (Relation.delete r (t [ 1 ])));
        check_int "card" 0 (Relation.cardinal r));
    tc "lookup: constrained scan on small relation" (fun () ->
        let r = Relation.create ~arity:2 () in
        List.iter (fun x -> ignore (Relation.insert r (t [ x; x * x ]))) [ 1; 2; 3 ];
        check_int "hits" 1 (List.length (collect_lookup r [ (0, Value.Int 2) ]));
        check_int "none" 0 (List.length (collect_lookup r [ (0, Value.Int 9) ]));
        check_int "no index yet" 0 (Relation.index_count r));
    tc "lookup: indexing disabled never builds indexes" (fun () ->
        let r = Relation.create ~indexing:false ~arity:2 () in
        for i = 0 to 99 do
          ignore (Relation.insert r (t [ i mod 10; i ]))
        done;
        check_int "bucket" 10 (List.length (collect_lookup r [ (0, Value.Int 3) ]));
        check_int "no index" 0 (Relation.index_count r));
    tc "lookup: indexed and scan agree on multi-column patterns" (fun () ->
        let mk indexing =
          let r = Relation.create ~indexing ~arity:3 () in
          for i = 0 to 199 do
            ignore (Relation.insert r (t [ i mod 5; i mod 7; i ]))
          done;
          r
        in
        let a = mk true and b = mk false in
        let bound = [ (0, Value.Int 2); (1, Value.Int 3) ] in
        check_bool "same results"
          (List.equal Tuple.equal (collect_lookup a bound) (collect_lookup b bound)));
    tc "relation: copy is independent" (fun () ->
        let r = Relation.create ~arity:1 () in
        ignore (Relation.insert r (t [ 1 ]));
        let c = Relation.copy ~pool:(Relation.pool r) r in
        ignore (Relation.insert c (t [ 2 ]));
        check_int "orig" 1 (Relation.cardinal r);
        check_int "copy" 2 (Relation.cardinal c));
    tc "relation: to_sorted_list deterministic" (fun () ->
        let r = Relation.create ~arity:1 () in
        List.iter (fun x -> ignore (Relation.insert r (t [ x ]))) [ 3; 1; 2 ];
        check_bool "sorted"
          (List.equal Tuple.equal
             [ t [ 1 ]; t [ 2 ]; t [ 3 ] ]
             (Relation.to_sorted_list r)));
    tc "relation: to_sorted_list over holes matches a list sort" (fun () ->
        (* Values interned out of order and of mixed types, so pool ids
           say nothing about the order; deletes leave free slots that
           later inserts reuse. *)
        let r = Relation.create ~arity:2 () in
        let v i =
          match i mod 3 with
          | 0 -> Value.Int (50 - i)
          | 1 -> Value.String (string_of_int (i * 7 mod 11))
          | _ -> Value.Float (float_of_int (i mod 5) /. 2.)
        in
        let row i = [| v i; v (i * 13 mod 17) |] in
        for i = 0 to 39 do
          ignore (Relation.insert r (row i))
        done;
        for i = 0 to 39 do
          if i mod 3 <> 1 then ignore (Relation.delete r (row i))
        done;
        for i = 40 to 49 do
          ignore (Relation.insert r (row i))
        done;
        check_bool "has holes" (Relation.cardinal r < 50);
        check_bool "same as sorting to_list"
          (List.equal Tuple.equal
             (List.sort Tuple.compare (Relation.to_list r))
             (Relation.to_sorted_list r)));
    tc "database: declare, redeclare, mismatches" (fun () ->
        let db = Database.create () in
        let d = Decl.make ~kind:Decl.Extensional ~rel:"m" ~peer:"p" [ "a"; "b" ] in
        check_bool "ok" (Result.is_ok (Database.declare db d));
        check_bool "idempotent" (Result.is_ok (Database.declare db d));
        check_bool "kind clash"
          (Result.is_error
             (Database.declare db
                (Decl.make ~kind:Decl.Intensional ~rel:"m" ~peer:"p" [ "a"; "b" ])));
        check_bool "arity clash"
          (Result.is_error
             (Database.declare db
                (Decl.make ~kind:Decl.Extensional ~rel:"m" ~peer:"p" [ "a" ]))));
    tc "database: ensure auto-creates extensional" (fun () ->
        let db = Database.create () in
        (match Database.ensure db ~rel:"fresh" ~arity:3 with
        | Ok info ->
          check_bool "kind" (info.Database.kind = Decl.Extensional);
          check_int "arity" 3 info.Database.arity
        | Error _ -> Alcotest.fail "ensure failed");
        check_bool "arity conflict"
          (Result.is_error (Database.ensure db ~rel:"fresh" ~arity:2)));
    tc "database: insert/delete/mem" (fun () ->
        let db = Database.create () in
        check_bool "ins" (Database.insert db ~rel:"m" (t [ 1 ]) = Ok true);
        check_bool "dup" (Database.insert db ~rel:"m" (t [ 1 ]) = Ok false);
        check_bool "mem" (Database.mem db ~rel:"m" (t [ 1 ]));
        check_bool "del" (Database.delete db ~rel:"m" (t [ 1 ]) = Ok true);
        check_bool "gone" (not (Database.mem db ~rel:"m" (t [ 1 ]))));
    tc "database: clear_intensional leaves extensional data" (fun () ->
        let db = Database.create () in
        ignore
          (Database.declare db
             (Decl.make ~kind:Decl.Intensional ~rel:"v" ~peer:"p" [ "a" ]));
        ignore (Database.insert db ~rel:"v" (t [ 1 ]));
        ignore (Database.insert db ~rel:"e" (t [ 2 ]));
        Database.clear_intensional db;
        check_bool "view empty" (not (Database.mem db ~rel:"v" (t [ 1 ])));
        check_bool "ext kept" (Database.mem db ~rel:"e" (t [ 2 ])));
    tc "database: relations sorted by name" (fun () ->
        let db = Database.create () in
        ignore (Database.insert db ~rel:"zzz" (t [ 1 ]));
        ignore (Database.insert db ~rel:"aaa" (t [ 1 ]));
        check_bool "sorted"
          (List.map (fun (i : Database.info) -> i.Database.name) (Database.relations db)
          = [ "aaa"; "zzz" ]));
  ]
