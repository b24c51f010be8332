(* Property-based tests (qcheck) on the core data structures and on the
   engine's equivalences. *)
open Wdl_syntax
open Wdl_store

let ident_gen =
  QCheck.Gen.(
    let* len = int_range 1 8 in
    let* chars = list_size (return len) (char_range 'a' 'z') in
    let s = String.init len (List.nth chars) in
    (* avoid keywords *)
    return (if Term.is_ident s then s else "k" ^ s))

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Value.Int n) small_signed_int);
        (2, map (fun s -> Value.String s) (string_size ~gen:printable (int_range 0 12)));
        (2, map (fun f -> Value.Float f)
             (map (fun n -> float_of_int n /. 16.) small_signed_int));
        (1, map (fun b -> Value.Bool b) bool);
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let fact_gen =
  QCheck.Gen.(
    let* rel = ident_gen in
    let* peer = ident_gen in
    let* args = list_size (int_range 0 5) value_gen in
    return (Fact.make ~rel ~peer args))

let fact_arb = QCheck.make ~print:(Format.asprintf "%a" Fact.pp) fact_gen

let term_gen =
  QCheck.Gen.(
    frequency
      [ (2, map (fun v -> Term.Const v) value_gen);
        (2, map (fun x -> Term.Var x) ident_gen) ])

let name_term_gen =
  QCheck.Gen.(
    frequency
      [ (3, map Term.str ident_gen); (1, map (fun x -> Term.Var x) ident_gen) ])

let atom_gen =
  QCheck.Gen.(
    let* rel = name_term_gen in
    let* peer = name_term_gen in
    let* args = list_size (int_range 0 4) term_gen in
    return (Atom.make ~rel ~peer args))

let literal_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun a -> Literal.Pos a) atom_gen);
        (1, map (fun a -> Literal.Neg a) atom_gen);
        ( 1,
          let* x = ident_gen in
          let* v = value_gen in
          return (Literal.Cmp (Literal.Lt, Expr.Var x, Expr.Const v)) );
        ( 1,
          let* x = ident_gen in
          let* v = value_gen in
          return (Literal.Assign (x, Expr.Add (Expr.Const v, Expr.Const (Value.Int 1)))) )
      ])

(* Arbitrary rules (not necessarily safe): printer/parser and wire codec
   must round-trip anything the AST can hold. *)
let rule_gen =
  QCheck.Gen.(
    let* head = atom_gen in
    let* body = list_size (int_range 1 4) literal_gen in
    let* agg = bool in
    match head.Atom.args with
    | Term.Var v :: _ when agg ->
      let* op =
        oneofl Aggregate.[ Count; Sum; Min; Max; Avg ]
      in
      return (Rule.make_agg ~aggs:[ (0, { Aggregate.op; var = v }) ] ~head ~body)
    | _ -> return (Rule.make ~head ~body))

let rule_arb = QCheck.make ~print:(Format.asprintf "%a" Rule.pp) rule_gen

let message_gen =
  QCheck.Gen.(
    let* src = ident_gen in
    let* dst = ident_gen in
    let* stage = int_range 0 1000 in
    let* facts =
      frequency
        [ (1, return None); (3, map Option.some (list_size (int_range 0 5) fact_gen)) ]
    in
    let* installs = list_size (int_range 0 3) rule_gen in
    let* retracts = list_size (int_range 0 3) rule_gen in
    return (Webdamlog.Message.make ~src ~dst ~stage ~facts ~installs ~retracts ()))

let message_arb =
  QCheck.make ~print:(Format.asprintf "%a" Webdamlog.Message.pp) message_gen

let policy_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Webdamlog.Authz.Everyone);
        (3, map (fun l -> Webdamlog.Authz.Only l) (list_size (int_range 0 4) ident_gen)) ])

let policy_arb =
  QCheck.make ~print:(Format.asprintf "%a" Webdamlog.Authz.pp_policy) policy_gen

let edges_gen =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let* m = int_range 1 30 in
    let* pairs = list_size (return m) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return pairs)

let tests =
  [
    QCheck.Test.make ~count:500 ~name:"value pp/parse round-trip" value_arb
      (fun v ->
        let src = Format.asprintf "m@p(%a)" Value.pp v in
        match (Parser.parse_fact src).Fact.args with
        | [ v' ] -> Value.equal v v'
        | _ -> false);
    QCheck.Test.make ~count:300 ~name:"fact pp/parse round-trip" fact_arb
      (fun f ->
        let printed = Format.asprintf "%a" Fact.pp f in
        Fact.equal f (Parser.parse_fact printed));
    QCheck.Test.make ~count:300 ~name:"value compare is antisymmetric"
      (QCheck.pair value_arb value_arb) (fun (a, b) ->
        let c1 = Value.compare a b and c2 = Value.compare b a in
        (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0));
    QCheck.Test.make ~count:300 ~name:"value compare is transitive"
      (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
        let sorted = List.sort Value.compare [ a; b; c ] in
        match sorted with
        | [ x; y; z ] ->
          Value.compare x y <= 0 && Value.compare y z <= 0
          && Value.compare x z <= 0
        | _ -> false);
    QCheck.Test.make ~count:300 ~name:"equal values hash equally"
      (QCheck.pair value_arb value_arb) (fun (a, b) ->
        (not (Value.equal a b)) || Value.hash a = Value.hash b);
    QCheck.Test.make ~count:200 ~name:"tuple equal implies equal hash"
      (QCheck.pair (QCheck.list value_arb) (QCheck.list value_arb))
      (fun (a, b) ->
        let ta = Tuple.of_list a and tb = Tuple.of_list b in
        (not (Tuple.equal ta tb)) || Tuple.hash ta = Tuple.hash tb);
    QCheck.Test.make ~count:200 ~name:"subst apply is idempotent"
      (QCheck.pair (QCheck.list (QCheck.pair (QCheck.make ident_gen) value_arb))
         (QCheck.make ident_gen))
      (fun (bindings, x) ->
        match Subst.of_list bindings with
        | None -> true
        | Some s ->
          let t = Term.Var x in
          Term.equal (Subst.apply s (Subst.apply s t)) (Subst.apply s t));
    QCheck.Test.make ~count:100
      ~name:"relation behaves like a set under random insert/delete"
      (QCheck.list
         (QCheck.pair QCheck.bool (QCheck.make (QCheck.Gen.int_range 0 20))))
      (fun ops ->
        let r = Relation.create ~arity:1 () in
        let reference = Hashtbl.create 16 in
        List.iter
          (fun (ins, v) ->
            let tuple = Tuple.of_list [ Value.Int v ] in
            if ins then begin
              ignore (Relation.insert r tuple);
              Hashtbl.replace reference v ()
            end
            else begin
              ignore (Relation.delete r tuple);
              Hashtbl.remove reference v
            end)
          ops;
        Relation.cardinal r = Hashtbl.length reference
        && Hashtbl.fold
             (fun v () acc ->
               acc && Relation.mem r (Tuple.of_list [ Value.Int v ]))
             reference true);
    QCheck.Test.make ~count:50 ~name:"indexed lookup equals scan"
      (QCheck.make edges_gen) (fun edges ->
        let mk indexing =
          let r = Relation.create ~indexing ~arity:2 () in
          List.iter
            (fun (a, b) ->
              ignore (Relation.insert r (Tuple.of_list [ Value.Int a; Value.Int b ])))
            edges;
          r
        in
        let indexed = mk true and plain = mk false in
        List.for_all
          (fun key ->
            let collect r = Test_store.collect_lookup r [ (0, Value.Int key) ] in
            List.equal Tuple.equal (collect indexed) (collect plain))
          (List.init 12 (fun i -> i)));
    QCheck.Test.make ~count:50 ~name:"fixpoint equals reference on random TC"
      (QCheck.make edges_gen) (fun edges ->
        let mk run =
          let db = Database.create () in
          ignore
            (Database.declare db
               (Decl.make ~kind:Decl.Intensional ~rel:"tc" ~peer:"p" [ "x"; "y" ]));
          List.iter
            (fun (a, b) ->
              ignore
                (Database.insert db ~rel:"edge"
                   (Tuple.of_list [ Value.Int a; Value.Int b ])))
            edges;
          let rules =
            [ Parser.parse_rule "tc@p($x,$y) :- edge@p($x,$y)";
              Parser.parse_rule "tc@p($x,$z) :- tc@p($x,$y), edge@p($y,$z)" ]
          in
          match run ~self:"p" db rules with
          | Ok _ ->
            (match Database.find db "tc" with
            | Some info -> Relation.to_sorted_list info.Database.data
            | None -> [])
          | Error _ -> []
        in
        List.equal Tuple.equal
          (mk (fun ~self db rules -> Wdl_eval.Fixpoint.run ~self db rules))
          (mk (fun ~self db rules -> Wdl_eval.Reference.run ~self db rules)));
    (* [dyn@P($x) :- sel@P($a), data@$a($x)] pulls from every peer P
       selects, itself included: at quiescence its view is the join of
       P's selections with each selected peer's data, computed here. *)
    QCheck.Test.make ~count:100 ~long_factor:20
      ~name:"distributed view equals the centralised join" (Sim.arb Sim.clean)
      (fun spec ->
        let open Webdamlog in
        let sys = Sim.run_exn spec in
        let args p rel =
          List.concat_map (fun (f : Fact.t) -> f.Fact.args) (Peer.query p rel)
        in
        let join p =
          if
            List.exists
              (fun r -> String.starts_with ~prefix:"dyn@" (Format.asprintf "%a" Rule.pp r))
              (Peer.rules p)
          then
            List.concat_map
              (function
                | Value.String a ->
                  Option.fold ~none:[] ~some:(fun q -> args q "data") (System.find_peer sys a)
                | _ -> [])
              (args p "sel")
          else []
        in
        List.for_all
          (fun p -> List.sort_uniq compare (args p "dyn") = List.sort_uniq compare (join p))
          (System.peers sys));
    QCheck.Test.make ~count:300 ~name:"rule pp/parse round-trip" rule_arb
      (fun r ->
        let printed = Format.asprintf "%a" Rule.pp r in
        Rule.equal r (Parser.parse_rule printed));
    QCheck.Test.make ~count:200 ~name:"wire codec round-trips any message"
      message_arb (fun m ->
        match Webdamlog.Wire.unbatch (Webdamlog.Wire.batch [ m ]) with
        | Error _ | Ok ([] | _ :: _ :: _) -> false
        | Ok [ m' ] ->
          m.Webdamlog.Message.src = m'.Webdamlog.Message.src
          && m.Webdamlog.Message.dst = m'.Webdamlog.Message.dst
          && m.Webdamlog.Message.stage = m'.Webdamlog.Message.stage
          && Option.equal (List.equal Fact.equal) m.Webdamlog.Message.facts
               m'.Webdamlog.Message.facts
          && List.equal Rule.equal m.Webdamlog.Message.installs
               m'.Webdamlog.Message.installs
          && List.equal Rule.equal m.Webdamlog.Message.retracts
               m'.Webdamlog.Message.retracts);
    QCheck.Test.make ~count:300 ~name:"authz meet is commutative and idempotent"
      (QCheck.pair policy_arb policy_arb) (fun (a, b) ->
        Webdamlog.Authz.policy_equal
          (Webdamlog.Authz.meet a b)
          (Webdamlog.Authz.meet b a)
        && Webdamlog.Authz.policy_equal (Webdamlog.Authz.meet a a) a);
    QCheck.Test.make ~count:300 ~name:"authz meet is associative with Everyone as unit"
      (QCheck.triple policy_arb policy_arb policy_arb) (fun (a, b, c) ->
        let open Webdamlog.Authz in
        policy_equal (meet a (meet b c)) (meet (meet a b) c)
        && policy_equal (meet a Everyone) a);
    QCheck.Test.make ~count:300 ~name:"meet only shrinks access"
      (QCheck.triple policy_arb policy_arb (QCheck.make ident_gen))
      (fun (a, b, reader) ->
        let open Webdamlog.Authz in
        (not (allows (meet a b) reader)) || (allows a reader && allows b reader));
    QCheck.Test.make ~count:200 ~name:"aggregates agree with list folds"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 20)
         (QCheck.make QCheck.Gen.small_signed_int))
      (fun ints ->
        let vs = List.map (fun n -> Value.Int n) ints in
        let open Wdl_syntax.Aggregate in
        apply Count vs = Ok (Value.Int (List.length ints))
        && apply Sum vs = Ok (Value.Int (List.fold_left ( + ) 0 ints))
        && apply Min vs = Ok (Value.Int (List.fold_left min max_int ints))
        && apply Max vs = Ok (Value.Int (List.fold_left max min_int ints)));
    QCheck.Test.make ~count:100 ~name:"snapshots are stable under restore"
      (QCheck.make edges_gen) (fun edges ->
        let p = Webdamlog.Peer.create "p" in
        (match
           Webdamlog.Peer.load_string p
             "int tc@p(x,y); tc@p($x,$y) :- edge@p($x,$y); tc@p($x,$z) :- tc@p($x,$y), edge@p($y,$z);"
         with
        | Ok () -> ()
        | Error e -> failwith e);
        List.iter
          (fun (a, b) ->
            match
              Webdamlog.Peer.insert p
                (Fact.make ~rel:"edge" ~peer:"p" [ Value.Int a; Value.Int b ])
            with
            | Ok () -> ()
            | Error e -> failwith e)
          edges;
        ignore (Webdamlog.Peer.stage p);
        let s1 = Webdamlog.Peer.snapshot p in
        match Webdamlog.Peer.restore s1 with
        | Error _ -> false
        | Ok p' -> Webdamlog.Peer.snapshot p' = s1);
    QCheck.Test.make ~count:30 ~name:"stage determinism"
      (QCheck.make edges_gen) (fun edges ->
        let run () =
          let p = Webdamlog.Peer.create "p" in
          (match
             Webdamlog.Peer.load_string p
               "int tc@p(x,y); tc@p($x,$y) :- edge@p($x,$y); tc@p($x,$z) :- tc@p($x,$y), edge@p($y,$z);"
           with
          | Ok () -> ()
          | Error e -> failwith e);
          List.iter
            (fun (a, b) ->
              match
                Webdamlog.Peer.insert p
                  (Fact.make ~rel:"edge" ~peer:"p" [ Value.Int a; Value.Int b ])
              with
              | Ok () -> ()
              | Error e -> failwith e)
            edges;
          ignore (Webdamlog.Peer.stage p);
          List.map (Format.asprintf "%a" Fact.pp) (Webdamlog.Peer.query p "tc")
        in
        run () = run ());
    (* Differential oracle for the columnar store: drive it and a naive
       list model through the same random schedule of inserts, deletes,
       lookups on either column, copies and clears, checking every
       return value and the final contents. An indexed and a scanning
       store run side by side, so both lookup paths meet the model. The
       small value domain forces duplicate inserts, deletes of absent
       tuples, and slot reuse after tombstones and clears; the string
       column makes every read decode a pooled value. *)
    QCheck.Test.make ~count:200
      ~name:"columnar store equals a naive list model"
      (* op: 0-19 insert, 20-26 delete, 27-36 lookup, 37-38 copy, 39
         clear; clears stay rare so relations cross the index
         threshold. *)
      (QCheck.list
         (QCheck.triple
            (QCheck.make (QCheck.Gen.int_range 0 39))
            (QCheck.make (QCheck.Gen.int_range 0 6))
            (QCheck.make (QCheck.Gen.int_range 0 6))))
      (fun ops ->
        let stores =
          [| Relation.create ~arity:2 ();
             Relation.create ~indexing:false ~arity:2 () |]
        in
        let model = ref [] in
        let tup (a, b) =
          Tuple.of_list [ Value.Int a; Value.String (string_of_int b) ]
        in
        let sorted_tups ps = List.sort Tuple.compare (List.map tup ps) in
        let ok = ref true in
        let each f = Array.iter (fun r -> if not (f r) then ok := false) stores in
        List.iter
          (fun (op, a, b) ->
            if op < 20 then begin
              let fresh = not (List.mem (a, b) !model) in
              if fresh then model := (a, b) :: !model;
              each (fun r -> Relation.insert r (tup (a, b)) = fresh)
            end
            else if op < 27 then begin
              let present = List.mem (a, b) !model in
              model := List.filter (fun p -> p <> (a, b)) !model;
              each (fun r -> Relation.delete r (tup (a, b)) = present)
            end
            else if op < 37 then begin
              let bound, keep =
                if op < 32 then ([ (0, Value.Int a) ], fun (x, _) -> x = a)
                else ([ (1, Value.String (string_of_int b)) ], fun (_, y) -> y = b)
              in
              let want = sorted_tups (List.filter keep !model) in
              each (fun r ->
                  List.equal Tuple.equal (Test_store.collect_lookup r bound) want)
            end
            else if op < 39 then
              (* Go on with a copy (sharing the pool or on its own pool
                 copy), then wipe and reuse the original: the copy must
                 not notice. *)
              Array.iteri
                (fun i r ->
                  let pool =
                    if a mod 2 = 0 then Relation.pool r
                    else Intern.copy (Relation.pool r)
                  in
                  stores.(i) <- Relation.copy ~pool r;
                  Relation.clear r;
                  ignore (Relation.insert r (tup (b, 7))))
                stores
            else begin
              model := [];
              Array.iter Relation.clear stores
            end)
          ops;
        let want = sorted_tups !model in
        each (fun r ->
            Relation.cardinal r = List.length !model
            && List.for_all (fun p -> Relation.mem r (tup p)) !model
            && List.equal Tuple.equal (Relation.to_sorted_list r) want);
        !ok);
    QCheck.Test.make ~count:500 ~name:"intern round-trips every value"
      (QCheck.make
         QCheck.Gen.(
           frequency
             [ (3, value_gen);
               ( 1,
                 map
                   (fun s -> Value.String s)
                   (oneofl
                      [ ""; "héllo"; "日本語"; "🦉 chouette"; "a\tb\nc";
                        "\xc3\xa9"; String.make 200 '\xff' ]) ) ]))
      (fun v ->
        let pool = Intern.create () in
        let id = Intern.intern pool v in
        Intern.intern pool v = id
        && Intern.find pool v = Some id
        && Value.equal (Intern.value pool id) v
        && Intern.size pool = 1);
  ]

let suite = List.map QCheck_alcotest.to_alcotest tests
