open Wdl_syntax
open Webdamlog
open Check

let rule = Parser.parse_rule "a@p($x) :- b@p($x)"
let fact = Fact.make ~rel:"m" ~peer:"p" [ Value.String "payload" ]

let suite =
  [
    tc "is_empty: only a no-change message is empty" (fun () ->
        check_bool "empty" (Message.is_empty (Message.make ~src:"a" ~dst:"b" ~stage:1 ()));
        check_bool "empty batch is a change"
          (not (Message.is_empty
                  (Message.make ~src:"a" ~dst:"b" ~stage:1 ~facts:(Some []) ())));
        check_bool "installs"
          (not (Message.is_empty
                  (Message.make ~src:"a" ~dst:"b" ~stage:1 ~installs:[ rule ] ())));
        check_bool "retracts"
          (not (Message.is_empty
                  (Message.make ~src:"a" ~dst:"b" ~stage:1 ~retracts:[ rule ] ()))));
    tc "size grows with content" (fun () ->
        let base = Message.size (Message.make ~src:"a" ~dst:"b" ~stage:1 ()) in
        let with_fact =
          Message.size (Message.make ~src:"a" ~dst:"b" ~stage:1 ~facts:(Some [ fact ]) ())
        in
        let with_rule =
          Message.size (Message.make ~src:"a" ~dst:"b" ~stage:1 ~installs:[ rule ] ())
        in
        check_bool "fact adds" (with_fact > base);
        check_bool "rule adds" (with_rule > base));
    tc "pp renders all sections" (fun () ->
        let m =
          Message.make ~src:"a" ~dst:"b" ~stage:4 ~facts:(Some [ fact ])
            ~installs:[ rule ] ~retracts:[ rule ] ()
        in
        let s = Format.asprintf "%a" Message.pp m in
        List.iter
          (fun needle ->
            check_bool needle
              (Str_helper.contains s needle))
          [ "a -> b"; "stage 4"; "fact"; "install"; "retract" ]);
    tc "size counts long rules at their one-line wire rendering" (fun () ->
        (* Wide enough that [Format.asprintf "%a" Rule.pp] wraps at its
           default margin; the sizer must count the unwrapped form. *)
        let wide =
          Parser.parse_rule
            "verylongrelationname@somepeer($a,$b,$c,$d) :- \
             firstbody@somepeer($a,$b), secondbody@somepeer($b,$c), \
             thirdbody@somepeer($c,$d), fourthbody@somepeer($d,$a)"
        in
        let base = Message.size (Message.make ~src:"a" ~dst:"b" ~stage:1 ()) in
        let with_rule =
          Message.size
            (Message.make ~src:"a" ~dst:"b" ~stage:1 ~installs:[ wide ] ())
        in
        Alcotest.(check int)
          "one-line length"
          (String.length (Pp_util.one_line Rule.pp wide))
          (with_rule - base));
  ]

(* {1 The one fact writer}

   Arbitrary relation/peer names (idents and quote-needing strings)
   and arbitrary values: extreme ints, non-finite and high-precision
   floats, strings over the full byte range (escapes, raw control
   bytes, UTF-8 fragments). *)

let name_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ "m"; "rel"; "a_b1"; "p0" ]);
        ( 1,
          map
            (fun s -> "x" ^ s)  (* non-empty, often non-ident *)
            (string_size ~gen:char (int_range 0 6)) );
      ])

let value_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun i -> Value.Int i)
            (oneof [ small_signed_int; int; oneofl [ min_int; max_int; 0 ] ]) );
        ( 2,
          map
            (fun f -> Value.Float f)
            (oneof
               [
                 float;
                 oneofl
                   [
                     infinity; neg_infinity; nan; -0.; 0.; 0.1; 1e300;
                     4.2; 1.0000000000000002;
                   ];
               ]) );
        (3, map (fun s -> Value.String s) (string_size ~gen:char (int_range 0 12)));
        (1, map (fun b -> Value.Bool b) bool);
      ])

let fact_gen =
  QCheck.Gen.(
    let* rel = name_gen in
    let* peer = name_gen in
    let* args = list_size (int_range 0 5) value_gen in
    return (Fact.make ~rel ~peer args))

let fact_arb =
  QCheck.make ~print:(fun f -> String.escaped (Fact.to_string f)) fact_gen

let writer_property =
  QCheck.Test.make ~count:2000
    ~name:"fact writer equals the one-line Fact.pp rendering" fact_arb
    (fun f -> Fact.to_string f = Pp_util.one_line Fact.pp f)

(* NaN is the one float no relation admits ([Peer.insert] rejects it,
   and arithmetic that would produce it is a runtime error). *)
let admitted f =
  not (List.exists (function Value.Float x -> Float.is_nan x | _ -> false) f.Fact.args)

let roundtrip_property =
  QCheck.Test.make ~count:2000
    ~name:"admitted facts round-trip through Fact.to_string and Parser.fact"
    fact_arb (fun f ->
      QCheck.assume (admitted f);
      match Parser.fact (Fact.to_string f) with
      | Ok f' -> Fact.equal f f'
      | Error e -> QCheck.Test.fail_report e)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest [ writer_property; roundtrip_property ]
