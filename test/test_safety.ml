open Wdl_syntax
open Check

let safe src =
  match Safety.check_rule (Parser.parse_rule src) with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (src ^ ": " ^ Safety.errors_to_string errs)

let unsafe src =
  match Safety.check_rule (Parser.parse_rule src) with
  | Ok () -> Alcotest.fail ("expected unsafe: " ^ src)
  | Error errs -> errs

let suite =
  [
    tc "the paper's rules are safe" (fun () ->
        safe
          {|attendeePictures@Jules($id, $n, $o, $d) :-
              selectedAttendee@Jules($a), pictures@$a($id, $n, $o, $d)|};
        safe
          {|$protocol@$attendee($attendee, $n, $id, $o) :-
              selectedAttendee@Jules($attendee),
              communicate@$attendee($protocol),
              selectedPictures@Jules($n, $id, $o)|};
        safe
          {|pictures@SigmodFB($id, $n, $o, $d) :-
              pictures@sigmod($id, $n, $o, $d),
              authorized@$o("Facebook", $id, $o)|});
    tc "unbound head variable" (fun () ->
        match unsafe "out@p($x, $y) :- a@p($x)" with
        | [ Safety.Unbound_in_head "y" ] -> ()
        | errs -> Alcotest.fail (Safety.errors_to_string errs));
    tc "peer variable must be bound before use" (fun () ->
        match unsafe "out@p($x) :- pictures@$a($x), selected@p($a)" with
        | Safety.Unbound_name_var ("a", _) :: _ -> ()
        | errs -> Alcotest.fail (Safety.errors_to_string errs));
    tc "order matters: swapping body atoms fixes it" (fun () ->
        safe "out@p($x) :- selected@p($a), pictures@$a($x)");
    tc "relation variable must be bound before use" (fun () ->
        match unsafe "out@p($x) :- $r@p($x)" with
        | Safety.Unbound_name_var ("r", _) :: _ -> ()
        | errs -> Alcotest.fail (Safety.errors_to_string errs));
    tc "negated atoms need fully bound variables" (fun () ->
        (match unsafe "out@p($x) :- a@p($x), not b@p($y)" with
        | Safety.Unbound_in_negation ("y", _) :: _ -> ()
        | errs -> Alcotest.fail (Safety.errors_to_string errs));
        safe "out@p($x) :- a@p($x), not b@p($x)");
    tc "builtins need bound variables" (fun () ->
        (match unsafe "out@p($x) :- a@p($x), $y > 1" with
        | Safety.Unbound_in_builtin ("y", _) :: _ -> ()
        | errs -> Alcotest.fail (Safety.errors_to_string errs));
        safe "out@p($x) :- a@p($x), $x > 1");
    tc "assignment binds; rebinding rejected" (fun () ->
        safe "out@p($y) :- a@p($x), $y := $x + 1";
        match unsafe "out@p($x) :- a@p($x), $x := 1" with
        | Safety.Rebound_assignment ("x", _) :: _ -> ()
        | errs -> Alcotest.fail (Safety.errors_to_string errs));
    tc "assignment can feed later atoms" (fun () ->
        safe "out@p($z) :- a@p($x), $y := $x + 1, b@p($y, $z)");
    tc "non-name constants in name position" (fun () ->
        let rule =
          Rule.make
            ~head:(Atom.make ~rel:(Term.Const (Value.Int 1)) ~peer:(Term.str "p") [])
            ~body:[ Literal.Pos (Atom.app "a" "p" []) ]
        in
        match Safety.check_rule rule with
        | Error (Safety.Invalid_name_constant (Value.Int 1, _) :: _) -> ()
        | Error errs -> Alcotest.fail (Safety.errors_to_string errs)
        | Ok () -> Alcotest.fail "expected invalid name");
    tc "head peer variable bound by body is fine" (fun () ->
        safe "m@$q($x) :- peers@p($q), a@p($x)");
    tc "check_program aggregates errors in order" (fun () ->
        let p =
          Parser.parse_program
            "ok@p(1); bad@p($x) :- a@p($y); worse@$q() :- a@p($x);"
        in
        match Safety.check_program p with
        | Error errs -> check_bool "several" (List.length errs >= 2)
        | Ok () -> Alcotest.fail "expected errors");
  ]
