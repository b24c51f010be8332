open Wdl_syntax
open Webdamlog
open Check

let classify ?(intensional = fun _ -> false) src =
  Classify.classify ~self:"p" ~intensional (Parser.parse_rule src)

let suite =
  [
    tc "local view rule" (fun () ->
        let c = classify ~intensional:(fun r -> r = "v") "v@p($x) :- a@p($x)" in
        check_bool "head" (c.Classify.head = Classify.Local_view);
        check_bool "body" (c.Classify.body = Classify.All_local));
    tc "local update rule (inductive)" (fun () ->
        let c = classify "b@p($x) :- a@p($x)" in
        check_bool "head" (c.Classify.head = Classify.Local_update));
    tc "messaging rule" (fun () ->
        let c = classify "out@q($x) :- a@p($x)" in
        check_bool "head" (c.Classify.head = Classify.Remote "q");
        check_bool "body local" (c.Classify.body = Classify.All_local));
    tc "delegating rule: boundary at the first remote atom" (fun () ->
        let c = classify "v@p($x) :- a@p($x), data@q($x), more@p($x)" in
        check_bool "boundary" (c.Classify.body = Classify.Delegates_at 1);
        check_bool "remote reads" (c.Classify.reads_remote = [ "q" ]));
    tc "builtins do not move the boundary index" (fun () ->
        let c = classify "v@p($x) :- a@p($x), $x > 1, data@q($x)" in
        check_bool "boundary after builtin" (c.Classify.body = Classify.Delegates_at 2));
    tc "peer variables make the boundary dynamic" (fun () ->
        let c = classify "v@p($x) :- sel@p($a), data@$a($x)" in
        check_bool "dynamic" (c.Classify.body = Classify.Dynamic_at 1));
    tc "dynamic head (the transfer rule)" (fun () ->
        let c =
          classify
            {|$protocol@$att($att, $n) :- sel@p($att), communicate@$att($protocol), pics@p($n)|}
        in
        check_bool "head" (c.Classify.head = Classify.Dynamic_head);
        check_bool "body" (c.Classify.body = Classify.Dynamic_at 1));
    tc "reads_remote collects and sorts all named remote peers" (fun () ->
        let c = classify "v@p($x) :- a@zeta($x), b@alpha($x)" in
        check_bool "sorted" (c.Classify.reads_remote = [ "alpha"; "zeta" ]));
    tc "describe mentions the boundary" (fun () ->
        let c = classify "v@p($x) :- a@p($x), data@q($x)" in
        check_bool "text"
          (Str_helper.contains (Classify.describe c) "delegates at literal 2"));
  ]
