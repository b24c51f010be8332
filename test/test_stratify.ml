open Wdl_syntax
open Wdl_eval
open Check

let rules srcs = List.map Parser.parse_rule srcs

let compute ?(intensional = fun _ -> true) srcs =
  Stratify.compute ~self:"p" ~intensional (rules srcs)

let strata_count = function
  | Ok { Stratify.strata } -> Array.length strata
  | Error e -> Alcotest.fail (Format.asprintf "%a" Stratify.pp_error e)

(* {1 The install fast path} *)

let views = [ "v"; "w"; "u"; "cnt" ]

(* Rule sets over the views, with negation, an aggregate, relation and
   peer variables (stars), and a remote head under negation; some close
   a cycle through negation. *)
let set_pool =
  [
    "v@p($x) :- a@p($x)";
    "v@p($x) :- w@p($x)";
    "w@p($x) :- a@p($x), not b@p($x)";
    "w@p($x) :- a@p($x), not v@p($x)";
    "u@p($x) :- w@p($x), not v@p($x)";
    "cnt@p(count($x)) :- u@p($x)";
    "u@p($x) :- cnt@p($x)";
    "$r@p($x) :- names@p($r), a@p($x)";
    "v@p($x) :- names@p($r), $r@p($x)";
    "$r@p($x) :- names@p($r), v@p($x)";
    "out@q($x) :- a@p($x), not u@p($x)";
    "out@$n($x) :- names@p($n), w@p($x)";
  ]

(* Sinks: remote or extensional heads, no negation, no aggregate. *)
let sink_pool =
  [
    "out@q($x) :- v@p($x)";
    "out@q($x) :- names@p($r), $r@p($x)";
    "a@p($x) :- u@p($x), cnt@p($x)";
    "b@p($y) :- a@p($x), $y := $x + 1";
    "out@q($x) :- cnt@p($x), rem@q($x), u@p($x)";
  ]

let fast_path_arb =
  QCheck.make
    ~print:(fun (set, c) -> String.concat ";\n" set ^ "\n+ " ^ c)
    QCheck.Gen.(
      pair (list_size (int_range 0 7) (oneofl set_pool)) (oneofl sink_pool))

(* A peer installs a sink without recomputing the stratification: the
   set plus the sink stratifies exactly when the set does, every rule of
   the set keeps its stratum, and the sink joins the last one. *)
let fast_path_exact (set, c) =
  let intensional r = List.mem r views in
  let set = rules set and c = Parser.parse_rule c in
  Stratify.is_sink ~self:"p" ~intensional c
  &&
  match
    ( Stratify.compute ~self:"p" ~intensional set,
      Stratify.compute ~self:"p" ~intensional (set @ [ c ]) )
  with
  | Ok { Stratify.strata = s }, Ok { Stratify.strata = s' } ->
    let last = Array.length s - 1 in
    let patched = Array.mapi (fun i l -> if i = last then l @ [ c ] else l) s in
    Array.length s = Array.length s'
    && Array.for_all2 (List.equal Rule.equal) patched s'
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

let suite =
  [
    tc "positive recursion stays in one stratum" (fun () ->
        check_int "strata" 1
          (strata_count
             (compute
                [ "tc@p($x,$y) :- edge@p($x,$y)";
                  "tc@p($x,$z) :- tc@p($x,$y), edge@p($y,$z)" ]
                ~intensional:(fun r -> r = "tc"))));
    tc "negation forces a new stratum" (fun () ->
        let r =
          compute
            ~intensional:(fun r -> r = "a" || r = "b")
            [ "a@p($x) :- base@p($x)"; "b@p($x) :- base@p($x), not a@p($x)" ]
        in
        check_int "strata" 2 (strata_count r);
        match r with
        | Ok { Stratify.strata } ->
          check_int "first stratum rules" 1 (List.length strata.(0));
          check_int "second stratum rules" 1 (List.length strata.(1))
        | Error _ -> Alcotest.fail "unexpected");
    tc "negative cycle rejected" (fun () ->
        match
          compute
            ~intensional:(fun r -> r = "a" || r = "b")
            [ "a@p($x) :- base@p($x), not b@p($x)";
              "b@p($x) :- base@p($x), not a@p($x)" ]
        with
        | Error (Stratify.Negative_cycle members) ->
          check_bool "names" (List.mem "a" members && List.mem "b" members)
        | Ok _ -> Alcotest.fail "expected negative cycle");
    tc "self negation rejected" (fun () ->
        match
          compute ~intensional:(fun r -> r = "a")
            [ "a@p($x) :- base@p($x), not a@p($x)" ]
        with
        | Error (Stratify.Negative_cycle _) -> ()
        | Ok _ -> Alcotest.fail "expected negative cycle");
    tc "extensional negation needs no extra stratum" (fun () ->
        check_int "strata" 1
          (strata_count
             (compute
                ~intensional:(fun r -> r = "v")
                [ "v@p($x) :- base@p($x), not blocked@p($x)" ])));
    tc "atoms after a remote constant peer contribute nothing" (fun () ->
        (* The negation of v sits after a remote atom: never evaluated
           locally, so no cycle. *)
        check_bool "stratifies"
          (Result.is_ok
             (compute
                ~intensional:(fun r -> r = "v")
                [ "v@p($x) :- base@p($x), remote@q($x), not v@p($x)" ])));
    tc "peer variables are conservatively local" (fun () ->
        match
          compute
            ~intensional:(fun r -> r = "v")
            [ "v@p($x) :- peers@p($a), w@$a($x), not v@p($x)" ]
        with
        | Error (Stratify.Negative_cycle _) -> ()
        | Ok _ -> Alcotest.fail "expected negative cycle");
    tc "relation variable (star) reads everything" (fun () ->
        (* not $r@p(...) would negate over any relation incl. the head's:
           rejected. *)
        match
          compute
            ~intensional:(fun r -> r = "v")
            [ "v@p($x) :- names@p($r), $r@p($x), not v@p($x)" ]
        with
        | Error (Stratify.Negative_cycle _) -> ()
        | Ok _ -> Alcotest.fail "expected negative cycle");
    tc "variable head (star) derives everything" (fun () ->
        (* A star head with no intensional reads stratifies (it runs
           before the negation)... *)
        check_bool "benign star head"
          (Result.is_ok
             (compute
                ~intensional:(fun r -> r = "v" || r = "w")
                [ "$r@p($x) :- names@p($r), base@p($x)";
                  "w@p($x) :- base@p($x), not v@p($x)" ]));
        (* ...but a star head reading w while (potentially) deriving v
           closes a cycle through the negation. *)
        match
          compute
            ~intensional:(fun r -> r = "v" || r = "w")
            [ "$r@p($x) :- names@p($r), w@p($x)";
              "w@p($x) :- base@p($x), not v@p($x)" ]
        with
        | Error (Stratify.Negative_cycle _) -> ()
        | Ok _ -> Alcotest.fail "expected negative cycle (star head feeds v)");
    tc "rules with remote heads are scheduled after their negations" (fun () ->
        match
          compute
            ~intensional:(fun r -> r = "v")
            [ "v@p($x) :- base@p($x)";
              "out@q($x) :- base@p($x), not v@p($x)" ]
        with
        | Ok { Stratify.strata } ->
          check_int "strata" 2 (Array.length strata);
          check_int "remote-head rule in stratum 1" 1 (List.length strata.(1))
        | Error e -> Alcotest.fail (Format.asprintf "%a" Stratify.pp_error e));
    tc "empty rule set" (fun () ->
        check_int "strata" 1 (strata_count (compute [])));
    tc "sinks run in the last stratum" (fun () ->
        match
          compute
            ~intensional:(fun r -> r = "v" || r = "w")
            [ "out@q($x) :- base@p($x)";
              "v@p($x) :- base@p($x)";
              "w@p($x) :- base@p($x), not v@p($x)" ]
        with
        | Ok { Stratify.strata = [| _; last |] } ->
          check_int "sink beside the negation" 2 (List.length last)
        | Ok _ -> Alcotest.fail "expected two strata"
        | Error e -> Alcotest.fail (Format.asprintf "%a" Stratify.pp_error e));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~long_factor:20
         ~name:"installing a sink needs no stratification" fast_path_arb
         fast_path_exact);
  ]
