open Wdl_syntax
open Webdamlog
open Check

let r1 = Parser.parse_rule "a@p($x) :- b@p($x)"
let r2 = Parser.parse_rule "c@p($x) :- d@p($x)"

let suite =
  [
    tc "open policy trusts everyone" (fun () ->
        let acl = Acl.create () in
        check_bool "trusted" (Acl.trusted acl "anyone");
        check_bool "installed" (Acl.submit acl ~src:"anyone" r1 = `Installed));
    tc "closed policy trusts no one by default" (fun () ->
        let acl = Acl.create ~policy:Acl.Closed () in
        check_bool "untrusted" (not (Acl.trusted acl "anyone"));
        check_bool "pending" (Acl.submit acl ~src:"anyone" r1 = `Pending));
    tc "explicit trust overrides policy" (fun () ->
        let acl = Acl.create ~policy:Acl.Closed () in
        Acl.trust acl "sigmod";
        check_bool "trusted" (Acl.trusted acl "sigmod");
        let acl2 = Acl.create () in
        Acl.untrust acl2 "mallory";
        check_bool "untrusted" (not (Acl.trusted acl2 "mallory")));
    tc "pending queue is FIFO and deduplicated" (fun () ->
        let acl = Acl.create ~policy:Acl.Closed () in
        ignore (Acl.submit acl ~src:"a" r1);
        ignore (Acl.submit acl ~src:"b" r2);
        ignore (Acl.submit acl ~src:"a" r1);
        check_int "two" 2 (List.length (Acl.pending acl));
        match Acl.pending acl with
        | (s1, _) :: (s2, _) :: [] ->
          Alcotest.check Alcotest.string "first" "a" s1;
          Alcotest.check Alcotest.string "second" "b" s2
        | _ -> Alcotest.fail "unexpected queue");
    tc "accept pops exactly the matching entry" (fun () ->
        let acl = Acl.create ~policy:Acl.Closed () in
        ignore (Acl.submit acl ~src:"a" r1);
        ignore (Acl.submit acl ~src:"b" r1);
        check_bool "hit" (Acl.accept acl ~src:"a" r1);
        check_bool "miss" (not (Acl.accept acl ~src:"a" r1));
        check_int "one left" 1 (List.length (Acl.pending acl)));
    tc "reject and retract_pending remove entries" (fun () ->
        let acl = Acl.create ~policy:Acl.Closed () in
        ignore (Acl.submit acl ~src:"a" r1);
        check_bool "reject" (Acl.reject acl ~src:"a" r1);
        ignore (Acl.submit acl ~src:"a" r2);
        check_bool "retract" (Acl.retract_pending acl ~src:"a" r2);
        check_int "empty" 0 (List.length (Acl.pending acl)));
    tc "accept_all drains in order" (fun () ->
        let acl = Acl.create ~policy:Acl.Closed () in
        ignore (Acl.submit acl ~src:"a" r1);
        ignore (Acl.submit acl ~src:"b" r2);
        let all = Acl.accept_all acl in
        check_int "two" 2 (List.length all);
        check_int "drained" 0 (List.length (Acl.pending acl)));
    tc "policy can change at run time" (fun () ->
        let acl = Acl.create () in
        Acl.set_policy acl Acl.Closed;
        check_bool "now pending" (Acl.submit acl ~src:"x" r1 = `Pending));
  ]
