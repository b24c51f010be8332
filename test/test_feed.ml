(* Wefeed: the second rule-built application. *)
module Feed = Wdl_feed.Feed

open Check

let trio () =
  let t = Feed.create () in
  List.iter (fun u -> ignore (Feed.add_user t u)) [ "joe"; "alice"; "bob" ];
  t

let suite =
  [
    tc "recent window and trending aggregate follow the timeline" (fun () ->
        let t = trio () in
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.post t ~author:"alice" ~id:1 ~text:"db post" ~topic:"databases";
        Feed.post t ~author:"alice" ~id:2 ~text:"cat pic" ~topic:"cats";
        Feed.post t ~author:"alice" ~id:3 ~text:"more cats" ~topic:"cats";
        ignore (ok' (Feed.run t));
        check_int "recent mirrors the fresh timeline" 3
          (List.length (Feed.recent t ~user:"joe"));
        check_bool "trending counts per topic"
          (Feed.trending t ~user:"joe"
          = [ ("cats", 2); ("databases", 1) ]));
    tc "hot topics rank the author's own posting activity" (fun () ->
        let t = trio () in
        Feed.post t ~author:"alice" ~id:1 ~text:"a" ~topic:"cats";
        Feed.post t ~author:"alice" ~id:2 ~text:"b" ~topic:"cats";
        Feed.post t ~author:"alice" ~id:3 ~text:"c" ~topic:"databases";
        ignore (ok' (Feed.run t));
        check_bool "ranked heaviest first"
          (Feed.hot_topics t ~user:"alice"
          = [ ("cats", 2); ("databases", 1) ]));
    tc "posts of followed users reach the timeline" (fun () ->
        let t = trio () in
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.post t ~author:"alice" ~id:1 ~text:"hi" ~topic:"misc";
        Feed.post t ~author:"bob" ~id:2 ~text:"ignored" ~topic:"misc";
        ignore (ok' (Feed.run t));
        match Feed.timeline t ~user:"joe" with
        | [ e ] -> Alcotest.check Alcotest.string "author" "alice" e.Feed.author
        | l -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length l)));
    tc "new posts stream in; unfollowing retracts" (fun () ->
        let t = trio () in
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.post t ~author:"alice" ~id:1 ~text:"one" ~topic:"m";
        ignore (ok' (Feed.run t));
        Feed.post t ~author:"alice" ~id:2 ~text:"two" ~topic:"m";
        ignore (ok' (Feed.run t));
        check_int "streams" 2 (List.length (Feed.timeline t ~user:"joe"));
        Feed.unfollow t ~user:"joe" ~whom:"alice";
        ignore (ok' (Feed.run t));
        check_int "retracted" 0 (List.length (Feed.timeline t ~user:"joe")));
    tc "muting filters locally without touching the author" (fun () ->
        let t = trio () in
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.follow t ~user:"joe" ~whom:"bob";
        Feed.post t ~author:"alice" ~id:1 ~text:"a" ~topic:"m";
        Feed.post t ~author:"bob" ~id:2 ~text:"b" ~topic:"m";
        Feed.mute t ~user:"joe" ~whom:"bob";
        ignore (ok' (Feed.run t));
        check_int "only alice" 1 (List.length (Feed.timeline t ~user:"joe"));
        Feed.unmute t ~user:"joe" ~whom:"bob";
        ignore (ok' (Feed.run t));
        check_int "both after unmute" 2 (List.length (Feed.timeline t ~user:"joe")));
    tc "topic subscription narrows the topicline" (fun () ->
        let t = trio () in
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.post t ~author:"alice" ~id:1 ~text:"db post" ~topic:"databases";
        Feed.post t ~author:"alice" ~id:2 ~text:"cat pic" ~topic:"cats";
        Feed.subscribe t ~user:"joe" ~topic:"databases";
        ignore (ok' (Feed.run t));
        check_int "timeline has both" 2 (List.length (Feed.timeline t ~user:"joe"));
        match Feed.topicline t ~user:"joe" with
        | [ e ] -> Alcotest.check Alcotest.string "topic" "databases" e.Feed.topic
        | l -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length l)));
    tc "digest counts per author (aggregation)" (fun () ->
        let t = trio () in
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.follow t ~user:"joe" ~whom:"bob";
        Feed.post t ~author:"alice" ~id:1 ~text:"a" ~topic:"m";
        Feed.post t ~author:"alice" ~id:2 ~text:"b" ~topic:"m";
        Feed.post t ~author:"bob" ~id:3 ~text:"c" ~topic:"m";
        ignore (ok' (Feed.run t));
        check_bool "counts"
          (Feed.digest t ~user:"joe" = [ ("alice", 2); ("bob", 1) ]));
    tc "friend-of-friend suggestions exclude self and existing follows"
      (fun () ->
        let t = trio () in
        ignore (Feed.add_user t "carol");
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.follow t ~user:"alice" ~whom:"bob";
        Feed.follow t ~user:"alice" ~whom:"carol";
        Feed.follow t ~user:"alice" ~whom:"joe";  (* fof contains joe himself *)
        Feed.follow t ~user:"joe" ~whom:"bob";    (* already followed *)
        ignore (ok' (Feed.run t));
        check_bool "only carol" (Feed.suggestions t ~user:"joe" = [ "carol" ]));
    tc "resharing republishes to one's own followers" (fun () ->
        let t = trio () in
        (* bob -> joe -> alice: bob doesn't follow alice directly. *)
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.follow t ~user:"bob" ~whom:"joe";
        Feed.post t ~author:"alice" ~id:7 ~text:"worth sharing" ~topic:"m";
        ignore (ok' (Feed.run t));
        check_int "bob sees nothing yet" 0 (List.length (Feed.timeline t ~user:"bob"));
        Feed.reshare t ~user:"joe" ~id:7;
        ignore (ok' (Feed.run t));
        (match Feed.timeline t ~user:"bob" with
        | [ e ] ->
          Alcotest.check Alcotest.string "original author kept" "alice"
            e.Feed.author
        | l -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length l)));
        check_bool "joe's timeline unchanged by his own reshare"
          (List.length (Feed.timeline t ~user:"joe") = 1));
    tc "users can join a live network" (fun () ->
        let t = trio () in
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.post t ~author:"alice" ~id:1 ~text:"a" ~topic:"m";
        ignore (ok' (Feed.run t));
        ignore (Feed.add_user t "dave");
        Feed.follow t ~user:"dave" ~whom:"alice";
        ignore (ok' (Feed.run t));
        check_int "late joiner catches up" 1
          (List.length (Feed.timeline t ~user:"dave")));
    tc "the whole network converges over a lossy-ish simulated WAN" (fun () ->
        let transport =
          Wdl_net.Simnet.create ~sizer:Webdamlog.Message.size ~seed:6
            ~base_latency:2.0 ~jitter:1.0 ~duplicate:0.3 ()
        in
        let t = Feed.create ~transport () in
        List.iter (fun u -> ignore (Feed.add_user t u)) [ "joe"; "alice"; "bob" ];
        Feed.follow t ~user:"joe" ~whom:"alice";
        Feed.follow t ~user:"bob" ~whom:"alice";
        Feed.post t ~author:"alice" ~id:1 ~text:"a" ~topic:"m";
        ignore (ok' (Feed.run t));
        check_int "joe" 1 (List.length (Feed.timeline t ~user:"joe"));
        check_int "bob" 1 (List.length (Feed.timeline t ~user:"bob")));
  ]
