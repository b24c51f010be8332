open Wdl_syntax
module FB = Wdl_wrappers.Facebook
module Email = Wdl_wrappers.Email
module Dropbox = Wdl_wrappers.Dropbox
module Wrapper = Wdl_wrappers.Wrapper

open Check

let pic id name owner = { FB.id; name; owner; data = "d" ^ string_of_int id }

let suite =
  [
    tc "facebook service: users and symmetric friendship" (fun () ->
        let fb = FB.create () in
        FB.befriend fb "joe" "alice";
        check_bool "joe->alice" (FB.friends fb "joe" = [ "alice" ]);
        check_bool "alice->joe" (FB.friends fb "alice" = [ "joe" ]);
        check_bool "users" (FB.users fb = [ "joe"; "alice" ]));
    tc "facebook service: groups, membership, picture dedup" (fun () ->
        let fb = FB.create () in
        FB.create_group fb "g";
        FB.join_group fb ~user:"u1" ~group:"g";
        FB.join_group fb ~user:"u1" ~group:"g";
        check_int "one member" 1 (List.length (FB.members fb ~group:"g"));
        check_bool "post" (FB.post_group_picture fb ~group:"g" (pic 1 "a" "u1"));
        check_bool "dup id" (not (FB.post_group_picture fb ~group:"g" (pic 1 "b" "u2")));
        check_int "one picture" 1 (List.length (FB.group_pictures fb ~group:"g")));
    tc "facebook service: comments dedup, walls" (fun () ->
        let fb = FB.create () in
        let c = { FB.pic_id = 1; author = "a"; text = "nice" } in
        check_bool "first" (FB.comment_group_picture fb ~group:"g" c);
        check_bool "dup" (not (FB.comment_group_picture fb ~group:"g" c));
        check_bool "wall post" (FB.post_user_picture fb ~user:"u" (pic 2 "w" "u"));
        check_int "wall" 1 (List.length (FB.user_pictures fb ~user:"u")));
    tc "group wrapper: refresh pulls service state into relations" (fun () ->
        let sys = Webdamlog.System.create () in
        let fb = FB.create () in
        ignore (FB.post_group_picture fb ~group:"g" (pic 1 "a" "u1"));
        let w, peer = FB.group_wrapper ~system:sys ~service:fb ~group:"g" ~peer_name:"gfb" in
        check_int "pulled" 1 (w.Wrapper.refresh ());
        check_int "idempotent" 0 (w.Wrapper.refresh ());
        check_int "relation" 1 (List.length (Webdamlog.Peer.query peer "pictures")));
    tc "group wrapper: push posts new relation facts to the service" (fun () ->
        let sys = Webdamlog.System.create () in
        let fb = FB.create () in
        let w, peer = FB.group_wrapper ~system:sys ~service:fb ~group:"g" ~peer_name:"gfb" in
        ok
          (Webdamlog.Peer.insert peer
             (Fact.make ~rel:"pictures" ~peer:"gfb"
                [ Value.Int 5; Value.String "n"; Value.String "o"; Value.String "d" ]));
        check_int "pushed" 1 (w.Wrapper.push ());
        check_int "in service" 1 (List.length (FB.group_pictures fb ~group:"g"));
        check_int "no double post" 0 (w.Wrapper.push ()));
    tc "group wrapper: two-way without echo loops" (fun () ->
        let sys = Webdamlog.System.create () in
        let fb = FB.create () in
        let w, _peer = FB.group_wrapper ~system:sys ~service:fb ~group:"g" ~peer_name:"gfb" in
        ignore (FB.post_group_picture fb ~group:"g" (pic 1 "a" "u1"));
        ignore (w.Wrapper.refresh ());
        (* The picture that came from the service must not be re-posted
           as a new one. *)
        ignore (w.Wrapper.push ());
        check_int "still one" 1 (List.length (FB.group_pictures fb ~group:"g")));
    tc "user wrapper exports the paper's two relations" (fun () ->
        let sys = Webdamlog.System.create () in
        let fb = FB.create () in
        FB.befriend fb "Émilien" "Jules";
        ignore (FB.post_user_picture fb ~user:"Émilien" (pic 9 "p" "Émilien"));
        let w, peer =
          FB.user_wrapper ~system:sys ~service:fb ~user:"Émilien" ~peer_name:"ÉmilienFB"
        in
        ignore (w.Wrapper.refresh ());
        check_int "friends" 1 (List.length (Webdamlog.Peer.query peer "friends"));
        check_int "pictures" 1 (List.length (Webdamlog.Peer.query peer "pictures")));
    tc "email service: send and inbox ordering" (fun () ->
        let svc = Email.create () in
        ignore (Email.send svc ~sender:"a" ~recipient:"b" ~subject:"s1" ~body:"");
        ignore (Email.send svc ~sender:"a" ~recipient:"b" ~subject:"s2" ~body:"");
        (match Email.inbox svc "b" with
        | [ m1; m2 ] ->
          Alcotest.check Alcotest.string "first" "s1" m1.Email.subject;
          Alcotest.check Alcotest.string "second" "s2" m2.Email.subject
        | _ -> Alcotest.fail "expected two");
        check_int "total" 2 (Email.total_sent svc));
    tc "email outbox wrapper sends once per fact" (fun () ->
        let svc = Email.create () in
        let peer = Webdamlog.Peer.create "p" in
        ok (Webdamlog.Peer.load_string peer "ext email@p(to, name, id, owner);");
        let w = Email.outbox_wrapper ~service:svc ~peer ~sender:"p" () in
        ok
          (Webdamlog.Peer.insert peer
             (Fact.make ~rel:"email" ~peer:"p"
                [ Value.String "bob"; Value.String "sea.jpg"; Value.Int 1;
                  Value.String "o" ]));
        check_int "sent" 1 (w.Wrapper.push ());
        check_int "no resend" 0 (w.Wrapper.push ());
        match Email.inbox svc "bob" with
        | [ m ] -> check_bool "subject" (m.Email.subject = "wepic picture: sea.jpg")
        | _ -> Alcotest.fail "expected one mail");
    tc "email inbox wrapper mirrors the mailbox" (fun () ->
        let svc = Email.create () in
        let peer = Webdamlog.Peer.create "p" in
        ignore (Email.send svc ~sender:"x" ~recipient:"me" ~subject:"hi" ~body:"b");
        let w = Email.inbox_wrapper ~service:svc ~peer ~user:"me" () in
        check_int "pulled" 1 (w.Wrapper.refresh ());
        check_int "idempotent" 0 (w.Wrapper.refresh ());
        check_int "inbox relation" 1 (List.length (Webdamlog.Peer.query peer "inbox")));
    tc "dropbox: put/get/files" (fun () ->
        let svc = Dropbox.create () in
        Dropbox.put svc ~user:"u" ~path:"/a" ~content:"1";
        Dropbox.put svc ~user:"u" ~path:"/a" ~content:"2";
        check_bool "overwrite" (Dropbox.get svc ~user:"u" ~path:"/a" = Some "2");
        check_bool "missing" (Dropbox.get svc ~user:"u" ~path:"/zz" = None);
        Dropbox.put svc ~user:"u" ~path:"/b" ~content:"3";
        check_bool "sorted" (List.map fst (Dropbox.files svc ~user:"u") = [ "/a"; "/b" ]));
    tc "dropbox folder wrapper is two-way" (fun () ->
        let sys = Webdamlog.System.create () in
        let svc = Dropbox.create () in
        Dropbox.put svc ~user:"u" ~path:"/x" ~content:"c";
        let w, peer =
          Dropbox.folder_wrapper ~system:sys ~service:svc ~user:"u" ~peer_name:"udbx"
        in
        check_int "pull" 1 (w.Wrapper.refresh ());
        ok
          (Webdamlog.Peer.insert peer
             (Fact.make ~rel:"files" ~peer:"udbx"
                [ Value.String "/y"; Value.String "new" ]));
        ignore (w.Wrapper.push ());
        check_bool "pushed" (Dropbox.get svc ~user:"u" ~path:"/y" = Some "new"));
    tc "wordpress service: publish dedupes by title, comments attach" (fun () ->
        let wp = Wdl_wrappers.Wordpress.create () in
        check_bool "first"
          (Wdl_wrappers.Wordpress.publish wp ~blog:"joeBlog"
             { Wdl_wrappers.Wordpress.title = "Dream"; body = "5 stars";
               link = "/movies/dream.mkv" });
        check_bool "dup title"
          (not
             (Wdl_wrappers.Wordpress.publish wp ~blog:"joeBlog"
                { Wdl_wrappers.Wordpress.title = "Dream"; body = "other";
                  link = "x" }));
        check_bool "comment"
          (Wdl_wrappers.Wordpress.add_comment wp ~blog:"joeBlog"
             { Wdl_wrappers.Wordpress.post_title = "Dream"; author = "alice";
               text = "nice" });
        check_int "posts" 1
          (List.length (Wdl_wrappers.Wordpress.posts wp ~blog:"joeBlog")));
    tc "wordpress blog wrapper: derive into entries to publish" (fun () ->
        let sys = Webdamlog.System.create () in
        let wp = Wdl_wrappers.Wordpress.create () in
        let w, peer =
          Wdl_wrappers.Wordpress.blog_wrapper ~system:sys ~service:wp
            ~blog:"joeBlog" ~peer_name:"joeBlog"
        in
        let joe = Webdamlog.System.add_peer sys "joe" in
        ok
          (Webdamlog.Peer.load_string joe
             {|ext reviews@joe(title, body);
               reviews@joe("Dream", "5 stars");
               entries@joeBlog($t, $b, "none") :- reviews@joe($t, $b);|});
        ignore (ok (Webdamlog.System.run sys));
        check_int "pushed to service" 1 (w.Wrapper.push ());
        check_int "on the blog" 1
          (List.length (Wdl_wrappers.Wordpress.posts wp ~blog:"joeBlog"));
        (* Externally published posts flow back in. *)
        ignore
          (Wdl_wrappers.Wordpress.publish wp ~blog:"joeBlog"
             { Wdl_wrappers.Wordpress.title = "Other"; body = "b"; link = "l" });
        check_bool "refresh pulls" (w.Wrapper.refresh () > 0);
        check_int "entries relation" 2
          (List.length (Webdamlog.Peer.query peer "entries")));
    tc "watcher sees facts that arrive later" (fun () ->
        let peer = Webdamlog.Peer.create "p" in
        ok (Webdamlog.Peer.load_string peer "ext r@p(x);");
        let seen = ref [] in
        let watch = Wrapper.watcher ~peer ~rel:"r" (fun f -> seen := f :: !seen) in
        check_int "initially none" 0 (watch ());
        ok (Webdamlog.Peer.insert peer (Fact.make ~rel:"r" ~peer:"p" [ Value.Int 1 ]));
        check_int "one" 1 (watch ());
        ok (Webdamlog.Peer.insert peer (Fact.make ~rel:"r" ~peer:"p" [ Value.Int 2 ]));
        check_int "another" 1 (watch ());
        check_int "total" 2 (List.length !seen));
    tc "watcher with bloom dedup fires once per fact, bounded memory" (fun () ->
        let peer = Webdamlog.Peer.create "p" in
        ok (Webdamlog.Peer.load_string peer "ext r@p(x);");
        let fired = ref 0 in
        let watch =
          Wrapper.watcher ~dedup:(`Bloom 1024) ~peer ~rel:"r" (fun _ -> incr fired)
        in
        for i = 1 to 50 do
          ok
            (Webdamlog.Peer.insert peer
               (Fact.make ~rel:"r" ~peer:"p" [ Value.Int i ]))
        done;
        check_int "first sweep" 50 (watch ());
        check_int "second sweep is silent" 0 (watch ());
        check_int "action count" 50 !fired);
  ]
