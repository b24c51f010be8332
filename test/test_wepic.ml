module Wepic = Wdl_wepic.Wepic
module Workload = Wdl_wepic.Workload
open Wdl_syntax
open Check

let two_attendees () =
  let env = Wepic.create () in
  ignore (Wepic.add_attendee env "Emilien");
  ignore (Wepic.add_attendee env "Jules");
  env

let suite =
  [
    tc "uploads propagate to the sigmod peer" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        ignore (ok (Wepic.run env));
        check_int "sigmod" 1 (List.length (Wepic.pictures_at_sigmod env)));
    tc "facebook publication is gated by authorization" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        ignore (ok (Wepic.run env));
        check_int "not yet" 0 (List.length (Wepic.pictures_on_facebook env));
        Wepic.authorize_facebook env ~attendee:"Emilien" ~id:1;
        ignore (ok (Wepic.run env));
        check_int "published" 1 (List.length (Wepic.pictures_on_facebook env)));
    tc "pictures posted on facebook flow back to sigmod" (fun () ->
        let env = two_attendees () in
        ignore
          (Wdl_wrappers.Facebook.post_group_picture (Wepic.facebook env)
             ~group:"sigmod2013"
             { Wdl_wrappers.Facebook.id = 99; name = "ext.jpg"; owner = "x"; data = "d" });
        ignore (ok (Wepic.run env));
        check_int "sigmod" 1 (List.length (Wepic.pictures_at_sigmod env)));
    tc "selection fills the attendeePictures frame" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        Wepic.upload_picture env ~attendee:"Jules" ~id:2 ~name:"b.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        ignore (ok (Wepic.run env));
        (match Wepic.attendee_pictures env ~viewer:"Jules" with
        | [ f ] -> check_bool "emilien's" (List.mem (Value.String "Emilien") f.Fact.args)
        | l -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length l)));
        (* Selecting oneself works without network (peer var = self). *)
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Jules";
        ignore (ok (Wepic.run env));
        check_int "both now" 2
          (List.length (Wepic.attendee_pictures env ~viewer:"Jules")));
    tc "deselecting retracts" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        ignore (ok (Wepic.run env));
        Wepic.deselect_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        ignore (ok (Wepic.run env));
        check_int "empty" 0 (List.length (Wepic.attendee_pictures env ~viewer:"Jules")));
    tc "transfer respects the recipient's protocol: wepic" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Jules" ~id:2 ~name:"b.jpg" ~data:"d";
        Wepic.set_protocol env ~attendee:"Emilien" ~protocol:"wepic";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        Wepic.select_picture env ~viewer:"Jules" ~name:"b.jpg" ~id:2 ~owner:"Jules";
        ignore (ok (Wepic.run env));
        check_int "delivered in wepic relation" 1
          (List.length (Webdamlog.Peer.query (Wepic.attendee env "Emilien") "wepic")));
    tc "transfer respects the recipient's protocol: email" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Jules" ~id:2 ~name:"b.jpg" ~data:"d";
        Wepic.set_protocol env ~attendee:"Emilien" ~protocol:"email";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        Wepic.select_picture env ~viewer:"Jules" ~name:"b.jpg" ~id:2 ~owner:"Jules";
        ignore (ok (Wepic.run env));
        check_int "one mail" 1
          (List.length (Wdl_wrappers.Email.inbox (Wepic.email env) "Emilien")));
    tc "ratings produce the ranked view" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        Wepic.upload_picture env ~attendee:"Emilien" ~id:2 ~name:"b.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        Wepic.rate env ~rater:"Jules" ~owner:"Emilien" ~id:1 ~rating:3;
        Wepic.rate env ~rater:"Jules" ~owner:"Emilien" ~id:2 ~rating:5;
        ignore (ok (Wepic.run env));
        match Wepic.rated_pictures env ~viewer:"Jules" with
        | [ (id1, _, _, r1); (id2, _, _, r2) ] ->
          check_int "best first" 5 r1;
          check_int "best id" 2 id1;
          check_int "then" 3 r2;
          check_int "then id" 1 id2
        | l -> Alcotest.fail (Printf.sprintf "expected 2, got %d" (List.length l)));
    tc "customization: only rating-5 pictures (§4)" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        Wepic.upload_picture env ~attendee:"Emilien" ~id:2 ~name:"b.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        Wepic.rate env ~rater:"Jules" ~owner:"Emilien" ~id:2 ~rating:5;
        ignore (ok (Wepic.run env));
        check_int "both before" 2
          (List.length (Wepic.attendee_pictures env ~viewer:"Jules"));
        ok
          (Wepic.customize_view env ~viewer:"Jules"
             (Wepic.min_rating_view_rule ~viewer:"Jules" ~min_rating:5));
        ignore (ok (Wepic.run env));
        check_int "one after" 1
          (List.length (Wepic.attendee_pictures env ~viewer:"Jules"));
        (* Restoring the standard rule restores the frame. *)
        ok
          (Wepic.customize_view env ~viewer:"Jules"
             (Wepic.standard_view_rule ~viewer:"Jules"));
        ignore (ok (Wepic.run env));
        check_int "restored" 2
          (List.length (Wepic.attendee_pictures env ~viewer:"Jules")));
    tc "untrusted mode queues attendee-to-attendee delegations" (fun () ->
        let env = Wepic.create ~untrusted_by_default:true () in
        ignore (Wepic.add_attendee env "Emilien");
        ignore (Wepic.add_attendee env "Jules");
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        ignore (ok (Wepic.run env));
        check_int "view blocked" 0
          (List.length (Wepic.attendee_pictures env ~viewer:"Jules"));
        let emilien = Wepic.attendee env "Emilien" in
        (* One delegation waits: the attendeePictures residual. The
           transfer rule's communicate@Emilien residual no longer ships
           at this point — the planner applies the WDL031 reorder,
           moving the (still empty) local selectedPictures literal
           ahead of the remote communicate atom, so no valuation
           reaches the delegation point until a picture is selected. *)
        check_int "pending at Emilien" 1
          (List.length (Webdamlog.Peer.pending_delegations emilien));
        ignore (Webdamlog.Peer.accept_all_delegations emilien);
        ignore (ok (Wepic.run env));
        check_int "view live" 1
          (List.length (Wepic.attendee_pictures env ~viewer:"Jules")));
    tc "reserved names rejected" (fun () ->
        let env = Wepic.create () in
        check_bool "sigmod"
          (try ignore (Wepic.add_attendee env "sigmod"); false
           with Invalid_argument _ -> true));
    tc "workload populates deterministically" (fun () ->
        let spec =
          { Workload.default with attendees = 3; pictures_per_attendee = 4 }
        in
        let env1 = Wepic.create () in
        Workload.populate env1 spec;
        ignore (ok (Wepic.run env1));
        let env2 = Wepic.create () in
        Workload.populate env2 spec;
        ignore (ok (Wepic.run env2));
        check_int "attendees" 3 (List.length (Wepic.attendees env1));
        check_int "sigmod pictures" 12 (List.length (Wepic.pictures_at_sigmod env1));
        check_bool "identical"
          (List.map (Format.asprintf "%a" Fact.pp) (Wepic.pictures_at_sigmod env1)
          = List.map (Format.asprintf "%a" Fact.pp) (Wepic.pictures_at_sigmod env2)));
    tc "announcements fan out to every attendee (dynamic head)" (fun () ->
        let env = two_attendees () in
        Wepic.announce env "welcome to sigmod";
        ignore (ok (Wepic.run env));
        check_bool "emilien got it"
          (Wepic.announcements env ~attendee:"Emilien" = [ "welcome to sigmod" ]);
        check_bool "jules got it"
          (Wepic.announcements env ~attendee:"Jules" = [ "welcome to sigmod" ]);
        (* A late joiner receives past announcements: news persists at
           sigmod and the fanout rule re-derives for the new registry
           entry. *)
        ignore (Wepic.add_attendee env "Julia");
        ignore (ok (Wepic.run env));
        check_bool "late joiner too"
          (Wepic.announcements env ~attendee:"Julia" = [ "welcome to sigmod" ]));
    tc "tags collected from owners fill the attendeeTags view" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        Wepic.tag env ~owner:"Emilien" ~id:1 ~who:"Serge";
        Wepic.tag env ~owner:"Emilien" ~id:1 ~who:"Julia";
        ignore (ok (Wepic.run env));
        check_int "two tags" 2 (List.length (Wepic.attendee_tags env ~viewer:"Jules"));
        check_bool "Serge appears"
          (List.mem (1, "Serge") (Wepic.attendee_tags env ~viewer:"Jules")));
    tc "download copies viewed pictures into the local collection" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        ignore (ok (Wepic.run env));
        check_int "nothing local yet" 0
          (List.length (Webdamlog.Peer.query (Wepic.attendee env "Jules") "pictures"));
        ok (Wepic.enable_download env ~viewer:"Jules");
        ignore (ok (Wepic.run env));
        check_int "downloaded" 1
          (List.length (Webdamlog.Peer.query (Wepic.attendee env "Jules") "pictures"));
        (* Downloads persist after disabling and even after deselecting. *)
        Wepic.disable_download env ~viewer:"Jules";
        Wepic.deselect_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        ignore (ok (Wepic.run env));
        check_int "kept" 1
          (List.length (Webdamlog.Peer.query (Wepic.attendee env "Jules") "pictures")));
    tc "attendees can launch their peers mid-demo (§4)" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        ignore (ok (Wepic.run env));
        (* An audience member joins a running system... *)
        ignore (Wepic.add_attendee env "Julia");
        Wepic.upload_picture env ~attendee:"Julia" ~id:9 ~name:"mine.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Julia" ~attendee:"Emilien";
        ignore (ok (Wepic.run env));
        (* ...and everything works for them immediately. *)
        check_int "her upload reached sigmod" 2
          (List.length (Wepic.pictures_at_sigmod env));
        check_int "her view fills" 1
          (List.length (Wepic.attendee_pictures env ~viewer:"Julia"));
        check_bool "she is registered"
          (List.mem "Julia" (Wepic.attendees env)));
    tc "render_ui shows the Fig. 1 frames" (fun () ->
        let env = two_attendees () in
        Wepic.upload_picture env ~attendee:"Emilien" ~id:1 ~name:"a.jpg" ~data:"d";
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        Wepic.rate env ~rater:"Jules" ~owner:"Emilien" ~id:1 ~rating:4;
        ignore (ok (Wepic.run env));
        let ui = Wepic.render_ui env ~viewer:"Jules" in
        List.iter
          (fun needle -> check_bool needle (Str_helper.contains ui needle))
          [ "[x] Emilien"; "Attendee pictures"; "a.jpg (Emilien) ****" ]);
    tc "render_ui shows pending delegations (Fig. 3)" (fun () ->
        let env = Wepic.create ~untrusted_by_default:true () in
        ignore (Wepic.add_attendee env "Emilien");
        ignore (Wepic.add_attendee env "Jules");
        Wepic.select_attendee env ~viewer:"Jules" ~attendee:"Emilien";
        ignore (ok (Wepic.run env));
        let ui = Wepic.render_ui env ~viewer:"Emilien" in
        check_bool "notification" (Str_helper.contains ui "Pending delegations"));
    tc "facebook comments flow back into fbComments@sigmod" (fun () ->
        let env = two_attendees () in
        ignore
          (Wdl_wrappers.Facebook.comment_group_picture (Wepic.facebook env)
             ~group:"sigmod2013"
             { Wdl_wrappers.Facebook.pic_id = 32; author = "someone";
               text = "great shot" });
        ignore (ok (Wepic.run env));
        match Webdamlog.Peer.query (Wepic.sigmod env) "fbComments" with
        | [ f ] ->
          check_bool "author there"
            (List.mem (Value.String "someone") f.Fact.args)
        | l -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length l)));
    tc "externally-owned facts never block quiescence (regression)" (fun () ->
        (* A picture posted on Facebook by a non-attendee flows to
           sigmod, whose authorization rule would delegate to the
           owner's (nonexistent) peer; with an explicit transport the
           system must still quiesce. *)
        let transport = Wdl_net.Simnet.create ~seed:2 () in
        let env = Wepic.create ~transport () in
        ignore (Wepic.add_attendee env "Emilien");
        ignore
          (Wdl_wrappers.Facebook.post_group_picture (Wepic.facebook env)
             ~group:"sigmod2013"
             { Wdl_wrappers.Facebook.id = 99; name = "ext.jpg";
               owner = "outsider"; data = "d" });
        (match Wepic.run env with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        check_int "flowed back" 1 (List.length (Wepic.pictures_at_sigmod env)));
    tc "scale: a 40-attendee conference converges" (fun () ->
        let env = Wepic.create () in
        Workload.populate env
          { Workload.default with attendees = 40; pictures_per_attendee = 3 };
        let rounds = ok (Wepic.run env) in
        check_bool "bounded rounds" (rounds <= 10);
        check_int "all pictures centralised" 120
          (List.length (Wepic.pictures_at_sigmod env));
        (* Everyone selects everyone: 40 concurrent delegation fans. *)
        let viewer = Workload.attendee_name 1 in
        List.iter
          (fun a -> if a <> viewer then Wepic.select_attendee env ~viewer ~attendee:a)
          (Wepic.attendees env);
        ignore (ok (Wepic.run env));
        check_int "full frame" 117
          (List.length (Wepic.attendee_pictures env ~viewer)));
    tc "seeded stages send what full stages send" (fun () ->
        (* One seeded conference twice: by default, and with every peer
           tracking provenance, which puts every stage on the full
           path. Every round must send the same messages, and every
           relation must end the same. *)
        let conference ~provenance =
          let sent = ref [] and system = ref None in
          let inner = Wdl_net.Inmem.create () in
          let round () = Option.fold ~none:0 ~some:Webdamlog.System.rounds !system in
          let log (m : Webdamlog.Message.t) = sent := (round (), m) :: !sent in
          let transport =
            { inner with
              Wdl_net.Transport.send =
                (fun ~src ~dst m -> log m; inner.Wdl_net.Transport.send ~src ~dst m);
              send_many =
                (fun ~dst items ->
                  List.iter (fun (_, m) -> log m) items;
                  inner.Wdl_net.Transport.send_many ~dst items) }
          in
          let env = Wepic.create ~transport () in
          system := Some (Wepic.system env);
          let names = Array.init 6 (fun i -> Workload.attendee_name (i + 1)) in
          Array.iter (fun n -> ignore (Wepic.add_attendee env n)) names;
          if provenance then
            List.iter
              (fun p -> Webdamlog.Peer.set_track_provenance p true)
              (Webdamlog.System.peers (Wepic.system env));
          Array.iter (fun n -> Wepic.set_protocol env ~attendee:n ~protocol:"wepic") names;
          let rng = Random.State.make [| 5 |] in
          let any () = names.(Random.State.int rng (Array.length names)) in
          let pics = ref [] and selected = ref [] in
          for k = 1 to 80 do
            (match Random.State.int rng 5 with
            | 0 | 1 ->
              let owner = any () in
              Wepic.upload_picture env ~attendee:owner ~id:k
                ~name:(Printf.sprintf "pic%d.jpg" k) ~data:"d";
              pics := (owner, k) :: !pics
            | 2 when !pics <> [] ->
              let owner, id = List.nth !pics (Random.State.int rng (List.length !pics)) in
              Wepic.rate env ~rater:(any ()) ~owner ~id ~rating:(1 + Random.State.int rng 5)
            | 3 when !pics <> [] ->
              let owner, id = List.nth !pics (Random.State.int rng (List.length !pics)) in
              Wepic.tag env ~owner ~id ~who:(any ())
            | _ ->
              let viewer = any () and attendee = any () in
              if viewer <> attendee then
                if List.mem (viewer, attendee) !selected then begin
                  Wepic.deselect_attendee env ~viewer ~attendee;
                  selected := List.filter (( <> ) (viewer, attendee)) !selected
                end
                else begin
                  Wepic.select_attendee env ~viewer ~attendee;
                  selected := (viewer, attendee) :: !selected
                end);
            ignore (ok (Wepic.run env))
          done;
          let seeded =
            List.fold_left
              (fun acc p -> acc + (Webdamlog.Peer.stats p).Webdamlog.Peer.delta_stages)
              0
              (Webdamlog.System.peers (Wepic.system env))
          in
          (List.rev !sent, Album.dump (Wepic.system env), seeded)
        in
        let sent, dump, seeded = conference ~provenance:false in
        let sent', dump', seeded' = conference ~provenance:true in
        check_bool "the default run seeds stages" (seeded > 0);
        check_int "the provenance run seeds none" 0 seeded';
        check_int "as many messages" (List.length sent') (List.length sent);
        check_bool "the same messages in every round" (sent = sent');
        check_bool "the same relations at the end" (dump = dump'));
    tc "generators: chain and random edges" (fun () ->
        check_int "chain" 9 (List.length (Workload.chain_edges ~n:10));
        let e = Workload.random_edges ~seed:1 ~nodes:20 ~edges:50 in
        check_int "count" 50 (List.length e);
        check_bool "no self loops" (List.for_all (fun (a, b) -> a <> b) e);
        check_bool "deterministic"
          (e = Workload.random_edges ~seed:1 ~nodes:20 ~edges:50));
  ]
