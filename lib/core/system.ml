type t = {
  transport : Message.t Wdl_net.Transport.t;
  drop_unknown : bool;
  peers : (string, Peer.t) Hashtbl.t;
  mutable order : string list;  (* reverse registration order *)
  mutable rounds : int;
  mutable dropped : int;  (* messages to peers the system doesn't know *)
  mutable transport_errors : int;  (* exceptions swallowed at send/drain *)
  mutable hooks : (unit -> unit) list;  (* run before each round's stages *)
  round_hist : Wdl_obs.Obs.histogram;
  (* Peer lifecycle: the failure detector's view, the system-level
     event trace, messages parked for destinations believed dead, and
     the cleanup callbacks run when a name is removed (e.g. purging
     reliable-link state via [wire_reliable]). *)
  membership : Membership.t;
  sys_trace : Trace.t;
  dead_letters : (string * Message.t) Queue.t;  (* (dst, message) *)
  dead_letter_capacity : int;
  mutable dead_lettered : int;  (* total parked *)
  mutable dead_letters_dropped : int;  (* overflowed the parking buffer *)
  mutable evictions : int;  (* dead transitions applied *)
  mutable purgers : (string -> unit) list;
}

let create ?transport ?drop_unknown ?membership
    ?(dead_letter_capacity = 256) () =
  (* With the default in-process transport a message to an unknown peer
     can never be delivered, so it is dropped; with an explicit
     transport (TCP across processes) unknown peers may live elsewhere
     and everything is sent. *)
  let drop_unknown =
    match drop_unknown with Some b -> b | None -> Option.is_none transport
  in
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Wdl_net.Inmem.create ~sizer:Message.size ()
  in
  let t =
    {
      transport;
      drop_unknown;
      peers = Hashtbl.create 8;
      order = [];
      rounds = 0;
      dropped = 0;
      transport_errors = 0;
      hooks = [];
      round_hist =
        Wdl_obs.Obs.histogram ~help:"Wall time of one System.round"
          ~buckets:Wdl_obs.Obs.latency_buckets
          "wdl_system_round_duration_microseconds";
      membership = Membership.create ?config:membership ();
      sys_trace = Trace.create ();
      dead_letters = Queue.create ();
      dead_letter_capacity;
      dead_lettered = 0;
      dead_letters_dropped = 0;
      evictions = 0;
      purgers = [];
    }
  in
  (* Callback counters: sampled at scrape, nothing on the round path.
     A later System replaces the series (last one wins). *)
  Wdl_obs.Obs.on_collect ~help:"Rounds executed" ~kind:`Counter
    "wdl_system_rounds_total" (fun () -> float_of_int t.rounds);
  Wdl_obs.Obs.on_collect ~help:"Messages dropped for unknown peers"
    ~kind:`Counter "wdl_system_messages_dropped_total" (fun () ->
      float_of_int t.dropped);
  Wdl_obs.Obs.on_collect ~help:"Transport exceptions absorbed by the round loop"
    ~kind:`Counter "wdl_system_transport_errors_total" (fun () ->
      float_of_int t.transport_errors);
  Wdl_obs.Obs.on_collect ~help:"Registered peers" ~kind:`Gauge
    "wdl_system_peers" (fun () -> float_of_int (Hashtbl.length t.peers));
  List.iter
    (fun st ->
      Wdl_obs.Obs.on_collect ~help:"Membership view by status"
        ~labels:[ ("status", Membership.status_string st) ]
        ~kind:`Gauge "wdl_sys_members" (fun () ->
          float_of_int (Membership.count t.membership st)))
    [ Membership.Alive; Membership.Suspect; Membership.Dead ];
  Wdl_obs.Obs.on_collect ~help:"Membership status transitions"
    ~kind:`Counter "wdl_sys_member_transitions_total" (fun () ->
      float_of_int (Membership.transitions t.membership));
  Wdl_obs.Obs.on_collect ~help:"Messages parked for dead destinations"
    ~kind:`Counter "wdl_sys_dead_letters_total" (fun () ->
      float_of_int t.dead_lettered);
  Wdl_obs.Obs.on_collect
    ~help:"Dead letters discarded because the parking buffer was full"
    ~kind:`Counter "wdl_sys_dead_letters_dropped_total" (fun () ->
      float_of_int t.dead_letters_dropped);
  Wdl_obs.Obs.on_collect ~help:"Dead letters currently parked" ~kind:`Gauge
    "wdl_sys_dead_letter_queue" (fun () ->
      float_of_int (Queue.length t.dead_letters));
  Wdl_obs.Obs.on_collect ~help:"Dead-peer evictions applied" ~kind:`Counter
    "wdl_sys_evictions_total" (fun () -> float_of_int t.evictions);
  t

let on_round t hook = t.hooks <- t.hooks @ [ hook ]
let peer t name = Hashtbl.find t.peers name
let find_peer t name = Hashtbl.find_opt t.peers name
let peers t = List.rev_map (fun n -> Hashtbl.find t.peers n) t.order
let transport t = t.transport
let rounds t = t.rounds
let trace t = t.sys_trace
let membership_view t = Membership.view t.membership
let membership_status t name = Membership.status t.membership name
let dead_letters t = Queue.length t.dead_letters
let dead_lettered t = t.dead_lettered
let evictions t = t.evictions

(* {1 The queryable membership view}

   Any registered peer that declares an extensional [sys_peers]
   relation gets the membership view materialised into it — one
   [(name, status)] fact per known name — so rules can react to
   failures ("notify me when a friend's peer dies").  Synced on every
   transition and on demand. *)

let sys_peers_rel = "sys_peers"

let declares_sys_peers p =
  Wdl_store.Database.kind (Peer.database p) sys_peers_rel
  = Some Wdl_syntax.Decl.Extensional

let sync_members t =
  let open Wdl_syntax in
  let view = Membership.view t.membership in
  List.iter
    (fun p ->
      if declares_sys_peers p then begin
        let desired =
          List.map
            (fun (name, st) ->
              Fact.make ~rel:sys_peers_rel ~peer:(Peer.name p)
                [ Value.String name;
                  Value.String (Membership.status_string st) ])
            view
        in
        let current = Peer.query p sys_peers_rel in
        List.iter
          (fun f ->
            if not (List.exists (Fact.equal f) desired) then
              ignore (Peer.delete p f))
          current;
        List.iter
          (fun f ->
            if not (List.exists (Fact.equal f) current) then
              ignore (Peer.insert p f))
          desired
      end)
    (peers t)

let flush_dead_letters t name =
  let keep = Queue.create () in
  Queue.iter
    (fun (dst, msg) ->
      if dst = name then begin
        try t.transport.Wdl_net.Transport.send ~src:msg.Message.src ~dst msg
        with _ -> t.transport_errors <- t.transport_errors + 1
      end
      else Queue.push (dst, msg) keep)
    t.dead_letters;
  Queue.clear t.dead_letters;
  Queue.transfer keep t.dead_letters

(* Act on membership transitions.  Death is a transition, not a leak:
   every remaining peer retracts the delegations the dead peer
   installed and drops its cached batch.  Revival (a name heard from
   again, or re-adopted) makes every sender forget its diff-protocol
   state towards the name, so current state is re-announced, and
   replays any parked dead letters. *)
let apply_transitions t changes =
  if changes <> [] then begin
    List.iter
      (fun (name, st) ->
        Trace.record t.sys_trace
          (Trace.Peer_status
             { peer = name; status = Membership.status_string st });
        match st with
        | Membership.Dead ->
          t.evictions <- t.evictions + 1;
          List.iter (fun p -> ignore (Peer.forget_origin p ~src:name)) (peers t)
        | Membership.Alive ->
          List.iter
            (fun p ->
              if Peer.name p <> name then Peer.forget_destination p ~dst:name)
            (peers t);
          flush_dead_letters t name
        | Membership.Suspect -> ())
      changes;
    sync_members t
  end

let adopt_peer t p =
  let name = Peer.name p in
  if Hashtbl.mem t.peers name then
    invalid_arg (Printf.sprintf "System.adopt_peer: peer %s already exists" name);
  (* Any session state parked under this name belongs to a previous
     incarnation; purge it before the newcomer takes over. *)
  List.iter (fun purge -> purge name) t.purgers;
  Hashtbl.replace t.peers name p;
  t.order <- name :: t.order;
  Membership.track t.membership ~round:t.rounds ~registered:true name;
  (match Membership.heard t.membership ~round:t.rounds name with
  | Some tr -> apply_transitions t [ tr ]
  | None -> ());
  (* Rejoin reconciliation, even when the detector never noticed the
     absence.  The restored peer may cache batches its sources emptied
     while it was down (an empty batch is never re-sent to a forgotten
     destination), and the others may hold delegations it would have
     retracted.  So every pair drops what the other side pushed, as on
     a death, and then both sides re-announce their current state. *)
  List.iter
    (fun q ->
      if Peer.name q <> name then begin
        ignore (Peer.forget_origin p ~src:(Peer.name q));
        ignore (Peer.forget_origin q ~src:name);
        Peer.forget_destination q ~dst:name
      end)
    (peers t);
  Peer.reset_session p;
  flush_dead_letters t name

let add_peer t ?policy ?inbox_capacity ?shed name =
  if Hashtbl.mem t.peers name then
    invalid_arg (Printf.sprintf "System.add_peer: peer %s already exists" name);
  let p = Peer.create ?policy ?inbox_capacity ?shed name in
  Hashtbl.replace t.peers name p;
  t.order <- name :: t.order;
  Membership.track t.membership ~round:t.rounds ~registered:true name;
  (* A reused name revives its membership entry like a rejoin. *)
  (match Membership.heard t.membership ~round:t.rounds name with
  | Some tr -> apply_transitions t [ tr ]
  | None -> ());
  p

let remove_peer t name =
  if Hashtbl.mem t.peers name then begin
    Hashtbl.remove t.peers name;
    t.order <- List.filter (fun n -> n <> name) t.order;
    Membership.set_registered t.membership name false;
    (* Sender-side cleanup so the name can be reused: every remaining
       peer forgets what it sent there (re-announcing to a future
       incarnation), and purgers drop transport session state (reliable
       windows, dedup counters) keyed under the name. *)
    List.iter (fun p -> Peer.forget_destination p ~dst:name) (peers t);
    List.iter (fun purge -> purge name) t.purgers
  end

let evict_peer t name =
  remove_peer t name;
  Membership.track t.membership ~round:t.rounds name;
  match Membership.mark_dead t.membership ~round:t.rounds name with
  | Some tr -> apply_transitions t [ tr ]
  | None -> ()

let note_link_dead t ~src ~dst =
  Trace.record t.sys_trace (Trace.Link_dead { src; dst });
  Membership.track t.membership ~round:t.rounds dst;
  match Membership.mark_dead t.membership ~round:t.rounds dst with
  | Some tr -> apply_transitions t [ tr ]
  | None -> ()

let wire_reliable t ctl =
  Wdl_net.Reliable.on_dead ctl (fun ~src ~dst -> note_link_dead t ~src ~dst);
  t.purgers <- t.purgers @ [ (fun name -> Wdl_net.Reliable.forget ctl name) ]

let dead_letter t (msg : Message.t) =
  if Queue.length t.dead_letters >= t.dead_letter_capacity then begin
    ignore (Queue.pop t.dead_letters);
    t.dead_letters_dropped <- t.dead_letters_dropped + 1
  end;
  Queue.push (msg.Message.dst, msg) t.dead_letters;
  t.dead_lettered <- t.dead_lettered + 1;
  Trace.record t.sys_trace
    (Trace.Dead_lettered { src = msg.Message.src; dst = msg.Message.dst })

let heartbeat ~src ~dst =
  Message.make ~src ~dst ~stage:0 ~facts:None ~installs:[] ~retracts:[] ()

let round t =
  Wdl_obs.Obs.time t.round_hist @@ fun () ->
  t.rounds <- t.rounds + 1;
  List.iter (fun hook -> hook ()) t.hooks;
  (* Failure detector: refresh in-process peers, demote silent remote
     names, and probe the quiet ones with empty heartbeat messages
     (piggy-backed liveness needs no probes while real traffic flows).
     Probing only makes sense when unknown names are actually sent. *)
  let transitions, probes = Membership.tick t.membership ~round:t.rounds in
  apply_transitions t transitions;
  (if not t.drop_unknown then
     match List.rev t.order with
     | probe_src :: _ ->
       List.iter
         (fun dst ->
           try
             t.transport.Wdl_net.Transport.send ~src:probe_src ~dst
               (heartbeat ~src:probe_src ~dst)
           with _ -> t.transport_errors <- t.transport_errors + 1)
         probes
     | [] -> ());
  let sent = ref 0 in
  (* Stage every peer first, coalescing the round's outbox per
     destination (in first-appearance order): one transport batch per
     peer instead of one wire unit per message. *)
  let outbox : (string, (string * Message.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let dsts = ref [] in
  List.iter
    (fun p ->
      if Peer.has_work p then
        List.iter
          (fun (msg : Message.t) ->
            let dst = msg.Message.dst in
            if t.drop_unknown && not (Hashtbl.mem t.peers dst) then
              t.dropped <- t.dropped + 1
            else begin
              Membership.track t.membership ~round:t.rounds dst;
              if Membership.status t.membership dst = Some Membership.Dead
              then dead_letter t msg
              else begin
                incr sent;
                match Hashtbl.find_opt outbox dst with
                | Some l -> l := (msg.Message.src, msg) :: !l
                | None ->
                  Hashtbl.add outbox dst (ref [ (msg.Message.src, msg) ]);
                  dsts := dst :: !dsts
              end
            end)
          (Peer.stage p))
    (peers t);
  (* An unreachable peer must not kill everyone else's round: the
     transport is expected to park-and-retry (Tcp) or retransmit
     (Reliable); anything that still escapes is counted and the batch
     abandoned. *)
  List.iter
    (fun dst ->
      let items = List.rev !(Hashtbl.find outbox dst) in
      match items with
      | [ (src, msg) ] ->
        (* Size-1 fast path: a singleton group is a plain send, so it
           skips the batching bookkeeping entirely. *)
        (try t.transport.Wdl_net.Transport.send ~src ~dst msg
         with _ -> t.transport_errors <- t.transport_errors + 1)
      | _ -> (
        try t.transport.Wdl_net.Transport.send_many ~dst items
        with _ -> t.transport_errors <- t.transport_errors + 1))
    (List.rev !dsts);
  t.transport.Wdl_net.Transport.advance 1.0;
  let revived = ref [] in
  List.iter
    (fun p ->
      let inbox =
        try t.transport.Wdl_net.Transport.drain (Peer.name p)
        with _ ->
          t.transport_errors <- t.transport_errors + 1;
          []
      in
      List.iter
        (fun (msg : Message.t) ->
          (* Every drained message is a piggy-backed heartbeat from its
             source; an empty one is *only* that and is absorbed here,
             never waking the peer's stage loop. *)
          (match
             Membership.heard t.membership ~round:t.rounds msg.Message.src
           with
          | Some tr -> revived := tr :: !revived
          | None -> ());
          if not (Message.is_empty msg) then Peer.receive p msg)
        inbox)
    (peers t);
  apply_transitions t (List.rev !revived);
  !sent

let quiescent t =
  t.transport.Wdl_net.Transport.pending () = 0
  && List.for_all (fun p -> not (Peer.has_work p)) (peers t)

let run ?(max_rounds = 10_000) t =
  let start = t.rounds in
  let rec go () =
    if quiescent t then Ok (t.rounds - start)
    else if t.rounds - start >= max_rounds then
      Error
        (Printf.sprintf "system did not quiesce within %d rounds" max_rounds)
    else begin
      ignore (round t);
      go ()
    end
  in
  go ()

let messages_sent t = (t.transport.Wdl_net.Transport.stats ()).Wdl_net.Netstats.sent
let messages_dropped t = t.dropped
let transport_errors t = t.transport_errors
