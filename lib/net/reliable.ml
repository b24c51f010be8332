type 'a envelope = {
  env_src : string;
  env_inc : int;  (* the link's incarnation when the envelope was built *)
  env_seq : int;  (* 0 for a pure ack *)
  env_ack : int;
  env_payload : 'a option;
}

type config = {
  rto : float;
  backoff : float;
  max_rto : float;
  rto_jitter : float;
  max_attempts : int;
  max_window : int;
  max_held : int;
}

let default_config =
  {
    rto = 4.0;
    backoff = 2.0;
    max_rto = 64.0;
    rto_jitter = 0.25;
    max_attempts = 30;
    max_window = max_int;
    max_held = max_int;
  }

(* Sender side of one directed link. *)
type 'a outstanding = {
  o_seq : int;
  o_payload : 'a;
  o_sent : float;  (* clock time of the first transmission *)
  mutable o_next : float;  (* clock time of the next retransmission *)
  mutable o_rto : float;
  mutable o_attempts : int;
}

type 'a link_send = {
  mutable next_seq : int;
  mutable window : 'a outstanding list;  (* unacked, oldest first *)
  mutable window_len : int;
  overflow : 'a Queue.t;
      (* payloads accepted while the window was full: unstamped,
         promoted in order as acks free window slots (block-sender
         backpressure — nothing is lost, the link just stops
         amplifying into a congested path) *)
  mutable given_up : bool;
}

(* Receiver side of one directed link: the dedup window plus the
   out-of-order buffer that restores per-link FIFO. *)
type 'a link_recv = {
  mutable delivered : int;  (* highest contiguous seq handed to the app *)
  mutable held : (int * 'a) list;  (* buffered out of order, seq > delivered *)
  mutable last_acked : int;
  mutable need_ack : bool;
}

type 'a control = {
  c_sends : (string * string, 'a link_send) Hashtbl.t;
  c_recvs : (string * string, 'a link_recv) Hashtbl.t;
  c_inc : (string * string, int) Hashtbl.t;
      (* per link, as [link a b]: its incarnation, 0 when absent *)
  mutable c_dead : (string * string) list;
  mutable c_on_dead : src:string -> dst:string -> unit;
  c_stats : Netstats.t;
}

let dead_links ctl = List.rev ctl.c_dead
let on_dead ctl f = ctl.c_on_dead <- f
let stats ctl = ctl.c_stats

let unacked ctl =
  Hashtbl.fold (fun _ ls acc -> acc + ls.window_len) ctl.c_sends 0

let queued ctl =
  Hashtbl.fold (fun _ ls acc -> acc + Queue.length ls.overflow) ctl.c_sends 0

let delivered_from ctl ~src ~dst =
  match Hashtbl.find_opt ctl.c_recvs (src, dst) with
  | Some r -> r.delivered
  | None -> 0

(* A link's incarnation: bumped each time either endpoint is
   forgotten, and adopted from the other end when it is higher (see
   [drain]). One number for both directions, so data and acks agree,
   and it only grows, so a stale envelope is always lower. *)
let link a b = if a <= b then (a, b) else (b, a)

let incarnation ctl a b =
  Option.value ~default:0 (Hashtbl.find_opt ctl.c_inc (link a b))

let data ctl ~src ~dst ~seq ~ack payload =
  { env_src = src; env_inc = incarnation ctl src dst; env_seq = seq;
    env_ack = ack; env_payload = Some payload }

let pure_ack ctl ~src ~dst ~ack =
  { env_src = src; env_inc = incarnation ctl src dst; env_seq = 0;
    env_ack = ack; env_payload = None }

let revive ctl ~src ~dst =
  ctl.c_dead <- List.filter (fun l -> l <> (src, dst)) ctl.c_dead;
  match Hashtbl.find_opt ctl.c_sends (src, dst) with
  | Some ls -> ls.given_up <- false
  | None -> ()

(* Drop every directed link touching [peer], both sides: a reborn peer
   restarts its sequence numbers at 1, so stale dedup counters or
   half-open windows keyed under the old incarnation would silently
   swallow (or retransmit into) the new one.  Bumping the incarnation
   does the same for envelopes still in flight: an old ack=1 must not
   retire the new session's seq 1.  A link this control has never
   carried has no envelope in flight, so it keeps incarnation 0. *)
let forget ctl peer =
  let involves (src, dst) = src = peer || dst = peer in
  let doomed tbl =
    Hashtbl.fold (fun k _ acc -> if involves k then k :: acc else acc) tbl []
  in
  List.map
    (fun (a, b) -> link a b)
    (doomed ctl.c_sends @ doomed ctl.c_recvs @ doomed ctl.c_inc)
  |> List.sort_uniq compare
  |> List.iter (fun (a, b) ->
         Hashtbl.replace ctl.c_inc (a, b) (incarnation ctl a b + 1));
  List.iter (Hashtbl.remove ctl.c_sends) (doomed ctl.c_sends);
  List.iter (Hashtbl.remove ctl.c_recvs) (doomed ctl.c_recvs);
  ctl.c_dead <- List.filter (fun l -> not (involves l)) ctl.c_dead

let wrap ?(config = default_config) ?(seed = 11)
    (inner : 'a envelope Transport.t) : 'a Transport.t * 'a control =
  let rng = Random.State.make [| seed |] in
  let stats = Netstats.create () in
  Netstats.register ~transport:"reliable" stats;
  (* Transport-clock units, not µs: delays scale with the RTO. *)
  let ack_delay =
    Wdl_obs.Obs.histogram
      ~labels:[ ("transport", "reliable") ]
      ~help:"Transport-clock delay between first transmission and its ack"
      ~buckets:[| 0.5; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
      "wdl_net_ack_delay"
  in
  let dead_links =
    Wdl_obs.Obs.counter
      ~labels:[ ("transport", "reliable") ]
      ~help:"Links given up on after max_attempts expiries"
      "wdl_net_dead_links_total"
  in
  let ctl =
    {
      c_sends = Hashtbl.create 16;
      c_recvs = Hashtbl.create 16;
      c_inc = Hashtbl.create 8;
      c_dead = [];
      c_on_dead = (fun ~src:_ ~dst:_ -> ());
      c_stats = stats;
    }
  in
  (* The wrapper keeps its own clock fed by [advance] so retransmission
     works over transports whose [now] never moves (Tcp). *)
  let clock = ref (inner.Transport.now ()) in
  let link_send src dst =
    match Hashtbl.find_opt ctl.c_sends (src, dst) with
    | Some ls -> ls
    | None ->
      let ls =
        {
          next_seq = 0;
          window = [];
          window_len = 0;
          overflow = Queue.create ();
          given_up = false;
        }
      in
      Hashtbl.add ctl.c_sends (src, dst) ls;
      ls
  in
  let link_recv src dst =
    match Hashtbl.find_opt ctl.c_recvs (src, dst) with
    | Some r -> r
    | None ->
      let r = { delivered = 0; held = []; last_acked = 0; need_ack = false } in
      Hashtbl.add ctl.c_recvs (src, dst) r;
      r
  in
  (* Cumulative ack piggybacked on anything [me] sends to [peer]:
     everything [me] has contiguously delivered on the reverse link. *)
  let ack_for ~me ~peer =
    let r = link_recv peer me in
    r.last_acked <- r.delivered;
    r.need_ack <- false;
    r.delivered
  in
  let jittered rto =
    rto *. (1.0 +. (config.rto_jitter *. (Random.State.float rng 2.0 -. 1.0)))
  in
  (* Stamp one payload: allocate its sequence number and record it in
     the retransmission window. *)
  let stamp ~src ~dst payload =
    let ls = link_send src dst in
    ls.next_seq <- ls.next_seq + 1;
    let o =
      {
        o_seq = ls.next_seq;
        o_payload = payload;
        o_sent = !clock;
        o_next = !clock +. jittered config.rto;
        o_rto = config.rto;
        o_attempts = 1;
      }
    in
    ls.window <- ls.window @ [ o ];
    ls.window_len <- ls.window_len + 1;
    stats.Netstats.sent <- stats.Netstats.sent + 1;
    o
  in
  (* Block-sender backpressure: a full window parks the payload in the
     link's overflow queue instead of amplifying into a path that is
     not acking. Parked payloads are promoted, in order, as acks free
     slots ([promote], called from [drain]). *)
  let has_room ls = ls.window_len < config.max_window in
  let promote ~src ~dst ls =
    let moved = ref [] in
    while has_room ls && not (Queue.is_empty ls.overflow) do
      let payload = Queue.pop ls.overflow in
      let o = stamp ~src ~dst payload in
      moved :=
        ( src,
          data ctl ~src ~dst ~seq:o.o_seq ~ack:(ack_for ~me:src ~peer:dst)
            payload )
        :: !moved
    done;
    match List.rev !moved with
    | [] -> ()
    | [ (src, env) ] -> inner.Transport.send ~src ~dst env
    | envs -> inner.Transport.send_many ~dst envs
  in
  let send ~src ~dst payload =
    let ls = link_send src dst in
    if has_room ls then
      let o = stamp ~src ~dst payload in
      inner.Transport.send ~src ~dst
        (data ctl ~src ~dst ~seq:o.o_seq ~ack:(ack_for ~me:src ~peer:dst)
           payload)
    else begin
      Queue.push payload ls.overflow;
      stats.Netstats.stalled <- stats.Netstats.stalled + 1
    end
  in
  let batch_size = Netstats.batch_hist ~transport:"reliable" () in
  let send_many ~dst items =
    if items <> [] then begin
      stats.Netstats.batches <- stats.Netstats.batches + 1;
      Wdl_obs.Obs.observe batch_size (float_of_int (List.length items));
      (* Every payload keeps its own sequence number (per-link windows
         are untouched by batching), but the stamped envelopes travel
         as one coalesced inner batch — and the receiver's single
         cumulative ack covers all of them. Payloads that hit a full
         window are parked rather than stamped. *)
      let stamped =
        List.filter_map
          (fun (src, payload) ->
            let ls = link_send src dst in
            if has_room ls then
              let o = stamp ~src ~dst payload in
              Some
                ( src,
                  data ctl ~src ~dst ~seq:o.o_seq
                    ~ack:(ack_for ~me:src ~peer:dst)
                    payload )
            else begin
              Queue.push payload ls.overflow;
              stats.Netstats.stalled <- stats.Netstats.stalled + 1;
              None
            end)
          items
      in
      if stamped <> [] then inner.Transport.send_many ~dst stamped
    end
  in
  (* An envelope from an older incarnation belongs to a dead session:
     its seq and ack mean nothing in the current one, so it is dropped.
     A dropped data envelope is answered with an ack, which carries the
     current incarnation to a sender that has not caught up.  A newer
     incarnation means the other end forgot the link (with a control of
     its own, e.g. across Tcp): this end follows, dropping what it
     received and renumbering its unacked sends from 1, which the other
     end now expects. *)
  let current me env =
    let from = env.env_src in
    let inc = incarnation ctl from me in
    if env.env_inc < inc then begin
      if env.env_payload <> None then (link_recv from me).need_ack <- true;
      false
    end
    else begin
      if env.env_inc > inc then begin
        Hashtbl.replace ctl.c_inc (link from me) env.env_inc;
        Hashtbl.remove ctl.c_recvs (from, me);
        Option.iter
          (fun ls ->
            ls.window <- List.mapi (fun i o -> { o with o_seq = i + 1 }) ls.window;
            ls.next_seq <- ls.window_len)
          (Hashtbl.find_opt ctl.c_sends (me, from))
      end;
      true
    end
  in
  let drain me =
    let ready = ref [] in
    List.iter
      (fun env ->
        let from = env.env_src in
        (* Cumulative ack: prune our window towards [from]. *)
        let ls = link_send me from in
        let acked, live =
          List.partition (fun o -> o.o_seq <= env.env_ack) ls.window
        in
        if acked <> [] then begin
          ls.window <- live;
          ls.window_len <- List.length live;
          List.iter
            (fun o -> Wdl_obs.Obs.observe ack_delay (!clock -. o.o_sent))
            acked;
          stats.Netstats.acked <- stats.Netstats.acked + List.length acked;
          promote ~src:me ~dst:from ls
        end;
        match env.env_payload with
        | None -> ()
        | Some payload ->
          let r = link_recv from me in
          if env.env_seq <= r.delivered || List.mem_assoc env.env_seq r.held
          then begin
            stats.Netstats.dup_dropped <- stats.Netstats.dup_dropped + 1;
            (* The sender retransmitted, so our previous ack was
               probably lost: re-ack even though nothing new landed. *)
            r.need_ack <- true
          end
          else if env.env_seq - r.delivered > config.max_held then begin
            (* Beyond the bounded reorder buffer: drop it and let the
               sender retransmit once the gap has closed.  The re-ack
               tells the sender where the contiguous frontier is. *)
            stats.Netstats.reorder_dropped <-
              stats.Netstats.reorder_dropped + 1;
            r.need_ack <- true
          end
          else begin
            r.held <- (env.env_seq, payload) :: r.held;
            (* Flush the contiguous prefix. *)
            let continue = ref true in
            while !continue do
              let next = r.delivered + 1 in
              match List.assoc_opt next r.held with
              | Some p ->
                r.held <- List.remove_assoc next r.held;
                r.delivered <- next;
                ready := p :: !ready
              | None -> continue := false
            done;
            r.need_ack <- true
          end)
      (List.filter (current me) (inner.Transport.drain me));
    (* Ack what this drain taught us: one cumulative frame per peer
       that needs one. *)
    Hashtbl.iter
      (fun (from, to_) r ->
        if to_ = me && r.need_ack then
          inner.Transport.send ~src:me ~dst:from
            (pure_ack ctl ~src:me ~dst:from ~ack:(ack_for ~me ~peer:from)))
      ctl.c_recvs;
    let ready = List.rev !ready in
    stats.Netstats.delivered <- stats.Netstats.delivered + List.length ready;
    ready
  in
  let check_retransmits () =
    Hashtbl.iter
      (fun (src, dst) ls ->
        if (not ls.given_up) && ls.window <> [] then
          if
            List.exists
              (fun o ->
                o.o_next <= !clock && o.o_attempts >= config.max_attempts)
              ls.window
          then begin
            (* Give up on the whole link: drop the window (and anything
               parked behind it) so the system can quiesce, and surface
               the dead peer instead of blocking forever.  The metric
               fires whether or not a callback is installed — a dead
               link is never silent. *)
            stats.Netstats.send_failures <-
              stats.Netstats.send_failures + ls.window_len
              + Queue.length ls.overflow;
            ls.window <- [];
            ls.window_len <- 0;
            Queue.clear ls.overflow;
            ls.given_up <- true;
            ctl.c_dead <- (src, dst) :: ctl.c_dead;
            Wdl_obs.Obs.inc dead_links;
            ctl.c_on_dead ~src ~dst
          end
          else begin
            let due = List.filter (fun o -> o.o_next <= !clock) ls.window in
            if due <> [] then begin
              List.iter
                (fun o ->
                  o.o_attempts <- o.o_attempts + 1;
                  o.o_rto <-
                    Float.min config.max_rto (o.o_rto *. config.backoff);
                  o.o_next <- !clock +. jittered o.o_rto;
                  stats.Netstats.retransmits <- stats.Netstats.retransmits + 1)
                due;
              (* One coalesced re-send per link instead of one wire
                 unit per overdue message: retransmission amplification
                 drops to a single batch the receiver acks once. *)
              let ack = ack_for ~me:src ~peer:dst in
              match due with
              | [ o ] ->
                inner.Transport.send ~src ~dst
                  (data ctl ~src ~dst ~seq:o.o_seq ~ack o.o_payload)
              | _ ->
                inner.Transport.send_many ~dst
                  (List.map
                     (fun o ->
                       (src, data ctl ~src ~dst ~seq:o.o_seq ~ack o.o_payload))
                     due)
            end
          end)
      ctl.c_sends
  in
  let advance dt =
    inner.Transport.advance dt;
    clock := !clock +. dt;
    check_retransmits ()
  in
  (* Parked overflow counts as pending: those payloads were accepted
     for delivery, they just have not been stamped yet — quiescence
     must wait for them. *)
  let pending () = inner.Transport.pending () + unacked ctl + queued ctl in
  Netstats.register_pending ~transport:"reliable" pending;
  ( {
      Transport.send;
      send_many;
      drain;
      pending;
      advance;
      now = (fun () -> !clock);
      stats = (fun () -> stats);
    },
    ctl )
