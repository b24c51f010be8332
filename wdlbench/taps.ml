(* Timing and counting shims composed around the engine's transports.

   [bytes] wraps a byte transport (the two TCP endpoints, or an
   in-memory one for the replay); [messages] wraps the message
   transport the engine's [System] sees. Their difference in time is
   the codec ([Webdamlog.Wire]) plus the in-memory bookkeeping of the
   message layer. *)

module T = Wdl_net.Transport

type bytes_tap = {
  sent : (string, int) Hashtbl.t;  (** frames handed down, per destination *)
  got : (string, int) Hashtbl.t;  (** frames drained, per destination *)
  mutable frames : int;
  mutable bytes : int;
  mutable late : int;  (** frames that missed the delivery deadline *)
}

(* How long a drain waits for a frame already written to a loopback
   socket before counting it as lost. *)
let deadline = 2.0

let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
let bump tbl k n = Hashtbl.replace tbl k (count tbl k + n)

(* A drain returns only after every frame sent to that peer so far has
   arrived, so delivery happens in the same round as over
   [Wdl_net.Inmem] and a TCP run repeats an in-memory run message for
   message. The time spent waiting is the [net.wait] span. *)
let bytes (inner : string T.t) =
  let tap =
    { sent = Hashtbl.create 32; got = Hashtbl.create 32; frames = 0;
      bytes = 0; late = 0 }
  in
  let stats = Wdl_net.Netstats.create () in
  let note dst payload =
    tap.frames <- tap.frames + 1;
    tap.bytes <- tap.bytes + String.length payload;
    stats.sent <- stats.sent + 1;
    stats.bytes <- stats.bytes + String.length payload;
    bump tap.sent dst 1
  in
  let send ~src ~dst payload =
    note dst payload;
    Spans.with_span "net.send" (fun () -> inner.T.send ~src ~dst payload)
  in
  let send_many ~dst items =
    List.iter (fun (_, p) -> note dst p) items;
    Spans.with_span "net.send" (fun () -> inner.T.send_many ~dst items)
  in
  let drain name =
    let owed = count tap.sent name - count tap.got name in
    let first = Spans.with_span "net.drain" (fun () -> inner.T.drain name) in
    let arrived = ref (List.length first) and batches = ref [ first ] in
    if !arrived < owed then
      Spans.with_span "net.wait" (fun () ->
          let t0 = Unix.gettimeofday () in
          while !arrived < owed && Unix.gettimeofday () -. t0 < deadline do
            let more = inner.T.drain name in
            arrived := !arrived + List.length more;
            batches := more :: !batches
          done);
    if !arrived < owed then begin
      tap.late <- tap.late + (owed - !arrived);
      Hashtbl.replace tap.got name (count tap.sent name)
    end
    else bump tap.got name !arrived;
    stats.delivered <- stats.delivered + !arrived;
    List.concat (List.rev !batches)
  in
  let pending () =
    Hashtbl.fold (fun k n acc -> acc + max 0 (n - count tap.got k)) tap.sent 0
  in
  ( tap,
    {
      T.send;
      send_many;
      drain;
      pending;
      advance = inner.T.advance;
      now = inner.T.now;
      stats = (fun () -> stats);
    } )

type messages_tap = { mutable msgs : int }

let messages (inner : Webdamlog.Message.t T.t) =
  let tap = { msgs = 0 } in
  let send ~src ~dst m =
    tap.msgs <- tap.msgs + 1;
    Spans.with_span "wire.send" (fun () -> inner.T.send ~src ~dst m)
  in
  let send_many ~dst items =
    tap.msgs <- tap.msgs + List.length items;
    Spans.with_span "wire.send" (fun () -> inner.T.send_many ~dst items)
  in
  let drain name = Spans.with_span "wire.drain" (fun () -> inner.T.drain name) in
  let pending () =
    Spans.close_round ();
    inner.T.pending ()
  in
  (tap, { inner with T.send; send_many; drain; pending })

(* Two TCP endpoints presented as one byte transport: a frame leaves
   from the endpoint hosting its source and is drained at the endpoint
   hosting its destination. [pending] and [stats] are answered by the
   [bytes] tap above it, which never asks the route. *)
let route ~on_a (a : string T.t) (b : string T.t) =
  let ep name = if on_a name then a else b in
  {
    T.send = (fun ~src ~dst p -> (ep src).T.send ~src ~dst p);
    send_many =
      (fun ~dst items ->
        match items with
        | [] -> ()
        | (src, _) :: _ -> (ep src).T.send_many ~dst items);
    drain = (fun name -> (ep name).T.drain name);
    pending = (fun () -> a.T.pending () + b.T.pending ());
    advance = (fun _ -> ());
    now = (fun () -> 0.);
    stats = a.T.stats;
  }
