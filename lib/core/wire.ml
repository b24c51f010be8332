open Wdl_syntax

let wire_peer = "wire"

let add_fact buf f =
  Fact.add_to_buffer buf f;
  Buffer.add_string buf ";\n"

let add_marker buf rel args = add_fact buf (Fact.make ~rel ~peer:wire_peer args)

let add_message buf (m : Message.t) =
  let fo = m.Message.fact_origins and io = m.Message.install_origins in
  let nf = match m.Message.facts with None -> -1 | Some fs -> List.length fs in
  add_marker buf "header"
    (Value.String m.Message.src :: Value.String m.Message.dst
    :: List.map
         (fun n -> Value.Int n)
         [
           m.Message.stage; nf; List.length m.Message.installs;
           List.length m.Message.retracts; List.length fo; List.length io;
         ]);
  if fo <> [] || io <> [] then
    add_marker buf "origins" (List.map (fun s -> Value.String s) (fo @ io));
  Option.iter (List.iter (add_fact buf)) m.Message.facts;
  List.iter
    (fun r ->
      Buffer.add_string buf (Pp_util.one_line Rule.pp r);
      Buffer.add_string buf ";\n")
    (m.Message.installs @ m.Message.retracts)

let batch msgs =
  let buf = Buffer.create 1024 in
  add_marker buf "batch" [ Value.Int (List.length msgs) ];
  List.iter (add_message buf) msgs;
  Buffer.contents buf

let ( let* ) = Result.bind

(* The arguments of a leading [rel@wire(...)] statement, and the rest. *)
let marker rel = function
  | Program.Fact f :: rest when f.Fact.rel = rel && f.Fact.peer = wire_peer ->
    Some (f.Fact.args, rest)
  | _ -> None

(* [n] statements that [get] accepts, off the front of [statements]. *)
let take what get n statements =
  let rec go acc n statements =
    if n = 0 then Ok (List.rev acc, statements)
    else
      match statements with
      | s :: rest -> (
        match get s with
        | Some x -> go (x :: acc) (n - 1) rest
        | None -> Error ("expected " ^ what))
      | [] -> Error ("expected " ^ what)
  in
  go [] n statements

let fact = function Program.Fact f -> Some f | _ -> None
let rule = function Program.Rule r -> Some r | _ -> None
let name = function Value.String s -> Some s | _ -> None

(* One message section off the front of a parsed frame. *)
let message statements =
  match marker "header" statements with
  | Some
      ( [ Value.String src; Value.String dst; Value.Int stage; Value.Int nf;
          Value.Int ni; Value.Int nr; Value.Int nfo; Value.Int nio ],
        rest ) ->
    let* ids, rest =
      if nfo = 0 && nio = 0 then Ok ([], rest)
      else
        match marker "origins" rest with
        | None -> Error "missing origins fact"
        | Some (args, rest) ->
          let* ids, _ = take "an origin id" name (List.length args) args in
          if List.length ids <> nfo + nio then Error "origins count mismatch"
          else Ok (ids, rest)
    in
    let* facts, rest =
      if nf < 0 then Ok (None, rest)
      else
        let* fs, rest = take "a fact" fact nf rest in
        Ok (Some fs, rest)
    in
    let* installs, rest = take "a rule" rule ni rest in
    let* retracts, rest = take "a rule" rule nr rest in
    Ok
      ( Message.make ~src ~dst ~stage ~facts ~installs ~retracts
          ~fact_origins:(List.filteri (fun i _ -> i < nfo) ids)
          ~install_origins:(List.filteri (fun i _ -> i >= nfo) ids)
          (),
        rest )
  | Some _ -> Error "malformed wire header"
  | None -> Error "missing wire header"

let unbatch text =
  let* program = Parser.program text in
  match marker "batch" program with
  | Some ([ Value.Int n ], rest) ->
    let rec go acc n rest =
      if n = 0 then
        if rest = [] then Ok (List.rev acc)
        else Error "trailing statements in batch"
      else
        let* m, rest = message rest in
        go (m :: acc) (n - 1) rest
    in
    go [] n rest
  | Some _ -> Error "malformed batch header"
  | None -> Error "missing batch header"

let encode_envelope (e : Message.t Wdl_net.Reliable.envelope) =
  let open Wdl_net.Reliable in
  let buf = Buffer.create 512 in
  add_marker buf "envelope"
    [
      Value.String e.env_src; Value.Int e.env_inc; Value.Int e.env_seq;
      Value.Int e.env_ack; Value.Bool (Option.is_some e.env_payload);
    ];
  Option.iter (add_message buf) e.env_payload;
  Buffer.contents buf

let decode_envelope text =
  let* program = Parser.program text in
  match marker "envelope" program with
  | Some
      ( [ Value.String src; Value.Int inc; Value.Int seq; Value.Int ack;
          Value.Bool has ],
        rest ) ->
    let* payload, rest =
      if has then
        let* m, rest = message rest in
        Ok (Some m, rest)
      else Ok (None, rest)
    in
    if rest <> [] then Error "trailing statements in envelope"
    else
      Ok
        {
          Wdl_net.Reliable.env_src = src;
          env_inc = inc;
          env_seq = seq;
          env_ack = ack;
          env_payload = payload;
        }
  | Some _ -> Error "malformed envelope header"
  | None -> Error "missing envelope header"

(* A malformed frame from the outside world must not kill the peer: it
   is dropped, and counted so the loss is visible. *)
let decoded_frames ~transport decode (bytes : string Wdl_net.Transport.t) =
  let dropped =
    Wdl_obs.Obs.counter ~labels:[ ("transport", transport) ]
      ~help:"Received frames dropped because they did not decode"
      "wdl_net_undecodable_frames_total"
  in
  fun name ->
    List.concat_map
      (fun frame ->
        match decode frame with
        | Ok items -> items
        | Error _ ->
          Wdl_obs.Obs.inc dropped;
          [])
      (bytes.Wdl_net.Transport.drain name)

let transport (bytes : string Wdl_net.Transport.t) =
  let batch_size = Wdl_net.Netstats.batch_hist ~transport:"wire" () in
  let send_many ~dst items =
    (* The whole round's worth for one destination becomes ONE frame;
       the byte transport sees a single send so connection reuse and
       one-write delivery apply.  The coalescing happens here, so the
       batch is counted here — into the byte transport's live stats
       record. *)
    match items with
    | [] -> ()
    | (src0, _) :: _ ->
      let s = bytes.Wdl_net.Transport.stats () in
      s.Wdl_net.Netstats.batches <- s.Wdl_net.Netstats.batches + 1;
      Wdl_obs.Obs.observe batch_size (float_of_int (List.length items));
      bytes.Wdl_net.Transport.send ~src:src0 ~dst (batch (List.map snd items))
  in
  {
    bytes with
    Wdl_net.Transport.send =
      (fun ~src ~dst msg ->
        bytes.Wdl_net.Transport.send ~src ~dst (batch [ msg ]));
    send_many;
    drain = decoded_frames ~transport:"wire" unbatch bytes;
  }

let envelope_transport (bytes : string Wdl_net.Transport.t) =
  {
    bytes with
    Wdl_net.Transport.send =
      (fun ~src ~dst env ->
        bytes.Wdl_net.Transport.send ~src ~dst (encode_envelope env));
    send_many =
      (fun ~dst items ->
        (* Each envelope keeps its own frame (it owns a sequence
           number), but the run of frames is handed down as one batch —
           over {!Wdl_net.Tcp} that is one write on one connection. *)
        bytes.Wdl_net.Transport.send_many ~dst
          (List.map (fun (src, e) -> (src, encode_envelope e)) items));
    drain =
      decoded_frames ~transport:"envelope"
        (fun frame -> Result.map (fun e -> [ e ]) (decode_envelope frame))
        bytes;
  }
