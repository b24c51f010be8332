open Wdl_syntax

let header_rel = "header"
let header_peer = "wire"

let one_line = Pp_util.one_line

let origins_rel = "origins"

let encode (m : Message.t) =
  let buf = Buffer.create 512 in
  let facts, nf =
    match m.Message.facts with None -> ([], -1) | Some fs -> (fs, List.length fs)
  in
  let fo = m.Message.fact_origins and io = m.Message.install_origins in
  (* A message without origin metadata encodes as the historical 6-arg
     header, byte for byte, so old receivers (and size-pinned tests)
     see unchanged frames. Origins extend the header with two counts
     and one extra [origins@wire] fact carrying the ids. *)
  let header_args =
    [
      Value.String m.Message.src;
      Value.String m.Message.dst;
      Value.Int m.Message.stage;
      Value.Int nf;
      Value.Int (List.length m.Message.installs);
      Value.Int (List.length m.Message.retracts);
    ]
    @
    if fo = [] && io = [] then []
    else [ Value.Int (List.length fo); Value.Int (List.length io) ]
  in
  Buffer.add_string buf
    (one_line Fact.pp (Fact.make ~rel:header_rel ~peer:header_peer header_args));
  Buffer.add_string buf ";\n";
  if fo <> [] || io <> [] then begin
    Buffer.add_string buf
      (one_line Fact.pp
         (Fact.make ~rel:origins_rel ~peer:header_peer
            (List.map (fun s -> Value.String s) (fo @ io))));
    Buffer.add_string buf ";\n"
  end;
  List.iter
    (fun f ->
      Buffer.add_string buf (one_line Fact.pp f);
      Buffer.add_string buf ";\n")
    facts;
  List.iter
    (fun r ->
      Buffer.add_string buf (one_line Rule.pp r);
      Buffer.add_string buf ";\n")
    (m.Message.installs @ m.Message.retracts);
  Buffer.contents buf

let take_facts n statements =
  let rec go acc n = function
    | rest when n = 0 -> Ok (List.rev acc, rest)
    | Program.Fact f :: rest -> go (f :: acc) (n - 1) rest
    | _ -> Error "expected a fact"
  in
  go [] n statements

let take_rules n statements =
  let rec go acc n = function
    | rest when n = 0 -> Ok (List.rev acc, rest)
    | Program.Rule r :: rest -> go (r :: acc) (n - 1) rest
    | _ -> Error "expected a rule"
  in
  go [] n statements

let ( let* ) = Result.bind

(* Consume one message (header + its counted statements) off the front
   of a parsed statement list — the building block shared by {!decode}
   (exactly one message) and {!unbatch} (a counted run of them). *)
let decode_one statements =
  match statements with
  | Program.Fact header :: rest
    when header.Fact.rel = header_rel && header.Fact.peer = header_peer -> (
    let decode_body ~src ~dst ~stage ~nf ~ni ~nr ~nfo ~nio rest =
      let* fact_origins, install_origins, rest =
        if nfo = 0 && nio = 0 then Ok ([], [], rest)
        else
          match rest with
          | Program.Fact o :: rest
            when o.Fact.rel = origins_rel && o.Fact.peer = header_peer ->
            let* ids =
              List.fold_right
                (fun v acc ->
                  let* acc = acc in
                  match v with
                  | Value.String s -> Ok (s :: acc)
                  | _ -> Error "malformed origins fact")
                o.Fact.args (Ok [])
            in
            if List.length ids <> nfo + nio then
              Error "origins count mismatch"
            else
              let rec split n xs =
                if n = 0 then ([], xs)
                else
                  match xs with
                  | x :: rest ->
                    let a, b = split (n - 1) rest in
                    (x :: a, b)
                  | [] -> ([], [])
              in
              let fo, io = split nfo ids in
              Ok (fo, io, rest)
          | _ -> Error "missing origins fact"
      in
      let* facts, rest =
        if nf < 0 then Ok ([], rest)
        else take_facts nf rest
      in
      let* installs, rest = take_rules ni rest in
      let* retracts, rest = take_rules nr rest in
      Ok
        ( Message.make ~src ~dst ~stage
            ~facts:(if nf < 0 then None else Some facts)
            ~installs ~retracts ~fact_origins ~install_origins (),
          rest )
    in
    match header.Fact.args with
    | [ Value.String src; Value.String dst; Value.Int stage; Value.Int nf;
        Value.Int ni; Value.Int nr ] ->
      decode_body ~src ~dst ~stage ~nf ~ni ~nr ~nfo:0 ~nio:0 rest
    | [ Value.String src; Value.String dst; Value.Int stage; Value.Int nf;
        Value.Int ni; Value.Int nr; Value.Int nfo; Value.Int nio ] ->
      decode_body ~src ~dst ~stage ~nf ~ni ~nr ~nfo ~nio rest
    | _ -> Error "malformed wire header")
  | _ -> Error "missing wire header"

let decode text =
  let* program = Parser.program text in
  let* m, rest = decode_one program in
  if rest <> [] then Error "trailing statements in frame" else Ok m

let batch_rel = "batch"
let batch_version = 1

let batch msgs =
  match msgs with
  | [ m ] ->
    (* A singleton rides as a plain single-message frame, so a new
       sender stays readable by an old receiver. *)
    encode m
  | _ ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (one_line Fact.pp
         (Fact.make ~rel:batch_rel ~peer:header_peer
            [ Value.Int batch_version; Value.Int (List.length msgs) ]));
    Buffer.add_string buf ";\n";
    List.iter (fun m -> Buffer.add_string buf (encode m)) msgs;
    Buffer.contents buf

let unbatch text =
  let* program = Parser.program text in
  match program with
  | Program.Fact b :: rest
    when b.Fact.rel = batch_rel && b.Fact.peer = header_peer -> (
    match b.Fact.args with
    | [ Value.Int version; Value.Int n ] ->
      if version <> batch_version then
        Error (Printf.sprintf "unsupported batch version %d" version)
      else
        let rec go acc n rest =
          if n = 0 then
            if rest = [] then Ok (List.rev acc)
            else Error "trailing statements in batch"
          else
            let* m, rest = decode_one rest in
            go (m :: acc) (n - 1) rest
        in
        go [] n rest
    | _ -> Error "malformed batch header")
  | _ ->
    (* Old format: a bare single-message frame. *)
    let* m, rest = decode_one program in
    if rest <> [] then Error "trailing statements in frame" else Ok [ m ]

let envelope_rel = "envelope"

let encode_envelope (e : Message.t Wdl_net.Reliable.envelope) =
  let open Wdl_net.Reliable in
  (* The incarnation rides only once a link has been forgotten, so a
     first session keeps the four-field header older decoders expect. *)
  let inc = if e.env_inc = 0 then [] else [ Value.Int e.env_inc ] in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (one_line Fact.pp
       (Fact.make ~rel:envelope_rel ~peer:header_peer
          ((Value.String e.env_src :: inc)
          @ [
              Value.Int e.env_seq;
              Value.Int e.env_ack;
              Value.Bool (Option.is_some e.env_payload);
            ])));
  Buffer.add_string buf ";\n";
  (match e.env_payload with
  | Some m -> Buffer.add_string buf (encode m)
  | None -> ());
  Buffer.contents buf

let decode_envelope text =
  match String.index_opt text '\n' with
  | None -> Error "missing envelope header"
  | Some i -> (
    let first = String.sub text 0 i in
    let rest = String.sub text (i + 1) (String.length text - i - 1) in
    let* header = Parser.program first in
    match header with
    | [ Program.Fact f ]
      when f.Fact.rel = envelope_rel && f.Fact.peer = header_peer -> (
      let header =
        match f.Fact.args with
        | [ Value.String src; Value.Int seq; Value.Int ack; Value.Bool has ] ->
          Some (src, 0, seq, ack, has)
        | [ Value.String src; Value.Int inc; Value.Int seq; Value.Int ack;
            Value.Bool has ] ->
          Some (src, inc, seq, ack, has)
        | _ -> None
      in
      match header with
      | Some (src, inc, seq, ack, has) ->
        let* payload =
          if has then Result.map Option.some (decode rest)
          else if String.trim rest = "" then Ok None
          else Error "trailing statements after a pure ack"
        in
        Ok
          {
            Wdl_net.Reliable.env_src = src;
            env_inc = inc;
            env_seq = seq;
            env_ack = ack;
            env_payload = payload;
          }
      | None -> Error "malformed envelope header")
    | _ -> Error "missing envelope header")

let transport (bytes : string Wdl_net.Transport.t) =
  let batch_size = Wdl_net.Netstats.batch_hist ~transport:"wire" () in
  {
    Wdl_net.Transport.send =
      (fun ~src ~dst msg -> bytes.Wdl_net.Transport.send ~src ~dst (encode msg));
    send_many =
      (fun ~dst items ->
        (* The whole round's worth for one destination becomes ONE
           frame (a batch envelope); the byte transport sees a single
           send so connection reuse and one-write delivery apply.  The
           coalescing happens here, so the batch is counted here — into
           the byte transport's live stats record. *)
        match items with
        | [] -> ()
        | (src0, _) :: _ ->
          let s = bytes.Wdl_net.Transport.stats () in
          s.Wdl_net.Netstats.batches <- s.Wdl_net.Netstats.batches + 1;
          Wdl_obs.Obs.observe batch_size (float_of_int (List.length items));
          bytes.Wdl_net.Transport.send ~src:src0 ~dst
            (batch (List.map snd items)));
    drain =
      (fun name ->
        (* unbatch accepts both batch frames and old single-message
           frames, so mixed-version traffic drains uniformly. *)
        List.concat_map
          (fun frame ->
            match unbatch frame with Ok ms -> ms | Error _ -> [])
          (bytes.Wdl_net.Transport.drain name));
    pending = bytes.Wdl_net.Transport.pending;
    advance = bytes.Wdl_net.Transport.advance;
    now = bytes.Wdl_net.Transport.now;
    stats = bytes.Wdl_net.Transport.stats;
  }

let envelope_transport (bytes : string Wdl_net.Transport.t) =
  {
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
      (fun name ->
        List.filter_map
          (fun frame ->
            match decode_envelope frame with Ok e -> Some e | Error _ -> None)
          (bytes.Wdl_net.Transport.drain name));
    pending = bytes.Wdl_net.Transport.pending;
    advance = bytes.Wdl_net.Transport.advance;
    now = bytes.Wdl_net.Transport.now;
    stats = bytes.Wdl_net.Transport.stats;
  }
