open Wdl_syntax

let version = '\001'
let batch_kind = '\000'
let envelope_kind = '\001'

(* {1 Encoding}

   The body is written first, interning every string it names; the
   frame is then the fixed prefix, the string table and the body. *)

module Ids = Hashtbl.Make (String)

type encoder = {
  body : Buffer.t;
  ids : int Ids.t;
  mutable strings : string list;  (** the table, newest first *)
}

let rec add_varint buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_varint buf (n lsr 7)
  end

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor -(z land 1)

let add_count e n = add_varint e.body n
let add_int e n = add_varint e.body (zigzag n)

let add_string e s =
  add_varint e.body
    (match Ids.find_opt e.ids s with
    | Some id -> id
    | None ->
      let id = Ids.length e.ids in
      Ids.add e.ids s id;
      e.strings <- s :: e.strings;
      id)

(* A value is a tag byte, then its payload: 0 int, 1 float (8 IEEE
   bytes), 2 string, 3 false, 4 true. *)
let add_value e = function
  | Value.Int n ->
    Buffer.add_char e.body '\000';
    add_int e n
  | Value.Float x ->
    Buffer.add_char e.body '\001';
    Buffer.add_int64_le e.body (Int64.bits_of_float x)
  | Value.String s ->
    Buffer.add_char e.body '\002';
    add_string e s
  | Value.Bool b -> Buffer.add_char e.body (if b then '\004' else '\003')

let add_fact e (f : Fact.t) =
  add_string e f.Fact.rel;
  add_string e f.Fact.peer;
  add_count e (List.length f.Fact.args);
  List.iter (add_value e) f.Fact.args

(* Rules travel as trees. A term or expression leaf is a value or a
   variable (tag 5, then its name); an arithmetic node is a tag (6 add,
   7 sub, 8 mul, 9 div) and its two operands. *)
let add_var e x =
  Buffer.add_char e.body '\005';
  add_string e x

let add_term e = function Term.Const v -> add_value e v | Term.Var x -> add_var e x

let rec add_expr e = function
  | Expr.Const v -> add_value e v
  | Expr.Var x -> add_var e x
  | Expr.Add (a, b) -> add_node e '\006' a b
  | Expr.Sub (a, b) -> add_node e '\007' a b
  | Expr.Mul (a, b) -> add_node e '\008' a b
  | Expr.Div (a, b) -> add_node e '\009' a b

and add_node e tag a b =
  Buffer.add_char e.body tag;
  add_expr e a;
  add_expr e b

let add_atom e (a : Atom.t) =
  add_term e a.Atom.rel;
  add_term e a.Atom.peer;
  add_count e (List.length a.Atom.args);
  List.iter (add_term e) a.Atom.args

let cmpops = Literal.[| Eq; Neq; Lt; Le; Gt; Ge |]

(* A literal is a tag (0 positive atom, 1 negated atom, 2 comparison,
   3 assignment) and its parts; a comparison's operator is its index
   in [cmpops]. *)
let add_literal e = function
  | Literal.Pos a ->
    Buffer.add_char e.body '\000';
    add_atom e a
  | Literal.Neg a ->
    Buffer.add_char e.body '\001';
    add_atom e a
  | Literal.Cmp (op, a, b) ->
    Buffer.add_char e.body '\002';
    add_count e
      (Option.get (Array.find_index (fun o -> o = op) cmpops));
    add_expr e a;
    add_expr e b
  | Literal.Assign (x, ex) ->
    Buffer.add_char e.body '\003';
    add_string e x;
    add_expr e ex

(* Head, body, then each aggregate as its position, operator name and
   variable. *)
let add_rule e (r : Rule.t) =
  add_atom e r.Rule.head;
  add_count e (List.length r.Rule.body);
  List.iter (add_literal e) r.Rule.body;
  add_count e (List.length r.Rule.aggs);
  List.iter
    (fun (i, (spec : Aggregate.spec)) ->
      add_count e i;
      add_string e (Aggregate.op_name spec.Aggregate.op);
      add_string e spec.Aggregate.var)
    r.Rule.aggs

(* [facts] is counted as 0 for [None] and k + 1 for k facts. *)
let add_message e (m : Message.t) =
  let fo = m.Message.fact_origins and io = m.Message.install_origins in
  add_string e m.Message.src;
  add_string e m.Message.dst;
  add_int e m.Message.stage;
  add_count e
    (match m.Message.facts with None -> 0 | Some fs -> List.length fs + 1);
  List.iter (add_count e)
    [ List.length m.Message.installs; List.length m.Message.retracts;
      List.length fo; List.length io ];
  List.iter (add_string e) fo;
  List.iter (add_string e) io;
  Option.iter (List.iter (add_fact e)) m.Message.facts;
  List.iter (add_rule e) m.Message.installs;
  List.iter (add_rule e) m.Message.retracts

let frame kind write =
  let e = { body = Buffer.create 512; ids = Ids.create 16; strings = [] } in
  write e;
  let out =
    Buffer.create
      (List.fold_left
         (fun n s -> n + 2 + String.length s)
         (8 + Buffer.length e.body) e.strings)
  in
  Buffer.add_char out version;
  Buffer.add_char out kind;
  add_varint out (Ids.length e.ids);
  List.iter
    (fun s ->
      add_varint out (String.length s);
      Buffer.add_string out s)
    (List.rev e.strings);
  Buffer.add_buffer out e.body;
  Buffer.contents out

let batch msgs =
  frame batch_kind (fun e ->
      add_count e (List.length msgs);
      List.iter (add_message e) msgs)

let encode_envelope (env : Message.t Wdl_net.Reliable.envelope) =
  let open Wdl_net.Reliable in
  frame envelope_kind (fun e ->
      add_string e env.env_src;
      add_int e env.env_inc;
      add_int e env.env_seq;
      add_int e env.env_ack;
      match env.env_payload with
      | None -> add_count e 0
      | Some m ->
        add_count e 1;
        add_message e m)

(* {1 Decoding}

   Every count and length is checked against the bytes that remain
   before anything is allocated for it. Every item takes at least one
   byte, so a corrupt frame cannot make the decoder allocate more than
   a constant times its own length. [Malformed] never leaves [decode]. *)

exception Malformed of string

type decoder = { frame : string; mutable pos : int; mutable table : string array }

let fail msg = raise_notrace (Malformed msg)
let remaining d = String.length d.frame - d.pos

let byte d =
  if d.pos >= String.length d.frame then fail "truncated frame";
  let c = String.unsafe_get d.frame d.pos in
  d.pos <- d.pos + 1;
  Char.code c

(* At most nine bytes: 63 bits, one OCaml int. *)
let varint d =
  let rec go acc shift =
    if shift > 56 then fail "varint too long";
    let b = byte d in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else go acc (shift + 7)
  in
  go 0 0

let count d =
  let n = varint d in
  if n < 0 || n > remaining d then fail "count exceeds the frame";
  n

let int d = unzigzag (varint d)

let string d =
  let id = varint d in
  if id < 0 || id >= Array.length d.table then fail "string id out of range";
  Array.unsafe_get d.table id

let name d =
  match string d with "" -> fail "empty relation or peer name" | s -> s

let items d read = List.init (count d) (fun _ -> read d)

(* The payload of a value whose tag byte has been read. *)
let value_of d = function
  | 0 -> Value.Int (int d)
  | 1 ->
    if remaining d < 8 then fail "truncated float";
    let x = Int64.float_of_bits (String.get_int64_le d.frame d.pos) in
    d.pos <- d.pos + 8;
    if Float.is_nan x then fail "NaN value";
    Value.Float x
  | 2 -> Value.String (string d)
  | 3 -> Value.Bool false
  | 4 -> Value.Bool true
  | _ -> fail "unknown value tag"

let value d = value_of d (byte d)

let fact d =
  let rel = name d in
  let peer = name d in
  Fact.make ~rel ~peer (items d value)

let term d =
  match byte d with 5 -> Term.Var (string d) | tag -> Term.Const (value_of d tag)

(* Each level takes a byte, so the frame's length bounds the nesting;
   the cap keeps a long run of node tags from exhausting the stack. *)
let max_depth = 100_000

let rec expr d depth =
  if depth > max_depth then fail "expression nests too deeply";
  let operands () =
    let a = expr d (depth + 1) in
    (a, expr d (depth + 1))
  in
  match byte d with
  | 5 -> Expr.Var (string d)
  | 6 -> let a, b = operands () in Expr.Add (a, b)
  | 7 -> let a, b = operands () in Expr.Sub (a, b)
  | 8 -> let a, b = operands () in Expr.Mul (a, b)
  | 9 -> let a, b = operands () in Expr.Div (a, b)
  | tag -> Expr.Const (value_of d tag)

let atom d =
  let rel = term d in
  let peer = term d in
  Atom.make ~rel ~peer (items d term)

let literal d =
  match byte d with
  | 0 -> Literal.Pos (atom d)
  | 1 -> Literal.Neg (atom d)
  | 2 ->
    let op = varint d in
    if op < 0 || op >= Array.length cmpops then fail "unknown comparison";
    let a = expr d 0 in
    Literal.Cmp (cmpops.(op), a, expr d 0)
  | 3 ->
    let x = string d in
    Literal.Assign (x, expr d 0)
  | _ -> fail "unknown literal tag"

let aggregate d =
  let i = varint d in
  match Aggregate.op_of_name (string d) with
  | Some op -> (i, { Aggregate.op; var = string d })
  | None -> fail "unknown aggregate"

let rule d =
  let head = atom d in
  let body = items d literal in
  match Rule.make_agg ~aggs:(items d aggregate) ~head ~body with
  | r -> r
  | exception Invalid_argument msg -> fail msg

let message d =
  let src = string d in
  let dst = string d in
  let stage = int d in
  let nf = count d in
  let ni = count d in
  let nr = count d in
  let nfo = count d in
  let nio = count d in
  let fact_origins = List.init nfo (fun _ -> string d) in
  let install_origins = List.init nio (fun _ -> string d) in
  let facts =
    if nf = 0 then None else Some (List.init (nf - 1) (fun _ -> fact d))
  in
  let installs = List.init ni (fun _ -> rule d) in
  let retracts = List.init nr (fun _ -> rule d) in
  Message.make ~src ~dst ~stage ~facts ~installs ~retracts ~fact_origins
    ~install_origins ()

let decode kind read frame =
  let d = { frame; pos = 0; table = [||] } in
  match
    if byte d <> Char.code version then fail "unknown frame version";
    if byte d <> Char.code kind then fail "wrong frame kind";
    d.table <-
      Array.init (count d) (fun _ ->
          let len = count d in
          let s = String.sub frame d.pos len in
          d.pos <- d.pos + len;
          s);
    let x = read d in
    if remaining d > 0 then fail "trailing bytes";
    x
  with
  | x -> Ok x
  | exception Malformed msg -> Error msg

let unbatch = decode batch_kind (fun d -> items d message)

let decode_envelope =
  decode envelope_kind (fun d ->
      let env_src = string d in
      let env_inc = int d in
      let env_seq = int d in
      let env_ack = int d in
      let env_payload =
        match byte d with
        | 0 -> None
        | 1 -> Some (message d)
        | _ -> fail "malformed payload flag"
      in
      { Wdl_net.Reliable.env_src; env_inc; env_seq; env_ack; env_payload })

(* {1 Transports} *)

let codec_histogram ~transport op =
  Wdl_obs.Obs.histogram ~labels:[ ("transport", transport) ]
    ~help:(Printf.sprintf "Time to %s one wire frame" op)
    (Printf.sprintf "wdl_wire_%s_microseconds" op)

(* A malformed frame from the outside world must not kill the peer: it
   is dropped, and counted so the loss is visible. *)
let decoded_frames ~transport decode (bytes : string Wdl_net.Transport.t) =
  let dropped =
    Wdl_obs.Obs.counter ~labels:[ ("transport", transport) ]
      ~help:"Received frames dropped because they did not decode"
      "wdl_net_undecodable_frames_total"
  in
  let decode_time = codec_histogram ~transport "decode" in
  fun name ->
    List.concat_map
      (fun frame ->
        match Wdl_obs.Obs.time decode_time (fun () -> decode frame) with
        | Ok items -> items
        | Error _ ->
          Wdl_obs.Obs.inc dropped;
          [])
      (bytes.Wdl_net.Transport.drain name)

let transport (bytes : string Wdl_net.Transport.t) =
  let batch_size = Wdl_net.Netstats.batch_hist ~transport:"wire" () in
  let encode_time = codec_histogram ~transport:"wire" "encode" in
  let batch msgs = Wdl_obs.Obs.time encode_time (fun () -> batch msgs) in
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
  let encode_time = codec_histogram ~transport:"envelope" "encode" in
  let encode e = Wdl_obs.Obs.time encode_time (fun () -> encode_envelope e) in
  {
    bytes with
    Wdl_net.Transport.send =
      (fun ~src ~dst env -> bytes.Wdl_net.Transport.send ~src ~dst (encode env));
    send_many =
      (fun ~dst items ->
        (* Each envelope keeps its own frame (it owns a sequence
           number), but the run of frames is handed down as one batch —
           over {!Wdl_net.Tcp} that is one write on one connection. *)
        bytes.Wdl_net.Transport.send_many ~dst
          (List.map (fun (src, e) -> (src, encode e)) items));
    drain =
      decoded_frames ~transport:"envelope"
        (fun frame -> Result.map (fun e -> [ e ]) (decode_envelope frame))
        bytes;
  }
