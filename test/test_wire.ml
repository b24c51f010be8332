(* Wire codec and TCP transport: real distribution substrate. *)
open Wdl_syntax
open Webdamlog
open Check

(* Floats compare by their bits, so [-0.] must come back as [-0.]. *)
let value_identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let fact_identical (a : Fact.t) (b : Fact.t) =
  a.Fact.rel = b.Fact.rel && a.Fact.peer = b.Fact.peer
  && List.equal value_identical a.Fact.args b.Fact.args

let msg_equal (a : Message.t) (b : Message.t) =
  a.Message.src = b.Message.src
  && a.Message.dst = b.Message.dst
  && a.Message.stage = b.Message.stage
  && Option.equal (List.equal fact_identical) a.Message.facts b.Message.facts
  && List.equal Rule.equal a.Message.installs b.Message.installs
  && List.equal Rule.equal a.Message.retracts b.Message.retracts
  && a.Message.fact_origins = b.Message.fact_origins
  && a.Message.install_origins = b.Message.install_origins

let sample_rule =
  Parser.parse_rule
    {|attendeePictures@Jules($id, $n, $o, $d) :-
        pictures@Émilien($id, $n, $o, $d), rate@$o($id, 5)|}

let sample_fact =
  Fact.make ~rel:"pictures" ~peer:"sigmod"
    [ Value.Int 32; Value.String "sea \"quoted\".jpg"; Value.String "Émilien";
      Value.Float 0.5; Value.Bool true ]

let roundtrip m =
  match Wire.unbatch (Wire.batch [ m ]) with
  | Ok [ m' ] -> check_bool "round-trip" (msg_equal m m')
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e

let suite =
  [
    tc "encode/decode: full message" (fun () ->
        roundtrip
          (Message.make ~src:"Jules" ~dst:"Émilien" ~stage:7
             ~facts:(Some [ sample_fact; sample_fact ])
             ~installs:[ sample_rule ] ~retracts:[ sample_rule ] ()));
    tc "encode/decode: facts None vs Some []" (fun () ->
        roundtrip (Message.make ~src:"a" ~dst:"b" ~stage:1 ());
        roundtrip (Message.make ~src:"a" ~dst:"b" ~stage:1 ~facts:(Some []) ()));
    tc "encode/decode: names needing quoting" (fun () ->
        roundtrip
          (Message.make ~src:"peer with spaces" ~dst:"ext" ~stage:0
             ~facts:(Some [ Fact.make ~rel:"not" ~peer:"ext" [] ])
             ()));
    tc "decode rejects garbage" (fun () ->
        check_bool "garbage" (Result.is_error (Wire.unbatch "not a frame"));
        check_bool "empty input" (Result.is_error (Wire.unbatch ""));
        let frame =
          Wire.batch
            [ Message.make ~src:"a" ~dst:"b" ~stage:1
                ~facts:(Some [ sample_fact ]) () ]
        in
        check_bool "truncated"
          (Result.is_error
             (Wire.unbatch (String.sub frame 0 (String.length frame - 1))));
        check_bool "a bare message section is not a frame"
          (Result.is_error
             (Wire.unbatch (String.sub frame 2 (String.length frame - 2))));
        check_bool "an envelope is not a batch"
          (Result.is_error
             (Wire.unbatch
                (Wire.encode_envelope
                   { Wdl_net.Reliable.env_src = "a"; env_inc = 0; env_seq = 0;
                     env_ack = 0; env_payload = None }))));
    tc "frames carry rules as tagged trees, not text" (fun () ->
        let m rule =
          Message.make ~src:"a" ~dst:"b" ~stage:1 ~installs:[ rule ] ()
        in
        Alcotest.check Alcotest.string "v@p($x) :- r@p($x), byte for byte"
          ("\001\000\006\001a\001b\001v\001p\001x\001r" (* 6 strings *)
          ^ "\001\000\001\002" (* 1 message: a -> b, stage 1 *)
          ^ "\000\001\000\000\000" (* no fact batch, 1 install *)
          ^ "\002\002\002\003\001\005\004" (* head v@p($x) *)
          ^ "\001\000\002\005\002\003\001\005\004" (* body r@p($x) *)
          ^ "\000" (* no aggregates *))
          (Wire.batch [ m (Parser.parse_rule "v@p($x) :- r@p($x)") ]);
        let every_form =
          Parser.parse_rule
            {|agg@p($k, count($x), max($y)) :-
                a@$q($k, $x, "s", 1.5, true, -7), not b@p($x), $x = 1,
                $x != 2, $x < 3, $x <= 4, $x > 5, $x >= 6,
                $y := ($x + 1) * ($x - 2) / 3, $z := "s" + $q|}
        in
        List.iter
          (fun r ->
            let frame = Wire.batch [ m r ] in
            check_bool "no rule text in the frame"
              (not (Str_helper.contains frame ":-"));
            match Wire.unbatch frame with
            | Ok [ m' ] -> check_bool "round-trip" (msg_equal (m r) m')
            | _ -> Alcotest.fail "expected one message")
          [ sample_rule; every_form ]);
    tc "batch: empty and singleton shapes" (fun () ->
        Alcotest.check Alcotest.string "an empty batch: version, kind, no \
           strings, no messages"
          "\001\000\000\000" (Wire.batch []);
        check_bool "empty round-trips" (Wire.unbatch (Wire.batch []) = Ok []);
        let m =
          Message.make ~src:"a" ~dst:"b" ~stage:1
            ~facts:(Some [ sample_fact ]) ()
        in
        Alcotest.check Alcotest.string
          "a singleton is a counted frame of one section"
          ("\001\000" (* version 1, batch *)
          ^ "\006\001a\001b\008pictures\006sigmod\016sea \"quoted\".jpg\
             \008\195\137milien" (* 6 strings *)
          ^ "\001" (* 1 message *)
          ^ "\000\001\002" (* src 0, dst 1, stage 1 zigzagged *)
          ^ "\002\000\000\000\000" (* 1 fact + 1; no rules, no origins *)
          ^ "\002\003\005" (* pictures@sigmod, 5 values *)
          ^ "\000\064" (* 32 *)
          ^ "\002\004\002\005" (* two strings *)
          ^ "\001\000\000\000\000\000\000\224\063" (* 0.5 *)
          ^ "\004" (* true *))
          (Wire.batch [ m ]);
        match Wire.unbatch (Wire.batch [ m ]) with
        | Ok [ m' ] -> check_bool "singleton round-trips" (msg_equal m m')
        | _ -> Alcotest.fail "expected a singleton");
    tc "batch: multi-message frame keeps order and content" (fun () ->
        let mk i =
          Message.make ~src:"a" ~dst:"b" ~stage:i
            ~facts:(Some [ sample_fact ]) ()
        in
        let msgs = [ mk 1; mk 2; mk 3 ] in
        let frame = Wire.batch msgs in
        (match Wire.unbatch frame with
        | Ok got -> check_bool "equal" (List.equal msg_equal msgs got)
        | Error e -> Alcotest.fail e);
        check_bool "garbage rejected" (Result.is_error (Wire.unbatch "nope"));
        check_bool "a float cut short is rejected"
          (Result.is_error
             (Wire.unbatch (String.sub frame 0 (String.length frame - 2))));
        check_bool "a frame of another version is rejected"
          (Result.is_error (Wire.unbatch ("\002" ^ String.sub frame 1 (String.length frame - 1)))));
    tc "decode rejects huge counts, other versions, trailing bytes, empty names"
      (fun () ->
        let varint n =
          let b = Buffer.create 8 in
          let rec go n =
            if n < 0x80 then Buffer.add_char b (Char.chr n)
            else begin
              Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
              go (n lsr 7)
            end
          in
          go n;
          Buffer.contents b
        in
        let huge = varint (1 lsl 40) in
        let rejected_at_once label frame =
          let before = Gc.minor_words () in
          check_bool label (Result.is_error (Wire.unbatch frame));
          check_bool (label ^ ": no allocation for the claimed items")
            (Gc.minor_words () -. before < 10_000.)
        in
        (* Each claim is followed by items that do decode. *)
        let strings = String.concat "" (List.init 64 (fun _ -> "\001x")) in
        rejected_at_once "2^40 strings" ("\001\000" ^ huge ^ strings);
        rejected_at_once "2^40 messages"
          ("\001\000\001\001a" ^ huge ^ String.make 64 '\000');
        rejected_at_once "2^40 values"
          ("\001\000\001\001a\001\000\000\000\002\000\000\000\000\000\000"
          ^ huge ^ String.make 64 '\003');
        let frame =
          Wire.batch
            [ Message.make ~src:"a" ~dst:"b" ~stage:1
                ~facts:(Some [ sample_fact ]) () ]
        in
        List.iter
          (fun v ->
            check_bool
              (Printf.sprintf "version byte %d" (Char.code v))
              (Result.is_error
                 (Wire.unbatch
                    (String.make 1 v ^ String.sub frame 1 (String.length frame - 1)))))
          [ '\000'; '\002'; 'b'; '\255' ];
        check_bool "trailing bytes" (Result.is_error (Wire.unbatch (frame ^ "\000")));
        check_bool "trailing bytes after an envelope"
          (Result.is_error
             (Wire.decode_envelope
                (Wire.encode_envelope
                   { Wdl_net.Reliable.env_src = "a"; env_inc = 0; env_seq = 0;
                     env_ack = 0; env_payload = None }
                ^ "\000")));
        (* One message "" -> "", one fact with an empty name. *)
        let fact_named rel peer =
          "\001\000\002\000\001m\001\000\000\000\002\000\000\000\000"
          ^ String.make 1 (Char.chr rel) ^ String.make 1 (Char.chr peer) ^ "\000"
        in
        check_bool "well-formed control" (Result.is_ok (Wire.unbatch (fact_named 1 1)));
        check_bool "empty relation name" (Result.is_error (Wire.unbatch (fact_named 0 1)));
        check_bool "empty peer name" (Result.is_error (Wire.unbatch (fact_named 1 0)));
        check_bool "string id out of range"
          (Result.is_error (Wire.unbatch (fact_named 2 1)));
        check_bool "unknown value tag"
          (Result.is_error
             (Wire.unbatch
                "\001\000\001\001m\001\000\000\000\002\000\000\000\000\000\000\001\005")));
    tc "tcp: send_many rides one connection, in order, and reuses it"
      (fun () ->
        let ta, ca = Wdl_net.Tcp.create () in
        let tb, cb = Wdl_net.Tcp.create () in
        Wdl_net.Tcp.register ca ~peer:"bob"
          { Wdl_net.Tcp.host = "127.0.0.1"; port = Wdl_net.Tcp.port cb };
        ta.Wdl_net.Transport.send_many ~dst:"bob"
          [ ("a", "x"); ("c", "y"); ("a", "z") ];
        Alcotest.check (Alcotest.list Alcotest.string) "in order"
          [ "x"; "y"; "z" ]
          (tb.Wdl_net.Transport.drain "bob");
        check_int "one connection opened" 1 (Wdl_net.Tcp.conns_opened ca);
        ta.Wdl_net.Transport.send ~src:"a" ~dst:"bob" "w";
        Alcotest.check (Alcotest.list Alcotest.string) "later send arrives"
          [ "w" ]
          (tb.Wdl_net.Transport.drain "bob");
        check_int "still one connection" 1 (Wdl_net.Tcp.conns_opened ca);
        check_bool "reuse counted" (Wdl_net.Tcp.conns_reused ca >= 1);
        Wdl_net.Tcp.close ca;
        Wdl_net.Tcp.close cb);
    tc "tcp: frame crosses a loopback socket" (fun () ->
        let ta, ca = Wdl_net.Tcp.create () in
        let _tb, cb = Wdl_net.Tcp.create () in
        Wdl_net.Tcp.register ca ~peer:"bob"
          { Wdl_net.Tcp.host = "127.0.0.1"; port = Wdl_net.Tcp.port cb };
        ta.Wdl_net.Transport.send ~src:"alice" ~dst:"bob" "hello";
        let tb = _tb in
        let got = tb.Wdl_net.Transport.drain "bob" in
        Wdl_net.Tcp.close ca;
        Wdl_net.Tcp.close cb;
        Alcotest.check (Alcotest.list Alcotest.string) "payload" [ "hello" ] got);
    tc "tcp: local peers short-circuit" (fun () ->
        let t, c = Wdl_net.Tcp.create () in
        t.Wdl_net.Transport.send ~src:"a" ~dst:"b" "x";
        Alcotest.check (Alcotest.list Alcotest.string) "local" [ "x" ]
          (t.Wdl_net.Transport.drain "b");
        Wdl_net.Tcp.close c);
    tc "tcp: large frames survive" (fun () ->
        let ta, ca = Wdl_net.Tcp.create () in
        let tb, cb = Wdl_net.Tcp.create () in
        Wdl_net.Tcp.register ca ~peer:"bob"
          { Wdl_net.Tcp.host = "127.0.0.1"; port = Wdl_net.Tcp.port cb };
        let payload = String.make 200_000 'x' in
        ta.Wdl_net.Transport.send ~src:"a" ~dst:"bob" payload;
        (match tb.Wdl_net.Transport.drain "bob" with
        | [ got ] -> check_int "length" 200_000 (String.length got)
        | _ -> Alcotest.fail "expected one frame");
        Wdl_net.Tcp.close ca;
        Wdl_net.Tcp.close cb);
    tc "two systems talk over tcp + wire" (fun () ->
        (* Jules' process and Émilien's process, each with its own
           System, exchanging real bytes over loopback. *)
        let bytes_a, ca = Wdl_net.Tcp.create () in
        let bytes_b, cb = Wdl_net.Tcp.create () in
        Wdl_net.Tcp.register ca ~peer:"Emilien"
          { Wdl_net.Tcp.host = "127.0.0.1"; port = Wdl_net.Tcp.port cb };
        Wdl_net.Tcp.register cb ~peer:"Jules"
          { Wdl_net.Tcp.host = "127.0.0.1"; port = Wdl_net.Tcp.port ca };
        let sys_a = System.create ~transport:(Wire.transport bytes_a) () in
        let sys_b = System.create ~transport:(Wire.transport bytes_b) () in
        let jules = System.add_peer sys_a "Jules" in
        let emilien = System.add_peer sys_b "Emilien" in
        ok'
          (Peer.load_string jules
             {|ext sel@Jules(a); int view@Jules(i);
               sel@Jules("Emilien");
               view@Jules($i) :- sel@Jules($a), pics@$a($i);|});
        ok'
          (Peer.load_string emilien
             "ext pics@Emilien(i); pics@Emilien(1); pics@Emilien(2);");
        (* Alternate rounds until both processes are idle. *)
        for _ = 1 to 8 do
          ignore (System.round sys_a);
          ignore (System.round sys_b)
        done;
        Wdl_net.Tcp.close ca;
        Wdl_net.Tcp.close cb;
        check_int "delegation crossed processes" 1
          (List.length (Peer.delegated_rules emilien));
        check_int "facts flowed back" 2 (List.length (Peer.query jules "view")));
  ]

(* {1 Batched delivery on every transport}

   The album run to quiescence must coalesce its outbox (at least one
   batch) and end in the inmem run's per-peer state over every
   transport: batching may change wire units, never what is
   delivered. *)

let settle_album (transport, cleanup) =
  Fun.protect ~finally:cleanup (fun () ->
      let sys = System.create ~transport ~drop_unknown:true () in
      Album.load_album sys Album.attendees;
      let settled = Result.is_ok (System.run ~max_rounds:60 sys) in
      let stats = (System.transport sys).Wdl_net.Transport.stats () in
      (settled, stats.Wdl_net.Netstats.batches, Album.dump sys))

let batched_transports_test () =
  let inmem () =
    (Wdl_net.Inmem.create ~sizer:Message.size (), fun () -> ())
  in
  let _, _, reference = settle_album (inmem ()) in
  List.iter
    (fun (label, make) ->
      let settled, batches, dump = settle_album (make ()) in
      check_bool (label ^ ": batched run coalesced") (batches > 0);
      check_bool (label ^ ": settled") settled;
      Alcotest.check Alcotest.string
        (label ^ ": end state equals the inmem run")
        reference dump)
    [ ("inmem", inmem);
      ( "simnet",
        fun () ->
          ( Wdl_net.Simnet.create ~sizer:Message.size ~jitter:0. ~seed:42 (),
            fun () -> () ) );
      ( "tcp+wire",
        fun () ->
          let bytes, ctl = Wdl_net.Tcp.create () in
          (Wire.transport bytes, fun () -> Wdl_net.Tcp.close ctl) ) ]

let suite =
  suite
  @ [ tc "album over inmem, simnet and tcp+wire: batched, same end state"
        batched_transports_test ]

(* {1 Batch codec property} *)

let msg_gen =
  QCheck.Gen.(
    let name = oneofl [ "a"; "b"; "Jules"; "Émilien"; "peer with spaces" ] in
    let value =
      oneof
        [
          map (fun i -> Value.Int i) small_signed_int;
          map (fun i -> Value.Int i) (oneofl [ min_int; max_int; 0; -1 ]);
          map (fun x -> Value.Float x)
            (oneofl [ infinity; neg_infinity; -0.; 0.; 0.1; -1e300; 5e-324 ]);
          map (fun s -> Value.String s)
            (oneofl
               [ "x"; {|é "quoted|}; ""; "nul\000byte"; "two\nlines"; "\"";
                 "\255\254 not utf-8"; "back\\slash" ]);
          map (fun b -> Value.Bool b) bool;
        ]
    in
    let fact =
      let* rel = oneofl [ "pictures"; "album"; "m"; "rel with spaces" ] in
      let* peer = name in
      let* args = list_size (int_bound 3) value in
      return (Fact.make ~rel ~peer args)
    in
    let origin = oneofl [ "Jules#1"; "a#2"; ""; "origin\nwith a newline" ] in
    let rule = oneof [ return sample_rule; Test_props.rule_gen ] in
    let* src = name in
    let* dst = name in
    let* stage = oneof [ int_bound 100; oneofl [ max_int; -1 ] ] in
    let* facts = option (list_size (int_bound 4) fact) in
    let* installs = list_size (int_bound 2) rule in
    let* retracts = list_size (int_bound 1) rule in
    let* fact_origins = list_size (int_bound 2) origin in
    let* install_origins = list_size (int_bound 2) origin in
    return
      (Message.make ~src ~dst ~stage ~facts ~installs ~retracts ~fact_origins
         ~install_origins ()))

let batch_prop =
  QCheck.Test.make ~count:200
    ~name:"batch/unbatch round-trips every message list (incl. [] and [m])"
    (QCheck.make QCheck.Gen.(list_size (int_bound 6) msg_gen))
    (fun msgs ->
      match Wire.unbatch (Wire.batch msgs) with
      | Error e -> QCheck.Test.fail_reportf "unbatch failed: %s" e
      | Ok got ->
        if List.equal msg_equal msgs got then true
        else QCheck.Test.fail_report "decoded batch differs")

(* {1 Decoder totality}

   Frames come from the network: every prefix of a valid frame (a cut
   connection) and every frame with a few bytes changed must decode to
   [Ok] or [Error], never raise. *)

let envelope_gen =
  QCheck.Gen.(
    let* env_src = oneofl [ "a"; "Jules" ] in
    let* env_inc = int_bound 3 in
    let* env_seq = int_bound 50 in
    let* env_ack = int_bound 50 in
    let* env_payload = option msg_gen in
    return { Wdl_net.Reliable.env_src; env_inc; env_seq; env_ack; env_payload })

let corrupted_gen =
  QCheck.Gen.(
    let* frame =
      oneof
        [
          map Wire.batch (list_size (int_bound 3) msg_gen);
          map Wire.encode_envelope envelope_gen;
          string_size ~gen:char (int_bound 64);
        ]
    in
    let corrupt =
      if frame = "" then return frame
      else
        let* edits =
          list_size (int_range 1 3)
            (pair (int_bound (String.length frame - 1)) char)
        in
        let b = Bytes.of_string frame in
        List.iter (fun (i, c) -> Bytes.set b i c) edits;
        return (Bytes.to_string b)
    in
    let* variants = list_size (return 4) corrupt in
    return (frame, variants))

let totality_prop =
  QCheck.Test.make ~count:100 ~long_factor:20
    ~name:"wire decoders are total on cut and corrupted frames"
    (QCheck.make
       ~print:(fun (frame, variants) ->
         String.concat "\n" (List.map String.escaped (frame :: variants)))
       corrupted_gen)
    (fun (frame, variants) ->
      let decode s =
        ignore (Wire.unbatch s);
        ignore (Wire.decode_envelope s)
      in
      for i = 0 to String.length frame do
        decode (String.sub frame 0 i)
      done;
      List.iter decode variants;
      true)

let suite =
  suite @ List.map QCheck_alcotest.to_alcotest [ batch_prop; totality_prop ]

(* {1 Non-finite floats}

   The infinities are ordinary values: they must reach a remote peer
   over the wire exactly as they do in process. NaN has no literal, so
   arithmetic that would produce it is a runtime error and no peer
   admits it. *)

let non_finite_test () =
  let run transport =
    let sys = System.create ~transport () in
    let p = System.add_peer sys "p" and q = System.add_peer sys "q" in
    ok'
      (Peer.load_string p
         {|a@p(2.);
           got@q($x) :- a@p($x);
           got@q($y) :- a@p($x), $y := $x * -1e308 * 10.;
           got@q($y) :- a@p($x), $y := $x * 1e308 * 10.;
           got@q($y) :- a@p($x), $y := $x * 1e308 * 10. - $x * 1e308 * 10.;|});
    ok' (Peer.load_string q "ext got@q(x);");
    ignore (ok' (System.run ~max_rounds:20 sys));
    check_bool "the NaN rule is a runtime error" (Peer.last_errors p <> []);
    List.map (fun f -> f.Fact.args) (Peer.query q "got")
  in
  let expected =
    [ [ Value.Float neg_infinity ]; [ Value.Float 2. ]; [ Value.Float infinity ] ]
  in
  let check label got =
    check_bool (label ^ ": q got 2., -inf and inf") (got = expected)
  in
  check "inmem" (run (Wdl_net.Inmem.create ~sizer:Message.size ()));
  check "wire" (run (Wire.transport (Wdl_net.Inmem.create ())));
  let nan_frame =
    Wire.batch
      [ Message.make ~src:"p" ~dst:"q" ~stage:1
          ~facts:(Some [ Fact.make ~rel:"a" ~peer:"q" [ Value.Float nan ] ])
          () ]
  in
  check_bool "a NaN in a frame is a decode error"
    (Result.is_error (Wire.unbatch nan_frame));
  let p = Peer.create "p" in
  check_bool "NaN is not admitted"
    (Result.is_error
       (Peer.insert p (Fact.make ~rel:"a" ~peer:"p" [ Value.Float nan ])))

let suite =
  suite
  @ [ tc "non-finite floats cross the wire; NaN is an error, not a fact"
        non_finite_test ]
