(* Wire codec and TCP transport: real distribution substrate. *)
open Wdl_syntax
open Webdamlog
open Check

let msg_equal (a : Message.t) (b : Message.t) =
  a.Message.src = b.Message.src
  && a.Message.dst = b.Message.dst
  && a.Message.stage = b.Message.stage
  && Option.equal (List.equal Fact.equal) a.Message.facts b.Message.facts
  && List.equal Rule.equal a.Message.installs b.Message.installs
  && List.equal Rule.equal a.Message.retracts b.Message.retracts

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
        check_bool "missing header"
          (Result.is_error (Wire.unbatch "batch@wire(1); m@p(1);"));
        check_bool "truncated"
          (Result.is_error
             (Wire.unbatch
                {|batch@wire(1); header@wire("a", "b", 1, 3, 0, 0, 0, 0); m@p(1);|}));
        check_bool "a bare message section is not a frame"
          (Result.is_error
             (Wire.unbatch {|header@wire("a", "b", 1, 1, 0, 0, 0, 0); m@p(1);|})));
    tc "frames are single-line statements" (fun () ->
        let m =
          Message.make ~src:"a" ~dst:"b" ~stage:1 ~installs:[ sample_rule ] ()
        in
        let lines = String.split_on_char '\n' (Wire.batch [ m ]) in
        (* batch + header + 1 rule + trailing empty *)
        check_int "lines" 4 (List.length lines));
    tc "batch: empty and singleton shapes" (fun () ->
        check_bool "empty round-trips" (Wire.unbatch (Wire.batch []) = Ok []);
        let m =
          Message.make ~src:"a" ~dst:"b" ~stage:1
            ~facts:(Some [ sample_fact ]) ()
        in
        Alcotest.check Alcotest.string
          "a singleton is a counted frame of one section"
          "batch@wire(1);\n\
             header@wire(\"a\", \"b\", 1, 1, 0, 0, 0, 0);\n\
             pictures@sigmod(32, \"sea \\\"quoted\\\".jpg\", \"Émilien\", \
             0.5, true);\n"
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
        (match Wire.unbatch (Wire.batch msgs) with
        | Ok got -> check_bool "equal" (List.equal msg_equal msgs got)
        | Error e -> Alcotest.fail e);
        check_bool "garbage rejected" (Result.is_error (Wire.unbatch "nope"));
        check_bool "malformed number rejected"
          (Result.is_error (Wire.unbatch "batch@wire(1);\nv@p(4e+);"));
        check_bool "a versioned header is malformed"
          (Result.is_error (Wire.unbatch "batch@wire(1, 0);")));
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
          map (fun s -> Value.String s) (oneofl [ "x"; {|é "quoted|}; "" ]);
          map (fun b -> Value.Bool b) bool;
        ]
    in
    let fact =
      let* rel = oneofl [ "pictures"; "album"; "m" ] in
      let* peer = name in
      let* args = list_size (int_bound 3) value in
      return (Fact.make ~rel ~peer args)
    in
    let* src = name in
    let* dst = name in
    let* stage = int_bound 100 in
    let* facts = option (list_size (int_bound 4) fact) in
    let* installs = list_size (int_bound 2) (return sample_rule) in
    let* retracts = list_size (int_bound 1) (return sample_rule) in
    return (Message.make ~src ~dst ~stage ~facts ~installs ~retracts ()))

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
  let p = Peer.create "p" in
  check_bool "NaN is not admitted"
    (Result.is_error
       (Peer.insert p (Fact.make ~rel:"a" ~peer:"p" [ Value.Float nan ])))

let suite =
  suite
  @ [ tc "non-finite floats cross the wire; NaN is an error, not a fact"
        non_finite_test ]
