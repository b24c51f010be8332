(* Builtin relation modules: sketch properties, differential oracles
   (module state vs. naive recompute from the write history), and the
   peer-level integration — guarded writes, stage-boundary ticks,
   deterministic clocks, snapshot round-trips. *)
open Wdl_syntax
open Wdl_builtin
open Check

let peer_with src =
  let p = Webdamlog.Peer.create "p" in
  (match Webdamlog.Peer.load_string p src with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" e);
  p

let ins p rel args =
  match Webdamlog.Peer.insert p (Fact.make ~rel ~peer:"p" args) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert into %s: %s" rel e

let del p rel args =
  match Webdamlog.Peer.delete p (Fact.make ~rel ~peer:"p" args) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "delete from %s: %s" rel e

let contents p rel =
  List.map (fun (f : Fact.t) -> f.Fact.args) (Webdamlog.Peer.query p rel)

(* ---------------- sketches ---------------- *)

let sketch_suite =
  [
    tc "bloom: no false negatives, bounded false positives" (fun () ->
        (* Two inputs: string keys, and the [|Int; String|] post tuples
           of a feed at stream size. Members never miss, strangers hit
           under 3x the target rate, and the filter holds exactly the
           textbook m = ceil(-n ln p / (ln 2)^2) bits. *)
        let check_bloom (type k) ~label ~n ~fpr ~(member : int -> k)
            ~(stranger : int -> k) =
          let b = Sketch.Bloom.for_capacity ~fpr n in
          for i = 0 to n - 1 do
            Sketch.Bloom.add b (member i)
          done;
          for i = 0 to n - 1 do
            if not (Sketch.Bloom.mem b (member i)) then
              Alcotest.failf "%s: false negative on member %d" label i
          done;
          let fp = ref 0 in
          for i = 0 to n - 1 do
            if Sketch.Bloom.mem b (stranger i) then incr fp
          done;
          let rate = float_of_int !fp /. float_of_int n in
          if rate >= 3.0 *. fpr then
            Alcotest.failf "%s: false-positive rate %.4f not under 3x target %.4f"
              label rate fpr;
          let m =
            int_of_float
              (ceil (-.float_of_int n *. log fpr /. (log 2. *. log 2.)))
          in
          Alcotest.(check int)
            (label ^ ": memory is ceil(m/8) bytes")
            ((m + 7) / 8)
            (Sketch.Bloom.memory_bytes b)
        in
        check_bloom ~label:"strings" ~n:5_000 ~fpr:0.02
          ~member:(Printf.sprintf "member-%d")
          ~stranger:(Printf.sprintf "stranger-%d");
        let topic i = Value.String (Printf.sprintf "t%d" (i mod 97)) in
        check_bloom ~label:"post tuples" ~n:50_000 ~fpr:0.01
          ~member:(fun i -> [| Value.Int i; topic i |])
          ~stranger:(fun i -> [| Value.Int (50_000 + i); topic i |]));
    tc "bloom: add_mem reports prior membership" (fun () ->
        let b = Sketch.Bloom.for_capacity 100 in
        Alcotest.(check bool) "novel" false (Sketch.Bloom.add_mem b "x");
        Alcotest.(check bool) "dup" true (Sketch.Bloom.add_mem b "x"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"cms: estimate dominates exact count"
         QCheck.(small_list (pair (int_range 0 20) (int_range 1 5)))
         (fun stream ->
           let cms = Sketch.Cms.create ~width:64 ~depth:3 () in
           let exact = Hashtbl.create 16 in
           List.iter
             (fun (key, w) ->
               ignore (Sketch.Cms.add cms ~count:w key);
               Hashtbl.replace exact key
                 (w + Option.value ~default:0 (Hashtbl.find_opt exact key)))
             stream;
           Hashtbl.fold
             (fun key count ok ->
               ok && Sketch.Cms.estimate cms key >= count)
             exact true
           && Sketch.Cms.total cms
              = List.fold_left (fun acc (_, w) -> acc + w) 0 stream));
  ]

(* ---------------- differential oracles ---------------- *)

(* A random per-stage schedule of writes, replayed both through a live
   peer (module state, ticks, flushes) and through a naive
   recompute-from-history oracle; materializations must be
   byte-identical after every stage. *)

type wop = Ins of int | Del of int

let wop_gen =
  QCheck.Gen.(
    let* v = int_range 0 4 in
    let* d = int_range 0 3 in
    return (if d = 0 then Del v else Ins v))

let sched_gen =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let* stages = list_size (int_range 1 6) (list_size (int_range 0 5) wop_gen) in
    return (n, stages))

let sched_print (n, stages) =
  Printf.sprintf "n=%d %s" n
    (String.concat " | "
       (List.map
          (fun ops ->
            String.concat ","
              (List.map
                 (function
                   | Ins v -> Printf.sprintf "+%d" v
                   | Del v -> Printf.sprintf "-%d" v)
                 ops))
          stages))

let sched_arb = QCheck.make ~print:sched_print sched_gen

(* Stage-horizon window/ttl oracle: last-write stamps, evict at
   stamp <= stage - n. Both kinds share make_stamped, so one oracle
   covers both declarations. *)
let stamped_oracle ~n stages =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.mapi
    (fun idx ops ->
      let stage = idx + 1 in
      List.iter
        (function
          | Ins v -> Hashtbl.replace tbl v stage
          | Del v -> Hashtbl.remove tbl v)
        ops;
      let doomed =
        Hashtbl.fold
          (fun v st acc -> if st <= stage - n then v :: acc else acc)
          tbl []
      in
      List.iter (Hashtbl.remove tbl) doomed;
      Hashtbl.fold (fun v _ acc -> [ Value.Int v ] :: acc) tbl []
      |> List.sort compare)
    stages

let drive_stamped decl_src ~rel stages =
  let p = peer_with decl_src in
  List.map
    (fun ops ->
      List.iter
        (function
          | Ins v -> ins p rel [ Value.Int v ]
          | Del v -> del p rel [ Value.Int v ])
        ops;
      ignore (Webdamlog.Peer.stage p);
      contents p rel)
    stages

(* topk oracle: mirror the module's queue/totals mechanics exactly,
   then rank (total desc, key asc) and take k. *)
let topk_oracle ~n ~k stages =
  let q : (int * int * int) Queue.t = Queue.create () in
  let totals : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let bump key w =
    let next = Option.value ~default:0 (Hashtbl.find_opt totals key) + w in
    if next = 0 then Hashtbl.remove totals key
    else Hashtbl.replace totals key next
  in
  List.mapi
    (fun idx ops ->
      let stage = idx + 1 in
      List.iter
        (function
          | Ins v ->
            (* key = v mod 3, weight = 1 + (v mod 2): a few heavy keys *)
            let key = v mod 3 and w = 1 + (v mod 2) in
            Queue.push (stage, key, w) q;
            bump key w
          | Del _ -> ())
        ops;
      let rec drop () =
        match Queue.peek_opt q with
        | Some (st, key, w) when st <= stage - n ->
          ignore (Queue.pop q);
          bump key (-w);
          drop ()
        | _ -> ()
      in
      drop ();
      Hashtbl.fold (fun key total acc -> (key, total) :: acc) totals []
      |> List.sort (fun (k1, t1) (k2, t2) ->
             match Int.compare t2 t1 with
             | 0 -> Int.compare k1 k2
             | c -> c)
      |> List.filteri (fun i _ -> i < k)
      |> List.map (fun (key, total) -> [ Value.Int key; Value.Int total ])
      |> List.sort compare)
    stages

(* Each stage's materialization, plus the module's queue length after
   the stage. *)
let drive_topk ~n ~k stages =
  let p =
    peer_with
      (Printf.sprintf "builtin topk t@p(key, total) with k=%d, size=%d;" k n)
  in
  let entries () =
    match Builtin.Registry.find (Webdamlog.Peer.builtins p) "t" with
    | Some inst -> (inst.Builtin.stats ()).Builtin.entries
    | None -> Alcotest.fail "topk module not registered"
  in
  List.map
    (fun ops ->
      List.iter
        (function
          | Ins v ->
            ins p "t" [ Value.Int (v mod 3); Value.Int (1 + (v mod 2)) ]
          | Del _ -> ())
        ops;
      ignore (Webdamlog.Peer.stage p);
      (contents p "t", entries ()))
    stages

(* The queue holds at most the writes of the trailing [n] stages. *)
let topk_queue_bounded ~n stages entries =
  let writes =
    List.map
      (fun ops ->
        List.length (List.filter (function Ins _ -> true | Del _ -> false) ops))
      stages
  in
  List.for_all Fun.id
    (List.mapi
       (fun idx e ->
         e
         <= List.fold_left ( + ) 0
              (List.filteri (fun j _ -> j <= idx && j > idx - n) writes))
       entries)

let differential_suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:120
         ~name:"window: peer materialization = naive recompute, every stage"
         sched_arb
         (fun (n, stages) ->
           drive_stamped
             (Printf.sprintf "builtin window w@p(x) with size=%d;" n)
             ~rel:"w" stages
           = stamped_oracle ~n stages));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:120
         ~name:"ttl: peer materialization = naive recompute, every stage"
         sched_arb
         (fun (n, stages) ->
           drive_stamped
             (Printf.sprintf "builtin ttl f@p(x) with ttl=%d;" n)
             ~rel:"f" stages
           = stamped_oracle ~n stages));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:120
         ~name:"topk: peer materialization = exact ranking, every stage"
         sched_arb
         (fun (n, stages) ->
           let got = drive_topk ~n ~k:2 stages in
           List.map fst got = topk_oracle ~n ~k:2 stages
           && topk_queue_bounded ~n stages (List.map snd got)));
  ]

(* ---------------- peer integration ---------------- *)

let integration_suite =
  [
    tc "time: read-only, rewritten each stage by the injected clock" (fun () ->
        let p = peer_with "builtin time clock@p(stage, now);" in
        Webdamlog.Peer.set_clock p (fun () -> 42.5);
        (match
           Webdamlog.Peer.insert p
             (Fact.make ~rel:"clock" ~peer:"p" [ Value.Int 9; Value.Float 0. ])
         with
        | Ok () -> Alcotest.fail "write into time must be rejected"
        | Error _ -> ());
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check bool)
          "stage 1" true
          (contents p "clock" = [ [ Value.Int 1; Value.Float 42.5 ] ]);
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check bool)
          "stage 2" true
          (contents p "clock" = [ [ Value.Int 2; Value.Float 42.5 ] ]));
    tc "time: rules can read the clock" (fun () ->
        let p =
          peer_with
            "builtin time clock@p(stage, now);\n\
             int snap@p(s);\n\
             snap@p($s) :- clock@p($s, $t);"
        in
        Webdamlog.Peer.set_clock p (fun () -> 1.0);
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check bool)
          "view sees stage" true
          (contents p "snap" = [ [ Value.Int 1 ] ]));
    tc "seconds horizon expires by the injected clock" (fun () ->
        let now = ref 0.0 in
        let p = peer_with "builtin ttl recent@p(x) with seconds=10;" in
        Webdamlog.Peer.set_clock p (fun () -> !now);
        ins p "recent" [ Value.Int 1 ];
        ignore (Webdamlog.Peer.stage p);
        now := 5.0;
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check int) "alive at 5s" 1 (List.length (contents p "recent"));
        (* a re-write refreshes the expiry *)
        ins p "recent" [ Value.Int 1 ];
        now := 12.0;
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check int)
          "refreshed write survives" 1
          (List.length (contents p "recent"));
        now := 16.0;
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check int) "expired" 0 (List.length (contents p "recent")));
    tc "bloom: dedup drops duplicates, window is one stage" (fun () ->
        let p = peer_with "builtin bloom seen@p(x) with bits=4096;" in
        ins p "seen" [ Value.Int 1 ];
        ins p "seen" [ Value.Int 2 ];
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check int) "two novel" 2 (List.length (contents p "seen"));
        ins p "seen" [ Value.Int 2 ];
        (* duplicate *)
        ins p "seen" [ Value.Int 3 ];
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check bool)
          "only the fresh novel tuple" true
          (contents p "seen" = [ [ Value.Int 3 ] ]);
        let stats =
          Builtin.Registry.totals (Webdamlog.Peer.builtins p)
        in
        Alcotest.(check int) "one duplicate dropped" 1 stats.Builtin.dropped);
    tc "cms: heavy hitters with exact-dominating totals" (fun () ->
        let p = peer_with "builtin cms heavy@p(key, est) with k=2;" in
        List.iter
          (fun (k, w) -> ins p "heavy" [ Value.String k; Value.Int w ])
          [ ("a", 5); ("b", 2); ("c", 1); ("a", 4); ("b", 1) ];
        ignore (Webdamlog.Peer.stage p);
        (* width=1024 on 3 keys: estimates are exact *)
        Alcotest.(check bool)
          "top-2" true
          (contents p "heavy"
          = [
              [ Value.String "a"; Value.Int 9 ]; [ Value.String "b"; Value.Int 3 ];
            ]));
    tc "rules write into builtins through the induced path" (fun () ->
        let p =
          peer_with
            "builtin window recent@p(x) with size=8;\n\
             ext feed@p(x);\n\
             recent@p($x) :- feed@p($x);"
        in
        ins p "feed" [ Value.Int 7 ];
        ignore (Webdamlog.Peer.stage p);
        (* the derived head is inductive: visible one stage later *)
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check bool)
          "derived into the window" true
          (contents p "recent" = [ [ Value.Int 7 ] ]));
    tc "builtin relations and writes are never journaled" (fun () ->
        let path = Filename.temp_file "wdl_builtin" ".journal" in
        let j = Wdl_store.Journal.open_ path in
        let p = Webdamlog.Peer.create "p" in
        Webdamlog.Peer.set_journal p (Some j);
        (match
           Webdamlog.Peer.load_string p
             "builtin window w@p(x) with size=2;\next e@p(x);"
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "load: %s" e);
        ins p "w" [ Value.Int 1 ];
        ins p "e" [ Value.Int 2 ];
        Wdl_store.Journal.close j;
        let entries =
          match Wdl_store.Journal.replay path with
          | Ok es -> es
          | Error e -> Alcotest.failf "replay: %s" e
        in
        Sys.remove path;
        let is_w = function
          | Wdl_store.Journal.Insert f | Wdl_store.Journal.Delete f ->
            f.Fact.rel = "w"
          | Wdl_store.Journal.Declare _ -> false
        in
        Alcotest.(check bool)
          "no w fact entries" true
          (not (List.exists is_w entries));
        Alcotest.(check bool)
          "w declaration journaled" true
          (List.exists
             (function
               | Wdl_store.Journal.Declare d ->
                 d.Decl.rel = "w" && d.Decl.builtin <> None
               | _ -> false)
             entries));
    tc "snapshot round-trip re-registers modules, state restarts empty"
      (fun () ->
        let p =
          peer_with
            "builtin window w@p(x) with size=2;\n\
             ext e@p(x);\n\
             e@p(5);"
        in
        ins p "w" [ Value.Int 1 ];
        ignore (Webdamlog.Peer.stage p);
        let text = Webdamlog.Peer.snapshot p in
        match Webdamlog.Peer.restore text with
        | Error e -> Alcotest.failf "restore: %s" e
        | Ok q ->
          Alcotest.(check bool)
            "module re-registered" true
            (Builtin.Registry.mem (Webdamlog.Peer.builtins q) "w");
          Alcotest.(check int)
            "window restarts empty" 0
            (List.length (contents q "w"));
          Alcotest.(check bool)
            "plain facts survive" true
            (contents q "e" = [ [ Value.Int 5 ] ]);
          (* the restored module is live *)
          ins q "w" [ Value.Int 3 ];
          ignore (Webdamlog.Peer.stage q);
          Alcotest.(check bool)
            "restored module accepts writes" true
            (contents q "w" = [ [ Value.Int 3 ] ]));
    tc "conflicting redeclaration is rejected, identical one is idempotent"
      (fun () ->
        let p = peer_with "builtin window w@p(x) with size=2;" in
        (match
           Webdamlog.Peer.load_string p "builtin window w@p(x) with size=2;"
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "idempotent redeclare: %s" e);
        match
          Webdamlog.Peer.load_string p "builtin window w@p(x) with size=3;"
        with
        | Ok () -> Alcotest.fail "conflicting redeclare must be rejected"
        | Error _ -> ());
    tc "rule head into a read-only builtin is rejected at install" (fun () ->
        let p =
          peer_with "builtin time clock@p(stage, now);\next e@p(s, n);"
        in
        match
          Webdamlog.Peer.load_string p "clock@p($s, $n) :- e@p($s, $n);"
        with
        | Ok () -> Alcotest.fail "rule writing time must be rejected"
        | Error _ -> ());
    tc "a peer with only quiet builtins still quiesces" (fun () ->
        let p = peer_with "builtin window w@p(x) with size=1;" in
        ins p "w" [ Value.Int 1 ];
        ignore (Webdamlog.Peer.stage p);
        ignore (Webdamlog.Peer.stage p);
        (* window emptied at stage 2's tick; later stages are no-ops *)
        ignore (Webdamlog.Peer.stage p);
        ignore (Webdamlog.Peer.stage p);
        Alcotest.(check int) "empty" 0 (List.length (contents p "w"));
        let s = Webdamlog.Peer.stats p in
        Alcotest.(check int) "four stages ran" 4 s.Webdamlog.Peer.stages);
  ]

let suite = sketch_suite @ differential_suite @ integration_suite
