(* The benchmark: one closed-loop client issuing one op at a time
   against one of three workloads (see README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   alternates traced and untraced ops and prints the per-layer split,
   derived from the spans in [Spans] and from deltas of the engine's
   own instruments in the [Wdl_obs.Obs] registry. The last line of
   standard output is the result as one JSON object. *)

module Obs = Wdl_obs.Obs
module System = Webdamlog.System
module Peer = Webdamlog.Peer
module W = Workloads

let now = Unix.gettimeofday

(* {1 Statistics} *)

let nearest_rank xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let ratio a b = if b = 0. then 0. else a /. b

(* {1 Registry probes}

   The engine's instruments, read before and after each traced op.
   Per-peer series are labelled by peer name; the registry is cleared
   before every set-up, so each episode's series start from zero. *)

type probe = Hist of string | Count of string

let peer_probes =
  [|
    Hist "wdl_eval_stage_duration_microseconds";
    Hist "wdl_eval_delta_size";
    Count "wdl_peer_iterations_total";
    Count "wdl_peer_derivations_total";
    Count "wdl_eval_plans_skipped_total";
    Count "wdl_peer_stages_total";
    Count "wdl_eval_stage_fastpath_total";
    Count "wdl_eval_delta_stages_total";
    Count "wdl_eval_program_cache_hits_total";
    Count "wdl_eval_replans_total";
  |]

let fix_us = 0
and delta_tuples = 1
and iterations = 2
and derivations = 3
and skipped = 4
and stages = 5
and fastpath = 6
and delta_stages = 7
and cache_hits = 8
and replans = 9

let global_probes =
  [|
    Hist "wdl_system_round_duration_microseconds";
    Count "wdl_store_index_builds_total";
    Count "wdl_store_index_evictions_total";
  |]

let round_us = 0
and index_builds = 1
and index_evictions = 2

let read ?labels = function
  | Hist name -> Obs.histogram_sum (Obs.histogram ?labels name)
  | Count name -> Obs.read_one ?labels name

let view_tuples p =
  List.fold_left
    (fun acc (i : Wdl_store.Database.info) ->
      if i.Wdl_store.Database.kind = Wdl_syntax.Decl.Intensional then
        acc + Wdl_store.Relation.cardinal i.Wdl_store.Database.data
      else acc)
    0
    (Wdl_store.Database.relations (Peer.database p))

type snap = { global : float array; per_peer : (float array * int) list }

let snapshot peers =
  {
    global = Array.map read global_probes;
    per_peer =
      List.map
        (fun p ->
          ( Array.map (read ~labels:[ ("peer", Peer.name p) ]) peer_probes,
            view_tuples p ))
        peers;
  }

(* {1 Accumulated over a run} *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable checks_failed : int;
  (* per episode, over its untraced ops *)
  mutable ep_p50 : float list;
  mutable ep_p90 : float list;
  mutable ep_rate : float list;
  mutable setups : float list;
  mutable loads : float list;
  (* exact counts over the first [exact_episodes] episodes *)
  mutable exact_ops : int;
  mutable exact_rounds : int;
  mutable exact_bytes : int;
  (* traced ops only *)
  mutable traced_ops : int;
  mutable traced_wall_s : float;
  g : float array;  (** summed global probe deltas *)
  p : float array;  (** summed per-peer probe deltas *)
  mutable materialised : float;
  mutable msgs : int;
  mutable frames : int;
  mutable bytes : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  (* store gauges at each traced episode's end *)
  mutable mem_per_tuple : float list;
  mutable interned : float list;
}

let new_acc () =
  {
    attempted = 0; failed = 0; checks_failed = 0;
    ep_p50 = []; ep_p90 = []; ep_rate = []; setups = []; loads = []; exact_ops = 0;
    exact_rounds = 0; exact_bytes = 0; traced_ops = 0; traced_wall_s = 0.;
    g = Array.make (Array.length global_probes) 0.;
    p = Array.make (Array.length peer_probes) 0.;
    materialised = 0.; msgs = 0; frames = 0; bytes = 0; minor_words = 0.;
    promoted_words = 0.; major_collections = 0; mem_per_tuple = [];
    interned = [];
  }

(* Distinct view tuples a stage materialises: a full stage rebuilds
   every view, a delta stage adds only what is new. With several
   stages of one peer in an op this counts each full stage once over
   the final views — exact for the single-stage tc ops. *)
let add_deltas acc before after =
  Array.iteri (fun i v -> acc.g.(i) <- acc.g.(i) +. v -. before.global.(i)) after.global;
  List.iter2
    (fun (b, vb) (a, va) ->
      Array.iteri (fun i v -> acc.p.(i) <- acc.p.(i) +. v -. b.(i)) a;
      let d i = a.(i) -. b.(i) in
      let full = d stages -. d fastpath -. d delta_stages in
      acc.materialised <-
        acc.materialised
        +. (if full > 0. then full *. float va else float (max 0 (va - vb))))
    before.per_peer after.per_peer

let store_gauges acc peers =
  let sum name =
    List.fold_left
      (fun s p -> s +. Obs.read_one ~labels:[ ("peer", Peer.name p) ] name)
      0. peers
  in
  let tuples =
    List.fold_left
      (fun s p ->
        List.fold_left
          (fun s (i : Wdl_store.Database.info) ->
            s + Wdl_store.Relation.cardinal i.Wdl_store.Database.data)
          s
          (Wdl_store.Database.relations (Peer.database p)))
      0 peers
  in
  acc.mem_per_tuple <- ratio (sum "wdl_store_memory_bytes") (float tuples) :: acc.mem_per_tuple;
  acc.interned <- sum "wdl_store_interned_values" :: acc.interned

(* {1 One op} *)

type op_record = { rounds : int; bytes : int; ms : float; traced : bool }

let run_op acc (env : W.env) ~id ~traced =
  let peers = System.peers env.system in
  let before = if traced then Some (snapshot peers) else None in
  let gc0 = if traced then Some (Gc.quick_stat ()) else None in
  let faults0 = env.faults () and terr0 = System.transport_errors env.system in
  let bytes0 = env.wire_bytes () and frames0 = env.frames () and msgs0 = env.msgs () in
  Spans.start_op id;
  Spans.enabled := traced;
  let t0 = now () in
  let result =
    match Spans.with_span "app.call" env.issue with
    | () -> Spans.with_span "app.run" env.settle
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = now () in
  Spans.enabled := false;
  let ms = (t1 -. t0) *. 1000. in
  let bytes = env.wire_bytes () - bytes0 in
  let ok =
    Result.is_ok result
    && env.faults () = faults0
    && System.transport_errors env.system = terr0
  in
  acc.attempted <- acc.attempted + 1;
  if not ok then acc.failed <- acc.failed + 1;
  (match (before, gc0) with
  | Some before, Some gc0 ->
    let gc1 = Gc.quick_stat () in
    Spans.end_op ~name:"op" ~start:t0 ~stop:t1;
    add_deltas acc before (snapshot peers);
    acc.traced_ops <- acc.traced_ops + 1;
    acc.traced_wall_s <- acc.traced_wall_s +. (t1 -. t0);
    acc.bytes <- acc.bytes + bytes;
    acc.frames <- acc.frames + env.frames () - frames0;
    acc.msgs <- acc.msgs + env.msgs () - msgs0;
    acc.minor_words <- acc.minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
    acc.promoted_words <-
      acc.promoted_words +. gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    acc.major_collections <-
      acc.major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections
  | _ -> ());
  { rounds = (match result with Ok r -> r | Error _ -> -1); bytes; ms; traced }

(* {1 Episodes} *)

type episode = {
  index : int;
  ops : op_record array;
  digest : string;
}

let fresh_setup (wl : W.t) link ~seed ~episode =
  (* Drop the previous episode (the registry's callbacks hold its
     peers) and start every set-up from a collected heap. *)
  Obs.clear Obs.default;
  Gc.compact ();
  let t0 = now () in
  let env = wl.W.setup link ~seed ~episode in
  (env, now () -. t0)

(* Every run makes at least this many episodes and takes its exact
   counts ([rounds_per_op], [wire_bytes_per_op]) over them, so those
   repeat exactly for a seed however fast the host is. *)
let exact_episodes = 4

(* Ops per episode: enough for a p90 with ten ops beyond it. *)
let episode_ops = 100

(* The host has slow spells: for one to five seconds at a time it runs
   this code 20-70% slower. So each timing is taken per episode (about
   a second of ops) and the run reports the quartile of its episodes on
   the fast side. Episodes inside a spell then do not move the result
   unless spells cover three quarters of the run. *)
let episode_timings acc ops loop_s =
  let untraced =
    List.filter_map
      (fun (r : op_record) -> if r.traced then None else Some r.ms)
      (Array.to_list ops)
  in
  if untraced <> [] then begin
    acc.ep_p50 <- nearest_rank untraced 0.5 :: acc.ep_p50;
    acc.ep_p90 <- nearest_rank untraced 0.9 :: acc.ep_p90;
    acc.ep_rate <- float (Array.length ops) /. loop_s :: acc.ep_rate
  end

let run_episodes (wl : W.t) link ~seed ~seconds ~trace acc =
  let start = now () in
  let episodes = ref [] and next_id = ref 0 in
  while List.length !episodes < exact_episodes || now () -. start < seconds do
    let index = List.length !episodes in
    let env, setup_s = fresh_setup wl link ~seed ~episode:index in
    acc.setups <- setup_s :: acc.setups;
    acc.loads <- env.W.load_s :: acc.loads;
    System.on_round env.W.system Spans.open_round;
    let t_loop = now () in
    let ops =
      Array.init episode_ops (fun k ->
          incr next_id;
          run_op acc env ~id:!next_id ~traced:(trace && k mod 2 = 1))
    in
    episode_timings acc ops (now () -. t_loop);
    if index < exact_episodes then
      Array.iter
        (fun (r : op_record) ->
          acc.exact_ops <- acc.exact_ops + 1;
          acc.exact_rounds <- acc.exact_rounds + r.rounds;
          acc.exact_bytes <- acc.exact_bytes + r.bytes)
        ops;
    if trace then store_gauges acc (System.peers env.W.system);
    if not (env.W.check ()) then begin
      acc.checks_failed <- acc.checks_failed + 1;
      acc.failed <- acc.failed + 1
    end;
    let digest =
      if wl.W.tcp && index < exact_episodes then
        Digest.to_hex (Digest.string (env.W.dump ()))
      else ""
    in
    episodes := { index; ops; digest } :: !episodes
  done;
  List.rev !episodes

(* The TCP run must repeat an in-memory run of the same seeded ops:
   same rounds and bytes for every op, same end state. A mismatching
   op counts as failed. The replay covers the episodes the exact counts
   are taken over, so the run's length does not set its cost. *)
let replay_in_memory (wl : W.t) ~seed episodes acc =
  List.iter
    (fun e ->
      let env, _ = fresh_setup wl W.In_memory ~seed ~episode:e.index in
      Array.iter
        (fun (r : op_record) ->
          let b0 = env.W.wire_bytes () in
          let rounds =
            match env.W.issue () with
            | () -> (match env.W.settle () with Ok n -> n | Error _ -> -1)
            | exception _ -> -1
          in
          if rounds <> r.rounds || env.W.wire_bytes () - b0 <> r.bytes then begin
            acc.checks_failed <- acc.checks_failed + 1;
            acc.failed <- acc.failed + 1
          end)
        e.ops;
      if Digest.to_hex (Digest.string (env.W.dump ())) <> e.digest then begin
        acc.checks_failed <- acc.checks_failed + 1;
        acc.failed <- acc.failed + 1
      end)
    (List.filter (fun e -> e.index < exact_episodes) episodes)

(* {1 Reporting} *)

(* A fixed spin loop, timed before the run: how fast the host was,
   reported as a diagnostic next to the metrics. *)
let calibrate () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 50_000_000 do
    x := !x lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s = "\"" ^ Wdl_obs.Chrome_trace.escape s ^ "\""

let end_to_end acc ~peak_mb =
  let n = float acc.exact_ops in
  [
    ("setup_s", nearest_rank acc.setups 0.25, "s");
    ("op_p50_ms", nearest_rank acc.ep_p50 0.25, "ms");
    ("ops_per_s", nearest_rank acc.ep_rate 0.75, "1/s");
    ("peak_heap_mb", peak_mb, "MB");
    ("rounds_per_op", ratio (float acc.exact_rounds) n, "count");
  ],
  (* Printed, but not in the result: the p90 moves with major-GC slices
     and short host bursts by more than any bound the result allows, and
     the other two read 0 on healthy in-memory runs. *)
  [
    ("op_p90_ms", nearest_rank acc.ep_p90 0.25, "ms");
    ("wire_bytes_per_op", ratio (float acc.exact_bytes) n, "bytes");
    ("op_fail_ratio", ratio (float acc.failed) (float acc.attempted), "ratio");
  ]

let per_layer acc episodes ~tcp =
  let n = float acc.traced_ops in
  let per x = ratio x n in
  let ms_per name = per (Spans.total name *. 1000.) in
  let wall_ms = acc.traced_wall_s *. 1000. in
  let round_ms = acc.g.(round_us) /. 1000. and fix_ms = acc.p.(fix_us) /. 1000. in
  let wire_ms = ms_per "wire.send" +. ms_per "wire.drain" in
  let net_ms = ms_per "net.send" +. ms_per "net.drain" +. ms_per "net.wait" in
  let fixpoint_stages = acc.p.(stages) -. acc.p.(fastpath) in
  let mean l = ratio (List.fold_left ( +. ) 0. l) (float (List.length l)) in
  let mb words = words *. float (Sys.word_size / 8) /. 1048576. in
  let covered = List.fold_left (fun s name -> s +. Spans.total name) 0. Spans.top_level in
  let tcp_count f = match tcp with Some p -> float (f p) | None -> 0. in
  let ops = List.concat_map (fun e -> Array.to_list e.ops) episodes in
  let p50 traced =
    nearest_rank (List.filter_map (fun r -> if r.traced = traced then Some r.ms else None) ops) 0.5
  in
  [
    ("system.round_ms_per_op", per round_ms, "ms");
    ("app.ms_per_op", per (wall_ms -. round_ms), "ms");
    ("peer.stage_self_ms_per_op", per (round_ms -. fix_ms) -. wire_ms, "ms");
    ("eval.fixpoint_ms_per_op", per fix_ms, "ms");
    ("eval.fixpoint_share", ratio fix_ms wall_ms, "ratio");
    ("eval.iterations_per_op", per acc.p.(iterations), "count");
    ("eval.derivations_per_op", per acc.p.(derivations), "count");
    ("eval.delta_tuples_per_op", per acc.p.(delta_tuples), "count");
    ("eval.plans_skipped_per_op", per acc.p.(skipped), "count");
    ("eval.derivation_yield", ratio acc.materialised acc.p.(derivations), "ratio");
    ("eval.delta_stage_ratio", ratio acc.p.(delta_stages) fixpoint_stages, "ratio");
    ("eval.fastpath_ratio", ratio acc.p.(fastpath) acc.p.(stages), "ratio");
    ("eval.replans_per_op", per acc.p.(replans), "count");
    ("eval.program_cache_hit_ratio", ratio acc.p.(cache_hits) fixpoint_stages, "ratio");
    ("store.memory_bytes_per_tuple", mean acc.mem_per_tuple, "bytes");
    ("store.interned_values", mean acc.interned, "count");
    ("store.index_builds_per_op", per acc.g.(index_builds), "count");
    ("store.index_evictions_per_op", per acc.g.(index_evictions), "count");
    ("syntax.load_ms", nearest_rank acc.loads 0.5 *. 1000., "ms");
    ("wire.codec_ms_per_op", wire_ms -. net_ms, "ms");
    ("wire.bytes_per_msg", ratio (float acc.bytes) (float acc.msgs), "bytes");
    ("wire.bytes_per_op", per (float acc.bytes), "bytes");
    ("net.send_ms_per_op", ms_per "net.send", "ms");
    ("net.drain_ms_per_op", ms_per "net.drain", "ms");
    ("net.wait_ms_per_op", ms_per "net.wait", "ms");
    ("net.msgs_per_op", per (float acc.msgs), "count");
    ("net.frames_per_op", per (float acc.frames), "count");
    ("net.batch_size_mean", ratio (float acc.msgs) (float acc.frames), "count");
    ("net.conns_opened", tcp_count (fun p -> Wdl_net.Tcp.(conns_opened p.W.ca + conns_opened p.W.cb)), "count");
    ("net.send_failures", tcp_count (W.tcp_stat (fun s -> s.Wdl_net.Netstats.send_failures)), "count");
    ("net.retransmits", tcp_count (W.tcp_stat (fun s -> s.Wdl_net.Netstats.retransmits)), "count");
    ("net.dead_letters", tcp_count (fun p -> Wdl_net.Tcp.(dead_letters p.W.ca + dead_letters p.W.cb)), "count");
    ("gc.minor_mb_per_op", per (mb acc.minor_words), "MB");
    ("gc.promoted_mb_per_op", per (mb acc.promoted_words), "MB");
    ("gc.major_collections_per_op", per (float acc.major_collections), "count");
    ("trace.overhead_ratio",
     ratio (p50 true) (p50 false), "ratio");
    ("trace.unattributed_share", 1. -. ratio covered acc.traced_wall_s, "ratio");
    ("op_fail_ratio", ratio (float acc.failed) (float acc.attempted), "ratio");
  ]

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.6f %s\n" name v unit) rows

let write_trace ~workload ~seed =
  let dir = ".bench_out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Spans.chrome_json ()));
  path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let git_rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME wepic_tcp | tc_trickle | tc_churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--git-rev", Arg.Set_string git_rev, "REV recorded in the diagnostics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let traced = !trace = 1 in
  let calibration_s = calibrate () in
  let acc = new_acc () in
  let pair = if wl.W.tcp then Some (W.tcp_pair ()) else None in
  let link = match pair with Some p -> W.Over_tcp p | None -> W.In_memory in
  let episodes, peak_mb =
    Fun.protect
      ~finally:(fun () -> Option.iter W.close_pair pair)
      (fun () ->
        let episodes = run_episodes wl link ~seed:!seed ~seconds:!seconds ~trace:traced acc in
        let top = (Gc.quick_stat ()).Gc.top_heap_words in
        (episodes, float top *. float (Sys.word_size / 8) /. 1048576.))
  in
  if wl.W.tcp then replay_in_memory wl ~seed:!seed episodes acc;
  Printf.printf
    "{\"diagnostics\": {\"workload\": %s, \"seed\": %d, \"episodes\": %d, \
     \"nproc\": %d, \"ocaml\": %s, \"WDL_DOMAINS\": %s, \"git_rev\": %s, \
     \"calibration_s\": %s, \"episode_p50_ms\": [%s], \"episode_setup_s\": [%s]}}\n"
    (json_string wl.W.name) !seed (List.length episodes)
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version)
    (json_string (Option.value ~default:"" (Sys.getenv_opt "WDL_DOMAINS")))
    (json_string !git_rev) (json_number calibration_s)
    (String.concat ", " (List.rev_map json_number acc.ep_p50))
    (String.concat ", " (List.rev_map json_number acc.setups));
  let e2e, extra = end_to_end acc ~peak_mb in
  let metrics =
    if traced then begin
      let path = write_trace ~workload:wl.W.name ~seed:!seed in
      Printf.printf "chrome trace of the first %d traced ops: %s\n" Spans.keep_ops path;
      let rows = per_layer acc episodes ~tcp:pair in
      print_table (Printf.sprintf "%s per layer (%d traced ops)" wl.W.name acc.traced_ops) rows;
      (* The spans must account for the op's time, or the split is not
         worth reading. *)
      List.iter
        (fun (name, v, _) ->
          if name = "trace.unattributed_share" && v > 0.10 then begin
            Printf.printf "unattributed share %.3f is above 0.10\n" v;
            acc.checks_failed <- acc.checks_failed + 1
          end)
        rows;
      rows
    end
    else begin
      print_table
        (Printf.sprintf "%s end to end (%d ops, %d failed)" wl.W.name acc.attempted acc.failed)
        (e2e @ extra);
      e2e
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (acc.checks_failed = 0) acc.attempted acc.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (json_number v) (json_string unit))
          metrics))
