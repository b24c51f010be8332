(* The wdl command-line interface: the demo's GUI surface, textual.

   wdl parse FILE            check + pretty-print a program
   wdl run FILE              single-peer fixpoint, dump relations
   wdl simulate P=FILE ...   multi-peer system to quiescence
   wdl wepic                 scripted Wepic scenario (Figs 1-3) *)

open Cmdliner

(* Not opening Wdl_syntax: its Term module would shadow Cmdliner.Term. *)
module Fact = Wdl_syntax.Fact
module Rule = Wdl_syntax.Rule
module Wparser = Wdl_syntax.Parser
module Safety = Wdl_syntax.Safety
module Program = Wdl_syntax.Program
module Analysis = Wdl_analysis.Analysis
module Diagnostic = Wdl_analysis.Diagnostic

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let or_die = function
  | Ok v -> v
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 1

let pp_relation ppf (peer, rel) =
  let facts = Webdamlog.Peer.query peer rel in
  Format.fprintf ppf "@[<v 2>%s@%s (%d):@ %a@]@." rel
    (Webdamlog.Peer.name peer) (List.length facts)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
       Fact.pp)
    facts

let dump_peer peer =
  List.iter
    (fun rel -> Format.printf "%a" pp_relation (peer, rel))
    (Webdamlog.Peer.relation_names peer)

(* parse *)

let parse_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    match Wparser.program_located ~file (read_file file) with
    | Error err ->
      Format.eprintf "%s@."
        (Diagnostic.render_text [ Analysis.of_parse_error ~file err ]);
      exit 1
    | Ok located ->
      let program = Wdl_syntax.Located.strip located in
      let errors =
        Analysis.check_located located
        |> List.filter (fun (d : Diagnostic.t) ->
               d.severity = Diagnostic.Error)
      in
      if errors <> [] then begin
        Format.eprintf "%s@." (Diagnostic.render_text errors);
        exit 1
      end;
      Format.printf "%a@." Program.pp program
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse, safety-check and pretty-print a program")
    Term.(const run $ file)

(* check *)

let parse_all files =
  List.map
    (fun file -> (file, Wparser.program_located ~file (read_file file)))
    files

let parse_errors parsed =
  List.filter_map
    (fun (file, r) ->
      match r with
      | Error err -> Some (Analysis.of_parse_error ~file err)
      | Ok _ -> None)
    parsed

let parsed_ok parsed =
  List.filter_map
    (fun (file, r) ->
      match r with Ok located -> Some (file, located) | Error _ -> None)
    parsed

let check_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text), $(b,json) or $(b,sarif).")
  in
  let peer_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "peer" ] ~docv:"NAME"
          ~doc:
            "Analyze each file as a program of this peer (default: inferred \
             from the file's declarations and facts).")
  in
  let system =
    Arg.(
      value & flag
      & info [ "system" ]
          ~doc:
            "Check all FILEs as one distributed system: declaration and \
             usage tables are shared across files (a relation declared in \
             one program counts as reachable from another), and the \
             knowledge-flow diagnostics see every program's rules \
             (enables WDL064/WDL065).")
  in
  let pedantic =
    Arg.(
      value & flag
      & info [ "pedantic" ]
          ~doc:
            "Also emit style notes the evaluator already compensates for \
             (WDL031 body-order).")
  in
  let run format peer_name system pedantic files =
    let parsed = parse_all files in
    let diags =
      if system then
        match parse_errors parsed with
        | [] -> Analysis.check_system ~pedantic (parsed_ok parsed)
        | errs -> errs
      else
        List.concat_map
          (fun (file, r) ->
            match r with
            | Error err -> [ Analysis.of_parse_error ~file err ]
            | Ok located ->
              Analysis.check_located ?self:peer_name ~pedantic located)
          parsed
    in
    (match format with
    | `Text -> if diags <> [] then print_endline (Diagnostic.render_text diags)
    | `Json -> print_endline (Diagnostic.render_json diags)
    | `Sarif ->
      print_endline (Diagnostic.render_sarif ~rules:Analysis.codes diags));
    exit (Diagnostic.exit_code diags)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static analysis with coded diagnostics (see docs/ANALYSIS.md); \
          exits 0 when clean, 1 on warnings, 2 on errors")
    Term.(const run $ format $ peer_name $ system $ pedantic $ files)

(* flow *)

let flow_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("dot", `Dot) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text), $(b,json) or $(b,dot).")
  in
  let run format files =
    let parsed = parse_all files in
    (match parse_errors parsed with
    | [] -> ()
    | errs ->
      Format.eprintf "%s@." (Diagnostic.render_text errs);
      exit 2);
    let fl = Analysis.flow_of_system (parsed_ok parsed) in
    print_endline
      (match format with
      | `Text -> Wdl_analysis.Flow.render_text fl
      | `Json -> Wdl_analysis.Flow.render_json fl
      | `Dot -> Wdl_analysis.Flow.render_dot fl)
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Knowledge-flow analysis over one or more programs checked as a \
          system: which peers may learn facts derived from each relation, \
          through which rule chains")
    Term.(const run $ format $ files)

(* run *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let peer_name =
    Arg.(value & opt string "local" & info [ "peer" ] ~docv:"NAME")
  in
  let run peer_name file =
    let sys = Webdamlog.System.create () in
    let peer = Webdamlog.System.add_peer sys peer_name in
    or_die (Webdamlog.Peer.load_string peer (read_file file));
    let rounds = or_die (Webdamlog.System.run sys) in
    Format.printf "fixpoint after %d round(s)@.@." rounds;
    dump_peer peer;
    match Webdamlog.Peer.last_errors peer with
    | [] -> ()
    | errors ->
      Format.printf "@.%d runtime error(s):@." (List.length errors);
      List.iter
        (fun e -> Format.printf "  %a@." Wdl_eval.Runtime_error.pp e)
        errors
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one peer's program to fixpoint and dump its relations")
    Term.(const run $ peer_name $ file)

(* simulate *)

let binding_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i when i > 0 ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | Some _ | None -> Error (`Msg "expected PEER=FILE")
  in
  let print ppf (p, f) = Format.fprintf ppf "%s=%s" p f in
  Arg.conv (parse, print)

let simulate_cmd =
  let bindings =
    Arg.(non_empty & pos_all binding_conv [] & info [] ~docv:"PEER=FILE")
  in
  let trace_flag = Arg.(value & flag & info [ "trace" ] ~doc:"Print the event trace") in
  let metrics_flag =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print a metrics-registry snapshot after the run")
  in
  let latency =
    Arg.(value & opt (some float) None & info [ "latency" ]
           ~doc:"Use the simulated network with this base latency")
  in
  let run trace metrics latency bindings =
    let transport =
      Option.map
        (fun base_latency ->
          Wdl_net.Simnet.create ~sizer:Webdamlog.Message.size ~base_latency ())
        latency
    in
    (* All simulated peers live in this process: undeliverable messages
       are dropped rather than blocking quiescence. *)
    let sys = Webdamlog.System.create ?transport ~drop_unknown:true () in
    let peers =
      List.map
        (fun (name, file) ->
          let peer = Webdamlog.System.add_peer sys name in
          or_die (Webdamlog.Peer.load_string peer (read_file file));
          peer)
        bindings
    in
    let rounds = or_die (Webdamlog.System.run sys) in
    Format.printf "quiescent after %d round(s), %d message(s)@.@." rounds
      (Webdamlog.System.messages_sent sys);
    List.iter
      (fun peer ->
        Format.printf "=== peer %s ===@." (Webdamlog.Peer.name peer);
        dump_peer peer;
        let delegated = Webdamlog.Peer.delegated_rules peer in
        if delegated <> [] then begin
          Format.printf "delegated rules:@.";
          List.iter
            (fun (src, r) -> Format.printf "  from %s: %a@." src Rule.pp r)
            delegated
        end;
        Format.printf "stats: %a@.@." Webdamlog.Peer.pp_stats
          (Webdamlog.Peer.stats peer))
      peers;
    if trace then
      List.iter
        (fun peer ->
          List.iter
            (fun e -> Format.printf "%a@." Webdamlog.Trace.pp_event e)
            (Webdamlog.Trace.events (Webdamlog.Peer.trace peer)))
        peers;
    if metrics then
      Format.printf "=== metrics ===@.%s" (Wdl_obs.Obs.dump_string ())
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a system of peers to quiescence and dump their state")
    Term.(const run $ trace_flag $ metrics_flag $ latency $ bindings)

(* fmt *)

let fmt_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let in_place =
    Arg.(value & flag & info [ "i"; "in-place" ] ~doc:"Rewrite the file")
  in
  let run in_place file =
    let program = or_die (Wparser.program (read_file file)) in
    let formatted = Format.asprintf "%a@." Program.pp program in
    if in_place then begin
      let oc = open_out_bin file in
      output_string oc formatted;
      close_out oc
    end
    else print_string formatted
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Canonically format a program (parse + pretty-print)")
    Term.(const run $ in_place $ file)

(* analyze *)

let analyze_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let peer_name = Arg.(value & opt string "local" & info [ "peer" ] ~docv:"NAME") in
  let run peer_name file =
    let program = or_die (Wparser.program (read_file file)) in
    let intensional_rels =
      List.filter_map
        (fun (d : Wdl_syntax.Decl.t) ->
          if d.Wdl_syntax.Decl.kind = Wdl_syntax.Decl.Intensional then
            Some d.Wdl_syntax.Decl.rel
          else None)
        (Program.decls program)
    in
    let intensional rel = List.mem rel intensional_rels in
    let rules = Program.rules program in
    Format.printf "%d declaration(s), %d fact(s), %d rule(s)@.@."
      (List.length (Program.decls program))
      (List.length (Program.facts program))
      (List.length rules);
    List.iteri
      (fun i rule ->
        Format.printf "@[<v 2>rule %d: %a@]@." (i + 1) Rule.pp rule;
        (match Safety.check_rule rule with
        | Ok () -> ()
        | Error errs ->
          List.iter
            (fun d -> Format.printf "  %a@." Diagnostic.pp_text d)
            (Analysis.safety_diags errs));
        let c = Webdamlog.Classify.classify ~self:peer_name ~intensional rule in
        Format.printf "  %s@." (Webdamlog.Classify.describe c);
        (match c.Webdamlog.Classify.reads_remote with
        | [] -> ()
        | peers ->
          Format.printf "  reads remote peers: %s@." (String.concat ", " peers));
        Format.printf "@.")
      rules;
    match
      Wdl_eval.Stratify.compute ~self:peer_name ~intensional rules
    with
    | Ok { Wdl_eval.Stratify.strata } ->
      Format.printf "stratification: %d stratum(s)@." (Array.length strata)
    | Error e ->
      Format.printf "stratification FAILS: %a@." Wdl_eval.Stratify.pp_error e;
      exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static analysis: safety, rule classification, stratification")
    Term.(const run $ peer_name $ file)

(* query *)

let query_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let q = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY") in
  let peer_name = Arg.(value & opt string "local" & info [ "peer" ] ~docv:"NAME") in
  let run peer_name file q =
    let sys = Webdamlog.System.create () in
    let peer = Webdamlog.System.add_peer sys peer_name in
    or_die (Webdamlog.Peer.load_string peer (read_file file));
    ignore (or_die (Webdamlog.System.run sys));
    let answer = or_die (Webdamlog.Peer.ask peer q) in
    Format.printf "%s@." (String.concat "\t" answer.Webdamlog.Peer.columns);
    List.iter
      (fun row ->
        Format.printf "%s@."
          (String.concat "\t" (List.map Wdl_syntax.Value.to_string row)))
      answer.Webdamlog.Peer.rows;
    (match answer.Webdamlog.Peer.requires_delegation with
    | [] -> ()
    | ds ->
      Format.printf "@.this query needs delegation to run fully:@.";
      List.iter
        (fun (dst, r) -> Format.printf "  at %s: %a@." dst Rule.pp r)
        ds);
    List.iter
      (fun e -> Format.eprintf "warning: %a@." Wdl_eval.Runtime_error.pp e)
      answer.Webdamlog.Peer.errors
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run an ad-hoc query (the demo's Query tab) over a program")
    Term.(const run $ peer_name $ file $ q)

(* serve: one process hosting peers over real TCP *)

let endpoint_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ host; port ] -> (
      match int_of_string_opt port with
      | Some port -> Ok { Wdl_net.Tcp.host; port }
      | None -> Error (`Msg "expected HOST:PORT"))
    | _ -> Error (`Msg "expected HOST:PORT")
  in
  let print ppf (e : Wdl_net.Tcp.endpoint) =
    Format.fprintf ppf "%s:%d" e.Wdl_net.Tcp.host e.Wdl_net.Tcp.port
  in
  Arg.conv (parse, print)

let remote_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      let name = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      Result.map
        (fun ep -> (name, ep))
        (Arg.conv_parser endpoint_conv rest)
    | None -> Error (`Msg "expected NAME=HOST:PORT")
  in
  let print ppf (n, e) =
    Format.fprintf ppf "%s=%a" n (Arg.conv_printer endpoint_conv) e
  in
  Arg.conv (parse, print)

let serve_cmd =
  let bindings =
    Arg.(non_empty & pos_all binding_conv [] & info [] ~docv:"PEER=FILE")
  in
  let port = Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT") in
  let remotes =
    Arg.(value & opt_all remote_conv [] & info [ "remote" ] ~docv:"NAME=HOST:PORT")
  in
  let idle_exit =
    Arg.(value & opt float 5.0 & info [ "idle-exit" ] ~docv:"SECONDS"
           ~doc:"Exit after this long with no work (0 = run forever)")
  in
  let state_dir =
    Arg.(value & opt (some string) None & info [ "state" ] ~docv:"DIR"
           ~doc:"Durable state: recover each peer from DIR/<peer>/ (checkpoint \
                 + journal), keep journaling, checkpoint on exit. The program \
                 file is only loaded the first time.")
  in
  let run port remotes idle_exit state_dir bindings =
    let bytes, ctl = Wdl_net.Tcp.create ~port () in
    List.iter (fun (name, ep) -> Wdl_net.Tcp.register ctl ~peer:name ep) remotes;
    Format.printf "listening on 127.0.0.1:%d@." (Wdl_net.Tcp.port ctl);
    let sys =
      Webdamlog.System.create ~transport:(Webdamlog.Wire.transport bytes) ()
    in
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      state_dir;
    let peer_dir name =
      Option.map (fun dir -> Filename.concat dir name) state_dir
    in
    let peers =
      List.map
        (fun (name, file) ->
          match peer_dir name with
          | Some dir
            when Sys.file_exists (Filename.concat dir "snapshot.wdl")
                 || Sys.file_exists (Filename.concat dir "journal.wal") ->
            let peer = or_die (Webdamlog.Persist.recover ~dir ~fallback_name:name ()) in
            Webdamlog.System.adopt_peer sys peer;
            Format.printf "recovered %s from %s@." name dir;
            peer
          | Some dir ->
            let peer = Webdamlog.System.add_peer sys name in
            Webdamlog.Persist.attach peer ~dir;
            or_die (Webdamlog.Peer.load_string peer (read_file file));
            peer
          | None ->
            let peer = Webdamlog.System.add_peer sys name in
            or_die (Webdamlog.Peer.load_string peer (read_file file));
            peer)
        bindings
    in
    let idle_since = ref (Unix.gettimeofday ()) in
    let rec loop () =
      let progressed = Webdamlog.System.round sys > 0 in
      let busy =
        progressed
        || List.exists Webdamlog.Peer.has_work (Webdamlog.System.peers sys)
      in
      let now = Unix.gettimeofday () in
      if busy then begin
        idle_since := now;
        loop ()
      end
      else if idle_exit > 0. && now -. !idle_since >= idle_exit then ()
      else begin
        Unix.sleepf 0.02;
        loop ()
      end
    in
    loop ();
    Wdl_net.Tcp.close ctl;
    List.iter
      (fun peer ->
        (match peer_dir (Webdamlog.Peer.name peer) with
        | Some dir ->
          Webdamlog.Persist.checkpoint peer ~dir;
          Format.printf "checkpointed %s to %s@." (Webdamlog.Peer.name peer) dir
        | None -> ());
        Format.printf "=== peer %s ===@." (Webdamlog.Peer.name peer);
        dump_peer peer)
      peers
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Host peers in this process over TCP; peers in other processes \
             are reached via --remote")
    Term.(const run $ port $ remotes $ idle_exit $ state_dir $ bindings)

(* repl *)

let repl_help =
  {|statements end with ';' and may span lines:
  pictures@local(1, "a.jpg");          insert a fact
  v@local($x) :- pictures@local($x);   add a rule
  ext m@local(a, b);                   declare a relation
commands:
  ?HEAD :- BODY;        ad-hoc query (the demo's Query tab)
  .run                  run stages to fixpoint
  .dump [REL]           show relations (or one relation)
  .rules                show own and delegated rules
  .flow                 knowledge-flow graph of the current program
  .pending              show pending delegations
  .accept N             accept pending delegation number N (from .pending)
  .delete FACT;         delete a fact
  .explain FACT;        why-provenance of a derived fact
  .save FILE / .load FILE   snapshot to / restore from a file
  .help  .quit|}

let repl_cmd =
  let peer_name = Arg.(value & opt string "local" & info [ "peer" ] ~docv:"NAME") in
  let run peer_name =
    let peer = ref (Webdamlog.Peer.create peer_name) in
    Webdamlog.Peer.set_track_provenance !peer true;
    let settle () =
      let n = ref 0 in
      while Webdamlog.Peer.has_work !peer && !n < 1000 do
        ignore (Webdamlog.Peer.stage !peer);
        incr n
      done;
      List.iter
        (fun e -> Format.printf "warning: %a@." Wdl_eval.Runtime_error.pp e)
        (Webdamlog.Peer.last_errors !peer)
    in
    let dump_one rel =
      List.iter
        (fun f -> Format.printf "  %a@." Fact.pp f)
        (Webdamlog.Peer.query !peer rel)
    in
    let command line =
      match String.split_on_char ' ' (String.trim line) with
      | [ ".quit" ] | [ ".exit" ] -> raise Exit
      | [ ".help" ] -> print_endline repl_help
      | [ ".run" ] ->
        settle ();
        Format.printf "stage %d@." (Webdamlog.Peer.stage_number !peer)
      | [ ".dump" ] -> dump_peer !peer
      | [ ".dump"; rel ] -> dump_one rel
      | [ ".rules" ] ->
        List.iter
          (fun r -> Format.printf "  %a@." Rule.pp r)
          (Webdamlog.Peer.rules !peer);
        List.iter
          (fun (src, r) -> Format.printf "  (from %s) %a@." src Rule.pp r)
          (Webdamlog.Peer.delegated_rules !peer)
      | [ ".flow" ] ->
        print_string (Wdl_analysis.Flow.render_text (Webdamlog.Peer.flow !peer))
      | [ ".pending" ] ->
        List.iteri
          (fun i (src, r) -> Format.printf "  [%d] from %s: %a@." i src Rule.pp r)
          (Webdamlog.Peer.pending_delegations !peer)
      | [ ".accept"; n ] -> (
        match int_of_string_opt n with
        | None -> print_endline "usage: .accept N"
        | Some n -> (
          match List.nth_opt (Webdamlog.Peer.pending_delegations !peer) n with
          | None -> print_endline "no such pending delegation"
          | Some (src, rule) ->
            if Webdamlog.Peer.accept_delegation !peer ~src rule then settle ()))
      | ".delete" :: rest -> (
        match Wparser.fact (String.concat " " rest) with
        | Error msg -> print_endline msg
        | Ok f -> (
          match Webdamlog.Peer.delete !peer f with
          | Ok () -> settle ()
          | Error msg -> print_endline msg))
      | ".explain" :: rest -> (
        match Wparser.fact (String.concat " " rest) with
        | Error msg -> print_endline msg
        | Ok f -> print_string (Webdamlog.Peer.explain_to_string !peer f))
      | [ ".save"; file ] ->
        let oc = open_out_bin file in
        output_string oc (Webdamlog.Peer.snapshot !peer);
        close_out oc;
        Format.printf "saved %s@." file
      | [ ".load"; file ] -> (
        match Webdamlog.Peer.restore (read_file file) with
        | Ok p ->
          Webdamlog.Peer.set_track_provenance p true;
          peer := p;
          Format.printf "restored peer %s (stage %d)@."
            (Webdamlog.Peer.name p) (Webdamlog.Peer.stage_number p)
        | Error msg -> print_endline msg)
      | _ -> print_endline "unknown command; .help lists commands"
    in
    let statement text =
      if String.length text > 0 && text.[0] = '?' then begin
        let q = String.sub text 1 (String.length text - 1) in
        match Webdamlog.Peer.ask !peer q with
        | Error msg -> print_endline msg
        | Ok answer ->
          Format.printf "%s@."
            (String.concat "\t" answer.Webdamlog.Peer.columns);
          List.iter
            (fun row ->
              Format.printf "%s@."
                (String.concat "\t" (List.map Wdl_syntax.Value.to_string row)))
            answer.Webdamlog.Peer.rows;
          List.iter
            (fun (dst, r) ->
              Format.printf "(needs delegation at %s: %a)@." dst Rule.pp r)
            answer.Webdamlog.Peer.requires_delegation
      end
      else
        match Wparser.program_located ~file:"<repl>" text with
        | Error err ->
          print_endline
            (Diagnostic.render_text [ Analysis.of_parse_error ~file:"<repl>" err ])
        | Ok located ->
          let kind_of rel p =
            if p = Webdamlog.Peer.name !peer then
              Wdl_store.Database.kind (Webdamlog.Peer.database !peer) rel
            else None
          in
          let warnings =
            List.concat_map
              (Analysis.check_statement ~self:(Webdamlog.Peer.name !peer)
                 ~kind_of)
              located
            |> List.filter (fun (d : Diagnostic.t) ->
                   d.severity = Diagnostic.Warning)
          in
          (match
             Webdamlog.Peer.load_program !peer (Wdl_syntax.Located.strip located)
           with
          | Ok () -> settle ()
          | Error msg -> print_endline msg);
          if warnings <> [] then
            print_endline (Diagnostic.render_text warnings)
    in
    Format.printf "WebdamLog repl: peer %s (.help for commands)@." peer_name;
    let buf = Buffer.create 256 in
    (try
       while true do
         if Buffer.length buf = 0 then print_string "> " else print_string "| ";
         flush stdout;
         let line = input_line stdin in
         let trimmed = String.trim line in
         if Buffer.length buf = 0 && String.length trimmed > 0 && trimmed.[0] = '.'
         then command trimmed
         else begin
           Buffer.add_string buf line;
           Buffer.add_char buf '\n';
           if String.contains line ';' then begin
             let text = Buffer.contents buf in
             Buffer.clear buf;
             statement text
           end
         end
       done
     with End_of_file | Exit -> ());
    Format.printf "@.bye@."
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive single-peer session")
    Term.(const run $ peer_name)

(* web: the demo's GUI *)

let web_cmd =
  let bindings =
    Arg.(non_empty & pos_all binding_conv [] & info [] ~docv:"PEER=FILE")
  in
  let port = Arg.(value & opt int 8080 & info [ "port" ] ~docv:"PORT") in
  let duration =
    Arg.(value & opt float 0. & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Stop after this long (0 = run until killed)")
  in
  let run port duration bindings =
    let sys = Webdamlog.System.create ~drop_unknown:true () in
    List.iter
      (fun (name, file) ->
        let peer = Webdamlog.System.add_peer sys name in
        or_die (Webdamlog.Peer.load_string peer (read_file file)))
      bindings;
    let settle () = ignore (Webdamlog.System.run sys) in
    settle ();
    let server = Wdl_web.Httpd.start ~port (Wdl_web.Ui.handler sys ~settle) in
    Format.printf "serving http://127.0.0.1:%d/@." (Wdl_web.Httpd.port server);
    let started = Unix.gettimeofday () in
    let rec loop () =
      let served = Wdl_web.Httpd.poll server in
      if served = 0 then Unix.sleepf 0.02;
      if duration > 0. && Unix.gettimeofday () -. started >= duration then ()
      else loop ()
    in
    loop ();
    Wdl_web.Httpd.stop server
  in
  Cmd.v
    (Cmd.info "web" ~doc:"Serve the Wepic-style Web interface for a system of peers")
    Term.(const run $ port $ duration $ bindings)

(* wepic *)

let wepic_cmd =
  let attendees = Arg.(value & opt int 3 & info [ "attendees" ] ~docv:"N") in
  let pictures = Arg.(value & opt int 4 & info [ "pictures" ] ~docv:"M") in
  let web =
    Arg.(value & opt (some int) None & info [ "web" ] ~docv:"PORT"
           ~doc:"After the scripted run, serve the Web interface for the \
                 whole Wepic system on this port (the demo's closing act)")
  in
  let run web n m =
    let env = Wdl_wepic.Wepic.create () in
    Wdl_wepic.Workload.populate env
      { Wdl_wepic.Workload.default with attendees = n; pictures_per_attendee = m };
    let rounds = or_die (Wdl_wepic.Wepic.run env) in
    Format.printf "wepic: %d attendees, %d pictures each, quiescent in %d rounds@."
      n m rounds;
    let viewer = Wdl_wepic.Workload.attendee_name 1 in
    List.iter
      (fun a ->
        if a <> viewer then
          Wdl_wepic.Wepic.select_attendee env ~viewer ~attendee:a)
      (Wdl_wepic.Wepic.attendees env);
    ignore (or_die (Wdl_wepic.Wepic.run env));
    Format.printf "@.%s" (Wdl_wepic.Wepic.render_ui env ~viewer);
    Format.printf "@.pictures@sigmod: %d   facebook group: %d   emails: %d@."
      (List.length (Wdl_wepic.Wepic.pictures_at_sigmod env))
      (List.length (Wdl_wepic.Wepic.pictures_on_facebook env))
      (Wdl_wrappers.Email.total_sent (Wdl_wepic.Wepic.email env));
    match web with
    | None -> ()
    | Some port ->
      let sys = Wdl_wepic.Wepic.system env in
      let settle () = ignore (Wdl_wepic.Wepic.run env) in
      let server = Wdl_web.Httpd.start ~port (Wdl_web.Ui.handler sys ~settle) in
      Format.printf "@.serving http://127.0.0.1:%d/ (ctrl-c to stop)@."
        (Wdl_web.Httpd.port server);
      let rec loop () =
        if Wdl_web.Httpd.poll server = 0 then Unix.sleepf 0.02;
        loop ()
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "wepic" ~doc:"Run a scripted Wepic scenario and render its state")
    Term.(const run $ web $ attendees $ pictures)

let main =
  Cmd.group
    (Cmd.info "wdl" ~version:"1.0.0"
       ~doc:"WebdamLog: distributed datalog with delegation")
    [ parse_cmd; check_cmd; flow_cmd; fmt_cmd; analyze_cmd; run_cmd;
      simulate_cmd; query_cmd; serve_cmd; repl_cmd; web_cmd; wepic_cmd ]

let () = exit (Cmd.eval main)
