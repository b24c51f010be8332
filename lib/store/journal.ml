open Wdl_syntax

type entry =
  | Insert of Fact.t
  | Delete of Fact.t
  | Declare of Decl.t

type t = {
  file : string;
  mutable oc : out_channel;
  append_hist : Wdl_obs.Obs.histogram;
  appended : Wdl_obs.Obs.counter;
}

let open_ file =
  {
    file;
    oc = open_out_gen [ Open_append; Open_creat ] 0o644 file;
    append_hist =
      Wdl_obs.Obs.histogram
        ~help:"Wall time of one journal append (render + flush)"
        ~buckets:Wdl_obs.Obs.latency_buckets
        "wdl_journal_append_duration_microseconds";
    appended =
      Wdl_obs.Obs.counter ~help:"Journal entries written or replayed"
        ~labels:[ ("op", "append") ]
        "wdl_journal_entries_total";
  }

let render entry =
  let buf = Buffer.create 128 in
  (match entry with
  | Insert f ->
    Buffer.add_string buf "+ ";
    Fact.add_to_buffer buf f
  | Delete f ->
    Buffer.add_string buf "- ";
    Fact.add_to_buffer buf f
  | Declare d ->
    Buffer.add_string buf "d ";
    Buffer.add_string buf (Pp_util.one_line Decl.pp d));
  Buffer.add_char buf ';';
  Buffer.contents buf

let append t entry =
  Wdl_obs.Obs.time t.append_hist @@ fun () ->
  output_string t.oc (render entry);
  output_char t.oc '\n';
  flush t.oc;
  Wdl_obs.Obs.inc t.appended

let close t = close_out_noerr t.oc
let path t = t.file

let truncate t =
  close_out_noerr t.oc;
  t.oc <- open_out_gen [ Open_trunc; Open_creat; Open_wronly ] 0o644 t.file

let parse_line line =
  if String.length line < 2 then Error "journal line too short"
  else
    let body = String.sub line 2 (String.length line - 2) in
    match line.[0], line.[1] with
    | '+', ' ' -> Result.map (fun f -> Insert f) (Parser.fact body)
    | '-', ' ' -> Result.map (fun f -> Delete f) (Parser.fact body)
    | 'd', ' ' -> (
      match Parser.program body with
      | Ok [ Program.Decl d ] -> Ok (Declare d)
      | Ok _ -> Error "journal declaration line is not a declaration"
      | Error e -> Error e)
    | _, _ -> Error ("unknown journal tag: " ^ String.make 1 line.[0])

(* Reads a journal, tolerating the crash artifact at its tail: a torn
   final line, possibly followed by nothing but blank lines (a crash
   mid-append can leave both). Returns the entries plus — when a torn
   tail was tolerated — the byte offset where the last complete entry
   ends, so {!repair} can cut the file there. *)
let replay_status file =
  if not (Sys.file_exists file) then Ok ([], None)
  else begin
    let replay_hist =
      Wdl_obs.Obs.histogram ~help:"Wall time of one journal replay"
        ~buckets:Wdl_obs.Obs.latency_buckets
        "wdl_journal_replay_duration_microseconds"
    in
    let replayed =
      Wdl_obs.Obs.counter ~help:"Journal entries written or replayed"
        ~labels:[ ("op", "replay") ]
        "wdl_journal_entries_total"
    in
    Wdl_obs.Obs.time replay_hist @@ fun () ->
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc lineno good_end =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc, None)
          | "" -> go acc (lineno + 1) (pos_in ic)
          | line -> (
            match parse_line line with
            | Ok entry ->
              Wdl_obs.Obs.inc replayed;
              go (entry :: acc) (lineno + 1) (pos_in ic)
            | Error msg ->
              (* A torn final line is the normal crash artifact — and
                 only blank lines may follow it; a parse failure with
                 real entries after it is corruption. *)
              let rec only_blanks () =
                match input_line ic with
                | exception End_of_file -> true
                | l -> String.trim l = "" && only_blanks ()
              in
              if only_blanks () then Ok (List.rev acc, Some good_end)
              else Error (Printf.sprintf "journal line %d: %s" lineno msg))
        in
        go [] 1 0)
  end

let replay file = Result.map fst (replay_status file)

let repair file =
  match replay_status file with
  | Error _ as e -> e
  | Ok (entries, torn) -> (
    match torn with
    | None -> Ok entries
    | Some good_end -> (
      (* Cut the torn tail off so the next append starts on a fresh
         line; appending onto the partial line would corrupt both the
         old and the new entry. *)
      match Unix.truncate file good_end with
      | () -> Ok entries
      | exception Unix.Unix_error (e, _, _) ->
        Error ("journal repair: cannot truncate: " ^ Unix.error_message e)))

let entry_equal a b =
  match a, b with
  | Insert x, Insert y | Delete x, Delete y -> Fact.equal x y
  | Declare x, Declare y -> Decl.equal x y
  | (Insert _ | Delete _ | Declare _), _ -> false

let pp_entry ppf e = Format.pp_print_string ppf (render e)
