(* Shared test helper: a fresh directory under the system temp dir,
   removed with everything written under it when [f] returns or
   raises. *)
let with_temp_dir f =
  let dir = Filename.temp_file "wdl_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)
