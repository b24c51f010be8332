(* Spans recorded around the benchmark's own calls into the engine.

   Tracing is off unless [enabled] is set, and an untraced call costs
   one branch. Spans of the op in progress are held in memory; at the
   op's end [end_op] folds their durations into per-name totals and
   keeps the raw spans of the first [keep_ops] traced ops for the
   Chrome trace, so a long run does not hold every span it made. *)

type span = {
  name : string;
  op : int;
  parent : string;  (** name of the enclosing span, [""] for a root *)
  depth : int;
  start : float;  (** seconds *)
  mutable stop : float;
}

let enabled = ref false
let keep_ops = 32
let op = ref 0
let stack : span list ref = ref []
let current : span list ref = ref []
let kept : span list ref = ref []
let kept_ops = ref 0
let totals : (string, float) Hashtbl.t = Hashtbl.create 16

let now = Unix.gettimeofday

let open_span name =
  let parent, depth =
    match !stack with s :: _ -> (s.name, s.depth + 1) | [] -> ("op", 0)
  in
  stack :=
    { name; op = !op; parent; depth; start = now (); stop = nan } :: !stack

let close_span () =
  match !stack with
  | s :: rest ->
    s.stop <- now ();
    stack := rest;
    current := s :: !current
  | [] -> ()

let with_span name f =
  if not !enabled then f ()
  else begin
    open_span name;
    Fun.protect ~finally:close_span f
  end

(* A round has no single call to wrap: [System.run] runs it. It opens
   in the [System.on_round] hook and closes at the transport's
   [pending] query that [System.quiescent] makes right after it. *)
let round_name = "system.round"

let open_round () =
  if !enabled then begin
    (match !stack with s :: _ when s.name = round_name -> close_span () | _ -> ());
    open_span round_name
  end

let close_round () =
  match !stack with s :: _ when s.name = round_name -> close_span () | _ -> ()

let start_op id =
  op := id;
  stack := [];
  current := []

(* Folds the finished op's spans into [totals]; the op span itself is
   recorded by the caller as [name] over [start, stop]. *)
let end_op ~name ~start ~stop =
  let root = { name; op = !op; parent = ""; depth = -1; start; stop } in
  let spans = root :: !current in
  List.iter
    (fun s ->
      Hashtbl.replace totals s.name
        (s.stop -. s.start
        +. Option.value ~default:0. (Hashtbl.find_opt totals s.name)))
    spans;
  if !kept_ops < keep_ops then begin
    incr kept_ops;
    kept := List.rev_append spans !kept
  end;
  current := []

let total name = Option.value ~default:0. (Hashtbl.find_opt totals name)

(* Direct children of the op span: what the op's wall time is
   attributed to at the top level. *)
let top_level = [ "app.call"; "app.run" ]

let chrome_json () =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity !kept in
  let event s ph ts =
    {
      Wdl_obs.Chrome_trace.name = s.name;
      cat = (match String.index_opt s.name '.' with
             | Some i -> String.sub s.name 0 i
             | None -> s.name);
      ph;
      ts = (ts -. t0) *. 1e6;
      pid = 1;
      tid = 1;
      args = [ ("op", string_of_int s.op); ("parent", s.parent) ];
    }
  in
  (* Depth breaks ties between equal timestamps so that pairs stay
     nested: outer spans begin first and end last. *)
  let keyed =
    List.concat_map
      (fun s ->
        [ ((s.start, 1, s.depth), event s "B" s.start);
          ((s.stop, 0, -s.depth), event s "E" s.stop) ])
      !kept
  in
  Wdl_obs.Chrome_trace.to_json
    (List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) keyed))
