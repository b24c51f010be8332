(* The three workloads. Each builds its state in [setup] (timed as
   set-up) and then serves ops one at a time; an op is [issue] (the
   Wepic/Peer calls) followed by [settle] (run to quiescence).

   A run is a series of episodes: a fresh set-up followed by a fixed
   number of ops. Uploads and appends grow the state, so restarting
   from a fresh set-up keeps the work per op independent of how long
   the run lasts, and gives a set-up time sample per episode. *)

open Wdl_syntax
module T = Wdl_net.Transport
module Tcp = Wdl_net.Tcp
module System = Webdamlog.System
module Peer = Webdamlog.Peer

type env = {
  system : System.t;
  issue : unit -> unit;  (** raises on an [Error] from the engine *)
  settle : unit -> (int, string) result;  (** rounds used *)
  check : unit -> bool;  (** the episode's end state is correct *)
  faults : unit -> int;
      (** monotone: late frames, TCP send failures and dead letters *)
  wire_bytes : unit -> int;  (** bytes handed to the byte transport *)
  frames : unit -> int;
  msgs : unit -> int;
  dump : unit -> string;  (** every peer's relations, sorted *)
  load_s : float;  (** program loading time within the set-up *)
}

(* The two endpoints of [wepic_tcp], made once per run: at most two
   connections (one each way) carry every episode. *)
type tcp_pair = {
  a : string T.t;
  ca : Tcp.control;
  b : string T.t;
  cb : Tcp.control;
}

type link = Over_tcp of tcp_pair | In_memory

type t = {
  name : string;
  tcp : bool;
  setup : link -> seed:int -> episode:int -> env;
}

let must what = function Ok () -> () | Error e -> failwith (what ^ ": " ^ e)

let dump system =
  System.peers system
  |> List.sort (fun p q -> compare (Peer.name p) (Peer.name q))
  |> List.concat_map (fun p ->
         List.sort compare (Peer.relation_names p)
         |> List.concat_map (fun r -> List.map Fact.to_string (Peer.query p r)))
  |> String.concat "\n"

let timed acc f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  acc := !acc +. (Unix.gettimeofday () -. t0);
  r

(* {1 wepic_tcp} *)

let attendees = 24
let pictures_each = 6
let names = Array.init attendees (fun i -> Wdl_wepic.Workload.attendee_name (i + 1))

let on_a name = name = Wdl_wepic.Wepic.sigmod_peer_name || name = Wdl_wepic.Wepic.fb_peer_name

let tcp_pair () =
  let a, ca = Tcp.create () in
  let b, cb = Tcp.create () in
  let at c = { Tcp.host = "127.0.0.1"; port = Tcp.port c } in
  List.iter
    (fun n -> Tcp.register cb ~peer:n (at ca))
    [ Wdl_wepic.Wepic.sigmod_peer_name; Wdl_wepic.Wepic.fb_peer_name ];
  Array.iter (fun n -> Tcp.register ca ~peer:n (at cb)) names;
  { a; ca; b; cb }

let close_pair p =
  Tcp.close p.ca;
  Tcp.close p.cb

let tcp_stat f p = f (p.a.T.stats ()) + f (p.b.T.stats ())

let tcp_faults p =
  tcp_stat (fun s -> s.Wdl_net.Netstats.send_failures) p
  + Tcp.dead_letters p.ca + Tcp.dead_letters p.cb

let wepic_setup link ~seed ~episode =
  let module W = Wdl_wepic.Wepic in
  let rng = Random.State.make [| seed; episode |] in
  let inner =
    match link with
    | Over_tcp p -> Taps.route ~on_a p.a p.b
    | In_memory -> Wdl_net.Inmem.create ()
  in
  let btap, bytes = Taps.bytes inner in
  let mtap, transport = Taps.messages (Webdamlog.Wire.transport bytes) in
  let load = ref 0. in
  let w = timed load (fun () -> W.create ~transport ()) in
  Array.iter (fun n -> ignore (timed load (fun () -> W.add_attendee w n))) names;
  (* The model the ops are drawn from, and the end state is checked
     against: pictures by owner, and who selects whom. *)
  let pics = ref [||] and npics = ref 0 in
  let owned = Array.make attendees 0 in
  let selected = Array.make attendees [] in
  let upload i =
    owned.(i) <- owned.(i) + 1;
    let id = ((i + 1) * 10_000) + owned.(i) in
    W.upload_picture w ~attendee:names.(i) ~id
      ~name:(Printf.sprintf "pic_%d_%d.jpg" (i + 1) owned.(i))
      ~data:(Wdl_wepic.Workload.payload ~seed:(Random.State.bits rng) ~bytes:64);
    if !npics = Array.length !pics then
      pics := Array.append !pics (Array.make (max 16 !npics) (0, 0));
    !pics.(!npics) <- (i, id);
    incr npics
  in
  let random_pic () = !pics.(Random.State.int rng !npics) in
  (* A viewer holds one or two selections: the toggle deselects when it
     holds two, so the number of installed delegations stays level. *)
  let toggle v =
    match selected.(v) with
    | [ _; _ ] ->
      let t = List.nth selected.(v) (Random.State.int rng 2) in
      W.deselect_attendee w ~viewer:names.(v) ~attendee:names.(t);
      selected.(v) <- List.filter (( <> ) t) selected.(v)
    | cur ->
      let rec pick () =
        let t = Random.State.int rng attendees in
        if t = v || List.mem t cur then pick () else t
      in
      let t = pick () in
      W.select_attendee w ~viewer:names.(v) ~attendee:names.(t);
      selected.(v) <- t :: cur
  in
  Array.iteri
    (fun i n ->
      W.set_protocol w ~attendee:n ~protocol:"wepic";
      for _ = 1 to pictures_each do
        upload i;
        if Random.State.bool rng then begin
          let _, id = !pics.(!npics - 1) in
          W.rate w ~rater:n ~owner:n ~id ~rating:(1 + Random.State.int rng 5)
        end
      done)
    names;
  for v = 0 to attendees - 1 do
    toggle v;
    toggle v
  done;
  let settle () = W.run ~max_rounds:1000 w in
  (match settle () with Ok _ -> () | Error e -> failwith ("wepic set-up: " ^ e));
  (* One op is one step of conference activity: an upload, a rating, a
     tag and a selection toggle, by seeded attendees in a seeded order,
     settled together. Every op then runs about the same number of
     rounds, so its latency is one mode rather than one per action. *)
  let actions =
    [|
      (fun () -> upload (Random.State.int rng attendees));
      (fun () ->
        let o, id = random_pic () in
        W.rate w ~rater:names.(Random.State.int rng attendees) ~owner:names.(o) ~id
          ~rating:(1 + Random.State.int rng 5));
      (fun () ->
        let o, id = random_pic () in
        W.tag w ~owner:names.(o) ~id ~who:names.(Random.State.int rng attendees));
      (fun () -> toggle (Random.State.int rng attendees));
    |]
  in
  let issue () =
    for i = Array.length actions - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let a = actions.(i) in
      actions.(i) <- actions.(j);
      actions.(j) <- a
    done;
    Array.iter (fun act -> act ()) actions
  in
  (* Every picture reaches sigmod; every viewer's frame holds exactly
     the pictures of the attendees it selects. *)
  let check () =
    List.length (W.pictures_at_sigmod w) = !npics
    && Array.for_all Fun.id
         (Array.mapi
            (fun v sel ->
              List.length (W.attendee_pictures w ~viewer:names.(v))
              = List.fold_left (fun acc t -> acc + owned.(t)) 0 sel)
            selected)
  in
  let system = W.system w in
  {
    system;
    issue;
    settle;
    check;
    faults =
      (fun () ->
        btap.Taps.late
        + match link with Over_tcp p -> tcp_faults p | In_memory -> 0);
    wire_bytes = (fun () -> btap.Taps.bytes);
    frames = (fun () -> btap.Taps.frames);
    msgs = (fun () -> mtap.Taps.msgs);
    dump = (fun () -> dump system);
    load_s = !load;
  }

(* {1 Transitive closure: tc_trickle and tc_churn} *)

let tc_program =
  {|
  ext edge@p(src, dst);
  int tc@p(src, dst);
  tc@p($x, $y) :- edge@p($x, $y);
  tc@p($x, $z) :- edge@p($x, $y), tc@p($y, $z);
  |}

let edge a b = Fact.make ~rel:"edge" ~peer:"p" [ Value.Int a; Value.Int b ]

(* The closure the engine must reach, by BFS over the benchmark's own
   copy of the edge set. *)
let closure edges =
  let succ = Hashtbl.create 1024 in
  List.iter (fun (a, b) -> Hashtbl.add succ a b) edges;
  let sources = List.sort_uniq compare (List.map fst edges) in
  List.concat_map
    (fun s ->
      let seen = Hashtbl.create 64 in
      let rec visit = function
        | [] -> ()
        | x :: rest ->
          let next =
            List.filter
              (fun y ->
                if Hashtbl.mem seen y then false
                else begin
                  Hashtbl.replace seen y ();
                  true
                end)
              (Hashtbl.find_all succ x)
          in
          visit (next @ rest)
      in
      visit [ s ];
      Hashtbl.fold (fun y () acc -> (s, y) :: acc) seen [])
    sources
  |> List.sort compare

let tc_pairs p =
  List.filter_map
    (fun (f : Fact.t) ->
      match f.Fact.args with
      | [ Value.Int a; Value.Int b ] -> Some (a, b)
      | _ -> None)
    (Peer.query p "tc")
  |> List.sort compare

(* One in-memory peer loaded with [tc_program] over [edges]; [issue]
   gets the peer and returns the op. [edges ()] is the benchmark's
   current edge set. *)
let tc_env ~initial ~edges ~issue =
  let mtap, transport =
    Taps.messages (Wdl_net.Inmem.create ~sizer:Webdamlog.Message.size ())
  in
  let system = System.create ~transport ~drop_unknown:true () in
  let p = System.add_peer system "p" in
  let load = ref 0. in
  must "tc program" (timed load (fun () -> Peer.load_string p tc_program));
  List.iter (fun (a, b) -> must "edge" (Peer.insert p (edge a b))) initial;
  let settle () = System.run ~max_rounds:1000 system in
  (match settle () with Ok _ -> () | Error e -> failwith ("tc set-up: " ^ e));
  {
    system;
    issue = (fun () -> issue p);
    settle;
    check = (fun () -> tc_pairs p = closure (edges ()));
    faults = (fun () -> 0);
    wire_bytes = (fun () -> 0);
    frames = (fun () -> 0);
    msgs = (fun () -> mtap.Taps.msgs);
    dump = (fun () -> dump system);
    load_s = !load;
  }

(* A forest of chains; each op appends one edge to a random chain, so
   every stage is additive and takes the delta path. *)
let chains = 150
let chain_nodes = 20

let trickle_setup _link ~seed ~episode =
  let rng = Random.State.make [| seed; episode |] in
  let len = Array.make chains chain_nodes in
  let node c i = (c * 1000) + i in
  let edges =
    ref
      (List.concat
         (List.init chains (fun c ->
              List.init (chain_nodes - 1) (fun i -> (node c i, node c (i + 1))))))
  in
  let issue p =
    let c = Random.State.int rng chains in
    let a = node c (len.(c) - 1) and b = node c len.(c) in
    len.(c) <- len.(c) + 1;
    edges := (a, b) :: !edges;
    must "append" (Peer.insert p (edge a b))
  in
  tc_env ~initial:!edges ~edges:(fun () -> !edges) ~issue

(* A seeded random graph; each op deletes one present edge and inserts
   one absent edge in the same stage, so every stage takes the full
   path. The edge count, and so the work per op, stays level. *)
let churn_nodes = 66
let churn_edges = 330

let churn_setup _link ~seed ~episode =
  let rng = Random.State.make [| seed; episode |] in
  let present = Hashtbl.create 1024 in
  let arr =
    Array.of_list
      (Wdl_wepic.Workload.random_edges ~seed:(Random.State.bits rng)
         ~nodes:churn_nodes ~edges:churn_edges)
  in
  Array.iter (fun e -> Hashtbl.replace present e ()) arr;
  let issue p =
    let i = Random.State.int rng (Array.length arr) in
    let da, db = arr.(i) in
    let rec fresh () =
      let a = Random.State.int rng churn_nodes
      and b = Random.State.int rng churn_nodes in
      if a = b || Hashtbl.mem present (a, b) then fresh () else (a, b)
    in
    let na, nb = fresh () in
    Hashtbl.remove present (da, db);
    Hashtbl.replace present (na, nb) ();
    arr.(i) <- (na, nb);
    must "delete" (Peer.delete p (edge da db));
    must "insert" (Peer.insert p (edge na nb))
  in
  tc_env ~initial:(Array.to_list arr) ~edges:(fun () -> Array.to_list arr) ~issue

let all =
  [
    { name = "wepic_tcp"; tcp = true; setup = wepic_setup };
    { name = "tc_trickle"; tcp = false; setup = trickle_setup };
    { name = "tc_churn"; tcp = false; setup = churn_setup };
  ]
