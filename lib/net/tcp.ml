type endpoint = { host : string; port : int }

(* A send that could not be delivered yet — connect/write failure, or a
   destination with no route — parked for retry with exponential
   backoff (wall-clock driven: real sockets, real time). *)
type parked = {
  p_dst : string;
  p_payload : string;
  p_seq : int;  (** arrival order: FIFO tie-break under equal deadlines *)
  mutable p_attempts : int;
  mutable p_next : float;
}

(* Deadline-ordered binary min-heap. Replaces the O(n²) list-append
   parking: push/pop are O(log n) however many sends are parked. *)
module Pheap = struct
  type t = { mutable a : parked array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let size h = h.n

  let before x y =
    x.p_next < y.p_next || (x.p_next = y.p_next && x.p_seq < y.p_seq)

  let swap h i j =
    let t = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- t

  let rec up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if before h.a.(i) h.a.(p) then begin
        swap h i p;
        up h p
      end
    end

  let rec down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = ref i in
    if l < h.n && before h.a.(l) h.a.(!s) then s := l;
    if r < h.n && before h.a.(r) h.a.(!s) then s := r;
    if !s <> i then begin
      swap h i !s;
      down h !s
    end

  let push h x =
    if h.n = Array.length h.a then begin
      let a' = Array.make (max 16 (2 * h.n)) x in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    up h (h.n - 1)

  let peek h = if h.n = 0 then None else Some h.a.(0)

  let pop h =
    let x = h.a.(0) in
    h.n <- h.n - 1;
    if h.n > 0 then begin
      h.a.(0) <- h.a.(h.n);
      down h 0
    end;
    x

  (* Rare path (a parked destination turned out to be in-process):
     filter the backing array, re-heapify what stays, hand back the
     extracted entries in arrival order. *)
  let take_dst h dst =
    let mine = ref [] and keep = ref [] in
    for i = 0 to h.n - 1 do
      if h.a.(i).p_dst = dst then mine := h.a.(i) :: !mine
      else keep := h.a.(i) :: !keep
    done;
    let kept = Array.of_list !keep in
    h.a <- kept;
    h.n <- Array.length kept;
    for i = (h.n / 2) - 1 downto 0 do
      down h i
    done;
    List.sort (fun a b -> Int.compare a.p_seq b.p_seq) !mine

  let clear h =
    h.a <- [||];
    h.n <- 0
end

(* An accepted connection that stays open across frames: bytes
   accumulate in [ibuf] until complete frames can be cut out. *)
type inconn = {
  fd : Unix.file_descr;
  ibuf : Buffer.t;
  mutable last : float;  (** last time bytes arrived — stall detection *)
}

type control = {
  server : Unix.file_descr;
  actual_port : int;
  registry : (string, endpoint) Hashtbl.t;
  queues : (string, string Queue.t) Hashtbl.t;
  local : (string, unit) Hashtbl.t;  (* peers that drained here at least once *)
  conns : (string, Unix.file_descr) Hashtbl.t;  (* outbound, by host:port *)
  inbound : (Unix.file_descr, inconn) Hashtbl.t;
  connect_timeout : float;
  read_timeout : float;
  retry_delay : float;
  max_retries : int;
  parked : Pheap.t;
  chunk : Bytes.t;  (* the one read buffer every [pump] reuses *)
  mutable park_seq : int;
  mutable conns_opened : int;
  mutable conns_reused : int;
  mutable dead_letters : int;
  mutable closed : bool;
}

(* Frame layout on one connection: "<dst-bytes>\n<payload-bytes>\n" as
   decimal lengths, then the two byte strings. Unchanged from the
   per-message transport, so old and new processes interoperate; a
   connection now just carries any number of frames back to back. *)
let add_frame buf ~dst payload =
  Buffer.add_string buf
    (Printf.sprintf "%d\n%d\n" (String.length dst) (String.length payload));
  Buffer.add_string buf dst;
  Buffer.add_string buf payload

let write_all fd s =
  let rec loop off =
    if off < String.length s then
      let n = Unix.write_substring fd s off (String.length s - off) in
      loop (off + n)
  in
  loop 0

(* Blocking connect can stall for minutes on a black-holed address; do
   it non-blocking under a select deadline instead. *)
let connect_with_timeout sock addr timeout =
  Unix.set_nonblock sock;
  (try Unix.connect sock addr with
  | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> ());
  match Unix.select [] [ sock ] [] timeout with
  | _, [ _ ], _ -> (
    match Unix.getsockopt_error sock with
    | None -> Unix.clear_nonblock sock
    | Some err -> raise (Unix.Unix_error (err, "connect", "")))
  | _, _, _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))

(* Incremental frame parser over a byte accumulation. *)
type parse = Frame of string * string * int | Need_more | Garbage

(* A frame header is two decimal lengths: anything longer than this
   without a newline cannot be one. *)
let max_header = 24

let parse_frame_at data off =
  let len = String.length data in
  match String.index_from_opt data off '\n' with
  | None -> if len - off > max_header then Garbage else Need_more
  | Some i -> (
    match String.index_from_opt data (i + 1) '\n' with
    | None -> if len - (i + 1) > max_header then Garbage else Need_more
    | Some j -> (
      match
        ( int_of_string_opt (String.sub data off (i - off)),
          int_of_string_opt (String.sub data (i + 1) (j - i - 1)) )
      with
      | Some dst_len, Some payload_len when dst_len >= 0 && payload_len >= 0 ->
        let body = j + 1 in
        if len >= body + dst_len + payload_len then
          Frame
            ( String.sub data body dst_len,
              String.sub data (body + dst_len) payload_len,
              body + dst_len + payload_len )
        else Need_more
      | _, _ -> Garbage))

let queue ctl name =
  match Hashtbl.find_opt ctl.queues name with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace ctl.queues name q;
    q

let parked_sends ctl = Pheap.size ctl.parked
let dead_letters ctl = ctl.dead_letters
let conns_opened ctl = ctl.conns_opened
let conns_reused ctl = ctl.conns_reused

let ep_key ep = ep.host ^ ":" ^ string_of_int ep.port

let fresh_conn ctl ep =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* A round's frames leave as soon as they are written: no Nagle
     holding a second frame until the first is ACKed (DESIGN.md S26). *)
  Unix.setsockopt sock Unix.TCP_NODELAY true;
  (try
     connect_with_timeout sock
       (Unix.ADDR_INET (Unix.inet_addr_of_string ep.host, ep.port))
       ctl.connect_timeout
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  ctl.conns_opened <- ctl.conns_opened + 1;
  sock

let drop_conn ctl key sock =
  Hashtbl.remove ctl.conns key;
  try Unix.close sock with Unix.Unix_error _ -> ()

(* Put [data] on the wire towards [ep]. The connection persists across
   calls; a cached connection that turns out stale (peer restarted)
   gets one retry on a fresh socket before the failure surfaces. *)
let write_conn ctl ep data =
  let key = ep_key ep in
  match Hashtbl.find_opt ctl.conns key with
  | None ->
    let sock = fresh_conn ctl ep in
    Hashtbl.replace ctl.conns key sock;
    (try write_all sock data with e -> drop_conn ctl key sock; raise e)
  | Some sock -> (
    match write_all sock data with
    | () -> ctl.conns_reused <- ctl.conns_reused + 1
    | exception _ ->
      drop_conn ctl key sock;
      let sock = fresh_conn ctl ep in
      Hashtbl.replace ctl.conns key sock;
      (try write_all sock data with e -> drop_conn ctl key sock; raise e))

type outcome = Delivered | Failed | No_route

(* One delivery attempt for everything queued to [dst]; never raises.
   A destination is in-process only if it has drained here ([local]) —
   an unregistered name that never drains is NOT silently queued (that
   was unbounded memory growth for a misrouted peer name); it parks,
   and becomes a dead letter when retries run out. *)
let attempt_many ctl stats ~dst payloads =
  if Hashtbl.mem ctl.local dst then begin
    let q = queue ctl dst in
    List.iter (fun p -> Queue.push p q) payloads;
    Delivered
  end
  else
    match Hashtbl.find_opt ctl.registry dst with
    | None -> No_route
    | Some ep -> (
      let buf = Buffer.create 256 in
      List.iter (fun p -> add_frame buf ~dst p) payloads;
      match write_conn ctl ep (Buffer.contents buf) with
      | () -> Delivered
      | exception Unix.Unix_error _ ->
        stats.Netstats.send_failures <- stats.Netstats.send_failures + 1;
        Failed)

let park ctl ~dst ~attempts payload =
  ctl.park_seq <- ctl.park_seq + 1;
  Pheap.push ctl.parked
    {
      p_dst = dst;
      p_payload = payload;
      p_seq = ctl.park_seq;
      p_attempts = attempts;
      p_next = Unix.gettimeofday () +. ctl.retry_delay;
    }

(* Re-attempt parked sends whose backoff deadline passed — the heap
   hands them over in deadline order. *)
let retry_parked ctl stats =
  let now = Unix.gettimeofday () in
  let rec loop () =
    match Pheap.peek ctl.parked with
    | Some p when p.p_next <= now -> (
      let p = Pheap.pop ctl.parked in
      match attempt_many ctl stats ~dst:p.p_dst [ p.p_payload ] with
      | Delivered ->
        stats.Netstats.retransmits <- stats.Netstats.retransmits + 1;
        loop ()
      | Failed | No_route ->
        p.p_attempts <- p.p_attempts + 1;
        if p.p_attempts <= ctl.max_retries then begin
          p.p_next <-
            now +. (ctl.retry_delay *. (2. ** float_of_int (min 8 p.p_attempts)));
          Pheap.push ctl.parked p
        end
        else begin
          (* Bounded patience: a destination gone (or misspelled) for
             good becomes a counted dead letter, not unbounded growth. *)
          ctl.dead_letters <- ctl.dead_letters + 1;
          stats.Netstats.send_failures <- stats.Netstats.send_failures + 1
        end;
        loop ())
    | _ -> ()
  in
  loop ()

let drop_inbound ctl ic =
  Hashtbl.remove ctl.inbound ic.fd;
  try Unix.close ic.fd with Unix.Unix_error _ -> ()

(* Cut every complete frame out of the connection's buffer; keep the
   partial tail for the next pump. A stream that cannot be a frame
   (garbage header) severs the connection. *)
let extract_frames ctl ic =
  let data = Buffer.contents ic.ibuf in
  let len = String.length data in
  let rec consume off =
    match parse_frame_at data off with
    | Frame (dst, payload, next) ->
      Queue.push payload (queue ctl dst);
      consume next
    | Need_more -> Some off
    | Garbage -> None
  in
  match consume 0 with
  | None -> drop_inbound ctl ic
  | Some off ->
    if off > 0 then begin
      let rest = String.sub data off (len - off) in
      Buffer.clear ic.ibuf;
      Buffer.add_string ic.ibuf rest
    end

(* Accept pending connections and read whatever each open one has
   ready, without ever blocking: per-connection buffers mean a stalled
   or slow writer delays only its own frames (no head-of-line
   blocking), and a writer silent mid-frame past [read_timeout] is
   dropped. Reads go through the endpoint's one [chunk]; its bytes are
   copied into the connection's buffer before the next read, so
   sharing it is safe in this single-threaded pump. A connection that
   brought no new bytes holds no new frame and is not re-parsed. *)
let pump ctl stats =
  if not ctl.closed then begin
    retry_parked ctl stats;
    let rec accept_loop () =
      match Unix.select [ ctl.server ] [] [] 0.0 with
      | [ _ ], _, _ ->
        let client, _ = Unix.accept ctl.server in
        Unix.set_nonblock client;
        Hashtbl.replace ctl.inbound client
          { fd = client; ibuf = Buffer.create 256; last = Unix.gettimeofday () };
        accept_loop ()
      | _, _, _ -> ()
    in
    accept_loop ();
    let now = Unix.gettimeofday () in
    let conns = Hashtbl.fold (fun _ ic acc -> ic :: acc) ctl.inbound [] in
    let chunk = ctl.chunk in
    List.iter
      (fun ic ->
        let closed = ref false and fresh = ref false in
        let rec read_ready () =
          match Unix.read ic.fd chunk 0 (Bytes.length chunk) with
          | 0 -> closed := true
          | n ->
            Buffer.add_subbytes ic.ibuf chunk 0 n;
            ic.last <- now;
            fresh := true;
            read_ready ()
          | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
            ->
            ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> closed := true
        in
        read_ready ();
        if !fresh then extract_frames ctl ic;
        if !closed then drop_inbound ctl ic
        else if Buffer.length ic.ibuf > 0 && now -. ic.last > ctl.read_timeout
        then
          (* Mid-frame and silent past the patience bound: the partial
             frame is dropped, exactly as the bounded reader used to. *)
          drop_inbound ctl ic)
      conns
  end

let create ?(sizer = String.length) ?(port = 0) ?(connect_timeout = 5.0) ?(read_timeout = 5.0) ?(retry_delay = 0.05)
    ?(max_retries = 24) () =
  (* A write to a peer that vanished must surface as EPIPE, not kill
     the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let server = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt server Unix.SO_REUSEADDR true;
  Unix.bind server (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen server 64;
  let actual_port =
    match Unix.getsockname server with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let ctl =
    {
      server;
      actual_port;
      registry = Hashtbl.create 8;
      queues = Hashtbl.create 8;
      local = Hashtbl.create 8;
      conns = Hashtbl.create 8;
      inbound = Hashtbl.create 8;
      connect_timeout;
      read_timeout;
      retry_delay;
      max_retries;
      parked = Pheap.create ();
      chunk = Bytes.create 65536;
      park_seq = 0;
      conns_opened = 0;
      conns_reused = 0;
      dead_letters = 0;
      closed = false;
    }
  in
  let stats = Netstats.create () in
  Netstats.register ~transport:"tcp" stats;
  let counter name help read =
    Wdl_obs.Obs.on_collect ~help
      ~labels:[ ("transport", "tcp") ]
      ~kind:`Counter name
      (fun () -> float_of_int (read ()))
  in
  counter "wdl_net_conns_opened_total" "TCP connections opened" (fun () ->
      ctl.conns_opened);
  counter "wdl_net_conns_reused_total"
    "Sends that rode an already-open connection" (fun () -> ctl.conns_reused);
  counter "wdl_net_dead_letters_total"
    "Parked sends dropped after max_retries" (fun () -> ctl.dead_letters);
  let send_hist =
    Wdl_obs.Obs.histogram
      ~labels:[ ("transport", "tcp") ]
      ~help:"Wall time of one transport send (connect + write)"
      ~buckets:Wdl_obs.Obs.latency_buckets "wdl_net_send_duration_microseconds"
  in
  let drain_hist =
    Wdl_obs.Obs.histogram
      ~labels:[ ("transport", "tcp") ]
      ~help:"Wall time of one transport drain (accept + read)"
      ~buckets:Wdl_obs.Obs.latency_buckets "wdl_net_drain_duration_microseconds"
  in
  let batch_size = Netstats.batch_hist ~transport:"tcp" () in
  let dispatch ~dst payloads =
    match attempt_many ctl stats ~dst payloads with
    | Delivered -> ()
    | Failed ->
      (* Connect/write failures (ECONNREFUSED, EHOSTUNREACH, timeouts)
         must not escape into the caller's round loop. *)
      List.iter (park ctl ~dst ~attempts:1) payloads
    | No_route -> List.iter (park ctl ~dst ~attempts:0) payloads
  in
  let send ~src:_ ~dst payload =
    Wdl_obs.Obs.time send_hist @@ fun () ->
    stats.Netstats.sent <- stats.Netstats.sent + 1;
    stats.Netstats.bytes <- stats.Netstats.bytes + sizer payload;
    dispatch ~dst [ payload ]
  in
  let send_many ~dst items =
    if items <> [] then begin
      Wdl_obs.Obs.time send_hist @@ fun () ->
      stats.Netstats.batches <- stats.Netstats.batches + 1;
      Wdl_obs.Obs.observe batch_size (float_of_int (List.length items));
      let payloads = List.map snd items in
      List.iter
        (fun p ->
          stats.Netstats.sent <- stats.Netstats.sent + 1;
          stats.Netstats.bytes <- stats.Netstats.bytes + sizer p)
        payloads;
      dispatch ~dst payloads
    end
  in
  let drain name =
    Wdl_obs.Obs.time drain_hist @@ fun () ->
    if not (Hashtbl.mem ctl.local name) then begin
      Hashtbl.replace ctl.local name ();
      (* First drain reveals the peer is in-process: flush anything
         parked for it, in arrival order, without waiting for backoff. *)
      List.iter
        (fun p -> Queue.push p.p_payload (queue ctl name))
        (Pheap.take_dst ctl.parked name)
    end;
    pump ctl stats;
    let q = queue ctl name in
    let msgs = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    stats.Netstats.delivered <- stats.Netstats.delivered + List.length msgs;
    msgs
  in
  let queued () =
    Hashtbl.fold (fun _ q acc -> acc + Queue.length q) ctl.queues 0
    + Pheap.size ctl.parked
  in
  let pending () =
    pump ctl stats;
    queued ()
  in
  (* A scrape only reads: pumping here would accept, read and retry
     (even dead-letter) sends behind the round loop's back. *)
  Netstats.register_pending ~transport:"tcp" queued;
  let transport =
    {
      Transport.send;
      send_many;
      drain;
      pending;
      advance = (fun _ -> ());
      now = (fun () -> 0.);
      stats = (fun () -> stats);
    }
  in
  (transport, ctl)

let port ctl = ctl.actual_port
let register ctl ~peer ep = Hashtbl.replace ctl.registry peer ep

let close ctl =
  if not ctl.closed then begin
    ctl.closed <- true;
    Pheap.clear ctl.parked;
    Hashtbl.iter
      (fun _ fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      ctl.conns;
    Hashtbl.reset ctl.conns;
    Hashtbl.iter
      (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
      ctl.inbound;
    Hashtbl.reset ctl.inbound;
    Unix.close ctl.server
  end
