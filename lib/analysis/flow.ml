open Wdl_syntax

(* ------------------------------------------------------------------ *)
(* The abstract domain                                                *)
(* ------------------------------------------------------------------ *)

type peer = Named of string | Any

type node = { n_rel : string option; n_peer : peer }

type edge = {
  e_src : node;
  e_dst : node;
  e_via : peer list;
  e_rule : string;
}

type rule_info = {
  r_id : string;
  r_self : string;
  r_file : string option;
  r_rule : Rule.t;
  r_span : Span.t option;
  r_hops : (int * peer) list;
  r_head : node;
  r_invents : bool;
}

type t = {
  edges : edge list;
  rules : rule_info list;
  selves : string list;
}

type source = {
  src_self : string;
  src_file : string option;
  src_rules : (Rule.t * Span.t option) list;
}

let peer_name = function Named p -> p | Any -> "<any>"

let peer_equal a b =
  match a, b with
  | Named x, Named y -> String.equal x y
  | Any, Any -> true
  | _ -> false

let peers_match a b =
  match a, b with Any, _ | _, Any -> true | Named x, Named y -> String.equal x y

let rels_match a b =
  match a, b with
  | None, _ | _, None -> true
  | Some x, Some y -> String.equal x y

let node_matches a b = rels_match a.n_rel b.n_rel && peers_match a.n_peer b.n_peer

let node_name n =
  Printf.sprintf "%s@%s"
    (match n.n_rel with Some r -> r | None -> "<any>")
    (peer_name n.n_peer)

(* ------------------------------------------------------------------ *)
(* Graph construction                                                 *)
(* ------------------------------------------------------------------ *)

let peer_of_term t =
  match Term.as_name t with
  | Some p -> Named p
  | None -> Any (* variable, or a non-name constant from the wire *)

let node_of_atom (a : Atom.t) =
  { n_rel = Term.as_name a.Atom.rel; n_peer = peer_of_term a.Atom.peer }

(* The evaluation locus walks the body left to right (the paper's
   semantics, [Wdl_eval.Fixpoint.match_pos] at run time): the first
   positive atom whose peer differs from the current locus suspends
   the valuation and ships the residual rule there. A peer variable
   ships to a peer bound only at run time — the [Any] abstraction.
   Two consecutive atoms over the same peer variable stay at the same
   (unknown) locus, so the hop is recorded once. *)
type locus = LNamed of string | LVar of string

let hops ~self (r : Rule.t) =
  let loc = ref (LNamed self) in
  List.concat
    (List.mapi
       (fun i lit ->
         match lit with
         | Literal.Pos a -> (
           match a.Atom.peer with
           | Term.Var v ->
             if !loc = LVar v then []
             else begin
               loc := LVar v;
               [ (i, Any) ]
             end
           | Term.Const _ -> (
             match Term.as_name a.Atom.peer with
             | Some q ->
               if !loc = LNamed q then []
               else begin
                 loc := LNamed q;
                 [ (i, Named q) ]
               end
             | None ->
               (* non-name constant: the evaluator reports an error and
                  derives nothing; no flow *)
               []))
         | Literal.Neg _ | Literal.Cmp _ | Literal.Assign _ ->
           (* negation and builtins evaluate against the local database
              at the current locus; they never ship a residual *)
           [])
       r.Rule.body)

let dedup_peers ps =
  List.rev
    (List.fold_left
       (fun acc p -> if List.exists (peer_equal p) acc then acc else p :: acc)
       [] ps)

let info_of_rule ~self ~file ~id (r : Rule.t) span =
  let head = r.Rule.head in
  let head_node = node_of_atom head in
  {
    r_id = id;
    r_self = self;
    r_file = file;
    r_rule = r;
    r_span = span;
    r_hops = hops ~self r;
    r_head = head_node;
    r_invents =
      (match head.Atom.rel, head.Atom.peer with
      | Term.Var _, _ | _, Term.Var _ -> true
      | _ -> false);
  }

let edges_of_info (info : rule_info) =
  List.concat
    (List.mapi
       (fun i lit ->
         match lit with
         | Literal.Pos a ->
           (* Bindings of atom [i] ship with every residual created at a
              later boundary, and flow into the head. *)
           let via =
             dedup_peers
               (List.filter_map
                  (fun (j, p) -> if j > i then Some p else None)
                  info.r_hops)
           in
           [ { e_src = node_of_atom a; e_dst = info.r_head; e_via = via;
               e_rule = info.r_id } ]
         | Literal.Neg _ | Literal.Cmp _ | Literal.Assign _ -> [])
       info.r_rule.Rule.body)

let build (sources : source list) =
  let rules =
    List.concat_map
      (fun s ->
        List.mapi
          (fun i (r, span) ->
            info_of_rule ~self:s.src_self ~file:s.src_file
              ~id:(Printf.sprintf "%s#%d" s.src_self (i + 1))
              r span)
          s.src_rules)
      sources
  in
  {
    edges = List.concat_map edges_of_info rules;
    rules;
    selves = List.sort_uniq String.compare (List.map (fun s -> s.src_self) sources);
  }

let of_labeled ~self labeled =
  let rules =
    List.map
      (fun (id, r) -> info_of_rule ~self ~file:None ~id r None)
      labeled
  in
  {
    edges = List.concat_map edges_of_info rules;
    rules;
    selves = [ self ];
  }

let rule_info t id = List.find_opt (fun i -> i.r_id = id) t.rules

(* ------------------------------------------------------------------ *)
(* Reachability                                                       *)
(* ------------------------------------------------------------------ *)

type reach = {
  start : node;
  reached : (node * edge list) list;
  via_peers : (peer * edge list) list;
}

(* BFS over edge activations: an edge fires when its source pattern
   matches any node reached so far ([Any]/variable positions match in
   both directions — the over-approximation the runtime oracle checks).
   The witness for each reached node is the chain of rules that
   carries facts there. *)
let reachable t start =
  let reached = ref [ (start, []) ] in
  let via = ref [] in
  let fired = Array.make (List.length t.edges) false in
  let edges = Array.of_list t.edges in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun k e ->
        if not fired.(k) then
          match
            List.find_opt (fun (n, _) -> node_matches e.e_src n) !reached
          with
          | None -> ()
          | Some (_, path) ->
            fired.(k) <- true;
            progress := true;
            let path = path @ [ e ] in
            if
              not
                (List.exists
                   (fun (n, _) ->
                     n.n_rel = e.e_dst.n_rel && peer_equal n.n_peer e.e_dst.n_peer)
                   !reached)
            then reached := !reached @ [ (e.e_dst, path) ];
            List.iter
              (fun p ->
                if not (List.exists (fun (p', _) -> peer_equal p p') !via)
                then via := !via @ [ (p, path) ])
              e.e_via)
      edges
  done;
  {
    start;
    reached = List.filter (fun (n, path) -> path <> [] || n <> start) !reached;
    via_peers = !via;
  }

(* The peers that may learn facts derived from the start relation:
   every reached node's peer plus every delegation-hop target on the
   way (residual rules carry the bindings accumulated so far). *)
let reach_peers (r : reach) =
  let named = ref [] and any = ref false in
  let add = function
    | Any -> any := true
    | Named p -> if not (List.mem p !named) then named := p :: !named
  in
  List.iter (fun (n, _) -> add n.n_peer) r.reached;
  List.iter (fun (p, _) -> add p) r.via_peers;
  (List.sort String.compare !named, !any)

let witness (r : reach) ~peer =
  match
    List.find_opt (fun (n, _) -> peer_equal n.n_peer peer) r.reached
  with
  | Some (_, path) -> Some path
  | None ->
    Option.map snd (List.find_opt (fun (p, _) -> peer_equal p peer) r.via_peers)

(* Peers a single rule's execution may deliver messages to: the head's
   peer and every delegation-hop target — residuals shipped at a hop
   evaluate remotely on this rule's behalf, so their deliveries are
   still attributed to this rule's id. *)
let rule_sends t id =
  match rule_info t id with
  | None -> ([], false)
  | Some info ->
    let named = ref [] and any = ref false in
    let add = function
      | Any -> any := true
      | Named p -> if not (List.mem p !named) then named := p :: !named
    in
    add info.r_head.n_peer;
    List.iter (fun (_, p) -> add p) info.r_hops;
    (* A variable head relation or peer can also be delivered locally
       under an invented name; [Any] already covers remote cases. *)
    (List.sort String.compare !named, !any)

(* ------------------------------------------------------------------ *)
(* Queries used by the renderers and diagnostics                      *)
(* ------------------------------------------------------------------ *)

(* Concrete relations appearing in the graph, sorted: the rows of the
   flow report. *)
let relations t =
  let nodes =
    List.concat_map (fun e -> [ e.e_src; e.e_dst ]) t.edges
    |> List.filter_map (fun n ->
           match n.n_rel, n.n_peer with
           | Some r, Named p -> Some (r, p)
           | _ -> None)
  in
  List.sort_uniq compare nodes

let path_ids path = List.map (fun e -> e.e_rule) path

(* ------------------------------------------------------------------ *)
(* Renderers                                                          *)
(* ------------------------------------------------------------------ *)

let one_line pp v =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf max_int;
  pp ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let render_text t =
  let buf = Buffer.create 1024 in
  let rel_rows = relations t in
  List.iter
    (fun (rel, p) ->
      let r = reachable t { n_rel = Some rel; n_peer = Named p } in
      let named, any = reach_peers r in
      let foreign = List.filter (fun q -> q <> p) named in
      let peers_desc =
        match foreign, any with
        | [], false -> "stays at " ^ p
        | _ ->
          "reaches "
          ^ String.concat ", "
              (foreign @ if any then [ "<any> (delegation-bound peers)" ] else [])
      in
      Buffer.add_string buf (Printf.sprintf "%s@%s: %s\n" rel p peers_desc);
      List.iter
        (fun (n, path) ->
          Buffer.add_string buf
            (Printf.sprintf "  -> %s  [%s]\n" (node_name n)
               (String.concat " -> " (path_ids path))))
        r.reached;
      List.iter
        (fun (pv, path) ->
          Buffer.add_string buf
            (Printf.sprintf "  ~> bindings ship to %s  [%s]\n"
               (match pv with Named q -> "peer " ^ q | Any -> "<any> peer")
               (String.concat " -> " (path_ids path))))
        r.via_peers)
    rel_rows;
  if rel_rows <> [] then Buffer.add_char buf '\n';
  Buffer.add_string buf "rules:\n";
  List.iter
    (fun info ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: %s\n" info.r_id
           (one_line Rule.pp info.r_rule)))
    t.rules;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json t =
  let str s = Printf.sprintf "\"%s\"" (json_escape s) in
  let list xs = "[" ^ String.concat "," xs ^ "]" in
  let peer_json = function Named p -> str p | Any -> str "<any>" in
  let node_json n =
    Printf.sprintf "{\"rel\":%s,\"peer\":%s}"
      (match n.n_rel with Some r -> str r | None -> "null")
      (peer_json n.n_peer)
  in
  let edge_json e =
    Printf.sprintf
      "{\"src\":%s,\"dst\":%s,\"via\":%s,\"rule\":%s}"
      (node_json e.e_src) (node_json e.e_dst)
      (list (List.map peer_json e.e_via))
      (str e.e_rule)
  in
  let rel_json (rel, p) =
    let r = reachable t { n_rel = Some rel; n_peer = Named p } in
    let named, any = reach_peers r in
    Printf.sprintf
      "{\"relation\":%s,\"peer\":%s,\"reachable_peers\":%s,\"any\":%b,\"witnesses\":%s}"
      (str rel) (str p)
      (list (List.map str named))
      any
      (list
         (List.map
            (fun (n, path) ->
              Printf.sprintf "{\"node\":%s,\"rules\":%s}" (node_json n)
                (list (List.map str (path_ids path))))
            r.reached))
  in
  let rule_json info =
    Printf.sprintf "{\"id\":%s,\"peer\":%s,\"rule\":%s}"
      (str info.r_id) (str info.r_self)
      (str (one_line Rule.pp info.r_rule))
  in
  Printf.sprintf
    "{\n  \"relations\": %s,\n  \"edges\": %s,\n  \"rules\": %s\n}"
    (list (List.map rel_json (relations t)))
    (list (List.map edge_json t.edges))
    (list (List.map rule_json t.rules))

let render_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph flow {\n  rankdir=LR;\n";
  let seen = Hashtbl.create 16 in
  let declare n =
    let name = node_name n in
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      let shape =
        match n.n_peer with Any -> "doubleoctagon" | Named _ -> "box"
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [shape=%s];\n" name shape)
    end
  in
  List.iter
    (fun e ->
      declare e.e_src;
      declare e.e_dst)
    t.edges;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\"];\n"
           (node_name e.e_src) (node_name e.e_dst) e.e_rule);
      List.iter
        (fun p ->
          let pname = Printf.sprintf "peer:%s" (peer_name p) in
          if not (Hashtbl.mem seen pname) then begin
            Hashtbl.add seen pname ();
            Buffer.add_string buf
              (Printf.sprintf "  \"%s\" [shape=ellipse,style=dotted];\n" pname)
          end;
          Buffer.add_string buf
            (Printf.sprintf
               "  \"%s\" -> \"%s\" [label=\"%s\",style=dashed];\n"
               (node_name e.e_src) pname e.e_rule))
        e.e_via)
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
