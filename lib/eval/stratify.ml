open Wdl_syntax

type error = Negative_cycle of string list

let pp_error ppf = function
  | Negative_cycle rels ->
    Format.fprintf ppf "negation cycle through relation(s) %s"
      (String.concat ", " rels)

type t = { strata : Rule.t list array }

type node = Rel of string | Star

(* Dependencies a rule contributes: the node its head derives into (if
   it can derive locally) and the nodes its locally-evaluated body
   prefix reads, with polarity. *)
type rule_deps = {
  head_node : node option;
  body_deps : (node * bool (* negated *)) list;
}

let head_node ~self ~intensional (head : Atom.t) =
  match head.rel, head.peer with
  | Term.Var _, _ | _, Term.Var _ -> Some Star
  | Term.Const _, Term.Const _ -> (
    match Term.as_name head.peer, Term.as_name head.rel with
    | Some p, Some c when p = self && intensional c -> Some (Rel c)
    | _, _ -> None)

let body_deps ~self ~intensional body =
  let dep_of (a : Atom.t) =
    match a.rel with
    | Term.Var _ -> Some Star
    | Term.Const _ -> (
      match Term.as_name a.rel with
      | Some c when intensional c -> Some (Rel c)
      | Some _ | None -> None)
  in
  let definitely_remote (a : Atom.t) =
    match a.peer with
    | Term.Var _ -> false
    | Term.Const _ -> (
      match Term.as_name a.peer with Some p -> p <> self | None -> false)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (Literal.Cmp _ | Literal.Assign _) :: rest -> go acc rest
    | Literal.Pos a :: rest ->
      if definitely_remote a then List.rev acc
      else go (match dep_of a with Some n -> (n, false) :: acc | None -> acc) rest
    | Literal.Neg a :: rest ->
      if definitely_remote a then List.rev acc
      else go (match dep_of a with Some n -> (n, true) :: acc | None -> acc) rest
  in
  go [] body

let monotone (r : Rule.t) =
  (not (Rule.is_aggregate r))
  && List.for_all
       (function
         | Literal.Neg _ -> false
         | Literal.Pos _ | Literal.Cmp _ | Literal.Assign _ -> true)
       r.body

let is_sink ~self ~intensional (r : Rule.t) =
  head_node ~self ~intensional r.head = None && monotone r

let assign ~self ~intensional rules =
  let deps =
    List.map
      (fun (r : Rule.t) ->
        let body = body_deps ~self ~intensional r.body in
        (* An aggregate reads its body completely before emitting, so it
           behaves like negation for stratification purposes. *)
        let body =
          if Rule.is_aggregate r then List.map (fun (n, _) -> (n, true)) body
          else body
        in
        (r, { head_node = head_node ~self ~intensional r.head; body_deps = body }))
      rules
  in
  (* Collect the node universe. *)
  let node_ids = Hashtbl.create 16 in
  let nodes = ref [] in
  let intern n =
    match Hashtbl.find_opt node_ids n with
    | Some id -> id
    | None ->
      let id = Hashtbl.length node_ids in
      Hashtbl.add node_ids n id;
      nodes := n :: !nodes;
      id
  in
  List.iter
    (fun (_, d) ->
      Option.iter (fun n -> ignore (intern n)) d.head_node;
      List.iter (fun (n, _) -> ignore (intern n)) d.body_deps)
    deps;
  let n_nodes = Hashtbl.length node_ids in
  let all_ids = List.init n_nodes (fun i -> i) in
  (* Expand Star: Star stands for every node (including itself). *)
  let expand = function Star -> all_ids | Rel _ as n -> [ intern n ] in
  (* edges.(v) = list of (u, negated): v depends on u *)
  let edges = Array.make (max n_nodes 1) [] in
  List.iter
    (fun (_, d) ->
      match d.head_node with
      | None -> ()
      | Some h ->
        let targets =
          match h with Star -> all_ids | Rel _ -> expand h
        in
        List.iter
          (fun (dep, neg) ->
            let sources = expand dep in
            List.iter
              (fun v ->
                List.iter (fun u -> edges.(v) <- (u, neg) :: edges.(v)) sources)
              targets)
          d.body_deps)
    deps;
  (* Tarjan SCC on the dependency graph (edge u -> v when v depends on u,
     i.e. we traverse from v to its dependencies u). *)
  let index = Array.make (max n_nodes 1) (-1) in
  let lowlink = Array.make (max n_nodes 1) 0 in
  let on_stack = Array.make (max n_nodes 1) false in
  let stack = ref [] in
  let counter = ref 0 in
  let scc_of = Array.make (max n_nodes 1) (-1) in
  let scc_count = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (u, _) ->
        if index.(u) = -1 then begin
          strongconnect u;
          lowlink.(v) <- min lowlink.(v) lowlink.(u)
        end
        else if on_stack.(u) then lowlink.(v) <- min lowlink.(v) index.(u))
      edges.(v);
    if lowlink.(v) = index.(v) then begin
      let id = !scc_count in
      incr scc_count;
      let rec pop () =
        match !stack with
        | [] -> ()
        | u :: rest ->
          stack := rest;
          on_stack.(u) <- false;
          scc_of.(u) <- id;
          if u <> v then pop ()
      in
      pop ()
    end
  in
  for v = 0 to n_nodes - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (* Reject negative edges inside an SCC. *)
  let cycle = ref None in
  Array.iteri
    (fun v deps ->
      List.iter
        (fun (u, neg) ->
          if neg && scc_of.(u) = scc_of.(v) && !cycle = None then begin
            let members =
              Hashtbl.fold
                (fun n id acc ->
                  if scc_of.(id) = scc_of.(v) then
                    (match n with Rel r -> r :: acc | Star -> "<any>" :: acc)
                  else acc)
                node_ids []
            in
            cycle := Some (List.sort String.compare members)
          end)
        deps)
    edges;
  match !cycle with
  | Some members -> Error (Negative_cycle members)
  | None ->
    (* Tarjan completes dependency SCCs first, so they receive smaller
       ids; iterating ids upward is topological order. *)
    let scc_stratum = Array.make (max !scc_count 1) 0 in
    for s = 0 to !scc_count - 1 do
      let m = ref 0 in
      for v = 0 to n_nodes - 1 do
        if scc_of.(v) = s then
          List.iter
            (fun (u, neg) ->
              if scc_of.(u) <> s then
                m := max !m (scc_stratum.(scc_of.(u)) + if neg then 1 else 0))
            edges.(v)
      done;
      scc_stratum.(s) <- !m
    done;
    let node_stratum n = scc_stratum.(scc_of.(intern n)) in
    let rule_stratum (d : rule_deps) =
      match d.head_node with
      | Some h -> node_stratum h
      | None ->
        List.fold_left
          (fun acc (dep, neg) ->
            max acc (node_stratum dep + if neg then 1 else 0))
          0 d.body_deps
    in
    (* A sink adds no edge: it runs in the last stratum, where every
       relation it reads is complete, so installing or retracting one
       leaves every other rule's stratum as it was. *)
    let placed =
      List.map
        (fun (r, d) ->
          if is_sink ~self ~intensional r then None else Some (rule_stratum d))
        deps
    in
    let last =
      List.fold_left
        (fun acc s -> match s with Some s -> max acc s | None -> acc)
        0 placed
    in
    Ok (List.map (Option.value ~default:last) placed)

let compute ~self ~intensional rules =
  match assign ~self ~intensional rules with
  | Error e -> Error e
  | Ok placed ->
    let strata = Array.make (List.fold_left max 0 placed + 1) [] in
    List.iter2 (fun s r -> strata.(s) <- r :: strata.(s)) placed rules;
    Ok { strata = Array.map List.rev strata }
