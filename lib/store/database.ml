open Wdl_syntax

type info = {
  name : string;
  kind : Decl.kind;
  arity : int;
  cols : string list;
  data : Relation.t;
}

type t = {
  pool : Intern.t;  (* shared by every relation of this database *)
  rels : (string, info) Hashtbl.t;
  scratch : (string, Relation.t) Hashtbl.t;  (* cleared, by relation *)
}

type error =
  | Arity_mismatch of { rel : string; expected : int; got : int }
  | Kind_mismatch of { rel : string; declared : Decl.kind }

let pp_error ppf = function
  | Arity_mismatch { rel; expected; got } ->
    Format.fprintf ppf "relation %s has arity %d but got %d" rel expected got
  | Kind_mismatch { rel; declared } ->
    Format.fprintf ppf "relation %s is already declared %a" rel Decl.pp_kind
      declared

let create () =
  { pool = Intern.create (); rels = Hashtbl.create 16; scratch = Hashtbl.create 8 }

let pool t = t.pool

let make_info t ~name ~kind ~arity ~cols =
  let info =
    { name; kind; arity; cols;
      data = Relation.create ~pool:t.pool ~arity () }
  in
  Hashtbl.replace t.rels name info;
  info

let declare t (d : Decl.t) =
  match Hashtbl.find_opt t.rels d.rel with
  | None -> Ok (make_info t ~name:d.rel ~kind:d.kind ~arity:(Decl.arity d) ~cols:d.cols)
  | Some info ->
    if info.kind <> d.kind then
      Error (Kind_mismatch { rel = d.rel; declared = info.kind })
    else if info.arity <> Decl.arity d then
      Error (Arity_mismatch { rel = d.rel; expected = info.arity; got = Decl.arity d })
    else Ok info

let ensure t ~rel ~arity =
  match Hashtbl.find_opt t.rels rel with
  | None -> Ok (make_info t ~name:rel ~kind:Decl.Extensional ~arity ~cols:[])
  | Some info ->
    if info.arity <> arity then
      Error (Arity_mismatch { rel; expected = info.arity; got = arity })
    else Ok info

let find t name = Hashtbl.find_opt t.rels name
let kind t name = Option.map (fun i -> i.kind) (find t name)
let is_intensional t name =
  match find t name with
  | Some { kind = Decl.Intensional; _ } -> true
  | Some { kind = Decl.Extensional; _ } | None -> false

let insert t ~rel tuple =
  Result.map
    (fun info -> Relation.insert info.data tuple)
    (ensure t ~rel ~arity:(Tuple.arity tuple))

let delete t ~rel tuple =
  Result.map
    (fun info -> Relation.delete info.data tuple)
    (ensure t ~rel ~arity:(Tuple.arity tuple))

let mem t ~rel tuple =
  match Hashtbl.find_opt t.rels rel with
  | None -> false
  | Some info ->
    info.arity = Tuple.arity tuple && Relation.mem info.data tuple

let relations t =
  Hashtbl.fold (fun _ info acc -> info :: acc) t.rels []
  |> List.sort (fun a b -> String.compare a.name b.name)

let fold f t acc = Hashtbl.fold (fun _ info acc -> f info acc) t.rels acc

let clear_intensional t =
  Hashtbl.iter
    (fun _ info ->
      match info.kind with
      | Decl.Intensional -> Relation.clear info.data
      | Decl.Extensional -> ())
    t.rels

(* Several scratch relations per name may be out at once (a run's
   current and next delta); [Hashtbl.add] keeps each returned one. *)
let take_scratch t ~rel ~arity =
  match Hashtbl.find_opt t.scratch rel with
  | Some r when Relation.arity r = arity ->
    Hashtbl.remove t.scratch rel;
    r
  | Some _ | None -> Relation.create ~pool:t.pool ~indexing:false ~arity ()

let give_scratch t ~rel r =
  Relation.clear r;
  Hashtbl.add t.scratch rel r

let interned_count t = Intern.size t.pool

let memory_bytes t =
  Hashtbl.fold
    (fun _ info acc -> acc + Relation.memory_bytes info.data)
    t.rels
    (Intern.memory_bytes t.pool)

let copy t =
  (* The copy gets its own pool with the same ids, so values it derives
     (an ad-hoc query's, say) never grow the original's pool. *)
  let fresh =
    {
      pool = Intern.copy t.pool;
      rels = Hashtbl.create (Hashtbl.length t.rels);
      scratch = Hashtbl.create 8;
    }
  in
  Hashtbl.iter
    (fun name info ->
      Hashtbl.replace fresh.rels name
        { info with data = Relation.copy ~pool:fresh.pool info.data })
    t.rels;
  fresh

let pp ~peer ppf t =
  let facts =
    List.concat_map
      (fun info ->
        List.map
          (fun tuple -> Fact.make ~rel:info.name ~peer (Tuple.to_list tuple))
          (Relation.to_sorted_list info.data))
      (relations t)
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
    (fun ppf f -> Format.fprintf ppf "%a;" Fact.pp f)
    ppf facts
