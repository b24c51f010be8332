type t = {
  rel : string;
  peer : string;
  args : Value.t list;
}

let make ~rel ~peer args =
  if rel = "" then invalid_arg "Fact.make: empty relation name";
  if peer = "" then invalid_arg "Fact.make: empty peer name";
  { rel; peer; args }

let arity f = List.length f.args

let compare a b =
  match String.compare a.rel b.rel with
  | 0 -> (
    match String.compare a.peer b.peer with
    | 0 -> List.compare Value.compare a.args b.args
    | c -> c)
  | c -> c

let equal a b = compare a b = 0
let hash f = Hashtbl.hash (f.rel, f.peer, List.map Value.hash f.args)

let pp_bare_name ppf s =
  if Term.is_ident s then Format.pp_print_string ppf s
  else Value.pp ppf (Value.String s)

let pp ppf f =
  Format.fprintf ppf "@[<hov 2>%a@%a(%a)@]" pp_bare_name f.rel pp_bare_name
    f.peer
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Value.pp)
    f.args

let add_name buf s =
  if Term.is_ident s then Buffer.add_string buf s
  else Value.add_to_buffer buf (Value.String s)

let add_to_buffer buf f =
  add_name buf f.rel;
  Buffer.add_char buf '@';
  add_name buf f.peer;
  Buffer.add_char buf '(';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      Value.add_to_buffer buf v)
    f.args;
  Buffer.add_char buf ')'

let to_string f =
  let buf = Buffer.create 64 in
  add_to_buffer buf f;
  Buffer.contents buf
