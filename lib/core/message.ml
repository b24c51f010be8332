open Wdl_syntax

type t = {
  src : string;
  dst : string;
  stage : int;
  facts : Fact.t list option;
  installs : Rule.t list;
  retracts : Rule.t list;
  fact_origins : string list;
  install_origins : string list;
}

let make ~src ~dst ~stage ?(facts = None) ?(installs = []) ?(retracts = [])
    ?(fact_origins = []) ?(install_origins = []) () =
  { src; dst; stage; facts; installs; retracts; fact_origins; install_origins }

let is_empty m = m.facts = None && m.installs = [] && m.retracts = []

let size m =
  (* The text rendering: facts through the one-line fact writer, rules
     unwrapped ([Format.asprintf] at its default margin wraps long
     rules, and the inserted newline+indent would count bytes no
     rendering holds). *)
  let buf = Buffer.create 256 in
  Option.iter (List.iter (Fact.add_to_buffer buf)) m.facts;
  let rule_size r = String.length (Pp_util.one_line Rule.pp r) in
  Buffer.length buf
  + List.fold_left (fun a r -> a + rule_size r) 0 m.installs
  + List.fold_left (fun a r -> a + rule_size r) 0 m.retracts
  + String.length m.src + String.length m.dst + 8

let pp ppf m =
  Format.fprintf ppf "@[<v 2>%s -> %s (stage %d):" m.src m.dst m.stage;
  (match m.facts with
  | None -> ()
  | Some fs ->
    List.iter (fun f -> Format.fprintf ppf "@ fact %a" Fact.pp f) fs);
  List.iter (fun r -> Format.fprintf ppf "@ install %a" Rule.pp r) m.installs;
  List.iter (fun r -> Format.fprintf ppf "@ retract %a" Rule.pp r) m.retracts;
  Format.fprintf ppf "@]"
