type 'a loc = { node : 'a; span : Span.t }

type rule = {
  rule : Rule.t;
  span : Span.t;
  head_span : Span.t;
  lit_spans : Span.t list;
}

type statement =
  | Decl of Decl.t loc
  | Fact of Fact.t loc
  | Rule of rule

type program = statement list

let strip =
  List.map (function
    | Decl { node; _ } -> Program.Decl node
    | Fact { node; _ } -> Program.Fact node
    | Rule { rule; _ } -> Program.Rule rule)

let lit_span (r : rule) i =
  List.nth_opt r.lit_spans i |> Option.value ~default:r.span
