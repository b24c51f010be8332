(** Arithmetic / string expressions used by builtin body literals.

    The 2013 system exposed comparisons and simple computation through
    Bud; we surface them as builtin literals: [$x < $y], [$z := $x + 1].
    Expressions are evaluated only when all their variables are bound
    (enforced by {!Safety}). *)

type t =
  | Const of Value.t
  | Var of string
  | Add of t * t  (** numeric addition, or string concatenation *)
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (** integer division on ints; [Division_by_zero] -> error *)

type error =
  | Unbound_variable of string
  | Type_error of string  (** human-readable description *)

val eval : Subst.t -> t -> (Value.t, error) result

(** {1 The operators on values}

    Shared by {!eval} and compiled plans. Float results that would be
    NaN are a [Type_error]: NaN has no literal, so no relation holds
    it. *)

val add : Value.t -> Value.t -> (Value.t, error) result
val sub : Value.t -> Value.t -> (Value.t, error) result
val mul : Value.t -> Value.t -> (Value.t, error) result
val div : Value.t -> Value.t -> (Value.t, error) result

val vars : t -> string list
(** Free variables, each listed once, in first-occurrence order. *)

val subst : Subst.t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_error : Format.formatter -> error -> unit
