(** Reference evaluator: a deliberately simple, substitution-based
    implementation of exactly {!Fixpoint}'s semantics.

    {!Fixpoint} compiles rules to slot plans for speed; this module
    walks rule ASTs with persistent {!Wdl_syntax.Subst} maps — slower,
    shorter, and easy to audit against the paper. It exists as an
    oracle: the differential property tests run both engines on random
    programs and require identical results, and the A2' benchmark
    measures what plan compilation buys.

    Same contract as {!Fixpoint.run}: mutates the database's
    intensional relations and returns the same {!Fixpoint.result},
    paired with the new local intensional facts it deduced (inserted
    too). [Fixpoint] does not list those; a closure check reads them
    here to find what a peer still owes. *)

val run :
  ?record_provenance:bool ->
  self:string ->
  Wdl_store.Database.t ->
  Wdl_syntax.Rule.t list ->
  (Fixpoint.result * Wdl_syntax.Fact.t list, Stratify.error) result
