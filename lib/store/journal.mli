(** Append-only journal of base-data changes (a write-ahead log).

    {!Wdl_syntax} snapshots capture a peer's full state; the journal
    records the extensional updates made {e since} the last snapshot so
    that a crash loses nothing between checkpoints. Entries are
    line-oriented text — a one-character tag and a statement in the
    language's own syntax:

    {v
    d ext pictures@Jules(id, name, owner, data);
    + pictures@Jules(7, "hall.jpg", "Jules", "110...");
    - pictures@Jules(7, "hall.jpg", "Jules", "110...");
    v}

    Appends flush to the OS on every entry; {!replay} tolerates a torn
    final line (the usual crash artifact) and reports any other
    corruption. *)

open Wdl_syntax

type entry =
  | Insert of Fact.t
  | Delete of Fact.t
  | Declare of Decl.t

type t

val open_ : string -> t
(** Opens for appending, creating the file if needed. *)

val append : t -> entry -> unit
val close : t -> unit
val path : t -> string

val truncate : t -> unit
(** Empties the journal (after a checkpoint). *)

val replay : string -> (entry list, string) result
(** Reads a journal file; a missing file is an empty journal. A torn
    last line is ignored, even when trailing blank lines follow it (a
    crash mid-append can leave both); malformed lines with real
    entries after them are errors. *)

val repair : string -> (entry list, string) result
(** {!replay}, and when a torn tail was tolerated the file is
    truncated back to the end of the last complete entry — so a later
    append starts a fresh line instead of concatenating onto the torn
    one, which would lose both entries at the next replay. Recovery
    ({!Webdamlog.Persist.recover}) uses this before re-attaching. *)

val entry_equal : entry -> entry -> bool
val pp_entry : Format.formatter -> entry -> unit
