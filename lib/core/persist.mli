(** Durable peers: checkpoint + write-ahead journal in a directory.

    A peer is someone's laptop (§4): it stops, crashes and restarts.
    {!attach} starts journaling base-data changes to [dir/journal.wal];
    {!checkpoint} writes the full state to [dir/snapshot.wdl] and
    truncates the journal; {!recover} rebuilds the peer from the last
    checkpoint plus the journal's tail, tolerating the torn final line
    a crash leaves behind {e and} cutting it off the file
    ({!Wdl_store.Journal.repair}) so post-recovery appends replay
    cleanly.

    What the journal covers is local base data. Rules, pending
    approvals and ACL state recover to the last checkpoint, so a rule
    change after it is lost in a crash. Delegations and cached batches
    also come back from the checkpoint, but
    {!System.adopt_peer} drops both sides' copies and has the peers
    re-announce their current state, so they re-converge rather than
    resume — checkpoint on clean shutdown, and rely on the journal for
    what a crash would otherwise lose. *)

val attach : Peer.t -> dir:string -> unit
(** Creates [dir] if needed and starts journaling. *)

val checkpoint : Peer.t -> dir:string -> unit
(** Atomic: the snapshot is written to a temporary file and renamed
    over [dir/snapshot.wdl] before the journal truncates. *)

val recover :
  ?on_replay:(Wdl_store.Journal.entry -> unit) ->
  dir:string ->
  fallback_name:string ->
  unit ->
  (Peer.t, string) result
(** Loads [dir/snapshot.wdl] if present (otherwise a fresh peer named
    [fallback_name]), replays [dir/journal.wal], and re-attaches the
    journal so the peer keeps journaling. [on_replay] observes each
    journal entry as it is applied (crash-recovery logging). *)
