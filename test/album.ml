(* Shared fixture: the album/attendee delegation scenario (the paper's
   Wepic shape). sigmod aggregates every attendee's pictures into the
   album; each attendee mirrors the album back. Delegations flow both
   ways and fact batches cross every link. *)
open Wdl_syntax
open Webdamlog
open Check

let attendees = [ "alice"; "bob"; "carol"; "dave" ]

let load_album sys attendees =
  let sigmod = System.add_peer sys "sigmod" in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "ext attendee@sigmod(a);\nint album@sigmod(id, name, owner);\n";
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "attendee@sigmod(%S);\n" a))
    attendees;
  Buffer.add_string buf
    "album@sigmod($i, $n, $a) :- attendee@sigmod($a), pictures@$a($i, $n);\n";
  ok (Peer.load_string sigmod (Buffer.contents buf));
  List.iter
    (fun a ->
      let p = System.add_peer sys a in
      ok
        (Peer.load_string p
           (Printf.sprintf
              {|ext pictures@%s(id, name);
                int myAlbum@%s(id, name, owner);
                pictures@%s(1, "%s_1.jpg");
                pictures@%s(2, "%s_2.jpg");
                myAlbum@%s($i, $n, $o) :- album@sigmod($i, $n, $o);|}
              a a a a a a a)))
    attendees

(* Byte dump of every relation at every peer, canonically ordered. *)
let dump sys =
  let buf = Buffer.create 1024 in
  let peers =
    List.sort
      (fun p q -> String.compare (Peer.name p) (Peer.name q))
      (System.peers sys)
  in
  List.iter
    (fun p ->
      Buffer.add_string buf ("== " ^ Peer.name p ^ "\n");
      List.iter
        (fun rel ->
          List.iter
            (fun f ->
              Buffer.add_string buf (Format.asprintf "%a" Fact.pp f);
              Buffer.add_char buf '\n')
            (Peer.query p rel))
        (List.sort String.compare (Peer.relation_names p)))
    peers;
  Buffer.contents buf
