type 'a t = {
  send : src:string -> dst:string -> 'a -> unit;
  send_many : dst:string -> (string * 'a) list -> unit;
  drain : string -> 'a list;
  pending : unit -> int;
  advance : float -> unit;
  now : unit -> float;
  stats : unit -> Netstats.t;
}

let send t = t.send
let send_many t = t.send_many
let drain t = t.drain
