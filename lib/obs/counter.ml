(* Each slot's cell sits on its own cache line: [stride] ints (64 bytes)
   apart, so domains bumping the same counter on different slots — a
   worker and a helper costing plans of one compile — never write to one
   line. *)
let stride = 8

type t = {
  name : string;
  values : int array;  (* slot [s]'s cell at [s * stride]; merged value is the sum *)
}

let make name = { name; values = Array.make (Shard.max_slots * stride) 0 }

let name t = t.name

let incr t =
  if !Control.on then begin
    let i = Shard.slot () * stride in
    t.values.(i) <- t.values.(i) + 1
  end

let add t n =
  if !Control.on then begin
    let i = Shard.slot () * stride in
    t.values.(i) <- t.values.(i) + n
  end

(* Read on hot paths too (hit-rate gauges), so only the slots in use are
   visited: one cache line each. *)
let value t =
  let v = ref 0 in
  for s = 0 to Shard.in_use () - 1 do
    v := !v + t.values.(s * stride)
  done;
  !v

let reset t = Array.fill t.values 0 (Array.length t.values) 0
