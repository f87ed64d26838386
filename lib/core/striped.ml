module Obs = Qopt_obs

(* [locks] is empty for an unshared map, one lock per stripe otherwise. *)
type 'a t = {
  states : 'a array;
  locks : Obs.Lock.t array;
}

let count ~shared ~capacity = if shared then max 1 (min 8 capacity) else 1

let share ~capacity ~count i = (capacity / count) + if i < capacity mod count then 1 else 0

let create ~shared ~capacity family init =
  let n = count ~shared ~capacity in
  {
    states = Array.init n (fun i -> init (share ~capacity ~count:n i));
    locks = (if shared then Array.init n (fun _ -> Obs.Lock.create family) else [||]);
  }

let locked t i f =
  let s = t.states.(i) in
  if Array.length t.locks = 0 then f s
  else Obs.Lock.with_lock t.locks.(i) (fun () -> f s)

let with_key t key f = locked t (Hashtbl.hash key mod Array.length t.states) f

let fold t f init =
  let acc = ref init in
  for i = 0 to Array.length t.states - 1 do
    acc := locked t i (fun s -> f !acc s)
  done;
  !acc

let evict_lru tbl tick =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, t) when t <= tick e -> acc
        | _ -> Some (k, tick e))
      tbl None
  in
  match victim with
  | None -> false
  | Some (k, _) ->
    Hashtbl.remove tbl k;
    true
