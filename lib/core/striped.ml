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

module Lru = struct
  type 'v slot = {
    v : 'v;
    mutable last : int;  (* clock value of the last touch *)
  }

  type ('k, 'v) t = {
    tbl : ('k, 'v slot) Hashtbl.t;
    cap : int;
    mutable clock : int;
  }

  let create cap = { tbl = Hashtbl.create (min cap 64); cap; clock = 0 }

  let touch t s =
    t.clock <- t.clock + 1;
    s.last <- t.clock

  let find t k =
    match Hashtbl.find_opt t.tbl k with
    | Some s ->
      touch t s;
      Some s.v
    | None -> None

  let peek t k = Option.map (fun s -> s.v) (Hashtbl.find_opt t.tbl k)

  let mem t k = Hashtbl.mem t.tbl k

  let length t = Hashtbl.length t.tbl

  let remove t k = Hashtbl.remove t.tbl k

  let fold f t acc = Hashtbl.fold (fun k s acc -> f k s.v acc) t.tbl acc

  let evict t =
    let victim =
      Hashtbl.fold
        (fun k s acc ->
          match acc with
          | Some (_, last) when last <= s.last -> acc
          | _ -> Some (k, s.last))
        t.tbl None
    in
    match victim with
    | None -> false
    | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      true

  let replace t k v =
    let evicted = (not (Hashtbl.mem t.tbl k)) && Hashtbl.length t.tbl >= t.cap && evict t in
    let s = { v; last = 0 } in
    touch t s;
    Hashtbl.replace t.tbl k s;
    evicted
end
