module Obs = Qopt_obs

type mode = Sjf | Fifo

let mode_string = function Sjf -> "sjf" | Fifo -> "fifo"

type 'a entry = { key : float; seq : int; item : 'a }

type 'a t = {
  q_mode : mode;
  mutable heap : 'a entry array;  (* binary min-heap in [0, size) *)
  mutable size : int;
  size_a : int Atomic.t;  (* mirrors [size]; read without the lock *)
  mutable seq : int;
  mutable closed : bool;
  lock : Obs.Lock.t;
}

let create q_mode =
  {
    q_mode;
    heap = [||];
    size = 0;
    size_a = Atomic.make 0;
    seq = 0;
    closed = false;
    lock = Obs.Lock.create "sched";
  }

let mode t = t.q_mode

(* Strict weak order: smaller key first, FIFO within equal keys. *)
let before a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push_locked t entry =
  if t.size = Array.length t.heap then
    t.heap <-
      (let grown = Array.make (max 16 (2 * t.size)) entry in
       Array.blit t.heap 0 grown 0 t.size;
       grown);
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  Atomic.set t.size_a t.size;
  sift_up t (t.size - 1)

let pop_locked t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  Atomic.set t.size_a t.size;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  top.item

let push t ~priority item =
  (* Key selection is pure — only the heap mutation runs under the lock. *)
  let key = match t.q_mode with Sjf -> priority | Fifo -> 0.0 in
  Obs.Lock.with_lock t.lock (fun () ->
      if t.closed then false
      else begin
        push_locked t { key; seq = t.seq; item };
        t.seq <- t.seq + 1;
        true
      end)

let try_pop t =
  Obs.Lock.with_lock t.lock (fun () -> if t.size = 0 then None else Some (pop_locked t))

let drain t =
  Obs.Lock.with_lock t.lock (fun () ->
      let rec go acc = if t.size = 0 then List.rev acc else go (pop_locked t :: acc) in
      go [])

let close t = Obs.Lock.with_lock t.lock (fun () -> t.closed <- true)

let length t = Atomic.get t.size_a
