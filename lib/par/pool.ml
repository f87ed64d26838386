module Obs = Qopt_obs

(* One pool implementation serves two lifetimes.  A persistent pool ([t])
   spawns its helper domains once; they block on a condition variable
   while idle and join each batch a caller submits.  [map_indexed] is a
   pool that lives for one batch.  Within a batch, task indices are seeded
   round-robin into one work-stealing deque per participant, and a
   participant steals from the others once its own deque drains.  Tasks
   never enqueue new tasks, so a participant leaves the batch as soon as a
   full sweep over every other deque reports Empty. *)

let max_domains = Obs.Shard.max_slots

(* Re-entrancy guard: a task that itself calls into the pool runs its inner
   batch sequentially.  Nested pools would oversubscribe the machine and
   hand out overlapping obs shard slots. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let clamp_domains d = max 1 (min d max_domains)

(* Between failed steal sweeps, back off exponentially: spin [2^level]
   pause hints while the contended window is likely shorter than a
   scheduler quantum, then escalate to yielding the whole timeslice.  On
   an oversubscribed box (CI: more domains than cores) the yield is what
   lets the domain actually holding the deque run — busy relaxing would
   spin out the quantum that victim needs to finish its pop. *)
let yield_level = 6

let backoff level =
  if level < yield_level then
    for _ = 1 to 1 lsl level do
      Domain.cpu_relax ()
    done
  else Thread.yield ()

let run_worker ~deques ~domains ~w ~run =
  let own = deques.(w) in
  (* Sweep every other deque once; Retry means a race was lost while tasks
     may remain, so sweep again (after backing off) until the sweep is
     clean.  The backoff level resets on every successful steal. *)
  let rec try_steal k saw_retry level =
    if k = domains then
      if saw_retry then begin
        backoff level;
        try_steal 1 false (min (level + 1) yield_level)
      end
      else None
    else
      match Deque.steal deques.((w + k) mod domains) with
      | Deque.Stolen i -> Some i
      | Deque.Retry -> try_steal (k + 1) true level
      | Deque.Empty -> try_steal (k + 1) saw_retry level
  in
  let rec loop () =
    match Deque.pop own with
    | Some i ->
      run i;
      loop ()
    | None -> (
      match try_steal 1 false 0 with
      | Some i ->
        run i;
        loop ()
      | None -> ())
  in
  loop ()

(* One submitted batch: the seeded deques, the task runner, and how many
   helpers are inside it (under the pool's mutex). *)
type batch = {
  deques : int Deque.t array;
  run_task : int -> unit;
  mutable joined : int;
}

type t = {
  helpers : int;
  m : Mutex.t;
  wake : Condition.t;  (* helpers: a batch was posted, or the pool closed *)
  left : Condition.t;  (* submitter: the last joined helper left *)
  mutable posted : batch option;  (* open for helpers to join *)
  mutable epoch : int;  (* bumped per batch: a helper joins each at most once *)
  mutable busy : bool;  (* a submitter holds the helpers *)
  mutable closed : bool;
  mutable domains : unit Domain.t array;
}

let helpers t = t.helpers

(* Helper [k] (1-based) is participant [k] of every batch wide enough to
   have one, and records metrics on shard slot [first_slot + k - 1]. *)
let helper_main t ~slot ~minor_heap_words k () =
  Domain.DLS.set in_worker true;
  Obs.Shard.set_slot slot;
  Option.iter
    (fun words -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = words })
    minor_heap_words;
  let rec loop seen =
    Mutex.lock t.m;
    while (not t.closed) && (t.posted = None || t.epoch = seen) do
      Condition.wait t.wake t.m
    done;
    match t.posted with
    | _ when t.closed -> Mutex.unlock t.m
    | None -> assert false
    | Some b ->
      let epoch = t.epoch in
      let domains = Array.length b.deques in
      if k < domains then b.joined <- b.joined + 1;
      Mutex.unlock t.m;
      if k < domains then begin
        run_worker ~deques:b.deques ~domains ~w:k ~run:b.run_task;
        Mutex.lock t.m;
        b.joined <- b.joined - 1;
        if b.joined = 0 then Condition.broadcast t.left;
        Mutex.unlock t.m
      end;
      loop epoch
  in
  loop 0

let create ?minor_heap_words ~helpers ~first_slot () =
  if helpers < 0 || (helpers > 0 && (first_slot < 1 || first_slot + helpers > max_domains))
  then
    invalid_arg
      (Printf.sprintf "Qopt_par.Pool.create: %d helpers from slot %d exceed [1, %d)"
         helpers first_slot max_domains);
  let t =
    {
      helpers;
      m = Mutex.create ();
      wake = Condition.create ();
      left = Condition.create ();
      posted = None;
      epoch = 0;
      busy = false;
      closed = false;
      domains = [||];
    }
  in
  t.domains <-
    Array.init helpers (fun i ->
        Domain.spawn (helper_main t ~slot:(first_slot + i) ~minor_heap_words (i + 1)));
  t

let close t =
  Mutex.lock t.m;
  let first = not t.closed in
  t.closed <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.m;
  if first then Array.iter Domain.join t.domains

(* Claim the helpers for one batch; a caller that finds them held by
   another submitter runs its batch alone instead of waiting. *)
let acquire t =
  Mutex.lock t.m;
  let ok = (not t.busy) && not t.closed in
  if ok then t.busy <- true;
  Mutex.unlock t.m;
  ok

type cell =
  | Pending
  | Done
  | Exn of exn * Printexc.raw_backtrace

let run t n f =
  if n <= 0 then ()
  else if n = 1 || t.helpers = 0 || Domain.DLS.get in_worker || not (acquire t)
  then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let domains = min (t.helpers + 1) n in
    let deques = Array.init domains (fun _ -> Deque.create ((n / domains) + 1)) in
    (* Deterministic round-robin seeding: task i starts in deque (i mod d).
       Stealing may move it, but tasks carry their index, so placement never
       affects results — only load balance. *)
    for i = 0 to n - 1 do
      Deque.push deques.(i mod domains) i
    done;
    let cells = Array.make n Pending in
    let run_task i =
      cells.(i) <-
        (try
           f i;
           Done
         with e -> Exn (e, Printexc.get_raw_backtrace ()))
    in
    let b = { deques; run_task; joined = 0 } in
    Mutex.lock t.m;
    t.posted <- Some b;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.m;
    Domain.DLS.set in_worker true;
    Fun.protect
      ~finally:(fun () ->
        (* The barrier: close the batch to late helpers, then wait for the
           ones inside it to finish their last task. *)
        Mutex.lock t.m;
        t.posted <- None;
        while b.joined > 0 do
          Condition.wait t.left t.m
        done;
        t.busy <- false;
        Mutex.unlock t.m;
        Domain.DLS.set in_worker false)
      (fun () -> run_worker ~deques ~domains ~w:0 ~run:run_task);
    Array.iter
      (function
        | Done -> ()
        | Exn (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending ->
          (* Unreachable: every index is seeded exactly once and the
             participants drain until all deques are empty. *)
          assert false)
      cells
  end

let map_indexed ?(domains = 1) n f =
  let domains = clamp_domains (min domains (max 1 n)) in
  if n = 0 then [||]
  else if domains = 1 || Domain.DLS.get in_worker then Array.init n f
  else begin
    let results = Array.make n None in
    (* Helpers take slots 1..domains-1; the caller keeps its own. *)
    let t = create ~helpers:(domains - 1) ~first_slot:1 () in
    Fun.protect
      ~finally:(fun () -> close t)
      (fun () -> run t n (fun i -> results.(i) <- Some (f i)));
    Array.map Option.get results
  end
