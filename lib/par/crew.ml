module Obs = Qopt_obs
module Timer = Qopt_util.Timer

(* Retiring as soon as the queue emptied made a busy server spawn and
   retire a domain between most compiles and doubled its peak RSS; 200 ms
   kept RSS and every other serving metric at the always-live numbers. *)
let idle_spell_s = 0.2

(* Domain churn is process state, not compile work: it has its own
   registry, so a compile's reading of the default one does not depend on
   whether a helper had to be respawned for it. *)
let registry = Obs.Registry.create ~name:"domains" ()

let spawned = Obs.Registry.counter registry "domains.spawned"

let retired = Obs.Registry.counter registry "domains.retired"

(* A member is [Free] (no domain), [Up] (spawning, working or asleep) or
   [Retiring] (told to exit; the retiring tick joins it, then frees it). *)
type phase = Free | Up | Retiring

type member = {
  mutable phase : phase;
  mutable dom : unit Domain.t option;  (* Some from spawn's return to the join *)
  mutable asleep : bool;  (* waiting, and not yet woken by a demand *)
  mutable idle_since : float;  (* monotonic: when the last work ended *)
}

type 'w t = {
  m : Mutex.t;
  wake : Condition.t;  (* members: work was demanded, a retirement, or close *)
  settled : Condition.t;  (* close: a spawn or a retirement finished *)
  first_slot : int;
  minor_heap_words : int option;
  members : member array;
  poll : int -> 'w option;
  work : int -> 'w -> unit;
  mutable sleeping : int;  (* members with [asleep] *)
  mutable spawning : int;  (* spawns between choosing a member and storing its handle *)
  mutable owed : int;  (* spawns a demand could not make while members were retiring *)
  mutable closed : bool;
}

let create ?minor_heap_words ?(lock = Mutex.create ()) ~cap ~first_slot ~poll ~work () =
  if cap < 0 || (cap > 0 && (first_slot < 1 || first_slot + cap > Obs.Shard.max_slots))
  then
    invalid_arg
      (Printf.sprintf "Qopt_par.Crew.create: %d domains from slot %d exceed [1, %d)" cap
         first_slot Obs.Shard.max_slots);
  {
    m = lock;
    wake = Condition.create ();
    settled = Condition.create ();
    first_slot;
    minor_heap_words;
    members =
      Array.init cap (fun _ -> { phase = Free; dom = None; asleep = false; idle_since = 0.0 });
    poll;
    work;
    sleeping = 0;
    spawning = 0;
    owed = 0;
    closed = false;
  }

(* Member [k]'s domain.  [next] runs under the lock and returns the next
   piece of work, or None once the member is retired, or the crew closed
   and [poll] has nothing left for it. *)
let main t k () =
  Obs.Shard.set_slot (t.first_slot + k - 1);
  Option.iter
    (fun words -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = words })
    t.minor_heap_words;
  let me = t.members.(k - 1) in
  let rec next () =
    if me.phase = Retiring then None
    else
      match t.poll k with
      | Some _ as w -> w
      | None when t.closed -> None
      | None ->
        me.asleep <- true;
        t.sleeping <- t.sleeping + 1;
        Condition.wait t.wake t.m;
        (* A demand or a retirement that woke us already took us out of
           the count. *)
        if me.asleep then begin
          me.asleep <- false;
          t.sleeping <- t.sleeping - 1
        end;
        next ()
  in
  let rec loop () =
    match
      Mutex.protect t.m (fun () ->
          me.idle_since <- Timer.monotonic_now ();
          next ())
    with
    | None -> ()
    | Some w ->
      t.work k w;
      loop ()
  in
  loop ()

let spawn t k =
  let me = t.members.(k - 1) in
  let settle f =
    Mutex.protect t.m (fun () ->
        f ();
        t.spawning <- t.spawning - 1;
        Condition.broadcast t.settled)
  in
  match Domain.spawn (main t k) with
  | d ->
    Obs.Counter.incr spawned;
    settle (fun () -> me.dom <- Some d)
  | exception _ ->
    (* Out of domains (or memory): free the member, leave the work to the
       live ones, and let the next tick retry. *)
    settle (fun () ->
        me.phase <- Free;
        t.owed <- t.owed + 1)

let demand t n =
  let chosen =
    if n <= 0 then []
    else
      Mutex.protect t.m (fun () ->
          if t.closed then []
          else begin
            let awake = t.sleeping in
            if awake > 0 then begin
              Array.iter (fun me -> me.asleep <- false) t.members;
              t.sleeping <- 0;
              Condition.broadcast t.wake
            end;
            let want = ref (n - awake) and chosen = ref [] in
            Array.iteri
              (fun i me ->
                if !want > 0 && me.phase = Free then begin
                  me.phase <- Up;
                  t.spawning <- t.spawning + 1;
                  chosen := (i + 1) :: !chosen;
                  decr want
                end)
              t.members;
            if !want > 0 && Array.exists (fun me -> me.phase = Retiring) t.members then
              t.owed <- max t.owed !want;
            List.rev !chosen
          end)
  in
  List.iter (spawn t) chosen

let retire_idle t =
  let now = Timer.monotonic_now () in
  let leaving =
    Mutex.protect t.m (fun () ->
        let leaving =
          Array.to_list t.members
          |> List.filter (fun me ->
                 me.phase = Up && me.asleep && me.dom <> None
                 && now -. me.idle_since >= idle_spell_s)
        in
        List.iter
          (fun me ->
            me.phase <- Retiring;
            me.asleep <- false;
            t.sleeping <- t.sleeping - 1)
          leaving;
        if leaving <> [] then Condition.broadcast t.wake;
        leaving)
  in
  List.iter
    (fun me ->
      Domain.join (Option.get me.dom);
      Obs.Counter.incr retired)
    leaving;
  let owed =
    Mutex.protect t.m (fun () ->
        List.iter
          (fun me ->
            me.dom <- None;
            me.phase <- Free)
          leaving;
        if leaving <> [] then Condition.broadcast t.settled;
        let owed = t.owed in
        t.owed <- 0;
        owed)
  in
  demand t owed

let live t =
  Mutex.protect t.m (fun () ->
      Array.fold_left (fun n me -> if me.phase = Free then n else n + 1) 0 t.members)

let close t =
  let doms =
    Mutex.protect t.m (fun () ->
        t.closed <- true;
        Condition.broadcast t.wake;
        while t.spawning > 0 || Array.exists (fun me -> me.phase = Retiring) t.members do
          Condition.wait t.settled t.m
        done;
        Array.to_list t.members
        |> List.filter_map (fun me ->
               let d = me.dom in
               me.dom <- None;
               Option.map (fun d -> (me, d)) d))
  in
  List.iter
    (fun (me, d) ->
      Domain.join d;
      Mutex.protect t.m (fun () -> me.phase <- Free))
    doms
