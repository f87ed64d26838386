module Timer = Qopt_util.Timer

(* A named mutex whose acquisitions are measured: every lock of the same
   name shares one metric family (lock.<name>.acquisitions / .contended /
   .wait_s), so N stripes of a striped cache aggregate into a single
   per-structure reading.  The table below dedups the metric handles by
   name; creation is rare (module init, cache construction) but may happen
   off the main domain in tests, hence its own little mutex. *)

type metrics = {
  m_acq : Counter.t;
  m_contended : Counter.t;
  m_wait : Histo.t;
}

let families : (string, metrics) Hashtbl.t = Hashtbl.create 16

let families_lock = Mutex.create ()

let metrics_of name =
  Mutex.protect families_lock (fun () ->
      match Hashtbl.find_opt families name with
      | Some m -> m
      | None ->
        let reg = Registry.default in
        let m =
          {
            m_acq = Registry.counter reg (Printf.sprintf "lock.%s.acquisitions" name);
            m_contended =
              Registry.counter reg (Printf.sprintf "lock.%s.contended" name);
            m_wait = Registry.histogram reg (Printf.sprintf "lock.%s.wait_s" name);
          }
        in
        Hashtbl.add families name m;
        m)

type t = {
  name : string;
  mutex : Mutex.t;
  m : metrics;
}

let create name = { name; mutex = Mutex.create (); m = metrics_of name }

let name t = t.name

(* The instrumented acquire: an uncontended try_lock records a zero wait
   (count still advances, so wait_s.count = acquisitions and wait_s.sum is
   the total seconds spent blocked); a contended one pays two clock reads
   around the blocking lock.  The [Control.on] branch keeps the disabled
   path a bare [Mutex.lock]. *)
let lock t =
  if !Control.on then begin
    Counter.incr t.m.m_acq;
    if Mutex.try_lock t.mutex then Histo.observe t.m.m_wait 0.0
    else begin
      let t0 = Timer.monotonic_now () in
      Mutex.lock t.mutex;
      Counter.incr t.m.m_contended;
      Histo.observe t.m.m_wait (Timer.monotonic_now () -. t0)
    end
  end
  else Mutex.lock t.mutex

let with_lock t f =
  if !Control.on then begin
    lock t;
    match f () with
    | v ->
      Mutex.unlock t.mutex;
      v
    | exception e ->
      Mutex.unlock t.mutex;
      raise e
  end
  else Mutex.protect t.mutex f

(* Aggregate readings over every lock family created so far — the
   numerator of a lock-wait-share measurement. *)
let fold_families f init =
  Mutex.protect families_lock (fun () ->
      Hashtbl.fold (fun name m acc -> f acc name m) families init)

let total_wait_s () =
  fold_families (fun acc _ m -> acc +. Histo.sum m.m_wait) 0.0

let total_acquisitions () =
  fold_families (fun acc _ m -> acc + Counter.value m.m_acq) 0

let total_contended () =
  fold_families (fun acc _ m -> acc + Counter.value m.m_contended) 0

let wait_s name =
  match
    Mutex.protect families_lock (fun () -> Hashtbl.find_opt families name)
  with
  | Some m -> Histo.sum m.m_wait
  | None -> 0.0
