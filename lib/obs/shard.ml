(* Per-domain shard slots for the metrics layer.

   Every metric keeps one cell per slot; recording touches only the cell of
   the current domain's slot, so concurrent workers never contend (or race)
   on the same mutable state.  Merged readings sum (or last-write-win over)
   the slots.  Slot 0 belongs to the main domain; `Qopt_par.Pool` assigns
   slots 1..n-1 to its workers via {!set_slot}. *)

let max_slots = 16

let key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let slot () = Domain.DLS.get key

(* One past the highest slot ever claimed: merged readings need not visit
   the cells above it, which no domain has written. *)
let used = Atomic.make 1

let rec raise_used i =
  let u = Atomic.get used in
  if i + 1 > u && not (Atomic.compare_and_set used u (i + 1)) then raise_used i

let set_slot i =
  if i < 0 || i >= max_slots then
    invalid_arg
      (Printf.sprintf "Qopt_obs.Shard.set_slot: slot %d outside [0, %d)" i
         max_slots);
  raise_used i;
  Domain.DLS.set key i

let in_use () = Atomic.get used

(* A process-wide write sequence used to merge last-write-wins metrics
   (gauges): the shard with the highest sequence holds the newest value. *)
let seq = Atomic.make 1

let next_seq () = Atomic.fetch_and_add seq 1
