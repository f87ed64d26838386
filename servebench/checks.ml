(* The benchmark's own checks, run at the start of every invocation; any
   failure aborts the run before a server is started. *)

let expect errs cond msg = if not cond then errs := msg :: !errs

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let run () =
  let errs = ref [] in
  (* tail rule: p99 only with >= 1000 samples, else 1 - 10/n *)
  let samples n = Array.init n float_of_int in
  expect errs (raises (fun () -> Pct.p99 (samples 999))) "p99 accepted 999 samples";
  expect errs (Pct.p99 (samples 1000) = 989.0) "p99 of 0..999 is not 989";
  expect errs (Pct.tail_q 1000 = 0.99) "tail of 1000 samples is not p99";
  expect errs (Pct.tail_q 200 = 0.95) "tail of 200 samples is not p95";
  expect errs (snd (Pct.tail (samples 200)) = 189.0) "p95 of 0..199 is not 189";
  (* generators: same seed, same bytes; another seed, another stream;
     every request binds *)
  List.iter
    (fun w ->
      let g = Gen.for_workload w in
      let stream seed = List.init 40 (fun i -> g ~seed i) in
      expect errs (stream 17 = stream 17) (w ^ ": seed 17 is not deterministic");
      expect errs (stream 17 <> stream 18) (w ^ ": seeds 17 and 18 give one stream");
      List.iter
        (fun q ->
          match Refs.bind ~schema:q.Gen.schema q.Gen.sql with
          | _ -> ()
          | exception e ->
            expect errs false
              (Printf.sprintf "%s: %s does not bind: %s" w q.Gen.sql (Printexc.to_string e)))
        (stream 17))
    Gen.workloads;
  (* adhoc must out-number the 512-entry plan cache in distinct templates *)
  let keys = Hashtbl.create 1024 in
  for i = 0 to 1999 do
    let q = Gen.adhoc ~seed:17 i in
    Hashtbl.replace keys (Qopt_sql.Template.key_of (Qopt_sql.Parser.parse q.Gen.sql)) ()
  done;
  let capacity = Cote.Plan_cache.default_config.Cote.Plan_cache.capacity in
  expect errs (Hashtbl.length keys > capacity)
    (Printf.sprintf "adhoc: %d distinct templates in 2000 requests, cache holds %d"
       (Hashtbl.length keys) capacity);
  List.rev !errs
