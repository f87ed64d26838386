(* The statement-cache baseline (Section 1.2): structural signatures,
   hit/miss accounting, and the abstraction boundary — which queries are
   "similar" enough to share a cached compile time, and which must not
   collide. *)

module O = Qopt_optimizer
module Obs = Qopt_obs
module SC = Cote.Stmt_cache

let t name f = Alcotest.test_case name `Quick f

let sig_eq = Alcotest.(check string) "signatures equal"

let sig_ne msg a b =
  if String.equal a b then
    Alcotest.failf "%s: signatures unexpectedly collide: %s" msg a

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

let accounting_tests =
  [
    t "miss then record then hit" (fun () ->
        Obs.Control.with_enabled true (fun () ->
            let v = Obs.Registry.counter_value Obs.Registry.default in
            let h0 = v "stmt_cache.hits" and m0 = v "stmt_cache.misses" in
            let cache = SC.create () in
            let q = Helpers.chain 3 in
            Alcotest.(check (option (float 0.0))) "cold miss" None (SC.lookup cache q);
            SC.record cache q 0.125;
            Alcotest.(check (option (float 0.0)))
              "hit returns the recorded time" (Some 0.125) (SC.lookup cache q);
            Alcotest.(check int) "hits" 1 (v "stmt_cache.hits" - h0);
            Alcotest.(check int) "misses" 1 (v "stmt_cache.misses" - m0);
            Alcotest.(check int) "size" 1 (SC.size cache)));
    t "re-recording replaces, not duplicates" (fun () ->
        let cache = SC.create () in
        let q = Helpers.chain 3 in
        SC.record cache q 0.1;
        SC.record cache q 0.2;
        Alcotest.(check int) "size" 1 (SC.size cache);
        Alcotest.(check (option (float 0.0)))
          "latest time wins" (Some 0.2) (SC.lookup cache q));
    t "distinct queries occupy distinct slots" (fun () ->
        let cache = SC.create () in
        SC.record cache (Helpers.chain 3) 0.1;
        SC.record cache (Helpers.chain 4) 0.2;
        SC.record cache (Helpers.star_block 4) 0.3;
        Alcotest.(check int) "size" 3 (SC.size cache));
    t "a caller's key replaces the signature, partitioned by tag" (fun () ->
        let cache = SC.create ~shared:true () in
        let q = Helpers.chain 3 in
        SC.record cache ~tag:"dp" ~key:"s|SELECT ?" q 0.5;
        Alcotest.(check (option (float 0.0)))
          "same key, other block" (Some 0.5)
          (SC.lookup cache ~tag:"dp" ~key:"s|SELECT ?" (Helpers.chain 4));
        Alcotest.(check (option (float 0.0)))
          "other tag" None (SC.lookup cache ~tag:"greedy" ~key:"s|SELECT ?" q);
        Alcotest.(check (option (float 0.0)))
          "signature key space is separate" None (SC.lookup cache ~tag:"dp" q);
        Alcotest.(check (option (float 0.0)))
          "refine reads the keyed entry" (Some 0.5)
          (Some (SC.refine cache ~tag:"dp" ~key:"s|SELECT ?" q ~model_s:9.0));
        Alcotest.(check int) "size" 1 (SC.size cache));
    t "obs counters track hits, misses and size" (fun () ->
        Obs.Control.with_enabled true (fun () ->
            let reg = Obs.Registry.default in
            let h0 = Obs.Registry.counter_value reg "stmt_cache.hits" in
            let m0 = Obs.Registry.counter_value reg "stmt_cache.misses" in
            let cache = SC.create () in
            let q = Helpers.chain 3 in
            ignore (SC.lookup cache q);
            SC.record cache q 0.1;
            ignore (SC.lookup cache q);
            ignore (SC.lookup cache q);
            Alcotest.(check int) "hits delta" 2
              (Obs.Registry.counter_value reg "stmt_cache.hits" - h0);
            Alcotest.(check int) "misses delta" 1
              (Obs.Registry.counter_value reg "stmt_cache.misses" - m0);
            Alcotest.(check (float 0.0)) "size gauge" 1.0
              (Obs.Registry.gauge_value reg "stmt_cache.size")));
  ]

(* ------------------------------------------------------------------ *)
(* Signature invariance: what counts as "the same query"               *)
(* ------------------------------------------------------------------ *)

(* Rebuild a block with its quantifier list permuted and every predicate's
   quantifier indices remapped accordingly.  A structural signature must not
   depend on the arbitrary order quantifiers come in. *)
let permute_block perm (b : O.Query_block.t) =
  let n = O.Query_block.n_quantifiers b in
  assert (Array.length perm = n);
  (* perm.(new_index) = old_index; inverse maps old -> new. *)
  let inv = Array.make n 0 in
  Array.iteri (fun new_i old_i -> inv.(old_i) <- new_i) perm;
  let quantifiers =
    List.init n (fun new_i ->
        let old_q = O.Query_block.quantifier b perm.(new_i) in
        O.Quantifier.make new_i old_q.O.Quantifier.table)
  in
  let recol (c : O.Colref.t) = O.Colref.make inv.(c.O.Colref.q) c.O.Colref.col in
  let repred = function
    | O.Pred.Eq_join (l, r) -> O.Pred.Eq_join (recol l, recol r)
    | O.Pred.Local_cmp (c, op, v) -> O.Pred.Local_cmp (recol c, op, v)
    | O.Pred.Local_in (c, k) -> O.Pred.Local_in (recol c, k)
    | O.Pred.Expensive (ts, s, c) ->
      O.Pred.Expensive
        (Qopt_util.Bitset.of_list
           (List.map (fun q -> inv.(q)) (Qopt_util.Bitset.elements ts)),
         s, c)
  in
  O.Query_block.make ~name:(b.O.Query_block.name ^ "-permuted")
    ~group_by:(List.map recol b.O.Query_block.group_by)
    ~order_by:(List.map recol b.O.Query_block.order_by)
    ?first_n:b.O.Query_block.first_n ~quantifiers
    ~preds:(List.map repred b.O.Query_block.preds)
    ()

let with_local preds b =
  let open O.Query_block in
  make ~name:b.name ~group_by:b.group_by ~order_by:b.order_by
    ?first_n:b.first_n
    ~quantifiers:(List.init (n_quantifiers b) (quantifier b))
    ~preds:(b.preds @ preds) ()

let invariance_tests =
  [
    t "signature survives quantifier reordering" (fun () ->
        let b = Helpers.chain ~extra:1 ~group_by:true ~order_by:true 5 in
        List.iter
          (fun perm -> sig_eq (SC.signature b) (SC.signature (permute_block perm b)))
          [ [| 4; 3; 2; 1; 0 |]; [| 2; 0; 4; 1; 3 |]; [| 1; 0; 2; 4; 3 |] ]);
    t "a reordered query is a cache hit" (fun () ->
        let cache = SC.create () in
        let b = Helpers.star_block 5 in
        SC.record cache b 0.5;
        Alcotest.(check (option (float 0.0)))
          "permuted lookup hits" (Some 0.5)
          (SC.lookup cache (permute_block [| 3; 1; 4; 0; 2 |] b)));
    t "literal values are abstracted away" (fun () ->
        let b = Helpers.chain 3 in
        let q1 = with_local [ O.Pred.Local_cmp (Helpers.cr 0 "v", O.Pred.Le, 10.0) ] b in
        let q2 = with_local [ O.Pred.Local_cmp (Helpers.cr 0 "v", O.Pred.Le, 99.0) ] b in
        sig_eq (SC.signature q1) (SC.signature q2));
    t "predicate order does not matter" (fun () ->
        let b = Helpers.chain 4 in
        let p1 = O.Pred.Local_cmp (Helpers.cr 0 "v", O.Pred.Eq, 1.0) in
        let p2 = O.Pred.Local_cmp (Helpers.cr 2 "j2", O.Pred.Gt, 5.0) in
        sig_eq
          (SC.signature (with_local [ p1; p2 ] b))
          (SC.signature (with_local [ p2; p1 ] b)));
  ]

(* ------------------------------------------------------------------ *)
(* Non-collision: structurally different queries stay apart            *)
(* ------------------------------------------------------------------ *)

let non_collision_tests =
  [
    t "join shape distinguishes queries over the same tables" (fun () ->
        (* chain t0-t1-t2 vs star centered on t0 vs cycle, all on the same
           three tables: same table multiset, different join graphs. *)
        let quantifiers () =
          List.init 3 (fun i ->
              O.Quantifier.make i
                (Helpers.table ~rows:(1000.0 *. float_of_int (i + 1))
                   (Printf.sprintf "t%d" i)))
        in
        let mk name preds =
          O.Query_block.make ~name ~quantifiers:(quantifiers ()) ~preds ()
        in
        let j a b = O.Pred.Eq_join (Helpers.cr a "j1", Helpers.cr b "j1") in
        let chain = mk "chain" [ j 0 1; j 1 2 ] in
        let star = mk "star" [ j 0 1; j 0 2 ] in
        let cycle = mk "cycle" [ j 0 1; j 1 2; j 0 2 ] in
        sig_ne "chain vs star" (SC.signature chain) (SC.signature star);
        sig_ne "chain vs cycle" (SC.signature chain) (SC.signature cycle);
        sig_ne "star vs cycle" (SC.signature star) (SC.signature cycle));
    t "comparison class matters: Eq vs range" (fun () ->
        let b = Helpers.chain 3 in
        let eq = with_local [ O.Pred.Local_cmp (Helpers.cr 0 "v", O.Pred.Eq, 1.0) ] b in
        let le = with_local [ O.Pred.Local_cmp (Helpers.cr 0 "v", O.Pred.Le, 1.0) ] b in
        sig_ne "Eq vs Le" (SC.signature eq) (SC.signature le));
    t "strict and non-strict comparisons stay apart" (fun () ->
        (* Regression: Lt/Le folded to "<" and Gt/Ge to ">" — a recorded
           actual (or plan-cache envelope label) for [a < 5] silently
           served [a <= 5]. *)
        let b = Helpers.chain 3 in
        let cmp op = with_local [ O.Pred.Local_cmp (Helpers.cr 0 "v", op, 5.0) ] b in
        sig_ne "Lt vs Le"
          (SC.signature (cmp O.Pred.Lt))
          (SC.signature (cmp O.Pred.Le));
        sig_ne "Gt vs Ge"
          (SC.signature (cmp O.Pred.Gt))
          (SC.signature (cmp O.Pred.Ge));
        sig_ne "Lt vs Gt"
          (SC.signature (cmp O.Pred.Lt))
          (SC.signature (cmp O.Pred.Gt));
        sig_ne "Le vs Ge"
          (SC.signature (cmp O.Pred.Le))
          (SC.signature (cmp O.Pred.Ge)));
    t "expensive predicates key on their parameters" (fun () ->
        (* Regression: the Expensive signature covered only the table
           bitset, so two expensive predicates over the same tables but
           with different selectivity/per-tuple cost collided. *)
        let b = Helpers.chain 3 in
        let exp ~sel ~cost =
          with_local [ O.Pred.Expensive (Qopt_util.Bitset.singleton 0, sel, cost) ] b
        in
        sig_ne "selectivity differs"
          (SC.signature (exp ~sel:0.1 ~cost:2.0))
          (SC.signature (exp ~sel:0.5 ~cost:2.0));
        sig_ne "per-tuple cost differs"
          (SC.signature (exp ~sel:0.1 ~cost:2.0))
          (SC.signature (exp ~sel:0.1 ~cost:8.0));
        sig_eq
          (SC.signature (exp ~sel:0.1 ~cost:2.0))
          (SC.signature (exp ~sel:0.1 ~cost:2.0)));
    t "tagged entries partition the key space" (fun () ->
        (* The server tags by chosen optimization level: an actual
           recorded at a downgraded level must not refine a full-level
           estimate (and vice versa). *)
        let cache = SC.create () in
        let q = Helpers.chain 3 in
        SC.record cache ~tag:"greedy" q 0.001;
        Alcotest.(check (option (float 0.0)))
          "full-level lookup misses" None (SC.lookup cache ~tag:"full" q);
        Alcotest.(check (option (float 0.0)))
          "untagged lookup misses" None (SC.lookup cache q);
        Alcotest.(check (option (float 0.0)))
          "same-tag lookup hits" (Some 0.001)
          (SC.lookup cache ~tag:"greedy" q));
    t "IN-list arity matters" (fun () ->
        let b = Helpers.chain 3 in
        let i3 = with_local [ O.Pred.Local_in (Helpers.cr 0 "v", 3) ] b in
        let i7 = with_local [ O.Pred.Local_in (Helpers.cr 0 "v", 7) ] b in
        sig_ne "IN 3 vs IN 7" (SC.signature i3) (SC.signature i7));
    t "grouping, ordering and LIMIT all matter" (fun () ->
        let plain = Helpers.chain 3 in
        let grouped = Helpers.chain ~group_by:true 3 in
        let ordered = Helpers.chain ~order_by:true 3 in
        let limited =
          O.Query_block.make ~name:"lim" ~first_n:10
            ~quantifiers:
              (List.init 3 (fun i -> O.Query_block.quantifier plain i))
            ~preds:plain.O.Query_block.preds ()
        in
        sig_ne "plain vs grouped" (SC.signature plain) (SC.signature grouped);
        sig_ne "plain vs ordered" (SC.signature plain) (SC.signature ordered);
        sig_ne "grouped vs ordered" (SC.signature grouped) (SC.signature ordered);
        sig_ne "plain vs limited" (SC.signature plain) (SC.signature limited));
    t "chain length matters" (fun () ->
        sig_ne "3 vs 4"
          (SC.signature (Helpers.chain 3))
          (SC.signature (Helpers.chain 4)));
    t "extra join predicates matter" (fun () ->
        sig_ne "0 vs 1 extra"
          (SC.signature (Helpers.chain 4))
          (SC.signature (Helpers.chain ~extra:1 4)));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: predicate signatures collide exactly on structural equality  *)
(* ------------------------------------------------------------------ *)

(* Predicate signatures abstract literal values and nothing else: two
   generated predicates share a pred_signature (and their blocks share a
   signature) iff they are structurally equal modulo the comparison
   literal.  This pins both historical collisions at once — Lt/Le (and
   Gt/Ge) folding, and Expensive ignoring its selectivity/cost. *)

let prop name ?(count = 300) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let qc_block = Helpers.chain 4

let qc_ops = [| O.Pred.Eq; O.Pred.Lt; O.Pred.Le; O.Pred.Gt; O.Pred.Ge |]

let qc_sels = [| 0.05; 0.25; 0.6 |]

let qc_costs = [| 1.0; 3.5; 9.0 |]

let qc_lits = [| 1.0; 5.0; 42.0 |]

type pred_spec =
  | P_cmp of int * string * int * int  (* quantifier, col, op, literal *)
  | P_in of int * string * int  (* quantifier, col, IN arity *)
  | P_exp of int list * int * int  (* sorted table set, sel, cost *)
  | P_join of int * int * string  (* q1 < q2, column *)

(* Structural identity under the documented abstraction: only the
   comparison literal is erased. *)
let canon = function
  | P_cmp (q, c, op, _) -> P_cmp (q, c, op, 0)
  | spec -> spec

let to_pred = function
  | P_cmp (q, c, op, l) ->
    O.Pred.Local_cmp (Helpers.cr q c, qc_ops.(op), qc_lits.(l))
  | P_in (q, c, n) -> O.Pred.Local_in (Helpers.cr q c, n)
  | P_exp (ts, s, c) ->
    O.Pred.Expensive (Qopt_util.Bitset.of_list ts, qc_sels.(s), qc_costs.(c))
  | P_join (a, b, c) -> O.Pred.Eq_join (Helpers.cr a c, Helpers.cr b c)

let gen_pred_spec =
  let open QCheck2.Gen in
  let quantifier = int_range 0 3 in
  let column = oneofl [ "v"; "j2" ] in
  oneof
    [
      (let* q = quantifier in
       let* c = column in
       let* op = int_range 0 (Array.length qc_ops - 1) in
       let* l = int_range 0 (Array.length qc_lits - 1) in
       return (P_cmp (q, c, op, l)));
      (let* q = quantifier in
       let* c = column in
       let* n = int_range 1 6 in
       return (P_in (q, c, n)));
      (let* mask = int_range 1 15 in
       let ts = List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2; 3 ] in
       let* s = int_range 0 (Array.length qc_sels - 1) in
       let* c = int_range 0 (Array.length qc_costs - 1) in
       return (P_exp (ts, s, c)));
      (let* a = quantifier in
       let* b = quantifier in
       let b = if a = b then (a + 1) mod 4 else b in
       let* c = column in
       return (P_join (min a b, max a b, c)));
    ]

let property_tests =
  [
    prop "pred_signature equality = structural equality modulo literal"
      QCheck2.Gen.(pair gen_pred_spec gen_pred_spec)
      (fun (s1, s2) ->
        let sg s = SC.pred_signature qc_block (to_pred s) in
        String.equal (sg s1) (sg s2) = (canon s1 = canon s2));
    prop "block signature equality follows the predicate's" ~count:150
      QCheck2.Gen.(pair gen_pred_spec gen_pred_spec)
      (fun (s1, s2) ->
        let sg s = SC.signature (with_local [ to_pred s ] qc_block) in
        String.equal (sg s1) (sg s2) = (canon s1 = canon s2));
  ]

let suite =
  accounting_tests @ invariance_tests @ non_collision_tests @ property_tests
