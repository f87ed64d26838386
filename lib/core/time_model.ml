module O = Qopt_optimizer

type t = {
  c_nljn : float;
  c_mgjn : float;
  c_hsjn : float;
  c_join : float;
}

let make ?(c_join = 0.0) ~c_nljn ~c_mgjn ~c_hsjn () =
  { c_nljn; c_mgjn; c_hsjn; c_join }

let joins_only c_join = { c_nljn = 0.0; c_mgjn = 0.0; c_hsjn = 0.0; c_join }

let predict_counts t ~nljn ~mgjn ~hsjn ~joins =
  (t.c_nljn *. nljn) +. (t.c_mgjn *. mgjn) +. (t.c_hsjn *. hsjn)
  +. (t.c_join *. joins)

let predict t (e : Estimator.estimate) =
  predict_counts t
    ~nljn:(float_of_int e.Estimator.nljn)
    ~mgjn:(float_of_int e.Estimator.mgjn)
    ~hsjn:(float_of_int e.Estimator.hsjn)
    ~joins:(float_of_int e.Estimator.joins)

let ratios t =
  let nonzero = List.filter (fun c -> c > 0.0) [ t.c_mgjn; t.c_nljn; t.c_hsjn ] in
  let base = match nonzero with [] -> 1.0 | l -> List.fold_left Float.min infinity l in
  (t.c_mgjn /. base, t.c_nljn /. base, t.c_hsjn /. base)

let pp ppf t =
  let m, n, h = ratios t in
  Format.fprintf ppf
    "Cm=%.3gus Cn=%.3gus Ch=%.3gus Cj=%.3gus (Cm:Cn:Ch = %.1f:%.1f:%.1f)"
    (t.c_mgjn *. 1e6) (t.c_nljn *. 1e6) (t.c_hsjn *. 1e6) (t.c_join *. 1e6) m n h

let to_string t =
  Printf.sprintf "c_nljn=%h,c_mgjn=%h,c_hsjn=%h,c_join=%h" t.c_nljn t.c_mgjn
    t.c_hsjn t.c_join

let of_string s =
  let field name kv =
    match String.index_opt kv '=' with
    | Some i when String.sub kv 0 i = name ->
      float_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1))
    | _ -> None
  in
  match String.split_on_char ',' s with
  | [ n; m; h; j ] -> (
    match (field "c_nljn" n, field "c_mgjn" m, field "c_hsjn" h, field "c_join" j) with
    | Some c_nljn, Some c_mgjn, Some c_hsjn, Some c_join ->
      Some { c_nljn; c_mgjn; c_hsjn; c_join }
    | _ -> None)
  | _ -> None
