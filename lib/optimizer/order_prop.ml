module Bitset = Qopt_util.Bitset

type kind =
  | Join_key
  | Grouping
  | Ordering

type t = {
  cols : Colref.t list;
  kind : kind;
}

type physical = Colref.t list

let make kind cols =
  if cols = [] then invalid_arg "Order_prop.make: empty column list";
  { cols; kind }

let canonical equiv t =
  let cols = Equiv.normalize_cols equiv t.cols in
  match t.kind with
  | Grouping -> List.sort Colref.compare cols
  | Join_key | Ordering -> cols

let equal_under equiv a b =
  Colref.list_equal (canonical equiv a) (canonical equiv b)

let applicable ~tables t =
  List.for_all (fun (c : Colref.t) -> Bitset.mem c.Colref.q tables) t.cols

let is_prefix equiv short long =
  let rec loop s l =
    match (s, l) with
    | [], _ -> true
    | _ :: _, [] -> false
    | a :: s', b :: l' -> Equiv.same equiv a b && loop s' l'
  in
  loop short long

let satisfied_by equiv t physical =
  let phys = Equiv.normalize_cols equiv physical in
  match t.kind with
  | Join_key | Ordering -> is_prefix equiv (Equiv.normalize_cols equiv t.cols) phys
  | Grouping ->
    let want = canonical equiv t in
    let k = List.length want in
    if List.length phys < k then false
    else begin
      let prefix = List.filteri (fun i _ -> i < k) phys in
      Colref.list_equal (List.sort Colref.compare prefix) want
    end

let subset equiv a b =
  List.for_all (fun x -> List.exists (fun y -> Equiv.same equiv x y) b) a

let covers equiv ~base ~candidate =
  let bcols = Equiv.normalize_cols equiv base.cols in
  let ccols = Equiv.normalize_cols equiv candidate.cols in
  match candidate.kind with
  | Grouping -> subset equiv bcols ccols
  | Join_key | Ordering -> is_prefix equiv bcols ccols

let kind_rank = function Join_key -> 0 | Grouping -> 1 | Ordering -> 2

let insert_dedup equiv t list =
  let rec loop acc = function
    | [] -> List.rev (t :: acc)
    | x :: rest ->
      if equal_under equiv x t then
        (* Keep the stronger kind: Grouping/Ordering survive retirement. *)
        let keep = if kind_rank x.kind >= kind_rank t.kind then x else t in
        List.rev_append acc (keep :: rest)
      else loop (x :: acc) rest
  in
  loop [] list

let dedup_canonical equiv orders =
  match orders with
  | [] -> []
  | o0 :: _ ->
    let kept = Array.make (List.length orders) (o0, []) in
    let len = ref 0 in
    List.iter
      (fun o ->
        let c = canonical equiv o in
        let rec find i =
          if i = !len then begin
            kept.(i) <- (o, c);
            incr len
          end
          else
            let x, cx = kept.(i) in
            if Colref.list_equal cx c then begin
              if kind_rank x.kind < kind_rank o.kind then kept.(i) <- (o, c)
            end
            else find (i + 1)
        in
        find 0)
      orders;
    List.init !len (fun i -> kept.(i))

let pp_kind ppf = function
  | Join_key -> Format.pp_print_string ppf "jk"
  | Grouping -> Format.pp_print_string ppf "gb"
  | Ordering -> Format.pp_print_string ppf "ob"

let pp ppf t =
  Format.fprintf ppf "%a(%s)" pp_kind t.kind
    (String.concat "," (List.map (Format.asprintf "%a" Colref.pp) t.cols))

let pp_physical ppf p =
  match p with
  | [] -> Format.pp_print_string ppf "DC"
  | _ ->
    Format.pp_print_string ppf
      (String.concat "," (List.map (Format.asprintf "%a" Colref.pp) p))
