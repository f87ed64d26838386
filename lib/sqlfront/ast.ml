type literal =
  | Num of float
  | Str of string

type col = {
  c_table : string option;
  c_name : string;
}

type cmp =
  | Eq
  | Lt
  | Le
  | Gt
  | Ge

type condition =
  | Cmp_cols of col * cmp * col
  | Cmp_lit of col * cmp * literal
  | In_list of col * literal list
  | Exists of select
  | In_subquery of col * select

and table_ref = {
  t_name : string;
  t_alias : string option;
}

and join_kind =
  | Inner
  | Left_outer

and join_clause = {
  j_kind : join_kind;
  j_table : table_ref;
  j_on : condition list;
}

and select = {
  sel_items : sel_item list;
  sel_from : table_ref list;
  sel_joins : join_clause list;
  sel_where : condition list;
  sel_group_by : col list;
  sel_order_by : col list;
  sel_limit : int option;
}

and sel_item =
  | Star
  | Col_item of col
  | Agg of string * col

let col ?table name = { c_table = table; c_name = name }

(* The printer writes straight into a [Buffer]: the template key of every
   parsed prepare is rendered here, and a [Format] formatter per key was
   its largest allocation. *)
let add_col b c =
  (match c.c_table with
  | None -> ()
  | Some t ->
    Buffer.add_string b t;
    Buffer.add_char b '.');
  Buffer.add_string b c.c_name

let add_literal b = function
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      (* What "%.0f" prints, negative zero included. *)
      if f = 0.0 && Float.sign_bit f then Buffer.add_string b "-0"
      else Buffer.add_string b (string_of_int (int_of_float f))
    else Buffer.add_string b (Printf.sprintf "%g" f)
  | Str s ->
    Buffer.add_char b '\'';
    Buffer.add_string b s;
    Buffer.add_char b '\''

let cmp_string = function Eq -> "=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let add_list b sep add = function
  | [] -> ()
  | x :: rest ->
    add b x;
    List.iter
      (fun x ->
        Buffer.add_string b sep;
        add b x)
      rest

let add_table_ref b t =
  Buffer.add_string b t.t_name;
  match t.t_alias with
  | None -> ()
  | Some a ->
    Buffer.add_char b ' ';
    Buffer.add_string b a

let add_cmp b op =
  Buffer.add_char b ' ';
  Buffer.add_string b (cmp_string op);
  Buffer.add_char b ' '

let rec add_condition b = function
  | Cmp_cols (x, op, y) ->
    add_col b x;
    add_cmp b op;
    add_col b y
  | Cmp_lit (c, op, l) ->
    add_col b c;
    add_cmp b op;
    add_literal b l
  | In_list (c, ls) ->
    add_col b c;
    Buffer.add_string b " IN (";
    add_list b ", " add_literal ls;
    Buffer.add_char b ')'
  | Exists s ->
    Buffer.add_string b "EXISTS (";
    add_select b s;
    Buffer.add_char b ')'
  | In_subquery (c, s) ->
    add_col b c;
    Buffer.add_string b " IN (";
    add_select b s;
    Buffer.add_char b ')'

and add_sel_item b = function
  | Star -> Buffer.add_char b '*'
  | Col_item c -> add_col b c
  | Agg (f, c) ->
    Buffer.add_string b f;
    Buffer.add_char b '(';
    add_col b c;
    Buffer.add_char b ')'

and add_select b s =
  Buffer.add_string b "SELECT ";
  add_list b ", " add_sel_item s.sel_items;
  Buffer.add_string b " FROM ";
  add_list b ", " add_table_ref s.sel_from;
  List.iter
    (fun j ->
      Buffer.add_string b
        (match j.j_kind with Inner -> " JOIN " | Left_outer -> " LEFT JOIN ");
      add_table_ref b j.j_table;
      Buffer.add_string b " ON ";
      add_list b " AND " add_condition j.j_on)
    s.sel_joins;
  if s.sel_where <> [] then begin
    Buffer.add_string b " WHERE ";
    add_list b " AND " add_condition s.sel_where
  end;
  if s.sel_group_by <> [] then begin
    Buffer.add_string b " GROUP BY ";
    add_list b ", " add_col s.sel_group_by
  end;
  if s.sel_order_by <> [] then begin
    Buffer.add_string b " ORDER BY ";
    add_list b ", " add_col s.sel_order_by
  end;
  match s.sel_limit with
  | None -> ()
  | Some n ->
    Buffer.add_string b " LIMIT ";
    Buffer.add_string b (string_of_int n)

let to_string s =
  let b = Buffer.create 256 in
  add_select b s;
  Buffer.contents b

let pp_select ppf s = Format.pp_print_string ppf (to_string s)
