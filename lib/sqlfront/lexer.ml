type token =
  | Ident of string
  | Number of float
  | String of string
  | Kw of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Star_tok
  | Op of string
  | Eof

exception Error of string * int

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "ORDER"; "BY"; "JOIN"; "LEFT"; "INNER";
    "OUTER"; "ON"; "AND"; "IN"; "EXISTS"; "AS"; "COUNT"; "SUM"; "MIN"; "MAX";
    "AVG"; "LIMIT";
  ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* The literal and identifier rules [tokenize] and [shape] share.  Each
   takes the offset of the token's first character and returns the offset
   just past it. *)

(* The closing quote of the string literal opening at [i]. *)
let string_end input i =
  match String.index_from_opt input (i + 1) '\'' with
  | Some stop -> stop
  | None -> raise (Error ("unterminated string literal", i))

let rec scan_while p input k =
  if k < String.length input && p input.[k] then scan_while p input (k + 1) else k

(* A number is a run of digits and dots that [float_of_string] accepts. *)
let number input i =
  let stop = scan_while (fun c -> is_digit c || c = '.') input i in
  let text = String.sub input i (stop - i) in
  match float_of_string_opt text with
  | Some f -> (f, stop)
  | None -> raise (Error (Printf.sprintf "malformed number %S" text, i))

let ident_end input i = scan_while is_ident_char input i

let unexpected c i = raise (Error (Printf.sprintf "unexpected character %C" c, i))

let tokenize input =
  let n = String.length input in
  let rec loop i acc =
    if i >= n then List.rev (Eof :: acc)
    else
      let c = input.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then loop (i + 1) acc
      else if c = '(' then loop (i + 1) (Lparen :: acc)
      else if c = ')' then loop (i + 1) (Rparen :: acc)
      else if c = ',' then loop (i + 1) (Comma :: acc)
      else if c = '.' then loop (i + 1) (Dot :: acc)
      else if c = '*' then loop (i + 1) (Star_tok :: acc)
      else if c = '=' then loop (i + 1) (Op "=" :: acc)
      else if c = '<' then
        if i + 1 < n && input.[i + 1] = '=' then loop (i + 2) (Op "<=" :: acc)
        else loop (i + 1) (Op "<" :: acc)
      else if c = '>' then
        if i + 1 < n && input.[i + 1] = '=' then loop (i + 2) (Op ">=" :: acc)
        else loop (i + 1) (Op ">" :: acc)
      else if c = '\'' then
        let stop = string_end input i in
        loop (stop + 1) (String (String.sub input (i + 1) (stop - i - 1)) :: acc)
      else if is_digit c then
        let f, stop = number input i in
        loop stop (Number f :: acc)
      else if is_ident_start c then begin
        let stop = ident_end input i in
        let text = String.sub input i (stop - i) in
        let upper = String.uppercase_ascii text in
        if List.mem upper keywords then loop stop (Kw upper :: acc)
        else loop stop (Ident (String.lowercase_ascii text) :: acc)
      end
      else unexpected c i
  in
  loop 0 []

(* The literal marks are characters [tokenize] rejects, so in the masked
   text of a statement it accepts they stand only for literals: two texts
   with the same masked text have the same tokens but for literal values. *)
let num_mark = '?'

let str_mark = '$'

let shape input =
  let n = String.length input in
  let buf = Buffer.create n in
  let rec loop i lits =
    if i >= n then (Buffer.contents buf, List.rev lits)
    else
      let c = input.[i] in
      if c = '\'' then begin
        let stop = string_end input i in
        Buffer.add_char buf str_mark;
        loop (stop + 1) (Ast.Str (String.sub input (i + 1) (stop - i - 1)) :: lits)
      end
      else if is_digit c then begin
        let f, stop = number input i in
        Buffer.add_char buf num_mark;
        loop stop (Ast.Num f :: lits)
      end
      else if is_ident_start c then begin
        (* Copied whole: the digits inside an identifier are not literals. *)
        let stop = ident_end input i in
        Buffer.add_substring buf input i (stop - i);
        loop stop lits
      end
      else
        match c with
        | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ',' | '.' | '*' | '=' | '<' | '>' ->
          Buffer.add_char buf c;
          loop (i + 1) lits
        | c -> unexpected c i
  in
  match loop 0 [] with shaped -> Some shaped | exception Error _ -> None

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "ident(%s)" s
  | Number f -> Format.fprintf ppf "num(%g)" f
  | String s -> Format.fprintf ppf "str(%s)" s
  | Kw k -> Format.fprintf ppf "kw(%s)" k
  | Lparen -> Format.pp_print_string ppf "("
  | Rparen -> Format.pp_print_string ppf ")"
  | Comma -> Format.pp_print_string ppf ","
  | Dot -> Format.pp_print_string ppf "."
  | Star_tok -> Format.pp_print_string ppf "*"
  | Op s -> Format.pp_print_string ppf s
  | Eof -> Format.pp_print_string ppf "<eof>"
