(** Hand-written SQL lexer. *)

type token =
  | Ident of string  (** lower-cased identifier *)
  | Number of float
  | String of string
  | Kw of string  (** upper-cased keyword *)
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Star_tok
  | Op of string  (** comparison operator: [=], [<], [<=], [>], [>=] *)
  | Eof

exception Error of string * int
(** Message and character offset. *)

val tokenize : string -> token list
(** Tokenizes a full statement; keywords are recognized case-insensitively.
    Raises {!Error} on malformed input. *)

val shape : string -> (string * Ast.literal list) option
(** The statement's literal-masked text and its literals in text order, in
    one pass with {!tokenize}'s character classes and literal rules.  The
    masked text is the input with every numeric literal replaced by ['?']
    and every string literal (quotes included) by ['$'] — characters
    {!tokenize} rejects, so two statements with equal masked texts have
    the same tokens but for literal values.  [None] exactly where
    {!tokenize} raises. *)

val pp_token : Format.formatter -> token -> unit
