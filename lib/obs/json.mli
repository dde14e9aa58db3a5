(** The one JSON reader and writer of the project.

    Every exported document (metrics, Chrome trace, profile, run
    report, load-generator results, daemon replies, the request and
    response codecs) is built as a {!t} and printed by {!to_string} or
    {!add}, so there is a single float renderer ({!float_string},
    bit-exact) and a single string escaper.  The reader is a
    recursive-descent parser over the full JSON grammar minus exotic
    number forms.  No external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Parses a complete JSON document; the error string carries a byte
    offset.  A [\uXXXX] escape takes exactly four hex digits and
    decodes to UTF-8, a surrogate pair to one code point; a lone
    surrogate is an error. *)

val member : string -> t -> t option
(** [member key (Object _)] looks up [key]; [None] on missing key or
    non-object. *)

val to_float : t -> float option
val to_string_opt : t -> string option
val to_list : t -> t list option

val int : int -> t
(** [Number] of an integer; exact within 2{^ 53}. *)

val to_string : t -> string
(** Compact one-line serialization.  Strings escape the quote, the
    backslash and the ASCII control set; bytes >= 0x80 pass through
    verbatim (UTF-8 assumed).  [parse (to_string v)] yields a
    value structurally equal to [v] (object key order preserved,
    finite floats bit-exact). *)

val add : Buffer.t -> t -> unit
(** [add buf v] appends [to_string v] to [buf]; lets a large document
    be written one element at a time. *)
