(** Parser for the liberty-like text format.

    [parse] is the inverse of {!Printer.to_string}: for every library [l],
    [parse (Printer.to_string l)] reconstructs [l]. *)

exception Error of string

val parse_group : string -> Ast.group
(** Parses a document into its top-level group.  Raises {!Error} or
    {!Lexer.Error}. *)

val parse : string -> Library.t
(** Parses a document and elaborates its [library(...) { ... }] group.
    Raises {!Lexer.Error} on malformed tokens and {!Error} on bad
    syntax; elaboration raises {!Error}, naming the group, on missing or
    ill-typed fields and on contents no library can hold: a
    non-increasing axis, a ragged table, a duplicate cell, a malformed
    number. *)

val parse_file : string -> Library.t
(** Reads and parses a file. *)
