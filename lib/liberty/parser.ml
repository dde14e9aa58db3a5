exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Syntactic layer: tokens -> Ast.group                                *)
(* ------------------------------------------------------------------ *)

let expect tok = function
  | t :: rest when t = tok -> rest
  | t :: _ -> fail "expected %s, found %s" (Lexer.token_to_string tok) (Lexer.token_to_string t)
  | [] -> fail "expected %s, found nothing" (Lexer.token_to_string tok)

let parse_value = function
  | Lexer.Number f :: rest -> (Ast.Number f, rest)
  | Lexer.String s :: rest -> (Ast.String s, rest)
  | Lexer.Ident s :: rest -> (Ast.Ident s, rest)
  | t :: _ -> fail "expected a value, found %s" (Lexer.token_to_string t)
  | [] -> fail "expected a value, found nothing"

let rec parse_value_list acc toks =
  match toks with
  | Lexer.Rparen :: rest -> (List.rev acc, rest)
  | _ ->
    let v, rest = parse_value toks in
    (match rest with
    | Lexer.Comma :: rest' -> parse_value_list (v :: acc) rest'
    | Lexer.Rparen :: rest' -> (List.rev (v :: acc), rest')
    | t :: _ -> fail "expected ',' or ')', found %s" (Lexer.token_to_string t)
    | [] -> fail "unterminated value list")

let string_of_value = function
  | Ast.Number f -> Printf.sprintf "%g" f
  | Ast.String s | Ast.Ident s -> s

(* A group body is a sequence of simple attributes, complex attributes and
   child groups, closed by '}'. *)
let rec parse_body ~gname ~args attrs complex groups toks =
  match toks with
  | Lexer.Rbrace :: rest ->
    ( { Ast.gname; args; attrs = List.rev attrs; complex = List.rev complex;
        groups = List.rev groups },
      rest )
  | Lexer.Ident name :: Lexer.Colon :: rest ->
    let v, rest = parse_value rest in
    let rest = expect Lexer.Semi rest in
    parse_body ~gname ~args ((name, v) :: attrs) complex groups rest
  | Lexer.Ident name :: Lexer.Lparen :: rest -> begin
    let values, rest = parse_value_list [] rest in
    match rest with
    | Lexer.Semi :: rest' ->
      parse_body ~gname ~args attrs ((name, values) :: complex) groups rest'
    | Lexer.Lbrace :: rest' ->
      let child, rest'' =
        parse_body ~gname:name ~args:(List.map string_of_value values) [] [] [] rest'
      in
      parse_body ~gname ~args attrs complex (child :: groups) rest''
    | t :: _ -> fail "expected ';' or '{' after %s(...), found %s" name (Lexer.token_to_string t)
    | [] -> fail "unexpected end of input after %s(...)" name
  end
  | t :: _ -> fail "unexpected %s in group %s" (Lexer.token_to_string t) gname
  | [] -> fail "unterminated group %s" gname

let parse_group src =
  match Lexer.tokenize src with
  | Lexer.Ident gname :: Lexer.Lparen :: rest ->
    let values, rest = parse_value_list [] rest in
    let rest = expect Lexer.Lbrace rest in
    let group, rest =
      parse_body ~gname ~args:(List.map string_of_value values) [] [] [] rest
    in
    (match rest with
    | [ Lexer.Eof ] | [] -> group
    | t :: _ -> fail "trailing input after top-level group: %s" (Lexer.token_to_string t))
  | t :: _ -> fail "expected a top-level group, found %s" (Lexer.token_to_string t)
  | [] -> fail "empty input"

(* ------------------------------------------------------------------ *)
(* Semantic layer: Ast.group -> Library.t                              *)
(* ------------------------------------------------------------------ *)

let required_string g name =
  match Ast.attr_string g name with
  | Some s -> s
  | None -> fail "group %s: missing attribute %s" g.Ast.gname name

let required_float g name =
  match Ast.attr_float g name with
  | Some f -> f
  | None -> fail "group %s: missing numeric attribute %s" g.Ast.gname name

(* The constructors reject what the grammar accepts but a library cannot
   hold: a non-increasing axis, a ragged or mis-sized table, mismatched
   arc axes, a duplicate cell.  Their [Invalid_argument] (and a
   malformed number's [Failure]) becomes an {!Error} naming the group,
   so a corrupt file is a data error, not an uncaught exception. *)
let checked what name f =
  try f () with Invalid_argument msg | Failure msg -> fail "%s %s: %s" what name msg

let lut_of_group g =
  checked "table" g.Ast.gname @@ fun () ->
  let axis name =
    match Ast.complex_values g name with
    | Some values -> Ast.float_list_of_values values
    | None -> fail "table %s: missing %s" g.Ast.gname name
  in
  let slews = axis "index_1" in
  let loads = axis "index_2" in
  let rows =
    match Ast.complex_values g "values" with
    | Some values ->
      List.map
        (function
          | Ast.String s -> Ast.float_list_of_values [ Ast.String s ]
          | Ast.Number f -> [| f |]
          | Ast.Ident s -> Ast.float_list_of_values [ Ast.Ident s ])
        values
    | None -> fail "table %s: missing values" g.Ast.gname
  in
  let grid = Vartune_util.Grid.of_arrays (Array.of_list rows) in
  Lut.make ~slews ~loads ~values:grid

let find_table timing name =
  match Ast.child_groups timing name with
  | [ g ] -> lut_of_group g
  | [] -> fail "timing group: missing %s table" name
  | _ :: _ :: _ -> fail "timing group: duplicate %s table" name

let find_table_opt timing name =
  match Ast.child_groups timing name with
  | [ g ] -> Some (lut_of_group g)
  | [] -> None
  | _ :: _ :: _ -> fail "timing group: duplicate %s table" name

let arc_of_group timing =
  let related_pin = required_string timing "related_pin" in
  let sense =
    match Ast.attr_string timing "timing_sense" with
    | None -> Arc.Non_unate
    | Some s -> (
      match Arc.sense_of_string s with
      | Some sense -> sense
      | None -> fail "timing group: bad timing_sense %S" s)
  in
  checked "timing group, related_pin" related_pin @@ fun () ->
  Arc.make ~related_pin ~sense
    ~rise_delay:(find_table timing "cell_rise")
    ~fall_delay:(find_table timing "cell_fall")
    ~rise_transition:(find_table timing "rise_transition")
    ~fall_transition:(find_table timing "fall_transition")
    ?rise_delay_sigma:(find_table_opt timing "cell_rise_sigma")
    ?fall_delay_sigma:(find_table_opt timing "cell_fall_sigma")
    ?internal_power:(find_table_opt timing "internal_power")
    ()

let pin_of_group g =
  let name = match g.Ast.args with [ n ] -> n | _ -> fail "pin group: expected one name" in
  match required_string g "direction" with
  | "input" ->
    Pin.input ~name ~capacitance:(required_float g "capacitance")
  | "output" ->
    let arcs = List.map arc_of_group (Ast.child_groups g "timing") in
    Pin.output ~name ?max_capacitance:(Ast.attr_float g "max_capacitance") ~arcs ()
  | other -> fail "pin %s: bad direction %S" name other

let cell_of_group g =
  let name = match g.Ast.args with [ n ] -> n | _ -> fail "cell group: expected one name" in
  let kind =
    match Ast.attr_string g "kind" with
    | None -> Cell.Combinational
    | Some s -> (
      match Cell.kind_of_string s with
      | Some k -> k
      | None -> fail "cell %s: bad kind %S" name s)
  in
  let pins = List.map pin_of_group (Ast.child_groups g "pin") in
  checked "cell" name @@ fun () ->
  Cell.make ~name
    ~family:(required_string g "family")
    ~drive_strength:
      (match Ast.attr_int g "drive_strength" with
      | Some d -> d
      | None -> fail "cell %s: missing drive_strength" name)
    ~kind
    ~area:(required_float g "area")
    ~pins
    ?setup_time:(Ast.attr_float g "setup_time")
    ?hold_time:(Ast.attr_float g "hold_time")
    ?clock_pin:(Ast.attr_string g "clock_pin")
    ?leakage:(Ast.attr_float g "cell_leakage_power")
    ()

let library_of_ast g =
  if g.Ast.gname <> "library" then fail "expected a library group, found %s" g.Ast.gname;
  let name = match g.Ast.args with [ n ] -> n | _ -> fail "library group: expected one name" in
  let corner = Option.value (Ast.attr_string g "corner") ~default:"UNKNOWN" in
  let cells = List.map cell_of_group (Ast.child_groups g "cell") in
  checked "library" name @@ fun () -> Library.make ~name ~corner ~cells

let parse src = library_of_ast (parse_group src)

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse src
