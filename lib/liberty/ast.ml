type value = Number of float | String of string | Ident of string

type group = {
  gname : string;
  args : string list;
  attrs : (string * value) list;
  complex : (string * value list) list;
  groups : group list;
}

let attr g name = List.assoc_opt name g.attrs

let attr_string g name =
  match attr g name with
  | Some (String s) | Some (Ident s) -> Some s
  | Some (Number _) | None -> None

let attr_float g name =
  match attr g name with
  | Some (Number f) -> Some f
  | Some (String s) | Some (Ident s) -> float_of_string_opt s
  | None -> None

let complex_values g name = List.assoc_opt name g.complex
let child_groups g name = List.filter (fun c -> c.gname = name) g.groups

let split_floats s =
  s
  |> String.split_on_char ','
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map (fun tok ->
         let tok = String.trim tok in
         if tok = "" then None
         else
           match float_of_string_opt tok with
           | Some f -> Some f
           | None -> failwith (Printf.sprintf "Ast: not a number: %S" tok))

let float_list_of_values values =
  values
  |> List.concat_map (function
       | Number f -> [ f ]
       | String s | Ident s -> split_floats s)
  |> Array.of_list
