type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The code unit of the [\uXXXX] escape whose backslash is at [i]:
   exactly four hex digits. *)
let u_escape s i =
  if i + 6 > String.length s then fail i "truncated \\u escape";
  let d k = hex_digit s.[i + 2 + k] in
  let a = d 0 and b = d 1 and c = d 2 and e = d 3 in
  if a < 0 || b < 0 || c < 0 || e < 0 then fail i "bad \\u escape";
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor e

(* Decodes the [\u] escape at [i] into [buf] as UTF-8, a surrogate pair
   as one code point; the index after it. *)
let add_u_escape buf s i =
  let code = u_escape s i in
  let code, next =
    if code >= 0xDC00 && code <= 0xDFFF then fail i "lone low surrogate"
    else if code < 0xD800 || code > 0xDBFF then (code, i + 6)
    else if i + 7 < String.length s && s.[i + 6] = '\\' && s.[i + 7] = 'u' then
      let low = u_escape s (i + 6) in
      if low < 0xDC00 || low > 0xDFFF then fail i "lone high surrogate"
      else (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00), i + 12)
    else fail i "lone high surrogate"
  in
  Buffer.add_utf_8_uchar buf (Uchar.of_int code);
  next

(* Runs of bytes between escapes are blitted whole. *)
let parse_string_body s pos =
  let buf = Buffer.create 16 in
  let n = String.length s in
  let rec go start i =
    if i >= n then fail i "unterminated string"
    else
      match String.unsafe_get s i with
      | '"' ->
        Buffer.add_substring buf s start (i - start);
        (Buffer.contents buf, i + 1)
      | '\\' ->
        Buffer.add_substring buf s start (i - start);
        if i + 1 >= n then fail i "dangling escape";
        let next =
          match s.[i + 1] with
          | 'u' -> add_u_escape buf s i
          | c ->
            Buffer.add_char buf
              (match c with
              | '"' | '\\' | '/' -> c
              | 'b' -> '\b'
              | 'f' -> '\012'
              | 'n' -> '\n'
              | 'r' -> '\r'
              | 't' -> '\t'
              | c -> fail i (Printf.sprintf "bad escape \\%c" c));
            i + 2
        in
        go next next
      | _ -> go start (i + 1)
  in
  go pos pos

let parse src =
  let n = String.length src in
  let rec skip_ws i =
    if i < n && (src.[i] = ' ' || src.[i] = '\t' || src.[i] = '\n' || src.[i] = '\r') then
      skip_ws (i + 1)
    else i
  in
  let expect c i =
    if i < n && src.[i] = c then i + 1
    else fail i (Printf.sprintf "expected %c" c)
  in
  let rec value i =
    let i = skip_ws i in
    if i >= n then fail i "unexpected end of input"
    else
      match src.[i] with
      | '{' -> obj (i + 1) []
      | '[' -> arr (i + 1) []
      | '"' ->
        let s, j = parse_string_body src (i + 1) in
        (String s, j)
      | 't' ->
        if i + 4 <= n && String.sub src i 4 = "true" then (Bool true, i + 4)
        else fail i "bad literal"
      | 'f' ->
        if i + 5 <= n && String.sub src i 5 = "false" then (Bool false, i + 5)
        else fail i "bad literal"
      | 'n' ->
        if i + 4 <= n && String.sub src i 4 = "null" then (Null, i + 4)
        else fail i "bad literal"
      | _ ->
        let j = ref i in
        let numchar c =
          (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while !j < n && numchar src.[!j] do incr j done;
        if !j = i then fail i "unexpected character";
        (match float_of_string_opt (String.sub src i (!j - i)) with
        | Some f -> (Number f, !j)
        | None -> fail i "bad number")
  and obj i acc =
    let i = skip_ws i in
    if i < n && src.[i] = '}' then (Object (List.rev acc), i + 1)
    else begin
      let i = expect '"' (skip_ws i) in
      let key, i = parse_string_body src i in
      let i = expect ':' (skip_ws i) in
      let v, i = value i in
      let i = skip_ws i in
      if i < n && src.[i] = ',' then obj (i + 1) ((key, v) :: acc)
      else (Object (List.rev ((key, v) :: acc)), expect '}' i)
    end
  and arr i acc =
    let i = skip_ws i in
    if i < n && src.[i] = ']' then (Array (List.rev acc), i + 1)
    else begin
      let v, i = value i in
      let i = skip_ws i in
      if i < n && src.[i] = ',' then arr (i + 1) (v :: acc)
      else (Array (List.rev (v :: acc)), expect ']' i)
    end
  in
  try
    let v, i = value 0 in
    let i = skip_ws i in
    if i <> n then Error (Printf.sprintf "trailing garbage at byte %d" i) else Ok v
  with
  | Fail (pos, msg) -> Error (Printf.sprintf "%s at byte %d" msg pos)
  | Failure msg -> Error msg

let member key = function
  | Object kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function Number f -> Some f | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list = function Array l -> Some l | _ -> None

let float_string v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 9.007199254740992e15 then
    Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* Appends [s] as a JSON string literal, quotes included; runs of bytes
   that need no escape are blitted whole. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !start (i - !start);
      start := i + 1;
      Buffer.add_string buf
        (match c with
        | '"' -> "\\\""
        | '\\' -> "\\\\"
        | '\n' -> "\\n"
        | '\r' -> "\\r"
        | '\t' -> "\\t"
        | '\b' -> "\\b"
        | '\012' -> "\\f"
        | c -> Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

let add buf v =
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number f -> Buffer.add_string buf (float_string f)
    | String s -> add_escaped buf s
    | Array l ->
      Buffer.add_char buf '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char buf ','; go v) l;
      Buffer.add_char buf ']'
    | Object kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go v

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let int n = Number (float_of_int n)
