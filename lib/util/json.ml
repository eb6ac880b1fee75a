(* Minimal JSON: the one printer every document in this repository goes
   through (metrics registries, Chrome trace events, timeline exports, the
   BENCH files), and the matching parser that tests and tools read them
   back with. The toolchain ships no JSON library. Neither half is used by
   the simulation itself. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let continue = ref true in
  while !continue do
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') -> advance cur
    | _ -> continue := false
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> advance cur
  | _ -> error cur (Printf.sprintf "expected '%c'" c)

let parse_literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur ("expected " ^ word)

let parse_string cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some 'n' -> advance cur; Buffer.add_char b '\n'; go ()
        | Some 't' -> advance cur; Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance cur; Buffer.add_char b '\r'; go ()
        | Some 'b' -> advance cur; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance cur; Buffer.add_char b '\012'; go ()
        | Some 'u' ->
            advance cur;
            if cur.pos + 4 > String.length cur.src then error cur "bad \\u escape";
            let hex = String.sub cur.src cur.pos 4 in
            cur.pos <- cur.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex) with _ -> error cur "bad \\u escape"
            in
            (* BMP-only, encoded as UTF-8; surrogate pairs are not emitted
               by any serializer in this repository *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | Some c -> advance cur; Buffer.add_char b c; go ()
        | None -> error cur "unterminated escape")
    | Some c ->
        advance cur;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let continue = ref true in
  while !continue do
    match peek cur with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance cur
    | _ -> continue := false
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> error cur ("bad number " ^ s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin advance cur; Obj [] end
      else begin
        let fields = ref [] in
        let rec member () =
          skip_ws cur;
          let key = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          fields := (key, v) :: !fields;
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; member ()
          | Some '}' -> advance cur
          | _ -> error cur "expected ',' or '}'"
        in
        member ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin advance cur; List [] end
      else begin
        let items = ref [] in
        let rec element () =
          let v = parse_value cur in
          items := v :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; element ()
          | Some ']' -> advance cur
          | _ -> error cur "expected ',' or ']'"
        in
        element ();
        List (List.rev !items)
      end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some 'n' -> parse_literal cur "null" Null
  | Some _ -> Num (parse_number cur)

let parse s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos <> String.length s then Error "trailing garbage" else Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> raise (Parse_error msg)

(* accessors: total functions returning options, so tests read naturally *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_number = function Num f -> Some f | _ -> None

let string_member key v = match member key v with Some (Str s) -> Some s | _ -> None
let number_member key v = Option.bind (member key v) to_number

(* ------------------------------------------------------------------ *)
(* Printer *)

let int n = Num (float_of_int n)

(* the value [Printf "%.*f"] prints, so a field rounded to [digits]
   decimals reads back as exactly that decimal *)
let fixed digits x =
  if Float.is_finite x then Num (float_of_string (Printf.sprintf "%.*f" digits x))
  else Num x

(* integers print without a fraction; anything else in the fewest digits
   that read back to the same float *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 9007199254740992.0 then Printf.sprintf "%.0f" x
  else
    let shortest digits = Printf.sprintf "%.*g" digits x in
    let s = shortest 15 in
    if float_of_string s = x then s
    else
      let s = shortest 16 in
      if float_of_string s = x then s else shortest 17

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

exception Too_wide

(* [v] on one line into [b]; raises [Too_wide] as soon as [b] holds more
   than [limit] bytes, so a long document is never flattened whole *)
let rec inline ~limit b v =
  (match v with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num x -> Buffer.add_string b (number x)
  | Str s -> escape b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          inline ~limit b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          escape b k;
          Buffer.add_string b ": ";
          inline ~limit b v)
        fields;
      Buffer.add_char b '}');
  if Buffer.length b > limit then raise Too_wide

let width = 80

(* A container goes on one line when that line, its trailing comma
   included, fits in [width] columns; otherwise each element gets its own
   line, indented two more. *)
let to_string v =
  let b = Buffer.create 1024 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec pretty indent column v =
    let flat = Buffer.create 80 in
    let fits =
      match inline ~limit:(width - column - 1) flat v with
      | () -> true
      | exception Too_wide -> false
    in
    match v with
    | _ when fits -> Buffer.add_buffer b flat
    | List (_ :: _ as items) -> block indent '[' ']' (List.map (fun x -> (None, x)) items)
    | Obj (_ :: _ as fields) -> block indent '{' '}' (List.map (fun (k, x) -> (Some k, x)) fields)
    | _ -> inline ~limit:max_int b v
  and block indent open_ close elems =
    let inner = indent + 2 in
    Buffer.add_char b open_;
    List.iteri
      (fun i (key, x) ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        pad inner;
        let start = Buffer.length b in
        Option.iter
          (fun k ->
            escape b k;
            Buffer.add_string b ": ")
          key;
        pretty inner (inner + Buffer.length b - start) x)
      elems;
    Buffer.add_char b '\n';
    pad indent;
    Buffer.add_char b close
  in
  pretty 0 0 v;
  Buffer.contents b
