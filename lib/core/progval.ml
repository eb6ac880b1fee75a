type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Assoc of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Assoc x, Assoc y ->
      List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | _ -> false

let rec pp fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | List l ->
      Format.fprintf fmt "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp)
        l
  | Assoc l ->
      let pp_pair f (k, v) = Format.fprintf f "%s:%a" k pp v in
      Format.fprintf fmt "{@[%a@]}"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp_pair)
        l

let to_string v = Format.asprintf "%a" pp v
let key = to_string

let to_bool = function Bool b -> b | v -> invalid_arg ("Progval.to_bool: " ^ to_string v)
let to_int = function Int i -> i | v -> invalid_arg ("Progval.to_int: " ^ to_string v)

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> invalid_arg ("Progval.to_float: " ^ to_string v)

let to_str = function Str s -> s | v -> invalid_arg ("Progval.to_str: " ^ to_string v)
let to_list = function List l -> l | v -> invalid_arg ("Progval.to_list: " ^ to_string v)

(* keys are strings: compare them as such, not through the generic
   structural compare *)
let assoc_opt k = function
  | Assoc l ->
      let rec find = function
        | [] -> None
        | (k', v) :: rest -> if String.equal k k' then Some v else find rest
      in
      find l
  | _ -> None

let assoc k v = match assoc_opt k v with Some x -> x | None -> Null
