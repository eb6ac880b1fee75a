type 'a t = {
  mutable cells : 'a option array;
  mutable flags : Bytes.t;  (* '\001' where the key's flag is set *)
  mutable bound : int;
  mutable n_flagged : int;
}

let create () = { cells = [||]; flags = Bytes.empty; bound = 0; n_flagged = 0 }
let length t = t.bound
let flagged t = t.n_flagged

let[@inline] find_opt t h = if h < Array.length t.cells then t.cells.(h) else None
let mem t h = Option.is_some (find_opt t h)

let[@inline] is_flagged t h =
  h < Bytes.length t.flags && Bytes.unsafe_get t.flags h <> '\000'

let grow t h =
  let len = Array.length t.cells in
  if h >= len then begin
    let n = max (2 * len) (max 64 (h + 1)) in
    let cells = Array.make n None in
    Array.blit t.cells 0 cells 0 len;
    let flags = Bytes.make n '\000' in
    Bytes.blit t.flags 0 flags 0 len;
    t.cells <- cells;
    t.flags <- flags
  end

let set_flag t h flag =
  if is_flagged t h <> flag then begin
    Bytes.unsafe_set t.flags h (if flag then '\001' else '\000');
    t.n_flagged <- (t.n_flagged + if flag then 1 else -1)
  end

let replace t h v ~flag =
  if h < 0 then invalid_arg "Dense.replace: negative key";
  grow t h;
  (match t.cells.(h) with None -> t.bound <- t.bound + 1 | Some _ -> ());
  t.cells.(h) <- Some v;
  set_flag t h flag

let update t h v =
  match find_opt t h with
  | Some _ -> t.cells.(h) <- Some v
  | None -> invalid_arg "Dense.update: absent key"

let remove t h =
  match find_opt t h with
  | Some _ ->
      t.cells.(h) <- None;
      t.bound <- t.bound - 1;
      set_flag t h false
  | None -> ()

let reset t =
  Array.fill t.cells 0 (Array.length t.cells) None;
  Bytes.fill t.flags 0 (Bytes.length t.flags) '\000';
  t.bound <- 0;
  t.n_flagged <- 0

let fold f t init =
  let acc = ref init in
  Array.iteri
    (fun h cell ->
      match cell with Some v -> acc := f h v ~flag:(is_flagged t h) !acc | None -> ())
    t.cells;
  !acc
