type t = {
  ids : int Tbl.Str.t;
  mutable names : string array;
  mutable n : int;
}

let create ?(capacity = 1024) () =
  { ids = Tbl.Str.create capacity; names = [||]; n = 0 }

let count t = t.n

let id t name =
  match Tbl.Str.find t.ids name with
  | h -> h
  | exception Not_found ->
      let h = t.n in
      let cap = Array.length t.names in
      if h = cap then begin
        let ncap = if cap = 0 then 64 else cap * 2 in
        let nn = Array.make ncap "" in
        Array.blit t.names 0 nn 0 h;
        t.names <- nn
      end;
      t.names.(h) <- name;
      t.n <- h + 1;
      Tbl.Str.replace t.ids name h;
      h

let find t name = Tbl.Str.find_opt t.ids name

let name t h =
  if h < 0 || h >= t.n then invalid_arg "Intern.name: unknown handle";
  t.names.(h)
