type assignment = (string, int) Hashtbl.t

let hash_vertex ~shards id =
  assert (shards > 0);
  Weaver_util.Fnv.hash id mod shards

(* One streaming pass. [placed] answers "where is this neighbour?" — for
   plain LDG that is the assignment built so far; for restreaming it falls
   back to the previous round's placement. *)
let stream_pass ~shards ~slack ~prev vertices =
  let n = List.length vertices in
  let capacity = (1.0 +. slack) *. float_of_int n /. float_of_int shards in
  let assign : assignment = Hashtbl.create (max 16 n) in
  let loads = Array.make shards 0 in
  let lookup v =
    match Hashtbl.find_opt assign v with
    | Some s -> Some s
    | None -> ( match prev with Some p -> Hashtbl.find_opt p v | None -> None)
  in
  List.iter
    (fun (vid, nbrs) ->
      let scores = Array.make shards 0.0 in
      List.iter
        (fun nbr ->
          match lookup nbr with
          | Some s -> scores.(s) <- scores.(s) +. 1.0
          | None -> ())
        nbrs;
      let best = ref 0 and best_score = ref neg_infinity in
      for s = 0 to shards - 1 do
        (* clamped at 0: an over-capacity shard is merely unattractive,
           never *repulsive* — a negative penalty would rank a shard
           holding all of a vertex's neighbours below an empty stranger *)
        let penalty = Float.max 0.0 (1.0 -. (float_of_int loads.(s) /. capacity)) in
        let score = scores.(s) *. penalty in
        (* tie-break towards the lighter shard for balance *)
        if
          score > !best_score
          || (score = !best_score && loads.(s) < loads.(!best))
        then begin
          best := s;
          best_score := score
        end
      done;
      Hashtbl.replace assign vid !best;
      loads.(!best) <- loads.(!best) + 1)
    vertices;
  assign

let ldg ~shards ?(slack = 0.1) vertices =
  assert (shards > 0);
  stream_pass ~shards ~slack ~prev:None vertices

let restream ~shards ~rounds ?(slack = 0.1) vertices =
  assert (shards > 0 && rounds >= 1);
  let rec go prev k =
    let a = stream_pass ~shards ~slack ~prev vertices in
    if k <= 1 then a else go (Some a) (k - 1)
  in
  go None rounds

let edge_cut assign vertices =
  let cut = ref 0 and total = ref 0 in
  List.iter
    (fun (vid, nbrs) ->
      match Hashtbl.find_opt assign vid with
      | None -> ()
      | Some s ->
          List.iter
            (fun nbr ->
              match Hashtbl.find_opt assign nbr with
              | Some s' ->
                  incr total;
                  if s <> s' then incr cut
              | None -> ())
            nbrs)
    vertices;
  if !total = 0 then 0.0 else float_of_int !cut /. float_of_int !total

let balance assign ~shards =
  let loads = Array.make shards 0 in
  Hashtbl.iter
    (fun _ s ->
      if s < 0 || s >= shards then
        invalid_arg
          (Printf.sprintf "Partition.balance: shard %d out of range (shards = %d)" s
             shards);
      loads.(s) <- loads.(s) + 1)
    assign;
  let total = Array.fold_left ( + ) 0 loads in
  if total = 0 then 1.0
  else
    let ideal = float_of_int total /. float_of_int shards in
    float_of_int (Array.fold_left max 0 loads) /. ideal
