(* Inputs the benchmark owns: its graphs and its key samplers.

   Everything here is a pure function of a [Random.State.t] seeded from the
   command line, so the same seed gives the same graph and the same request
   stream whatever the library's own generators do. *)

type graph = {
  n : int;
  adj : int array array;  (** out-neighbours of vertex [i], in insertion order *)
}

let prefix = "v"
let vid i = prefix ^ string_of_int i

(* The record [Loader.fast_install] consumes; vertex [i] is named [vid i]. *)
let to_graphgen g : Weaver.Graphgen.t =
  let edges = ref [] in
  for s = g.n - 1 downto 0 do
    for k = Array.length g.adj.(s) - 1 downto 0 do
      edges := (s, g.adj.(s).(k)) :: !edges
    done
  done;
  { Weaver.Graphgen.prefix; n_vertices = g.n; edges = !edges }

(* Preferential attachment: vertex [i] links to [min i out_degree] distinct
   earlier vertices, each drawn with probability proportional to its
   in-degree plus one. [pool] holds every vertex once plus once per
   in-edge, so a uniform draw from it is that distribution. *)
let preferential ~rng ~n ~out_degree =
  let pool = Array.make (n * (out_degree + 1)) 0 in
  let pool_len = ref 0 in
  let push v =
    pool.(!pool_len) <- v;
    incr pool_len
  in
  let adj =
    Array.init n (fun i ->
        let want = min i out_degree in
        let picked = ref [] in
        while List.length !picked < want do
          let v = pool.(Random.State.int rng !pool_len) in
          if not (List.mem v !picked) then picked := v :: !picked
        done;
        let out = Array.of_list (List.rev !picked) in
        Array.iter push out;
        push i;
        out)
  in
  { n; adj }

let chain n = { n; adj = Array.init n (fun i -> if i + 1 < n then [| i + 1 |] else [||]) }

let star leaves =
  { n = leaves + 1; adj = Array.init (leaves + 1) (fun i -> if i = 0 then Array.init leaves succ else [||]) }

(* Zipf over ranks [0, n): rank [k] has weight [1 / (k + 1)^theta]. Rank [k]
   is vertex [k], so the hottest keys are the oldest, best-connected
   vertices of a preferential-attachment graph. *)
type zipf = float array (* cumulative weights, last = 1.0 *)

let zipf ~n ~theta : zipf =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) theta);
    cdf.(k) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let zipf_draw (cdf : zipf) rng =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo
