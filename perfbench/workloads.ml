(* The three workloads (Weaver §6): why each exists is in [why]. *)

open Drive

let tao_read =
  {
    name = "tao_read";
    vertices = 20_000;
    out_degree = 7;
    gatekeepers = 2;
    shards = 4;
    capacity = None;
    clients = 48;
    mix = Tao { read_frac = 0.998; theta = 0.75 };
    warmup_us = 50_000.0;
    slices = 40;
    slice_us = 50_000.0;
  }

let contended_write =
  {
    name = "contended_write";
    vertices = 20_000;
    out_degree = 7;
    gatekeepers = 3;
    shards = 4;
    capacity = None;
    clients = 32;
    mix = Tao { read_frac = 0.75; theta = 0.9 };
    warmup_us = 20_000.0;
    slices = 16;
    slice_us = 50_000.0;
  }

let traversal_paged =
  {
    name = "traversal_paged";
    vertices = 20_000;
    out_degree = 7;
    gatekeepers = 2;
    shards = 4;
    capacity = Some 3_000;
    clients = 32;
    mix = Traversal { depths = [| 2; 2; 2; 3 |]; writers = 2 };
    warmup_us = 150_000.0;
    slices = 16;
    slice_us = 50_000.0;
  }

let all = [ tao_read; contended_write; traversal_paged ]
let find name = List.find_opt (fun s -> s.name = name) all
