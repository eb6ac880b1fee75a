(* Operating a Weaver deployment: crash recovery, backup/restore into a
   new cluster, and read-only replicas with weak consistency (§4.3, §6.4).

     dune exec examples/operations.exe *)

open Weaver_core

let ok = function Ok v -> v | Error e -> failwith e

let mk cfg =
  let c = Cluster.create cfg in
  Weaver_programs.Std_programs.Std.register_all (Cluster.registry c);
  c

let () =
  (* --- a deployment with one read replica per shard --- *)
  let c1 = mk { Config.default with Config.read_replicas = 1 } in
  let client = Cluster.client c1 in
  let tx = Client.Tx.begin_ client in
  List.iter (fun v -> ignore (Client.Tx.create_vertex tx ~id:v ())) [ "a"; "b"; "c" ];
  ignore (Client.Tx.create_edge tx ~src:"a" ~dst:"b");
  ignore (Client.Tx.create_edge tx ~src:"b" ~dst:"c");
  ok (Client.commit client tx);
  Cluster.run_for c1 50_000.0;

  (* weak reads may be served by a replica: cheaper, and one consistent
     cut up to about one gc_period old *)
  (match
     Client.run_program client ~prog:"count_edges" ~params:Progval.Null ~starts:[ "a" ]
       ~consistency:`Weak ()
   with
  | Ok (Progval.Int n) -> Printf.printf "weak read: a has %d edge(s)\n" n
  | _ -> failwith "weak read failed");

  (* --- crash a shard; the manager detects, bumps the epoch, recovers --- *)
  let victim = Cluster.shard_of_vertex c1 "a" in
  Printf.printf "crashing shard %d...\n" victim;
  Cluster.kill_shard c1 victim;
  Cluster.run_for c1 400_000.0;
  Printf.printf "epoch after recovery: %d (recoveries: %d)\n" (Cluster.epoch c1)
    (Cluster.counters c1).Runtime.recoveries;
  (match
     Client.run_program client ~prog:"get_node" ~params:Progval.Null ~starts:[ "a" ] ()
   with
  | Ok (Progval.List [ _ ]) -> print_endline "data survived the crash (backing store)"
  | _ -> failwith "recovery failed");

  (* --- backup the durable state and restore into a brand-new cluster --- *)
  let image = Backup.dump c1 in
  Printf.printf "backup image: %d bytes\n" (String.length image);
  let c2 = mk { Config.default with Config.read_replicas = 1 } in
  Backup.restore c2 image;
  Cluster.run_for c2 10_000.0;
  let client2 = Cluster.client c2 in
  match
    Client.run_program client2 ~prog:"reachable"
      ~params:(Progval.Assoc [ ("target", Progval.Str "c") ])
      ~starts:[ "a" ] ()
  with
  | Ok (Progval.Bool true) -> print_endline "restored cluster answers queries: a reaches c"
  | _ -> failwith "restore failed"
