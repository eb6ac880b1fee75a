(* Umbrella module: one [open Weaver] (or [Weaver.X] access) for the whole
   public API, the entry point downstream users should reach for. *)

(* deployment and client *)
module Config = Weaver_core.Config
module Cluster = Weaver_core.Cluster
module Client = Weaver_core.Client
module Progval = Weaver_core.Progval
module Nodeprog = Weaver_core.Nodeprog
module Backup = Weaver_core.Backup
module Rebalance = Weaver_core.Rebalance
module Balancer = Weaver_core.Balancer

(* standard node programs *)
module Programs = Weaver_programs.Std_programs

(* workloads, loading, analytics *)
module Graphgen = Weaver_workloads.Graphgen
module Loader = Weaver_workloads.Loader
module Tao = Weaver_workloads.Tao
module Blockchain = Weaver_workloads.Blockchain
module Analytics = Weaver_workloads.Analytics

(* applications *)
module Socialnet = Weaver_apps.Socialnet
module Coingraph = Weaver_apps.Coingraph
module Robobrain = Weaver_apps.Robobrain

(* substrates, for advanced use *)
module Vclock = Weaver_vclock.Vclock
module Oracle = Weaver_oracle.Oracle
module Oracle_chain = Weaver_oracle.Chain
module Store = Weaver_store.Store
module Mgraph = Weaver_graph.Mgraph
module Codec = Weaver_graph.Codec
module Partition = Weaver_partition.Partition
module Engine = Weaver_sim.Engine
module Net = Weaver_sim.Net
module Flow = Weaver_flow.Flow
module Repl = Weaver_repl.Repl
module Metrics = Weaver_obs.Metrics
module Trace = Weaver_obs.Trace
module Heat = Weaver_obs.Heat
module Health = Weaver_obs.Health
module Xrand = Weaver_util.Xrand
module Stats = Weaver_util.Stats

(** Boot a deployment with the standard programs registered — the
    one-liner most applications want. *)
let boot config =
  let cluster = Cluster.create config in
  Programs.Std.register_all (Cluster.registry cluster);
  cluster
