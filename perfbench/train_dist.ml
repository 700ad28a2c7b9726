(* train_dist: data-parallel RGAT training (64 -> 16) at P = 4 through
   Replica, default overlapped schedule, explicit interconnect model
   (5 us, 25 GB/s), with a checkpoint saved every 10 epochs.  The only
   workload with partitioning, halo exchange, all-reduce overlap,
   checkpoint I/O and attention backward: without it lib/dist and lib/ckpt
   would go unmeasured. *)

open Harness
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Replica = Hector_dist.Replica
module Comms = Hector_dist.Comms
module Failover = Hector_dist.Failover
module Checkpoint = Hector_ckpt.Checkpoint
module Partition = Hector_graph.Partition

let name = "train_dist"
let scale = 1.0
let nodes = 1000
let edges = 6000
let sim_iters = 9
let parts = 4
let ckpt_every = 10
let lr = 0.01
let options = Compiler.options_of_flags ~training:true ~fuse_ops:true ~compact:false ~fusion:false ()
let program () = Hector_models.Model_defs.rgat ~in_dim:Inputs.feat_dim ~out_dim:Inputs.classes ()

(* Every interconnect field spelled out: no knob can reach the model. *)
let comms = { Comms.latency_us = 5.0; bandwidth_gbs = 25.0; channels = 2; faults = None }

(* The graph's structure does not follow the seed: Generator draws the
   metagraph from its seed, and the partition's halos follow it, so across
   generator seeds the replicas' peak memory spreads by 23% (5 seeds),
   wider than this benchmark's bounds.  Features, labels and weights
   derive from the seed. *)
let graph_seed = 1

let inputs ~seed =
  let graph = Inputs.graph ~name ~seed:graph_seed ~nodes ~edges ~scale in
  (graph, Inputs.features ~seed graph, Inputs.labels ~seed graph)

let fingerprints_of (graph, features, labels) =
  [ ("graph", Fp.graph graph); ("features", Fp.tensor features); ("labels", Fp.of_ints labels) ]

let fingerprints ~seed = fingerprints_of (inputs ~seed)

type t = {
  cluster : Replica.t;
  compiled : Compiler.compiled;
  dir : string;
  mutable losses : float list;  (** newest first; the last is the first step's *)
  mutable saves_ms : float list;
  mutable at_warm : float * float * float;  (** comm, posted, busy ms after warm-up *)
  mutable at_prefix : float * float * float;  (** the same after the simulated prefix *)
}

let save t ~step =
  let (_ : string), ms =
    timed (fun () -> Checkpoint.save ~dir:t.dir ~keep:2 (Failover.snapshot ~step t.cluster))
  in
  t.saves_ms <- ms :: t.saves_ms

(* The cluster clock is its slowest replica; the category split comes from
   that replica, so it adds up to the cluster time, while launches and
   allocations are counted over every replica. *)
let cluster_gpu c =
  let snaps = Array.map gpu_of_engine (Replica.engines c) in
  let crit = Array.fold_left (fun a g -> if g.clock > a.clock then g else a) snaps.(0) snaps in
  {
    crit with
    clock = Replica.elapsed_ms c;
    launches = Array.fold_left (fun a g -> a + g.launches) 0 snaps;
    allocs = Array.fold_left (fun a g -> a + g.allocs) 0 snaps;
  }

let create ~seed ~graph ~features ~labels ~dir obs =
  let compiled = Compiler.compile ~obs ~options (program ()) in
  let config =
    {
      Replica.Config.parts = Some parts;
      slack = Some 0.0;
      comms = Some comms;
      device = Hector_gpu.Device.rtx3090;
      seed = Inputs.weights seed;
      obs = Some obs;
      overlap = true;
      pipeline = Some 1;
      bucket_kb = Some 64;
      weights = None;
    }
  in
  let cluster = Replica.create ~config ~features ~graph [ compiled ] in
  let zero = (0.0, 0.0, 0.0) in
  let t = { cluster; compiled; dir; losses = []; saves_ms = []; at_warm = zero; at_prefix = zero } in
  let comm () = (Replica.comm_ms cluster, Replica.posted_comm_ms cluster, Replica.busy_ms cluster) in
  let step i =
    t.losses <- Replica.train_step cluster ~lr ~labels () :: t.losses;
    if i = 0 then t.at_warm <- comm () else if i = sim_iters then t.at_prefix <- comm ();
    if i > 0 && i mod ckpt_every = 0 then save t ~step:i
  in
  (t, { step; gpu = (fun () -> cluster_gpu cluster) })

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let bits t = Array.map Int64.bits_of_float (Tensor.to_flat_array t)

(* Checks: finite losses, the first step against a single-device session
   started from the cluster's master weights, and a bitwise checkpoint
   round trip.  Returns the round trip's load time and file size. *)
let checks ~seed ~graph ~features ~labels ~domains t =
  List.iter (finite_loss name) t.losses;
  let config =
    {
      (session_config ~seed ~domains ~obs:Hector_obs.disabled ~features) with
      Session.Config.weights = List.hd (Replica.master_weights t.cluster);
    }
  in
  let reference = Session.create ~config ~graph t.compiled in
  let expected = Session.train_step reference ~lr ~labels () in
  let first = List.nth t.losses (List.length t.losses - 1) in
  if Float.abs (expected -. first) > 1e-6 then
    Printf.eprintf "perfbench: train_dist first loss %.17g, reference session %.17g\n%!" first expected;
  check "train_dist: first-step loss vs reference Session" (Float.abs (expected -. first) <= 1e-6);
  let snap = Failover.snapshot ~step:(List.length t.losses) t.cluster in
  let path, save_ms = timed (fun () -> Checkpoint.save ~dir:t.dir ~keep:2 snap) in
  t.saves_ms <- save_ms :: t.saves_ms;
  let loaded, load_ms = timed (fun () -> Checkpoint.load path) in
  let same =
    List.length (Checkpoint.tensors snap) = List.length (Checkpoint.tensors loaded)
    && List.for_all2
         (fun (n, a) (m, b) -> n = m && Tensor.shape a = Tensor.shape b && bits a = bits b)
         (Checkpoint.tensors snap) (Checkpoint.tensors loaded)
  in
  check "train_dist: Checkpoint.save -> load is bitwise" same;
  let bytes = (Unix.stat path).Unix.st_size in
  remove_dir t.dir;
  (load_ms, bytes)

let run ctx =
  let ((graph, features, labels) as inp) = inputs ~seed:ctx.seed in
  let dir = Filename.concat ctx.out_dir (Printf.sprintf "ckpt-%d" (Unix.getpid ())) in
  let round_trip = ref (0.0, 0) in
  let checks t = round_trip := checks ~seed:ctx.seed ~graph ~features ~labels ~domains:ctx.domains t in
  let layers t =
    let (comm0, posted0, busy0), (comm1, posted1, busy1) = (t.at_warm, t.at_prefix) in
    let comm = comm1 -. comm0 and posted = posted1 -. posted0 and busy = busy1 -. busy0 in
    let pt = Replica.partition t.cluster in
    let load_ms, bytes = !round_trip in
    [
      metric "core.plan_steps" (float_of_int (plan_steps t.compiled));
      metric "tensor.gemm_gflops" (graph_gemm_gflops graph ~out:Inputs.classes);
      metric "graph.compaction_ratio" (compaction_ratio graph);
      metric "graph.edge_cut" (Partition.edge_cut_fraction pt);
      metric "graph.balance" (Partition.balance pt);
      metric "dist.exposed_comm_ratio" (comm /. busy);
      metric "dist.overlap_ratio" (1.0 -. (comm /. posted));
      metric "ckpt.save_ms" (mean (Array.of_list t.saves_ms));
      metric "ckpt.load_ms" load_ms;
      metric "ckpt.bytes" (float_of_int bytes);
    ]
  in
  run_iterations ctx ~workload:name ~sim_iters
    ~create:(create ~seed:ctx.seed ~graph ~features ~labels ~dir)
    ~engines:(fun t -> Array.to_list (Replica.engines t.cluster))
    ~checks ~layers ~fingerprints:(fingerprints_of inp)
