(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the GPU simulator, plus the benchmark modes: the
   Bechamel wall-clock microbenchmarks of the real kernel implementations
   and the simulated-clock serving, distributed, autotune, streaming and
   fault-tolerance runs.

   Usage:
     bench/main.exe                   run all tables and figures
     bench/main.exe --table5 --fig6   run selected experiments
     bench/main.exe --micro           run one benchmark mode (see --help)
     bench/main.exe --serve --json    also write BENCH_serve.json
     bench/main.exe --dist --check BENCH_dist.json   gate against a baseline
     bench/main.exe --max-edges 9000  larger physical replicas (slower)

   Every mode is one row of [modes] below: it returns typed entries plus a
   "_meta" snapshot, and one writer, one baseline reader and one checker
   serve them all. *)

module H = Hector_experiments.Harness
module Json = Hector_obs.Json
module Session = Hector_runtime.Session
module Compiler = Hector_core.Compiler
module Autotune = Hector_runtime.Autotune
module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Replica = Hector_dist.Replica
module Failover = Hector_dist.Failover
module Fault = Hector_ckpt.Fault
module Mg = Hector_stream.Mutable_graph
module Delta = Hector_stream.Delta
module Ss = Hector_stream.Stream_serve

let experiments : (string * string * (H.t -> unit)) list =
  [
    ("--table1", "Table 1: FLOP/memory/launch analysis of a_HGT", Hector_experiments.Table1.run);
    ("--fig1", "Figure 1: Graphiler vs Hector inference breakdown", Hector_experiments.Fig1.run);
    ("--table2", "Table 2: compiler feature matrix", Hector_experiments.Table2.run);
    ("--table4", "Table 4: datasets", Hector_experiments.Table4.run);
    ("--fig5", "Figure 5: Hector best vs prior systems", Hector_experiments.Fig5.run);
    ("--table5", "Table 5: compaction & fusion speedups", Hector_experiments.Table5.run);
    ("--table6", "Table 6: unoptimized Hector vs best SOTA", Hector_experiments.Table6.run);
    ("--fig6", "Figure 6: RGAT breakdown under U/C/F/C+F", Hector_experiments.Fig6.run);
    ("--ablation", "Ablation: schedules, traversal strategy, devices, autotune",
      Hector_experiments.Ablation.run);
    ("--minibatch", "Minibatch step breakdown (extension of paper section 6)",
      Hector_experiments.Minibatch_exp.run);
  ]

(* --- what a benchmark mode produces ---------------------------------

   One record type for every mode's entries (and for baseline entries read
   back by --check).  Micro rows carry all five measurements; the
   simulated-clock modes carry [sim_ms] plus, where an entry pins an exact
   integer, [launches] — which --check gates one-sided at zero tolerance,
   so modes also use it for counts that must never grow (excess
   recompiles, faults-off overhead, request accounting). *)

type entry = {
  name : string;
  sim_ms : float option;  (* simulated GPU time (or a simulated-clock figure) *)
  launches : int option;  (* exact count, gated one-sided with zero tolerance *)
  ns : float option;  (* micro only: wall-clock ns/run (Bechamel OLS estimate) *)
  allocs : int option;  (* micro only: tensor allocations in one steady-state run *)
  copied_bytes : int option;  (* micro only: bytes moved by gather/scatter/copy *)
}

let sim ?launches name v =
  { name; sim_ms = Some v; launches; ns = None; allocs = None; copied_bytes = None }

type outcome = {
  entries : entry list;
  meta : Json.t;  (* stored under "_meta" (never gated) *)
  trace : string option;  (* micro only: the BENCH_trace.json document *)
  failures : string list;  (* in-run gates that did not hold *)
}

let outcome ?trace ?(failures = []) entries meta = { entries; meta; trace; failures }

(* --- shared inputs ---------------------------------------------------- *)

let micro_graph ?(seed = 11) () =
  Hector_graph.Generator.generate
    {
      Hector_graph.Generator.name = "micro";
      num_ntypes = 3;
      num_etypes = 8;
      num_nodes = 300;
      num_edges = 1000;
      compaction_target = 0.4;
      scale = 1.0;
      seed;
    }

(* the 400-node parent graph of the serving, distributed, streaming and
   fault benchmarks *)
let bench_graph name seed =
  Hector_graph.Generator.generate
    {
      Hector_graph.Generator.name;
      num_ntypes = 3;
      num_etypes = 8;
      num_nodes = 400;
      num_edges = 1600;
      compaction_target = 0.4;
      scale = 1.0;
      seed;
    }

let serve_config =
  {
    Serve.default_config with
    Serve.fanout = 6;
    hops = 2;
    max_batch = Some 8;
    max_wait_ms = 5.0;
    queue_capacity = Some 128;
  }

(* open-loop Poisson arrivals, 4 seed nodes per request *)
let serve_requests ~num_nodes requests =
  Workload.generate
    ~spec:{ Workload.seed = 42; rate_rps = 1500.0; requests; seeds_per_request = 4 }
    ~num_nodes ()

let rgcn () = Hector_models.Model_defs.rgcn ~in_dim:32 ~out_dim:16 ()

let rgcn_training () =
  Compiler.compile
    ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
    (rgcn ())

let comms ?faults () = Hector_dist.Comms.create ~latency_us:5.0 ~bandwidth_gbs:25.0 ?faults ()

let ms_per_request (s : Serve.load_stats) =
  if s.Serve.throughput_rps > 0.0 then 1000.0 /. s.Serve.throughput_rps else 0.0

(* --- Bechamel microbenchmarks (--micro) ------------------------------

   One Test.make per table/figure, measuring the real (wall-clock)
   execution of that experiment's core computation on a small fixed input,
   plus — for session cases — the simulated time and launch count of one
   steady-state run. *)

let micro_compile ?obs ?(training = false) ~compact ~fusion model =
  Compiler.compile ?obs
    ~options:(Compiler.options_of_flags ~training ~compact ~fusion ())
    (Hector_models.Model_defs.by_name model ~in_dim:32 ~out_dim:16 ())

(* One microbenchmark: the measured closure, plus the session driving it
   (when there is one) so the harness can also report simulated time. *)
type micro_case = {
  cname : string;
  fn : unit -> unit;
  csession : Session.t option;
}

let micro_cases () =
  let graph = micro_graph () in
  let config = { Session.Config.default with Session.Config.seed = 3 } in
  let session ?training ~compact ~fusion model =
    Session.create ~config ~graph (micro_compile ?training ~compact ~fusion model)
  in
  let forward_case cname ~compact ~fusion model =
    let s = session ~compact ~fusion model in
    { cname; fn = (fun () -> ignore (Session.forward s)); csession = Some s }
  in
  let labels = Array.init graph.Hector_graph.Hetgraph.num_nodes (fun i -> i mod 16) in
  let train_case cname model =
    let s = session ~training:true ~compact:false ~fusion:false model in
    { cname; fn = (fun () -> ignore (Session.train_step s ~labels ())); csession = Some s }
  in
  let plain cname fn = { cname; fn; csession = None } in
  [
    (* Table 1 driver: compact-map construction *)
    plain "table1/compact_map" (fun () -> ignore (Hector_graph.Compact_map.build graph));
    (* Figure 1 driver: Hector HGT inference epoch *)
    forward_case "fig1/hgt_forward" ~compact:false ~fusion:false "hgt";
    (* Table 4 driver: dataset replica generation *)
    plain "table4/generator" (fun () -> ignore (micro_graph ~seed:1 ()));
    (* Figure 5 drivers: one epoch per model *)
    forward_case "fig5/rgcn_forward" ~compact:false ~fusion:false "rgcn";
    forward_case "fig5/rgat_forward" ~compact:false ~fusion:false "rgat";
    train_case "fig5/rgcn_train" "rgcn";
    (* Table 5 drivers: the optimized configurations *)
    forward_case "table5/rgat_compact" ~compact:true ~fusion:false "rgat";
    forward_case "table5/rgat_fused" ~compact:false ~fusion:true "rgat";
    (* Table 6 driver: compilation itself *)
    plain "table6/compile_rgat" (fun () ->
        ignore (micro_compile ~compact:true ~fusion:true "rgat"));
    (* Figure 6 driver: the C+F configuration *)
    forward_case "fig6/rgat_compact_fused" ~compact:true ~fusion:true "rgat";
  ]

(* The "_meta" snapshot: re-runs the two flagship cases with tracing and
   observability on fresh sessions (the measured sessions stay obs-free so
   the wall-clock numbers are undisturbed), capturing their metrics JSON
   and, for the first, a Chrome trace of simulated kernels merged with
   compiler/runtime wall-clock spans. *)
let micro_meta () =
  let snapshot name ~training ~compact ~fusion model =
    let graph = micro_graph () in
    let obs = Hector_obs.create () in
    let compiled = micro_compile ~obs ~training ~compact ~fusion model in
    let config =
      {
        Session.Config.default with
        Session.Config.seed = 3;
        trace = true;
        observability = Some obs;
      }
    in
    let s = Session.create ~config ~graph compiled in
    (if training then
       let labels = Array.init graph.Hector_graph.Hetgraph.num_nodes (fun i -> i mod 16) in
       ignore (Session.train_step s ~labels ())
     else ignore (Session.forward s));
    ((name, Session.metrics_json s), Session.chrome_trace s)
  in
  let snaps =
    [
      snapshot "fig5/rgcn_train" ~training:true ~compact:false ~fusion:false "rgcn";
      snapshot "table5/rgat_compact" ~training:false ~compact:true ~fusion:false "rgat";
    ]
  in
  (Json.Obj (List.map fst snaps), snd (List.hd snaps))

let run_micro () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  print_endline "Bechamel microbenchmarks (wall-clock of the real implementations):";
  let measure { cname = name; fn; csession } =
    let test = Test.make ~name (Staged.stage fn) in
    let measured =
      Benchmark.all cfg instances (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
    in
    let analyzed =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock measured
    in
    let ns =
      Hashtbl.fold
        (fun _ result acc ->
          match (acc, Analyze.OLS.estimates result) with
          | None, Some [ est ] -> Some est
          | acc, _ -> acc)
        analyzed None
    in
    (* one instrumented steady-state run (Bechamel already warmed the
       sessions, so plan arenas exist and allocation counts are the
       per-step steady state, not first-run setup) *)
    let a0 = Hector_tensor.Tensor.allocation_count () in
    let c0 = Hector_tensor.Tensor.copied_bytes () in
    Option.iter (fun s -> Session.reset_clock s) csession;
    fn ();
    let allocs = Hector_tensor.Tensor.allocation_count () - a0 in
    let copied = Hector_tensor.Tensor.copied_bytes () - c0 in
    let engine = Option.map Session.engine csession in
    let sim_ms = Option.map Hector_gpu.Engine.elapsed_ms engine in
    let launches =
      Option.map
        (fun e -> (Hector_gpu.Stats.total (Hector_gpu.Engine.stats e)).Hector_gpu.Stats.launches)
        engine
    in
    (match ns with
    | Some est ->
        Printf.printf "  %-28s %12.1f ns/run %8d allocs %12d copied-bytes%s%s\n" name est allocs
          copied
          (match sim_ms with Some s -> Printf.sprintf "  %10.3f sim-ms" s | None -> "")
          (match launches with Some l -> Printf.sprintf "  %4d launches" l | None -> "")
    | None ->
        Printf.printf "  %-28s (no estimate) %8d allocs %12d copied-bytes\n" name allocs copied);
    { name; sim_ms; launches; ns; allocs = Some allocs; copied_bytes = Some copied }
  in
  let entries = List.map measure (micro_cases ()) in
  let meta, trace = micro_meta () in
  outcome ~trace entries meta

(* --- serving benchmark (--serve) -------------------------------------

   One deterministic open-loop serving run: batched RGCN inference over
   the synthetic parent graph under a Poisson arrival trace, entirely on
   the simulated clock.  Every gated entry is "larger = worse": latency
   percentiles, inverse throughput and launches per request (the run's
   total launch count rides that entry's integer field). *)

let run_serve () =
  let graph = bench_graph "serve_bench" 17 in
  let server = Serve.create ~config:serve_config ~graph (rgcn ()) in
  ignore (Serve.serve server (serve_requests ~num_nodes:graph.Hector_graph.Hetgraph.num_nodes 96));
  let s = Serve.load_stats server in
  Printf.printf
    "Serving benchmark (simulated clock, open-loop %d requests):\n\
    \  served %d, shed %d, %d batches (mean size %.2f)\n\
    \  throughput %.1f req/s   latency p50 %.3f / p95 %.3f / p99 %.3f sim-ms\n\
    \  %.2f launches per request\n"
    s.Serve.requests s.Serve.lserved s.Serve.lshed s.Serve.lbatches s.Serve.mean_batch
    s.Serve.throughput_rps s.Serve.p50_ms s.Serve.p95_ms s.Serve.p99_ms
    s.Serve.launches_per_request;
  outcome
    [
      sim "serve/p50" s.Serve.p50_ms;
      sim "serve/p95" s.Serve.p95_ms;
      sim "serve/p99" s.Serve.p99_ms;
      sim "serve/ms_per_request" (ms_per_request s);
      sim "serve/launches_per_request" s.Serve.launches_per_request
        ~launches:(Serve.launches server);
    ]
    (Serve.metrics_json server)

(* --- autotune benchmark (--tune) -------------------------------------

   Runs the two-stage autotuner (estimate the full candidate space with
   Plan_cost, measure the top-k plus the four fixed layouts) on every
   model-zoo entry over the micro graph.  In-run gate, one-sided: the
   tuned configuration matches or beats EVERY fixed U/C/F/C+F
   configuration. *)

let run_tune () =
  let graph = micro_graph () in
  let fixed_configs =
    [ ("U", false, false); ("C", true, false); ("F", false, true); ("C+F", true, true) ]
  in
  print_endline "Autotune benchmark (two-stage search, simulated clock):";
  let tune model =
    let program = Hector_models.Model_defs.by_name model ~in_dim:32 ~out_dim:16 () in
    let r = Autotune.search ~graph program in
    let best = r.Autotune.best in
    (* fixed layouts are always among the measured candidates *)
    let measured_of options =
      let id = Compiler.options_id options in
      (List.find
         (fun (c : Autotune.candidate) -> String.equal (Compiler.options_id c.Autotune.options) id)
         r.Autotune.all)
        .Autotune.time_ms
    in
    Printf.printf "  %-5s tuned %-28s est %.4f measured %.4f sim-ms\n" model
      (Compiler.options_id best.Autotune.options)
      best.Autotune.estimated_ms best.Autotune.time_ms;
    let fixed =
      List.map
        (fun (tag, compact, fusion) ->
          let t = measured_of (Compiler.options_of_flags ~compact ~fusion ()) in
          let ok = best.Autotune.time_ms <= t +. 1e-9 in
          Printf.printf "        fixed %-5s %.4f sim-ms  %s\n" tag t
            (if ok then "ok" else "TUNED SLOWER");
          (tag, t, ok))
        fixed_configs
    in
    (model, best, fixed)
  in
  let per_model = List.map tune [ "rgcn"; "rgat"; "hgt" ] in
  let failures =
    List.concat_map
      (fun (model, best, fixed) ->
        List.filter_map
          (fun (tag, t, ok) ->
            if ok then None
            else Some (Printf.sprintf "%s: tuned %.4f > %s %.4f" model best.Autotune.time_ms tag t))
          fixed)
      per_model
  in
  if failures = [] then Printf.printf "\nTuned >= every fixed configuration on all models.\n";
  let entries =
    List.concat_map
      (fun (model, best, fixed) ->
        sim (Printf.sprintf "tune/%s_tuned" model) best.Autotune.time_ms
        :: List.map
             (fun (tag, t, _) ->
               sim
                 (Printf.sprintf "tune/%s_%s" model (if String.equal tag "C+F" then "CF" else tag))
                 t)
             fixed)
      per_model
  in
  let winner (model, best, _) =
    ( model,
      Json.Obj
        [
          ("best", Json.Str (Compiler.options_id best.Autotune.options));
          ("estimated_ms", Json.Num best.Autotune.estimated_ms);
          ("measured_ms", Json.Num best.Autotune.time_ms);
        ] )
  in
  outcome ~failures entries (Json.Obj (List.map winner per_model))

(* --- distributed benchmark (--dist) ----------------------------------

   Data-parallel RGCN training over the partitioned parent graph at 1, 2
   and 4 partitions, entirely on the simulated clock.  Gated entries are
   all "larger = worse": simulated ms per epoch at each partition count,
   and the comm/compute ratio at 2 and 4 partitions — for the overlapped
   (headline) schedule and the blocking BSP schedule. *)

let run_dist () =
  let graph = bench_graph "dist_bench" 29 in
  let num_nodes = graph.Hector_graph.Hetgraph.num_nodes in
  let features = Hector_tensor.Tensor.randn (Hector_tensor.Rng.create 23) [| num_nodes; 32 |] in
  let labels = Array.init num_nodes (fun i -> i mod 16) in
  let compiled = rgcn_training () in
  let comms = comms () in
  let epochs = 4 in
  let measure ~overlap parts =
    let config =
      { Replica.Config.default with Replica.Config.parts = Some parts; comms = Some comms; overlap }
    in
    let cluster = Replica.create ~config ~features ~graph [ compiled ] in
    ignore (Replica.train_step cluster ~labels ());
    Replica.reset_clocks cluster;
    for _ = 1 to epochs do
      ignore (Replica.train_step cluster ~labels ())
    done;
    let busy = Replica.busy_ms cluster in
    ( Replica.elapsed_ms cluster /. float_of_int epochs,
      Replica.launches cluster / epochs,
      (if busy > 0.0 then Replica.comm_ms cluster /. busy else 0.0),
      cluster )
  in
  print_endline "Distributed benchmark (simulated clock, data-parallel RGCN training):";
  let run parts =
    let ms_epoch, launches_epoch, comm_ratio, cluster = measure ~overlap:true parts in
    let bsp_ms_epoch, _, bsp_comm_ratio, _ = measure ~overlap:false parts in
    let pt = Replica.partition cluster in
    Printf.printf
      "  %d partition(s): %8.3f sim-ms/epoch   %4d launches/epoch   comm/busy %.4f (bsp %.4f)   \
       edge cut %4.1f%%   balance %.3f\n"
      parts ms_epoch launches_epoch comm_ratio bsp_comm_ratio
      (100.0 *. Hector_graph.Partition.edge_cut_fraction pt)
      (Hector_graph.Partition.balance pt);
    let entries =
      sim (Printf.sprintf "dist/p%d_ms_epoch" parts) ms_epoch ~launches:launches_epoch
      :: (if parts > 1 then
            [
              sim (Printf.sprintf "dist/p%d_comm_ratio" parts) comm_ratio;
              sim (Printf.sprintf "dist/p%d_ms_epoch_bsp" parts) bsp_ms_epoch;
              sim (Printf.sprintf "dist/p%d_comm_ratio_bsp" parts) bsp_comm_ratio;
            ]
          else [])
    in
    (entries, cluster)
  in
  let runs = List.map run [ 1; 2; 4 ] in
  (* the "_meta" snapshot is the widest (last) cluster's *)
  outcome (List.concat_map fst runs) (Replica.metrics_json (snd (List.hd (List.rev runs))))

(* --- streaming benchmark (--stream) ----------------------------------

   The serving trace of --serve interleaved with churn-balanced delta
   batches applied at micro-batch boundaries over a Mutable_graph with
   200% capacity slack, so the whole trace stays in-slack — the regime the
   subsystem is designed to keep free.  Gated entries are "larger =
   worse": p99 latency under mutation, inverse serving throughput, update
   cost per 1k delta ops, and — the hard invariant — recompiles per 1k
   deltas, whose excess-recompile count rides the integer field: any
   in-slack delta that re-plans or re-allocates fails --check outright. *)

let run_stream () =
  let graph = bench_graph "stream_bench" 17 in
  let num_nodes = graph.Hector_graph.Hetgraph.num_nodes in
  let features = Hector_tensor.Tensor.randn (Hector_tensor.Rng.create 5) [| num_nodes; 32 |] in
  let mg = Mg.create ~name:"stream_bench" ~slack:2.0 ~graph ~features () in
  let server = Ss.create ~config:serve_config ~mg (rgcn ()) in
  let requests = serve_requests ~num_nodes 96 in
  let num_deltas = 12 and delta_ops = 25 in
  let n = Array.length requests in
  (* churn-balanced mix: inserts and removals at matched rates, so live
     counts hover around the epoch-0 sizes and the trace stays in-slack *)
  let mix =
    {
      Delta.add_node = 0.06;
      remove_node = 0.06;
      add_edge = 0.22;
      remove_edge = 0.22;
      set_feat = 0.44;
    }
  in
  (* num_deltas + 1 serving segments with one delta batch at each interior
     boundary, generated against the *current* live view so every op is
     feasible by construction *)
  let failures = ref [] in
  for k = 0 to num_deltas do
    let lo = k * n / (num_deltas + 1) in
    let hi = (k + 1) * n / (num_deltas + 1) in
    ignore (Ss.serve server (Array.sub requests lo (hi - lo)));
    if k < num_deltas then
      let d = Delta.generate ~mix ~view:(Mg.view mg) ~seed:(1000 + k) ~ops:delta_ops () in
      match Ss.apply server d with
      | Ok _ -> ()
      | Error msg -> failures := Printf.sprintf "stream delta %d rejected: %s" k msg :: !failures
  done;
  let c = Mg.counters mg in
  let s = Serve.load_stats (Ss.replica server) in
  let update_ms_per_kop =
    if c.Mg.ops > 0 then Ss.update_ms server *. 1000.0 /. float_of_int c.Mg.ops else 0.0
  in
  (* after warmup the plan cache holds exactly one compile; anything past
     it is an in-slack invalidation bug *)
  let excess_recompiles = Ss.recompiles server - 1 in
  let recompiles_per_1k =
    if c.Mg.deltas > 0 then float_of_int excess_recompiles *. 1000.0 /. float_of_int c.Mg.deltas
    else 0.0
  in
  Printf.printf
    "Streaming benchmark (simulated clock, %d requests / %d deltas x %d ops):\n\
    \  served %d, shed %d, rejected %d   deltas %d (%d ops, %d rejected)\n\
    \  epochs %d, re-warms %d, recompiles %d (excess %d)\n\
    \  CSR: %d rows patched, %d rebuilds, %d compactions\n\
    \  latency p50 %.3f / p95 %.3f / p99 %.3f sim-ms   update %.3f sim-ms total\n"
    n num_deltas delta_ops (Ss.served server) (Ss.shed server) (Ss.rejected server) c.Mg.deltas
    c.Mg.ops c.Mg.rejected_deltas c.Mg.epochs (Ss.rewarms server) (Ss.recompiles server)
    excess_recompiles c.Mg.patched_rows c.Mg.rebuilds c.Mg.compacted s.Serve.p50_ms
    s.Serve.p95_ms s.Serve.p99_ms (Ss.update_ms server);
  outcome ~failures:(List.rev !failures)
    [
      sim "stream/p50" s.Serve.p50_ms;
      sim "stream/p99" s.Serve.p99_ms;
      sim "stream/ms_per_request" (ms_per_request s);
      sim "stream/update_ms_per_kop" update_ms_per_kop;
      sim "stream/recompiles_per_1k" recompiles_per_1k ~launches:excess_recompiles;
    ]
    (Ss.metrics_json server)

(* --- fault-tolerance benchmark (--fault) ------------------------------

   Three deterministic fault drills, entirely on the simulated clock:

   1. crash recovery: 4-replica data-parallel RGCN training with a crash
      scheduled at step 3; survivors detect the dead peer, reload the
      latest checkpoint and re-partition.  Gates the charged
      detection+reload time; in-run gate: the recovered run stays on the
      uninterrupted loss trajectory (<= 1e-6).
   2. message faults: training under a 5% seeded drop rate; gates the
      retry count per 1k kernel launches, plus the faults-off overhead —
      simulated-ms and launch-count deltas of a rate-0 plan vs no plan.
   3. serving degradation: a serve trace where every micro-batch fails;
      gates the shed fraction and that served + shed + rejected still
      accounts for every request — degradation is witnessed, never
      silent.

   The integer gate is one-sided, so a negative delta would slip through
   it: the overhead and the accounting are also pinned to exactly zero
   in-run. *)

let run_fault () =
  let graph = bench_graph "fault_bench" 29 in
  let num_nodes = graph.Hector_graph.Hetgraph.num_nodes in
  let features = Hector_tensor.Tensor.randn (Hector_tensor.Rng.create 23) [| num_nodes; 32 |] in
  let labels = Array.init num_nodes (fun i -> i mod 16) in
  let compiled = rgcn_training () in
  let config comms =
    { Replica.Config.default with Replica.Config.parts = Some 4; comms = Some comms }
  in
  (* 1. crash recovery *)
  let ckpt_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hector-bench-fault-%d" (Unix.getpid ()))
  in
  let steps = 5 in
  let uninterrupted =
    Failover.train ~config:(config (comms ())) ~lr:0.05 ~features ~graph ~labels ~steps compiled
  in
  let recovered =
    Failover.train ~config:(config (comms ()))
      ~faults:(Fault.create ~crash_at:(3, 1) ())
      ~dir:ckpt_dir ~every:1 ~lr:0.05 ~features ~graph ~labels ~steps compiled
  in
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat ckpt_dir f)) (Sys.readdir ckpt_dir);
     Unix.rmdir ckpt_dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  let trajectory_diff =
    Array.fold_left Float.max 0.0
      (Array.map2
         (fun a b -> abs_float (a -. b))
         uninterrupted.Failover.losses recovered.Failover.losses)
  in
  let recovery_ms = recovered.Failover.recovery_ms in
  (* 2. message faults and the faults-off overhead *)
  let train_cluster comms =
    let cluster = Replica.create ~config:(config comms) ~features ~graph [ compiled ] in
    for _ = 1 to 3 do
      ignore (Replica.train_step cluster ~labels ())
    done;
    cluster
  in
  let drop_plan = Fault.create ~seed:7 ~rate:0.05 () in
  let dropped = train_cluster (comms ~faults:drop_plan ()) in
  let retries_per_1k =
    1000.0 *. float_of_int (Fault.retries drop_plan) /. float_of_int (Replica.launches dropped)
  in
  let plain = train_cluster (comms ()) in
  let zeroed = train_cluster (comms ~faults:(Fault.create ~rate:0.0 ()) ()) in
  let off_overhead_ms = Replica.elapsed_ms zeroed -. Replica.elapsed_ms plain in
  let off_launch_delta = Replica.launches zeroed - Replica.launches plain in
  (* 3. serving degradation *)
  let server =
    Serve.create
      ~config:{ serve_config with Serve.faults = Some (Fault.create ~seed:11 ~rate:1.0 ()) }
      ~graph (rgcn ())
  in
  let requests = serve_requests ~num_nodes 48 in
  ignore (Serve.serve server requests);
  let seen = Array.length requests in
  let shed_on_fault = float_of_int (Serve.fault_shed server) /. float_of_int seen in
  let accounting_delta = Serve.served server + Serve.shed server + Serve.rejected server - seen in
  Printf.printf
    "Fault-tolerance benchmark (simulated clock):\n\
    \  crash recovery: detect+reload %.3f sim-ms, trajectory diff %.2e, %d survivors\n\
    \  message faults: %d retries over %d launches (%.3f per 1k), faults-off overhead \
     %+.6f ms / %+d launches\n\
    \  serving: %d/%d requests shed after failed retry (%d batch failures), accounting \
     delta %+d\n"
    recovery_ms trajectory_diff
    (Replica.parts recovered.Failover.cluster)
    (Fault.retries drop_plan) (Replica.launches dropped) retries_per_1k off_overhead_ms
    off_launch_delta (Serve.fault_shed server) seen (Serve.batch_failures server)
    accounting_delta;
  let failures =
    List.filter_map Fun.id
      [
        (if trajectory_diff > 1e-6 then
           Some
             (Printf.sprintf "recovered run left the loss trajectory (max diff %.2e > 1e-6)"
                trajectory_diff)
         else None);
        (if accounting_delta <> 0 then
           Some (Printf.sprintf "%+d requests unaccounted for under faults" accounting_delta)
         else None);
        (if off_launch_delta <> 0 || off_overhead_ms <> 0.0 then
           Some
             (Printf.sprintf "rate-0 fault plan is not free (%+.6f ms, %+d launches)"
                off_overhead_ms off_launch_delta)
         else None);
      ]
  in
  outcome ~failures
    [
      sim "fault/recovery_ms" recovery_ms;
      sim "fault/retries_per_1k" retries_per_1k;
      sim "fault/off_overhead_ms" off_overhead_ms ~launches:off_launch_delta;
      sim "fault/shed_on_fault" shed_on_fault ~launches:accounting_delta;
    ]
    (Replica.metrics_json recovered.Failover.cluster)

(* --- the mode table ----------------------------------------------------

   (flag, title, file written by --json, run) *)

let modes : (string * string * string * (unit -> outcome)) list =
  [
    ("--micro", "Bechamel wall-clock microbenchmarks (--json adds BENCH_trace.json)",
      "BENCH_micro.json", run_micro);
    ("--serve", "inference serving: batched RGCN under an open-loop arrival trace",
      "BENCH_serve.json", run_serve);
    ("--dist", "data-parallel RGCN training at 1/2/4 partitions, overlapped and BSP",
      "BENCH_dist.json", run_dist);
    ("--tune", "two-stage autotuner per model; tuned must beat every fixed U/C/F/C+F",
      "BENCH_tune.json", run_tune);
    ("--stream", "serving interleaved with in-slack deltas over a mutating graph",
      "BENCH_stream.json", run_stream);
    ("--fault", "crash recovery, seeded message drops, serving under batch failures",
      "BENCH_fault.json", run_fault);
  ]

(* --- writer ------------------------------------------------------------ *)

let entry_json e =
  let opt f = function Some v -> f v | None -> Json.Null in
  let num = opt (fun v -> Json.Num v) in
  let sim_ms = ("sim_ms", num e.sim_ms) and launches = ("launches", opt Json.int e.launches) in
  Json.Obj
    (match (e.allocs, e.copied_bytes) with
    | Some allocs, Some copied ->
        [
          ("ns", num e.ns);
          sim_ms;
          ("allocs", Json.int allocs);
          ("copied_bytes", Json.int copied);
          launches;
        ]
    | _ -> if e.launches = None then [ sim_ms ] else [ sim_ms; launches ])

(* one top-level member per line, so committed baselines diff entry by
   entry *)
let write_outcome file o =
  let member (k, v) = "  " ^ Json.to_string (Json.Str k) ^ ": " ^ Json.to_string v in
  let members = List.map (fun e -> (e.name, entry_json e)) o.entries @ [ ("_meta", o.meta) ] in
  Json.write_atomic file ("{\n" ^ String.concat ",\n" (List.map member members) ^ "\n}\n");
  Option.iter (Json.write_atomic "BENCH_trace.json") o.trace;
  Printf.printf "\nWrote %s (%d entries + _meta)%s\n" file (List.length o.entries)
    (if o.trace = None then "" else " and BENCH_trace.json")

(* --- baseline reader and checker (--check) --------------------------- *)

(* A committed BENCH_*.json: every member except "_meta" is an entry
   object carrying at least one of ns / sim_ms / launches.  Anything else
   — unreadable, not JSON, no entries, a malformed entry — exits 1 here,
   before the mode runs, so --check never passes vacuously. *)
let read_baseline path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "bench/main.exe: --check %s: %s\n" path msg;
        exit 1)
      fmt
  in
  let doc =
    match Json.parse (Json.read_file path) with
    | doc -> doc
    | exception Sys_error msg -> fail "cannot read baseline (%s)" msg
    | exception Json.Malformed -> fail "baseline is not valid JSON"
  in
  let num v field = match Json.member v field with Some (Json.Num f) -> Some f | _ -> None in
  let entry (name, v) =
    let e =
      {
        name;
        ns = num v "ns";
        sim_ms = num v "sim_ms";
        launches = Option.map int_of_float (num v "launches");
        allocs = None;
        copied_bytes = None;
      }
    in
    if e.ns = None && e.sim_ms = None && e.launches = None then
      fail "entry %S has no numeric ns, sim_ms or launches" name;
    e
  in
  match doc with
  | Json.Obj members -> (
      match List.filter (fun (name, _) -> not (String.equal name "_meta")) members with
      | [] -> fail "baseline has no entries"
      | members -> List.map entry members)
  | _ -> fail "baseline is not a JSON object"

(* Tolerance on ns/run and sim-ms; launch counts are exact on the
   simulated engine, so they gate one-sided with ZERO tolerance (a fusion
   or planning change silently adding launches fails).  An entry on only
   one side — in the baseline but not produced, or produced but not in
   the baseline — fails too, as does a baselined sim-ms or launch count
   the run no longer reports (both are deterministic).  A missing ns/run
   only means Bechamel produced no estimate, so it is reported, not
   failed. *)
let check_regressions ~baseline ~tolerance entries =
  let failed = ref [] in
  Printf.printf "\nRegression check against %d baseline entries (tolerance %+.0f%%):\n"
    (List.length baseline) (tolerance *. 100.0);
  let compare name unit base est =
    let bad = est > base *. (1.0 +. tolerance) in
    if bad then failed := (name ^ " " ^ unit) :: !failed;
    Printf.printf "  %-28s %12.3f -> %12.3f %s%s  %s\n" name base est unit
      (if base = 0.0 then "" else Printf.sprintf "  (%5.2fx)" (est /. base))
      (if bad then "REGRESSION" else "ok")
  in
  let compare_launches name base est =
    let bad = est > base in
    if bad then failed := (name ^ " launches") :: !failed;
    Printf.printf "  %-28s %12d -> %12d launches (one-sided)  %s\n" name base est
      (if bad then "REGRESSION" else "ok")
  in
  let missing name what =
    failed := Printf.sprintf "%s (%s)" name what :: !failed;
    Printf.printf "  %-28s %s  MISSING\n" name what
  in
  List.iter
    (fun b ->
      match List.find_opt (fun e -> String.equal e.name b.name) entries with
      | None -> missing b.name "not produced by this run"
      | Some e ->
          (match (b.ns, e.ns) with
          | Some base, Some est -> compare b.name "ns/run" base est
          | Some base, None -> Printf.printf "  %-28s %12.1f -> (no measurement)\n" b.name base
          | None, _ -> ());
          (match (b.sim_ms, e.sim_ms) with
          | Some base, Some est -> compare b.name "sim-ms" base est
          | Some _, None -> missing b.name "no simulated time"
          | None, _ -> ());
          match (b.launches, e.launches) with
          | Some base, Some est -> compare_launches b.name base est
          | Some _, None -> missing b.name "no launch count"
          | None, _ -> ())
    baseline;
  List.iter
    (fun e ->
      if not (List.exists (fun b -> String.equal b.name e.name) baseline) then
        missing e.name "not in the baseline")
    entries;
  match !failed with
  | [] ->
      Printf.printf "No regressions.\n";
      true
  | names ->
      Printf.printf "%d regression(s): %s\n" (List.length names)
        (String.concat ", " (List.rev names));
      false

(* A mode run: the baseline is read first (with --json --check pointing
   at the same file, the comparison must see the committed numbers, not
   the file this run is about to write); a run whose in-run gates fail
   exits 1 without writing. *)
let run_mode ~json ~check ~tolerance (_, _, file, run) =
  let baseline = Option.map read_baseline check in
  let o = run () in
  if o.failures <> [] then begin
    List.iter (Printf.eprintf "bench/main.exe: in-run gate failed: %s\n") o.failures;
    exit 1
  end;
  if json then write_outcome file o;
  Option.iter
    (fun baseline -> if not (check_regressions ~baseline ~tolerance o.entries) then exit 1)
    baseline

(* --- CLI ---------------------------------------------------------- *)

let usage () =
  print_string
    "Usage: bench/main.exe [FLAGS]\n\n\
     Experiment selection (default: all tables and figures):\n";
  List.iter (fun (flag, title, _) -> Printf.printf "  %-12s %s\n" flag title) experiments;
  print_string "\nBenchmark modes (at most one; runs instead of the experiments):\n";
  List.iter
    (fun (flag, title, file, _) ->
      Printf.printf "  %-12s %s\n               (--json writes %s)\n" flag title file)
    modes;
  print_string
    "\nOther flags:\n\
    \  --json           with a mode: write its BENCH_*.json (entries + a\n\
    \                   \"_meta\" snapshot)\n\
    \  --check FILE     with a mode: compare against a committed BENCH_*.json\n\
    \                   baseline; exit 1 on any regression, on an entry\n\
    \                   missing from either side, or on a baseline that does\n\
    \                   not parse or holds no entries (launch counts gate\n\
    \                   one-sided with zero tolerance: any increase fails)\n\
    \  --tolerance T    with --check: allowed slowdown fraction\n\
    \                   before a result counts as a regression (default 0.25)\n\
    \  --max-nodes N    cap physical replica size (default 2000)\n\
    \  --max-edges N    cap physical replica size (default 6000)\n\
    \  --help           show this message\n\n\
     Environment knobs (parsed by Hector_runtime.Knobs; see README):\n\
    \  HECTOR_DOMAINS   multicore backend size (1 = sequential)\n\
    \  HECTOR_ARENA     0 disables the plan-lifetime memory planner\n\
    \  HECTOR_FUSE_OPS  0 disables inter-op kernel fusion\n\
    \  HECTOR_OBS       1 enables observability for knob-driven sessions\n\
    \  HECTOR_SERVE_BATCH  serving micro-batch cap (default 8)\n\
    \  HECTOR_SERVE_QUEUE  serving admission-queue bound (default 64)\n\
    \  HECTOR_DIST_PARTS   default partition count for distributed runs\n\
    \  HECTOR_DIST_LATENCY_US / HECTOR_DIST_BW_GBS  interconnect cost model\n\
    \  HECTOR_DIST_CHANNELS  concurrent transfer channels per engine (default 2)\n\
    \  HECTOR_DIST_BUCKET_KB gradient all-reduce bucket size in KiB (default 64)\n\
    \  HECTOR_DIST_PIPELINE  micro-batch pipeline depth (default 1 = off)\n\
    \  HECTOR_TUNE_DB   persistent plan-tuning database path (JSON)\n\
    \  HECTOR_STREAM_SLACK   capacity headroom per type for mutable graphs\n\
    \  HECTOR_STREAM_COMPACT dead-slot fraction that triggers compaction\n\
    \  HECTOR_CKPT_DIR  default checkpoint directory (save/load/latest)\n\
    \  HECTOR_CKPT_KEEP retain only the N newest checkpoints on save\n\
    \  HECTOR_FAULT_SEED / HECTOR_FAULT_RATE  deterministic fault plan for\n\
    \                   comms drops/delays and serve batch failures\n"

let cli_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench/main.exe: %s\n\n" msg;
      usage ();
      exit 1)
    fmt

type cli = {
  mode : (string * string * string * (unit -> outcome)) option;
  json : bool;
  check : string option;
  tolerance : float;
  max_nodes : int;
  max_edges : int;
  selected : string list;  (* experiment flags *)
}

let parse_cli argv =
  let int_value flag = function
    | v :: rest -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n > 0 -> (n, rest)
        | Some _ -> cli_error "%s expects a positive integer, got %S" flag v
        | None -> cli_error "%s expects an integer, got %S" flag v)
    | [] -> cli_error "%s expects an integer argument" flag
  in
  let rec go cli = function
    | [] -> cli
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | "--json" :: rest -> go { cli with json = true } rest
    | "--check" :: path :: rest -> go { cli with check = Some path } rest
    | [ "--check" ] -> cli_error "--check expects a baseline file path"
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt (String.trim v) with
        | Some t when t >= 0.0 -> go { cli with tolerance = t } rest
        | _ -> cli_error "--tolerance expects a non-negative number, got %S" v)
    | [ "--tolerance" ] -> cli_error "--tolerance expects a numeric argument"
    | "--max-nodes" :: rest ->
        let n, rest = int_value "--max-nodes" rest in
        go { cli with max_nodes = n } rest
    | "--max-edges" :: rest ->
        let n, rest = int_value "--max-edges" rest in
        go { cli with max_edges = n } rest
    | flag :: rest -> (
        match (List.find_opt (fun (f, _, _, _) -> String.equal f flag) modes, cli.mode) with
        | Some m, None -> go { cli with mode = Some m } rest
        | Some _, Some (other, _, _, _) ->
            cli_error "%s and %s are mutually exclusive benchmark modes" other flag
        | None, _ ->
            if List.exists (fun (f, _, _) -> String.equal f flag) experiments then
              go { cli with selected = flag :: cli.selected } rest
            else if String.length flag >= 2 && String.equal (String.sub flag 0 2) "--" then
              cli_error "unknown flag %S" flag
            else cli_error "unexpected argument %S" flag)
  in
  let cli =
    go
      {
        mode = None;
        json = false;
        check = None;
        tolerance = 0.25;
        max_nodes = 2000;
        max_edges = 6000;
        selected = [];
      }
      (List.tl (Array.to_list argv))
  in
  if Option.is_none cli.mode && cli.json then cli_error "--json needs a benchmark mode";
  if Option.is_none cli.mode && cli.check <> None then cli_error "--check needs a benchmark mode";
  cli

let () =
  let cli = parse_cli Sys.argv in
  match cli.mode with
  | Some mode -> run_mode ~json:cli.json ~check:cli.check ~tolerance:cli.tolerance mode
  | None ->
      let t = H.create ~max_nodes:cli.max_nodes ~max_edges:cli.max_edges () in
      let selected = List.filter (fun (flag, _, _) -> List.mem flag cli.selected) experiments in
      let to_run = if selected = [] then experiments else selected in
      Printf.printf
        "Hector benchmark harness — simulated RTX 3090, paper-scale costs\n\
         (physical replicas: <=%d nodes, <=%d edges per dataset; see DESIGN.md)\n\n"
        cli.max_nodes cli.max_edges;
      List.iter
        (fun (_, title, run) ->
          Printf.printf "==== %s ====\n\n" title;
          run t;
          Printf.printf "\n")
        to_run
