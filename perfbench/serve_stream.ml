(* serve_stream: open-loop RGCN serving through Stream_serve over a
   Mutable_graph.  Each round applies one delta batch and then serves one
   segment of Poisson arrivals (8 000 req/s simulated, fanout 8, hops 2,
   micro-batches of up to 16, 2 ms batching deadline, queue of 256, 4 seed
   nodes per request).  Sampling, batching, the plan cache, delta apply
   with CSR patch/rebuild and one recompile on the request path dominate;
   kernels are tiny and writes sit beside reads, so per-request overheads
   and the write path show here and big-GEMM gains should barely move it. *)

open Harness
module Compiler = Hector_core.Compiler
module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Mg = Hector_stream.Mutable_graph
module Delta = Hector_stream.Delta
module Ss = Hector_stream.Stream_serve

let name = "serve_stream"
let scale = 1.0
let nodes = 4000
let edges = 24000
let rate_rps = 8000.0
(* Requests per round and the delta mix follow the repo's own streaming
   benchmark (bench/main.ml, --stream): 96 requests served in 13 segments
   around 12 deltas of 25 ops, so 7 or 8 requests per segment, and its
   churn-balanced mix — as many node and edge inserts as removals, the
   rest feature updates. *)
let per_round = 7
let delta_ops = 25
let mix = { Delta.add_node = 0.06; remove_node = 0.06; add_edge = 0.22; remove_edge = 0.22; set_feat = 0.44 }
let sim_rounds = 400 (* the deterministic prefix all simulated figures come from *)

(* Capacity headroom per type.  Delta.generate places every edge insert
   in the last edge type, so that type grows by a few edges a round while
   the others shrink.  With this slack it overflows once inside the
   [sim_rounds] prefix, near round 240, and not again within 1 300
   rounds, more than a 20 s run reaches. *)
let slack = 1.6
let compact = 0.25
let slo_ms = 5.0
let probe_requests = 2000
let probe_steps = 8
let probe_min_rps = 500.0
let probe_max_rps = 256000.0
let fingerprint_rounds = 4

let program () = Hector_models.Model_defs.rgcn ~in_dim:Inputs.feat_dim ~out_dim:Inputs.classes ()
let options = Compiler.options_of_flags ~fuse_ops:true ~compact:false ~fusion:false ()

let config ~seed =
  {
    Serve.model = "rgcn";
    fanout = 8;
    hops = 2;
    max_batch = Some 16;
    max_wait_ms = 2.0;
    queue_capacity = Some 256;
    options = Some options;
    autotune = false;
    tune_db = None;
    device = Hector_gpu.Device.rtx3090;
    seed = Inputs.weights seed;
    weights = [];
    epoch = 0;
    faults = None;
  }

(* The graph's structure does not follow the seed.  Generator draws the
   metagraph — which node types receive edges — from its seed, and sampled
   block sizes, hence serving capacity and per-request host work, follow
   the metagraph: across generator seeds they spread by about 25%
   (inter-quartile), wider than this benchmark's bounds.  Features, request
   and delta traces derive from the seed. *)
let graph_seed = 1

let inputs ~seed =
  let graph = Inputs.graph ~name ~seed:graph_seed ~nodes ~edges ~scale in
  (graph, Inputs.features ~seed graph)

let new_mg (graph, features) = Mg.create ~name ~slack ~compact ~graph ~features ()

let delta_for ~seed mg r =
  Delta.generate ~mix ~view:(Mg.view mg) ~seed:(Inputs.sub seed (1000 + r)) ~ops:delta_ops ()

let requests_for ~seed ?(rate = rate_rps) ?(n = per_round) mg k =
  Workload.generate
    ~spec:{ Workload.seed = Inputs.sub seed k; rate_rps = rate; requests = n; seeds_per_request = 4 }
    ~num_nodes:(Mg.live_nodes mg) ()

let fp_delta b (d : Delta.t) =
  Array.iter
    (function
      | Delta.Add_node { ntype; feat } ->
          Fp.int b 0; Fp.int b ntype; Option.iter (Fp.floats b) feat
      | Delta.Remove_node { node } -> Fp.int b 1; Fp.int b node
      | Delta.Add_edge { etype; src; dst } -> Fp.int b 2; Fp.int b etype; Fp.int b src; Fp.int b dst
      | Delta.Remove_edge { edge } -> Fp.int b 3; Fp.int b edge
      | Delta.Set_feat { node; feat } -> Fp.int b 4; Fp.int b node; Fp.floats b feat)
    d.Delta.ops

let fp_requests b reqs =
  Array.iter
    (fun (r : Workload.request) ->
      Fp.int b r.Workload.id; Fp.float b r.Workload.arrival_ms; Fp.ints b r.Workload.seeds)
    reqs

(* Input fingerprints: the graph, the features, and the first rounds of the
   delta and request traces replayed on a bare mutable graph (the traces
   are drawn against the live state, so they are defined by that replay). *)
let fingerprints_of ~seed ((graph, features) as inp) =
  let mg = new_mg inp in
  let bd = Fp.create () and br = Fp.create () in
  for r = 0 to fingerprint_rounds - 1 do
    let d = delta_for ~seed mg r in
    fp_delta bd d;
    (match Mg.apply mg d with Ok _ -> () | Error e -> failwith ("fingerprint replay: " ^ e));
    fp_requests br (requests_for ~seed mg (2000 + r))
  done;
  [
    ("graph", Fp.graph graph);
    ("features", Fp.tensor features);
    ("deltas", Fp.digest bd);
    ("requests", Fp.digest br);
  ]

let fingerprints ~seed = fingerprints_of ~seed (inputs ~seed)

(* ---- the live instance --------------------------------------------- *)

type round = {
  responses : Serve.response array;
  apply_ms : float;
  serve_ms : float;
  rebuilt : bool;
  delta_ok : bool;
}

type t = {
  mg : Mg.t;
  ss : Ss.t;
  mutable replicas : Serve.t list;  (** every replica the instance has owned, newest first *)
  mutable rounds : round list;  (** newest first, round 0 excluded *)
  mutable sent : int;
  mutable rewarm_rounds : int list;  (** rounds whose delta forced a re-warm, newest first *)
}

let track t =
  let r = Ss.replica t.ss in
  if not (List.memq r t.replicas) then t.replicas <- r :: t.replicas

let engines t = List.map Serve.engine t.replicas

(* Engine counters summed over every replica; allocations count from the
   end of each replica's warm-up, so a re-warm's set-up is not mistaken
   for a steady-state allocation. *)
let gpu t =
  List.fold_left
    (fun acc r ->
      let g = gpu_of_engine (Serve.engine r) in
      gpu_add acc { g with allocs = g.allocs - Serve.warm_alloc_count r })
    gpu_zero t.replicas

let create ~seed inp obs =
  let mg = new_mg inp in
  let ss = Ss.create ~config:(config ~seed) ~obs ~mg (program ()) in
  let t = { mg; ss; replicas = []; rounds = []; sent = 0; rewarm_rounds = [] } in
  track t;
  let step r =
    let d = delta_for ~seed mg r in
    let rewarms = Ss.rewarms ss in
    let res, apply_ms = timed (fun () -> Ss.apply ss d) in
    if Ss.rewarms ss > rewarms then t.rewarm_rounds <- r :: t.rewarm_rounds;
    track t;
    let reqs = requests_for ~seed mg (2000 + r) in
    let responses, serve_ms = timed (fun () -> Ss.serve ss reqs) in
    t.sent <- t.sent + Array.length reqs;
    let rebuilt, delta_ok =
      match res with Ok st -> (st.Mg.csr_rebuilt, true) | Error _ -> (false, false)
    in
    if r > 0 then t.rounds <- { responses; apply_ms; serve_ms; rebuilt; delta_ok } :: t.rounds
  in
  (t, { step; gpu = (fun () -> gpu t) })

let served_of (rs : round list) =
  List.concat_map (fun r -> List.filter (fun x -> x.Serve.output <> None) (Array.to_list r.responses)) rs
  |> Array.of_list

(* Highest offered rate at which a fixed [probe_requests] trace meets the
   latency SLO on the live replica: nothing shed or rejected, p99 within
   [slo_ms], and the last completion within [slo_ms] of the last arrival
   (the backlog drains).  Bisected on a log scale between the workload's
   own rate and [probe_max_rps], or below the workload's rate if even that
   fails.  No delta is applied, so the graph is untouched.  Returns the
   rate and the probe's own request and failure counts. *)
let slo_probe ~seed t =
  let replica = Ss.replica t.ss in
  let sent = ref 0 and failed = ref 0 in
  let meets rate =
    let reqs = requests_for ~seed ~rate ~n:probe_requests t.mg 4000 in
    let rs = Serve.serve replica reqs in
    sent := !sent + Array.length rs;
    failed := !failed + Array.fold_left (fun a r -> if r.Serve.output = None then a + 1 else a) 0 rs;
    let lat = Array.map (fun r -> r.Serve.latency_ms) rs in
    let last_arrival = reqs.(Array.length reqs - 1).Workload.arrival_ms in
    let done_ms = Array.fold_left (fun m r -> Float.max m (r.Serve.request.Workload.arrival_ms +. r.Serve.latency_ms)) 0.0 rs in
    Array.for_all (fun r -> r.Serve.output <> None) rs
    && percentile lat 99.0 <= slo_ms
    && done_ms -. last_arrival <= slo_ms
  in
  let bisect lo hi =
    let lo = ref lo and hi = ref hi in
    for _ = 1 to probe_steps do
      let mid = Float.sqrt (!lo *. !hi) in
      if meets mid then lo := mid else hi := mid
    done;
    !lo
  in
  let rate =
    if not (meets rate_rps) then bisect probe_min_rps rate_rps
    else if meets probe_max_rps then probe_max_rps
    else bisect rate_rps probe_max_rps
  in
  (rate, !sent, !failed)

type prefix_state = {
  mutable counters : Mg.counters option;
  mutable recompiles : int;
  mutable slo_rps : float;
  mutable peak_mb : float;  (** simulated peak over the replicas owned so far *)
  mutable rewarms : int list;  (** re-warm rounds, oldest first *)
  mutable probe_sent : int;  (** probe traffic, kept out of the workload's accounting *)
  mutable probe_failed : int;
  mutable probe_s : float;  (** host seconds the capacity probe took *)
}

let run ctx =
  let seed = ctx.seed in
  let inp = inputs ~seed in
  let graph, _ = inp in
  let fingerprints = fingerprints_of ~seed inp in
  let pre =
    {
      counters = None;
      recompiles = 0;
      slo_rps = 0.0;
      peak_mb = 0.0;
      rewarms = [];
      probe_sent = 0;
      probe_failed = 0;
      probe_s = 0.0;
    }
  in
  let current = ref None in
  let create obs =
    let ((t, _) as r) = create ~seed inp obs in
    current := Some t;
    r
  in
  (* at the end of the deterministic prefix: snapshot the stream counters,
     the simulated memory peak and the re-warm rounds, and probe capacity,
     outside every timed iteration *)
  let between i =
    if i = sim_rounds then
      match !current with
      | Some t ->
          pre.counters <- Some (Mg.counters t.mg);
          pre.recompiles <- Ss.recompiles t.ss - 1;
          pre.peak_mb <- peak_mb (engines t);
          pre.rewarms <- List.rev t.rewarm_rounds;
          if not ctx.trace then begin
            let (rate, sent, failed), ms = timed (fun () -> slo_probe ~seed t) in
            pre.probe_s <- ms /. 1000.0;
            pre.slo_rps <- rate;
            pre.probe_sent <- sent;
            pre.probe_failed <- failed
          end
      | None -> ()
  in
  let finish t =
    let rounds = List.rev t.rounds in
    let deltas_failed = List.length (List.filter (fun r -> not r.delta_ok) rounds) in
    attempt ~n:(List.length rounds + 1) ~failed:deltas_failed "serve_stream: deltas applied";
    (* accounting over the workload's own traffic, before the check trace *)
    let served = Ss.served t.ss and shed = Ss.shed t.ss and rejected = Ss.rejected t.ss in
    attempt ~n:t.sent ~failed:(shed + rejected - pre.probe_failed) "serve_stream: requests served";
    check "serve_stream: served + shed + rejected = requests"
      (served + shed + rejected = t.sent + pre.probe_sent);
    (match Ss.check_equivalence t.ss (requests_for ~seed ~n:32 t.mg 5000) with
    | Ok _ -> check "serve_stream: check_equivalence" true
    | Error e ->
        Printf.eprintf "perfbench: %s\n%!" e;
        check "serve_stream: check_equivalence" false);
    List.iter (check_attribution name) (engines t);
    rounds
  in
  let prefix_rounds rounds = List.filteri (fun i _ -> i < sim_rounds) rounds in
  if not ctx.trace then begin
    let t, _, setup_s, samples, heap_mb =
      run_plain ~between ~seconds:ctx.seconds ~min_iters:sim_rounds create
    in
    let rounds = finish t in
    let served = served_of (prefix_rounds rounds) in
    let lat = Array.map (fun r -> r.Serve.latency_ms) served in
    let launches =
      Array.fold_left (fun a s -> a + s.sim.launches) 0 (prefix samples sim_rounds)
    in
    let host, record = host_e2e samples in
    let e2e =
      [ metric "setup_s" setup_s ]
      @ host
      @ [
          metric "sim_ms_p50" (median lat);
          metric "sim_ms_p99" (percentile lat 99.0);
          metric "slo_rps" pre.slo_rps;
          metric "launches_per_iter" (float_of_int launches /. float_of_int (Array.length served));
          metric "sim_peak_mem_mb" pre.peak_mb;
          metric "host_heap_peak_mb" heap_mb;
        ]
    in
    {
      e2e;
      layers = [];
      fingerprints;
      record =
        ("sim_requests", string_of_int (Array.length served))
        :: ("sim_rounds", string_of_int sim_rounds)
        :: ("rewarm_rounds", String.concat " " (List.map string_of_int pre.rewarms))
        :: ("rewarms_in_run", string_of_int (List.length t.rewarm_rounds))
        :: ("slo_probe_host_s", Printf.sprintf "%.1f" pre.probe_s)
        :: record;
    }
  end
  else begin
    let t, i, obs, phases, samples, untraced =
      run_traced ~between ~seconds:ctx.seconds ~min_iters:sim_rounds create
    in
    let alloc_words = minor_words_per_iter i ~from:(Array.length samples + 1) in
    let rounds = finish t in
    let prefix_r = prefix_rounds rounds in
    let served = served_of prefix_r in
    let nserved = float_of_int (Array.length served) in
    (* simulated engine time per served request, by category *)
    let per_req =
      let g = Array.fold_left (fun a s -> gpu_add a s.sim) gpu_zero (prefix samples sim_rounds) in
      { g with clock = g.clock /. nserved; cat = Array.map (fun c -> c /. nserved) g.cat; sync = g.sync /. nserved }
    in
    check_gpu_sum name per_req ~total:per_req.clock;
    let launches = Array.fold_left (fun a s -> a + s.sim.launches) 0 (prefix samples sim_rounds) in
    let all_requests = List.fold_left (fun a r -> a + Array.length r.responses) 0 rounds in
    let mean_of f = mean (Array.map f served) in
    let batches = Array.fold_left (fun a r -> a +. (1.0 /. float_of_int r.Serve.batch_size)) 0.0 served in
    let c = match pre.counters with Some c -> c | None -> Mg.counters t.mg in
    let prefix_deltas = List.length prefix_r in
    let layers =
      common_layers ~obs ~phases ~samples ~gpu:per_req
        ~launches:(float_of_int launches /. float_of_int sim_rounds)
        ~alloc_words
      @ [
          metric "core.plan_steps" (float_of_int (plan_steps (Compiler.compile ~options (program ()))));
          metric "tensor.gemm_gflops" (graph_gemm_gflops graph ~out:Inputs.classes);
          metric "graph.compaction_ratio" (compaction_ratio graph);
          metric "serve.host_ms_per_request"
            (List.fold_left (fun a r -> a +. r.serve_ms) 0.0 rounds /. float_of_int all_requests);
          metric "serve.mean_batch" (nserved /. batches);
          metric "serve.queue_sim_ms_p99" (percentile (Array.map (fun r -> r.Serve.queue_ms) served) 99.0);
          metric "serve.sample_sim_ms_mean" (mean_of (fun r -> r.Serve.sample_ms));
          metric "serve.transfer_sim_ms_mean" (mean_of (fun r -> r.Serve.transfer_ms));
          metric "serve.compute_sim_ms_mean" (mean_of (fun r -> r.Serve.compute_ms));
          (* plans are looked up once per replica warm-up, so the hit ratio
             that matters is per micro-batch: the share that ran on a
             cached plan rather than behind a request-path compile *)
          metric "serve.plan_cache_hit_ratio" (1.0 -. (float_of_int pre.recompiles /. batches));
          metric "stream.apply_host_ms" (mean (Array.of_list (List.map (fun r -> r.apply_ms) rounds)));
          metric "stream.patch_ratio"
            (float_of_int (List.length (List.filter (fun r -> not r.rebuilt) prefix_r))
            /. float_of_int prefix_deltas);
          metric "stream.rebuilds" (float_of_int c.Mg.rebuilds);
          metric "stream.compactions" (float_of_int c.Mg.compacted);
          metric "stream.epochs" (float_of_int c.Mg.epochs);
          metric "stream.recompiles" (float_of_int pre.recompiles);
          overhead_ratio ~untraced ~traced:samples;
        ]
    in
    write_spans ctx ~workload:name obs;
    { e2e = []; layers; fingerprints; record = [] }
  end
