(* Shared machinery of the benchmark: host timing, order statistics,
   simulated-clock snapshots, span walks, correctness-check accounting and
   input fingerprints.  Every workload module drives the program through
   the public APIs of lib/* only; nothing here reaches inside a library. *)

module Engine = Hector_gpu.Engine
module Stats = Hector_gpu.Stats
module Kernel = Hector_gpu.Kernel
module Memory = Hector_gpu.Memory
module Tensor = Hector_tensor.Tensor
module Obs = Hector_obs

let now_ms () = Unix.gettimeofday () *. 1000.0

let timed f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* ---- host-speed probe ----------------------------------------------- *)

(* On a shared host, such as the two-core reference host of README.md,
   neighbours slow allocation-heavy, memory-bound code by up to 2x for
   seconds at a time, so the median iteration of a 20 s run moved by a
   third between runs of unchanged code.  Each host-time sample is therefore paired with a fixed
   probe timed just before it: [speed_reads] random reads from a 32 MB
   array, each added into a boxed float, so the probe allocates and misses
   cache as the program does (a probe that only misses cache tracked the
   slowdown too weakly).  Its arrays live off the OCaml heap, so they do
   not count in the heap peak.  The end-to-end host figures are rescaled
   to a probe of [speed_ref_ms]: [ms *. speed_ref_ms /. speed_ms].  The
   probe runs none of the program's code, so a change to the program moves
   the rescaled figure as it moves the wall time. *)
let speed_words = 4 * 1024 * 1024
let speed_reads = 100_000

(* the probe on the two-core reference host while unloaded (it read 4.2
   ms under load), so rescaled figures read close to unloaded wall-clock
   milliseconds there *)
let speed_ref_ms = 2.3

let speed_data =
  lazy
    (let open Bigarray in
     let data = Array1.create float64 c_layout speed_words in
     let idx = Array1.create int c_layout speed_reads in
     Array1.fill data 1.0;
     for k = 0 to speed_reads - 1 do
       idx.{k} <- (k * 7919 * 104729) land (speed_words - 1)
     done;
     (data, idx))

(* a global float ref: every store boxes a fresh float *)
let speed_acc = ref 0.0

(* Host ms of one probe. *)
let speed_probe () =
  let data, idx = Lazy.force speed_data in
  let t0 = now_ms () in
  for k = 0 to speed_reads - 1 do
    speed_acc :=
      !speed_acc +. Bigarray.Array1.unsafe_get data (Bigarray.Array1.unsafe_get idx k)
  done;
  now_ms () -. t0

let rescale ~speed_ms ms = ms *. speed_ref_ms /. speed_ms

(* ---- run context ---------------------------------------------------- *)

type ctx = {
  seed : int;
  seconds : float;  (** host seconds the measured loop runs for *)
  trace : bool;
  out_dir : string;  (** scratch directory inside the checkout *)
  domains : int;
}

(* ---- metrics -------------------------------------------------------- *)

(* A measured value; its unit is fixed by the metric lists in main.ml. *)
type metric = { name : string; value : float }

let metric name value = { name; value }

(* ---- correctness accounting ----------------------------------------- *)

(* Every operation the benchmark attempts — an iteration whose loss must be
   finite, a request, a delta, an oracle comparison — is counted here, and
   every failure is named on stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let attempt ?(n = 1) ~failed what =
  tally.attempted <- tally.attempted + n;
  if failed > 0 then begin
    tally.failed <- tally.failed + failed;
    Printf.eprintf "perfbench: FAILED %s (%d of %d)\n%!" what failed n
  end

let check what ok = attempt ~failed:(if ok then 0 else 1) what

let check_close what ~tol a b =
  let d = Tensor.max_abs_diff a b in
  let ok = Float.is_finite d && d <= tol in
  if not ok then Printf.eprintf "perfbench: %s: max |diff| = %g > %g\n%!" what d tol;
  check what ok

let finite_loss what l = check (what ^ ": finite loss") (Float.is_finite l)

(* ---- order statistics ----------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it.  Always an actual sample, so a median iteration
   can be decomposed exactly. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let median a = percentile a 50.0

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* The highest integer percentile that still has at least ten samples
   beyond it (falls back to the median below twenty samples). *)
let tail_percentile n =
  let rec go p =
    if p <= 50 then 50
    else
      let k = int_of_float (Float.ceil (float_of_int (p * n) /. 100.0)) in
      if n - k >= 10 then p else go (p - 1)
  in
  go 99

(* ---- simulated clock ------------------------------------------------ *)

(* Cumulative engine counters; per-iteration figures are differences of
   two snapshots.  [cat] follows [Kernel.all_categories]; host syncs sit
   in [sync], so the categories plus [sync] cover the whole clock. *)
type gpu = { clock : float; launches : int; cat : float array; sync : float; allocs : int }

let categories = Array.of_list Kernel.all_categories

let gpu_zero =
  { clock = 0.0; launches = 0; cat = Array.make (Array.length categories) 0.0; sync = 0.0; allocs = 0 }

let gpu_of_engine e =
  let st = Engine.stats e in
  {
    clock = Engine.elapsed_ms e;
    launches = (Stats.total st).Stats.launches;
    cat = Array.map (fun c -> (Stats.of_category st c).Stats.time_ms) categories;
    sync = (Stats.of_op st Stats.sync_op).Stats.time_ms;
    allocs = Memory.alloc_count (Engine.memory e);
  }

let gpu_map2 f g a b =
  {
    clock = f a.clock b.clock;
    launches = g a.launches b.launches;
    cat = Array.map2 f a.cat b.cat;
    sync = f a.sync b.sync;
    allocs = g a.allocs b.allocs;
  }

let gpu_add = gpu_map2 ( +. ) ( + )
let gpu_sub = gpu_map2 ( -. ) ( - )
let gpu_sum engines = List.fold_left (fun acc e -> gpu_add acc (gpu_of_engine e)) gpu_zero engines

let attributed g = Array.fold_left ( +. ) g.sync g.cat

(* The whole-clock invariant of the simulator: every simulated millisecond
   is attributed to exactly one op. *)
let check_attribution what e =
  let st = Engine.stats e in
  let el = Engine.elapsed_ms e and at = Stats.attributed_ms st in
  check (what ^ ": attributed_ms = elapsed_ms") (Float.abs (el -. at) <= 1e-9 *. Float.max 1.0 el)

let peak_mb engines =
  List.fold_left (fun m e -> Float.max m (Memory.peak_bytes (Engine.memory e))) 0.0 engines /. 1e6

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- the measured loop ---------------------------------------------- *)

type sample = { host_ms : float; speed_ms : float; sim : gpu; tensor_allocs : int; copied : int }

(* What the measured loop needs from a workload instance. *)
type inst = {
  step : int -> unit;  (** iteration [i]; [0] is the set-up's warm-up *)
  gpu : unit -> gpu;  (** cumulative snapshot over the instance's engines *)
}

(* One iteration: host time around [step i] only; engine and tensor
   counters are read outside it.  With an enabled [obs] the iteration is
   wrapped in a "perfbench.iteration" span, the parent of every span the
   program records inside it.  The host-speed probe runs just before. *)
let sample ?(obs = Obs.disabled) (x : inst) i =
  let speed_ms = speed_probe () in
  let g0 = x.gpu () in
  let a0 = Tensor.allocation_count () and c0 = Tensor.copied_bytes () in
  let t0 = now_ms () in
  Obs.time obs ~kind:"bench" "perfbench.iteration" (fun () -> x.step i);
  let host_ms = now_ms () -. t0 in
  let a1 = Tensor.allocation_count () and c1 = Tensor.copied_bytes () in
  { host_ms; speed_ms; sim = gpu_sub (x.gpu ()) g0; tensor_allocs = a1 - a0; copied = c1 - c0 }

(* Run iterations i = 1, 2, ... of every instance in [xs], in turn, until
   at least [min_iters] rounds have run and their host time adds up to
   [seconds]; [between i] runs after round [i], outside every timing.
   Alternating instances lets a traced and an untraced one see the same
   heap and machine state.  Also returns the heap high-water mark after
   round [min_iters], which does not depend on how long the host took. *)
let measure ?between ~seconds ~min_iters (xs : (Obs.t * inst) list) =
  let acc = List.map (fun _ -> ref []) xs in
  let total = ref 0.0 and i = ref 0 and heap_mb = ref 0.0 in
  let pairs = List.combine xs acc in
  while !i < min_iters || !total < seconds *. 1000.0 do
    incr i;
    (* alternate who goes first, so neither instance gains from order *)
    List.iter
      (fun ((obs, x), r) ->
        let s = sample ~obs x !i in
        total := !total +. s.host_ms;
        r := s :: !r)
      (if !i mod 2 = 0 then List.rev pairs else pairs);
    if !i = min_iters then heap_mb := heap_peak_mb ();
    Option.iter (fun f -> f !i) between
  done;
  (List.map (fun r -> Array.of_list (List.rev !r)) acc, !heap_mb)

(* Set up [reps] times from the same generated inputs, each through its
   first (untimed-in-the-loop) iteration; every instance but the last is
   dropped and collected before the next, so they do not stack up in the
   heap.  Returns the last instance and the median set-up seconds, each
   rescaled by the probe run just before it. *)
let setup_median ~reps f =
  let times = Array.make reps 0.0 and last = ref None in
  for r = 0 to reps - 1 do
    last := None;
    Gc.full_major ();
    let speed_ms = speed_probe () in
    let inst, ms = timed f in
    times.(r) <- rescale ~speed_ms ms /. 1000.0;
    last := Some inst
  done;
  match !last with Some i -> (i, median times) | None -> invalid_arg "setup_median: reps = 0"

(* ---- spans ---------------------------------------------------------- *)

(* Total duration of the outermost spans whose name satisfies [pred]
   (a matched span's children are not searched again). *)
let rec outer_ms pred (spans : Obs.span list) =
  List.fold_left
    (fun acc (s : Obs.span) ->
      if pred s.Obs.name then acc +. s.Obs.duration_ms else acc +. outer_ms pred s.Obs.children)
    0.0 spans

let is_run_plan name = String.length name >= 9 && String.sub name 0 9 = "run_plan:"
let is_compile name = name = "compile"

let iteration_spans obs =
  List.filter (fun (s : Obs.span) -> s.Obs.name = "perfbench.iteration") (Obs.spans obs)

(* Host-clock layer split of the traced iterations: per iteration, the time
   inside plan executions, and the rest.  The rest is defined as the
   remainder, so the two parts sum to the iteration by construction; what
   can fail is that the run recorded iteration spans at all and that no
   iteration's plan executions outlast the iteration itself. *)
let host_split obs =
  let iters = iteration_spans obs in
  check "host layers: traced iterations recorded" (iters <> []);
  let n = float_of_int (max 1 (List.length iters)) in
  let total, inside, overrun =
    List.fold_left
      (fun (t, r, o) (s : Obs.span) ->
        let plan = outer_ms is_run_plan s.Obs.children in
        (t +. s.Obs.duration_ms, r +. plan, o || plan > s.Obs.duration_ms))
      (0.0, 0.0, false) iters
  in
  check "host layers: run_plan spans fit inside their iteration" (not overrun);
  (total /. n, inside /. n, (total -. inside) /. n)

let write_spans ctx ~workload obs =
  let path = Filename.concat ctx.out_dir (Printf.sprintf "spans-%s-seed%d.json" workload ctx.seed) in
  let oc = open_out path in
  output_string oc (Obs.spans_json obs);
  output_char oc '\n';
  close_out oc

(* ---- per-layer helpers shared by the workloads ---------------------- *)

(* Simulated per-iteration split by kernel category, for one decomposed
   iteration; its parts add up to [g.clock]. *)
let gpu_layers (g : gpu) =
  Array.to_list
    (Array.mapi
       (fun i c -> metric (Printf.sprintf "gpu.%s_sim_ms" (Kernel.category_name c)) g.cat.(i))
       categories)
  @ [ metric "gpu.sync_sim_ms" g.sync ]

let check_gpu_sum what (g : gpu) ~total =
  check (what ^ ": gpu layers sum to the simulated total")
    (Float.abs (attributed g -. total) <= 1e-9 *. Float.max 1.0 total)

(* Host GEMM throughput of the tensor layer on a workload's own shapes:
   [n] node rows and [e] edge rows of width [k] projected to [out]
   columns, through the three GEMM primitives the plans execute. *)
let gemm_gflops ~rng ~n ~e ~k ~out ~src ~dst =
  let a = Tensor.randn rng [| n; k |] and ae = Tensor.randn rng [| e; k |] in
  let b = Tensor.randn rng [| k; out |] in
  let cn = Tensor.create [| n; out |] and ce = Tensor.create [| e; out |] in
  let flops = 2.0 *. float_of_int k *. float_of_int out *. float_of_int (n + e + e) in
  let round () =
    Tensor.matmul_into a b cn;
    Tensor.matmul_gather_into a ~idx:src b ce;
    Tensor.matmul_scatter_add_into ae b ~idx:dst cn
  in
  round ();
  let rates =
    Array.init 7 (fun _ ->
        let (), ms = timed round in
        flops /. (ms /. 1000.0) /. 1e9)
  in
  median rates

let graph_gemm_gflops (g : Hector_graph.Hetgraph.t) ~out =
  gemm_gflops ~rng:(Hector_tensor.Rng.create 7) ~n:g.Hector_graph.Hetgraph.num_nodes
    ~e:g.Hector_graph.Hetgraph.num_edges ~k:Inputs.feat_dim ~out ~src:g.Hector_graph.Hetgraph.src
    ~dst:g.Hector_graph.Hetgraph.dst

let compaction_ratio g = Hector_graph.Compact_map.ratio g (Hector_graph.Compact_map.build g)

(* Kernel steps of a compiled program, fused groups expanded, forward plus
   backward. *)
let plan_steps (c : Hector_core.Compiler.compiled) =
  let n p = List.length (Hector_core.Plan.flatten_steps p) in
  n c.Hector_core.Compiler.forward
  + match c.Hector_core.Compiler.backward with Some b -> n b | None -> 0

(* The session settings every workload spells out: weights from the seed,
   the arena planner on, the pinned domain count, the given handle, and
   the features as the node input "h". *)
let session_config ~seed ~domains ~obs ~features =
  {
    Hector_runtime.Session.Config.default with
    Hector_runtime.Session.Config.seed = Inputs.weights seed;
    memory_planner = Some true;
    domains = Some domains;
    observability = Some obs;
    node_inputs = [ ("h", features) ];
  }

(* ---- fingerprints --------------------------------------------------- *)

(* A stable hex digest of a generated input, built from its integer and
   IEEE-754 contents, so any change to a generator shows up as a changed
   fingerprint rather than as a speed-up. *)
module Fp = struct
  let create () = Buffer.create 4096
  let int b i = Buffer.add_string b (string_of_int i); Buffer.add_char b ','
  let ints b a = Array.iter (int b) a; Buffer.add_char b ';'
  let float b f = Buffer.add_string b (Int64.to_string (Int64.bits_of_float f)); Buffer.add_char b ','
  let floats b a = Array.iter (float b) a; Buffer.add_char b ';'
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

  let of_ints a =
    let b = create () in
    ints b a;
    digest b

  let graph (g : Hector_graph.Hetgraph.t) =
    let b = create () in
    let csr = Hector_graph.Csr.incoming g in
    ints b g.Hector_graph.Hetgraph.node_type;
    ints b g.Hector_graph.Hetgraph.etype;
    ints b csr.Hector_graph.Csr.row_ptr;
    ints b csr.Hector_graph.Csr.col;
    ints b csr.Hector_graph.Csr.eid;
    digest b

  let tensor t =
    let b = create () in
    ints b (Tensor.shape t);
    floats b (Tensor.to_flat_array t);
    digest b
end

(* ---- the generic set-up / measure protocol ------------------------- *)

(* Set-ups per untraced run; [setup_s] is their median. *)
let setup_reps = 5

(* Untraced: set up [setup_reps] times (median seconds), then measure. *)
let run_plain ?between ~seconds ~min_iters create =
  let (a, i), setup_s =
    setup_median ~reps:setup_reps (fun () ->
        let ((_, i) as r) = create Obs.disabled in
        i.step 0;
        r)
  in
  let samples, heap_mb = measure ?between ~seconds ~min_iters [ (Obs.disabled, i) ] in
  (a, i, setup_s, List.hd samples, heap_mb)

type setup_phases = { compile_ms : float; create_ms : float; warm_ms : float }

(* Traced: an untraced instance (the overhead baseline) and one set up
   with an enabled handle threaded through compile and create, its set-up
   phases timed by the benchmark's own calls; their iterations alternate.
   Returns the traced instance, its handle, phases and samples, and the
   untraced samples. *)
let run_traced ?between ~seconds ~min_iters create =
  let _, plain = create Obs.disabled in
  plain.step 0;
  let obs = Obs.create () in
  Gc.full_major ();
  let (a, i), create_total = timed (fun () -> create obs) in
  let compile_ms = outer_ms is_compile (Obs.spans obs) in
  let (), warm_ms = timed (fun () -> i.step 0) in
  match measure ?between ~seconds ~min_iters [ (Obs.disabled, plain); (obs, i) ] with
  | [ untraced; samples ], _ ->
      (a, i, obs, { compile_ms; create_ms = create_total -. compile_ms; warm_ms }, samples, untraced)
  | _ -> assert false

(* GC minor words per iteration.  OCaml 5.1 counts minor allocation per
   domain; the benchmark runs on one domain, so the count is complete. *)
let minor_words_per_iter i ~from =
  median
    (Array.init 3 (fun k ->
         let w0 = Gc.minor_words () in
         i.step (from + k);
         Gc.minor_words () -. w0))

let host_ms samples = Array.map (fun s -> s.host_ms) samples
let prefix samples n = Array.sub samples 0 (min n (Array.length samples))

(* The sample whose simulated time is the (nearest-rank) median — an
   actual iteration, so its category split sums to [sim_ms_p50]. *)
let median_sample samples =
  let m = median (Array.map (fun s -> s.sim.clock) samples) in
  let rec find k = if samples.(k).sim.clock = m then samples.(k) else find (k + 1) in
  find 0

(* ---- results -------------------------------------------------------- *)

type result = {
  e2e : metric list;  (** untraced run *)
  layers : metric list;  (** traced run ([] when untraced) *)
  fingerprints : (string * string) list;
  record : (string * string) list;  (** sizing and sample counts *)
}

(* Rescaled host figures; the record keeps the wall-clock median and the
   probe's median beside them. *)
let host_e2e samples =
  let h = Array.map (fun s -> rescale ~speed_ms:s.speed_ms s.host_ms) samples in
  let n = Array.length h in
  let p = tail_percentile n in
  ( [ metric "host_ms_p50" (median h); metric "host_ms_tail" (percentile h (float_of_int p)) ],
    [
      ("host_ms_tail", Printf.sprintf "p%d of %d iterations" p n);
      ("host_ms_p50_wall", Printf.sprintf "%.3f" (median (host_ms samples)));
      ("speed_probe_ms_p50", Printf.sprintf "%.3f" (median (Array.map (fun s -> s.speed_ms) samples)));
    ] )

(* End-to-end metrics of a workload whose unit of work is an iteration on
   one or more engines (everything but serving).  Simulated figures come
   from the first [sim_iters] iterations only, so they do not depend on
   how many iterations the host managed in the time budget. *)
let iteration_e2e ~setup_s ~samples ~sim_iters ~engines ~heap_mb =
  let sims = prefix samples sim_iters in
  let clock = Array.map (fun s -> s.sim.clock) sims in
  let p99 = percentile clock 99.0 in
  let host, record = host_e2e samples in
  ( [ metric "setup_s" setup_s ]
    @ host
    @ [
        metric "sim_ms_p50" (median clock);
        metric "sim_ms_p99" p99;
        metric "slo_rps" (1000.0 /. p99);
        metric "launches_per_iter"
          (median (Array.map (fun s -> float_of_int s.sim.launches) sims));
        metric "sim_peak_mem_mb" (peak_mb engines);
        metric "host_heap_peak_mb" heap_mb;
      ],
    ("sim_iterations", string_of_int (Array.length sims)) :: record )

(* Layer metrics every workload reports the same way, from the traced run:
   executor phases, host split of the iterations, tensor counters and the
   simulated split of the median iteration. *)
let common_layers ~obs ~phases ~samples ~gpu ~launches ~alloc_words =
  let iter_ms, run_plan_ms, outside_ms = host_split obs in
  let per_iter f = median (Array.map (fun s -> float_of_int (f s)) samples) in
  [
    metric "core.compile_ms" (outer_ms is_compile (Obs.spans obs));
    metric "runtime.create_ms" phases.create_ms;
    metric "runtime.warm_iter_ms" phases.warm_ms;
    metric "runtime.traced_iter_ms" iter_ms;
    metric "runtime.run_plan_ms" run_plan_ms;
    metric "runtime.outside_plan_ms" outside_ms;
    metric "runtime.host_us_per_launch" (run_plan_ms *. 1000.0 /. Float.max 1.0 launches);
    metric "runtime.alloc_words_per_iter" alloc_words;
    metric "tensor.allocs_per_iter" (per_iter (fun s -> s.tensor_allocs));
    metric "tensor.copied_bytes_per_iter" (per_iter (fun s -> s.copied));
    metric "gpu.steady_allocs"
      (float_of_int (Array.fold_left (fun a s -> a + s.sim.allocs) 0 samples));
  ]
  @ gpu_layers gpu

let overhead_ratio ~untraced ~traced =
  metric "trace.overhead_ratio" (median (host_ms traced) /. median (host_ms untraced) -. 1.0)

(* The whole protocol of an iteration workload.  Untraced: five set-ups,
   the measured loop, end-to-end metrics, checks.  Traced: untraced and
   traced iterations alternating, checks, the per-layer metrics, and the
   span tree written out once. *)
let run_iterations ctx ~workload ~sim_iters ~create ~engines ~checks ~layers ~fingerprints =
  if not ctx.trace then begin
    let a, _, setup_s, samples, heap_mb =
      run_plain ~seconds:ctx.seconds ~min_iters:sim_iters create
    in
    let e2e, record = iteration_e2e ~setup_s ~samples ~sim_iters ~engines:(engines a) ~heap_mb in
    checks a;
    List.iter (check_attribution workload) (engines a);
    { e2e; layers = []; fingerprints; record }
  end
  else begin
    let a, i, obs, phases, samples, untraced =
      run_traced ~seconds:ctx.seconds ~min_iters:sim_iters create
    in
    let alloc_words = minor_words_per_iter i ~from:(Array.length samples + 1) in
    let med = median_sample (prefix samples sim_iters) in
    check_gpu_sum workload med.sim ~total:med.sim.clock;
    checks a;
    let layers =
      common_layers ~obs ~phases ~samples ~gpu:med.sim ~launches:(float_of_int med.sim.launches)
        ~alloc_words
      @ layers a
      @ [ overhead_ratio ~untraced ~traced:samples ]
    in
    List.iter (check_attribution workload) (engines a);
    write_spans ctx ~workload obs;
    { e2e = []; layers; fingerprints; record = [] }
  end
