(* Tests for the GPU execution simulator: cost model, allocator, stats. *)

module Device = Hector_gpu.Device
module Kernel = Hector_gpu.Kernel
module Memory = Hector_gpu.Memory
module Engine = Hector_gpu.Engine
module Stats = Hector_gpu.Stats

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let big_gemm ?(name = "gemm_0") ?(flops = 1e9) ?(bytes = 1e8) () =
  Kernel.make ~name ~category:Kernel.Gemm ~grid_blocks:4096 ~threads_per_block:256 ~flops
    ~bytes_coalesced:bytes ()

let test_launch_overhead_floor () =
  (* an empty kernel still costs the launch overhead *)
  let k = Kernel.make ~name:"empty" ~category:Kernel.Traversal () in
  let t = Engine.cost_ms Device.rtx3090 k in
  check_bool "cost >= overhead" true (t >= Device.rtx3090.Device.launch_overhead_us *. 1e-3);
  check_bool "cost ~ overhead" true (t < 2.0 *. Device.rtx3090.Device.launch_overhead_us *. 1e-3)

let test_compute_bound_scales_with_flops () =
  let t1 = Engine.cost_ms Device.rtx3090 (big_gemm ~flops:1e9 ~bytes:1e6 ()) in
  let t2 = Engine.cost_ms Device.rtx3090 (big_gemm ~flops:4e9 ~bytes:1e6 ()) in
  check_bool "4x flops ~ 4x time" true (t2 /. t1 > 3.0 && t2 /. t1 < 5.0)

let test_memory_bound_scales_with_bytes () =
  let t1 = Engine.cost_ms Device.rtx3090 (big_gemm ~flops:1e6 ~bytes:1e8 ()) in
  let t2 = Engine.cost_ms Device.rtx3090 (big_gemm ~flops:1e6 ~bytes:4e8 ()) in
  check_bool "4x bytes ~ 4x time" true (t2 /. t1 > 3.0 && t2 /. t1 < 5.0)

let test_gather_slower_than_coalesced () =
  let coal =
    Kernel.make ~name:"k" ~category:Kernel.Traversal ~grid_blocks:4096 ~bytes_coalesced:1e8 ()
  in
  let gath =
    Kernel.make ~name:"k" ~category:Kernel.Traversal ~grid_blocks:4096 ~bytes_gathered:1e8 ()
  in
  check_bool "gather costs more" true
    (Engine.cost_ms Device.rtx3090 gath > Engine.cost_ms Device.rtx3090 coal)

let test_atomic_slower_than_gather () =
  let gath =
    Kernel.make ~name:"k" ~category:Kernel.Traversal ~grid_blocks:4096 ~bytes_gathered:1e8 ()
  in
  let atom =
    Kernel.make ~name:"k" ~category:Kernel.Traversal ~grid_blocks:4096 ~bytes_atomic:1e8 ()
  in
  check_bool "atomics cost more" true
    (Engine.cost_ms Device.rtx3090 atom > Engine.cost_ms Device.rtx3090 gath)

let test_small_grid_underutilization () =
  (* Same total work in one tiny launch vs a saturating launch: the tiny
     grid must be slower per unit of work — the Python-loop-of-small-kernels
     pathology of DGL HeteroConv. *)
  let small =
    Kernel.make ~name:"k" ~category:Kernel.Gemm ~grid_blocks:1 ~threads_per_block:128 ~flops:1e8 ()
  in
  let large =
    Kernel.make ~name:"k" ~category:Kernel.Gemm ~grid_blocks:4096 ~threads_per_block:256 ~flops:1e8
      ()
  in
  let ts = Engine.cost_ms Device.rtx3090 small and tl = Engine.cost_ms Device.rtx3090 large in
  check_bool "underutilized is slower" true (ts > 5.0 *. tl)

let test_many_small_vs_one_big () =
  (* 100 small launches vs 1 big launch of the same total work *)
  let e1 = Engine.create () in
  for _ = 1 to 100 do
    Engine.launch e1
      (Kernel.make ~name:"small" ~category:Kernel.Gemm ~grid_blocks:8 ~flops:1e7
         ~bytes_coalesced:1e5 ())
  done;
  let e2 = Engine.create () in
  Engine.launch e2
    (Kernel.make ~name:"big" ~category:Kernel.Gemm ~grid_blocks:800 ~flops:1e9 ~bytes_coalesced:1e7
       ());
  check_bool "fusion wins" true (Engine.elapsed_ms e1 > 3.0 *. Engine.elapsed_ms e2)

let test_engine_clock_accumulates () =
  let e = Engine.create () in
  Engine.launch e (big_gemm ());
  let t1 = Engine.elapsed_ms e in
  Engine.launch e (big_gemm ());
  check_bool "monotone" true (Engine.elapsed_ms e > t1);
  check_bool "additive" true (Float.abs (Engine.elapsed_ms e -. (2.0 *. t1)) < 1e-9);
  Engine.reset_clock e;
  check_bool "reset" true (Engine.elapsed_ms e = 0.0)

let test_host_sync () =
  let e = Engine.create () in
  Engine.host_sync e ~us:100.0 ();
  check_bool "sync charged" true (Float.abs (Engine.elapsed_ms e -. 0.1) < 1e-9)

let test_scale_multiplies_work () =
  let k = big_gemm () in
  let e1 = Engine.create ~scale:1.0 () in
  let e8 = Engine.create ~scale:8.0 () in
  Engine.launch e1 k;
  Engine.launch e8 k;
  let r = Engine.elapsed_ms e8 /. Engine.elapsed_ms e1 in
  check_bool "about 8x" true (r > 6.0 && r < 9.0)

let test_scale_skips_non_proportional () =
  let k =
    Kernel.make ~name:"w" ~category:Kernel.Copy ~grid_blocks:4096 ~bytes_coalesced:1e8
      ~graph_proportional:false ()
  in
  let e1 = Engine.create ~scale:1.0 () in
  let e8 = Engine.create ~scale:8.0 () in
  Engine.launch e1 k;
  Engine.launch e8 k;
  check_bool "same cost" true (Float.abs (Engine.elapsed_ms e1 -. Engine.elapsed_ms e8) < 1e-12)

let test_memory_alloc_free () =
  let m = Memory.create ~capacity_bytes:1000.0 ~scale:1.0 in
  let a = Memory.alloc m ~label:"a" 400.0 in
  let b = Memory.alloc m ~label:"b" 500.0 in
  check_bool "used" true (Memory.used_bytes m = 900.0);
  Memory.free m a;
  check_bool "freed" true (Memory.used_bytes m = 500.0);
  check_bool "peak kept" true (Memory.peak_bytes m = 900.0);
  Memory.free m a;
  check_bool "double free is no-op" true (Memory.used_bytes m = 500.0);
  Memory.free m b;
  check_bool "empty" true (Memory.used_bytes m = 0.0)

let test_memory_oom () =
  let m = Memory.create ~capacity_bytes:1000.0 ~scale:1.0 in
  let _keep = Memory.alloc m ~label:"a" 800.0 in
  check_bool "oom raised" true
    (try
       ignore (Memory.alloc m ~label:"b" 300.0);
       false
     with Memory.Out_of_memory _ -> true);
  (* failed allocation must not count *)
  check_bool "state unchanged" true (Memory.used_bytes m = 800.0)

let test_memory_scale_applies () =
  let m = Memory.create ~capacity_bytes:1000.0 ~scale:10.0 in
  check_bool "scaled oom" true
    (try
       ignore (Memory.alloc m ~label:"a" 200.0);
       false
     with Memory.Out_of_memory _ -> true);
  let _w = Memory.alloc m ~graph_proportional:false ~label:"weights" 200.0 in
  check_bool "weights unscaled" true (Memory.used_bytes m = 200.0)

let test_stats_categories () =
  let e = Engine.create () in
  Engine.launch e (big_gemm ~name:"gemm_1" ());
  Engine.launch e (big_gemm ~name:"gemm_1" ());
  Engine.launch e
    (Kernel.make ~name:"trav_1" ~category:Kernel.Traversal ~grid_blocks:512 ~bytes_gathered:1e7 ());
  let s = Engine.stats e in
  check_int "gemm launches" 2 (Stats.of_category s Kernel.Gemm).Stats.launches;
  check_int "traversal launches" 1 (Stats.of_category s Kernel.Traversal).Stats.launches;
  check_int "copy launches" 0 (Stats.of_category s Kernel.Copy).Stats.launches;
  let total = Stats.total s in
  check_int "total" 3 total.Stats.launches;
  check_bool "time consistent" true
    (Float.abs (total.Stats.time_ms -. Engine.elapsed_ms e) < 1e-9);
  match Stats.by_kernel s with
  | (top_name, top) :: _ ->
      Alcotest.(check string) "heaviest kernel" "gemm_1" top_name;
      check_int "merged by name" 2 top.Stats.launches
  | [] -> Alcotest.fail "no kernels recorded"

let test_alloc_tensor_helper () =
  let e = Engine.create ~scale:2.0 () in
  let _a = Engine.alloc_tensor e ~label:"h" ~rows:10 ~cols:16 () in
  (* 10*16*4 bytes * scale 2 *)
  check_bool "logical bytes" true (Memory.used_bytes (Engine.memory e) = 1280.0)

let test_device_profiles () =
  check_bool "3090 capacity" true (Device.rtx3090.Device.global_mem_bytes = 24.0e9);
  check_bool "a100 more bandwidth" true
    (Device.a100_40gb.Device.mem_bandwidth_gbs > Device.rtx3090.Device.mem_bandwidth_gbs)

let test_trace_timeline () =
  let e = Engine.create ~trace:true () in
  Engine.launch e (big_gemm ~name:"a" ());
  Engine.launch e (big_gemm ~name:"b" ());
  let events = Engine.events e in
  check_int "two events" 2 (List.length events);
  (match events with
  | [ first; second ] ->
      Alcotest.(check string) "order" "a" first.Engine.name;
      check_bool "contiguous" true
        (Float.abs (second.Engine.start_ms -. (first.Engine.start_ms +. first.Engine.duration_ms))
         < 1e-9);
      check_bool "durations sum to clock" true
        (Float.abs (Engine.elapsed_ms e -. (first.Engine.duration_ms +. second.Engine.duration_ms))
         < 1e-9)
  | _ -> Alcotest.fail "expected two events");
  let module Json = Hector_obs.Json in
  let trace = Json.parse (Engine.to_chrome_trace e) in
  (match Json.member trace "traceEvents" with
  | Some (Json.Arr evs) ->
      check_int "one event per launch" 2 (List.length evs);
      List.iter
        (fun ev ->
          List.iter
            (fun key -> check_bool ("event has " ^ key) true (Json.member ev key <> None))
            [ "name"; "ph"; "ts"; "dur" ])
        evs;
      check_bool "first kernel named and categorized" true
        (Json.member (List.hd evs) "name" = Some (Json.Str "a")
        && Json.member (List.hd evs) "cat" = Some (Json.Str "gemm"))
  | _ -> Alcotest.fail "trace has no traceEvents array");
  Engine.reset_clock e;
  check_int "reset clears events" 0 (List.length (Engine.events e))

let test_trace_disabled_by_default () =
  let e = Engine.create () in
  Engine.launch e (big_gemm ());
  check_int "no events" 0 (List.length (Engine.events e))

(* --- property tests --- *)

let kernel_gen =
  QCheck.Gen.(
    let* blocks = int_range 1 10_000 in
    let* tpb = oneofl [ 64; 128; 256; 512 ] in
    let* flops = float_range 0.0 1e10 in
    let* bc = float_range 0.0 1e9 in
    let* bg = float_range 0.0 1e9 in
    let* ba = float_range 0.0 1e8 in
    return
      (Kernel.make ~name:"k" ~category:Kernel.Gemm ~grid_blocks:blocks ~threads_per_block:tpb
         ~flops ~bytes_coalesced:bc ~bytes_gathered:bg ~bytes_atomic:ba ()))

let arb_kernel = QCheck.make kernel_gen ~print:(fun k -> k.Kernel.name)

let prop_cost_positive =
  QCheck.Test.make ~name:"cost is always >= launch overhead" ~count:200 arb_kernel (fun k ->
      Engine.cost_ms Device.rtx3090 k >= Device.rtx3090.Device.launch_overhead_us *. 1e-3 -. 1e-12)

let prop_cost_monotone_in_flops =
  QCheck.Test.make ~name:"cost is monotone in flops" ~count:200 arb_kernel (fun k ->
      let more = { k with Kernel.flops = (k.Kernel.flops *. 2.0) +. 1e9 } in
      Engine.cost_ms Device.rtx3090 more >= Engine.cost_ms Device.rtx3090 k)

let prop_cost_monotone_in_bytes =
  QCheck.Test.make ~name:"cost is monotone in traffic" ~count:200 arb_kernel (fun k ->
      let more = { k with Kernel.bytes_gathered = (k.Kernel.bytes_gathered *. 2.0) +. 1e8 } in
      Engine.cost_ms Device.rtx3090 more >= Engine.cost_ms Device.rtx3090 k)

let suite =
  [
    Alcotest.test_case "launch overhead floor" `Quick test_launch_overhead_floor;
    Alcotest.test_case "compute-bound scaling" `Quick test_compute_bound_scales_with_flops;
    Alcotest.test_case "memory-bound scaling" `Quick test_memory_bound_scales_with_bytes;
    Alcotest.test_case "gather slower than coalesced" `Quick test_gather_slower_than_coalesced;
    Alcotest.test_case "atomic slower than gather" `Quick test_atomic_slower_than_gather;
    Alcotest.test_case "small grid underutilization" `Quick test_small_grid_underutilization;
    Alcotest.test_case "many small vs one big launch" `Quick test_many_small_vs_one_big;
    Alcotest.test_case "engine clock" `Quick test_engine_clock_accumulates;
    Alcotest.test_case "host sync" `Quick test_host_sync;
    Alcotest.test_case "scale multiplies work" `Quick test_scale_multiplies_work;
    Alcotest.test_case "scale skips non-proportional" `Quick test_scale_skips_non_proportional;
    Alcotest.test_case "memory alloc/free" `Quick test_memory_alloc_free;
    Alcotest.test_case "memory OOM" `Quick test_memory_oom;
    Alcotest.test_case "memory scale" `Quick test_memory_scale_applies;
    Alcotest.test_case "stats categories" `Quick test_stats_categories;
    Alcotest.test_case "alloc_tensor helper" `Quick test_alloc_tensor_helper;
    Alcotest.test_case "device profiles" `Quick test_device_profiles;
    Alcotest.test_case "trace timeline" `Quick test_trace_timeline;
    Alcotest.test_case "trace disabled by default" `Quick test_trace_disabled_by_default;
    QCheck_alcotest.to_alcotest prop_cost_positive;
    QCheck_alcotest.to_alcotest prop_cost_monotone_in_flops;
    QCheck_alcotest.to_alcotest prop_cost_monotone_in_bytes;
  ]
