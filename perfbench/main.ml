(* The benchmark's entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--fingerprints FILE]
     main.exe --print-fingerprints

   Runs one workload and prints, as the last line of standard output, one
   JSON object {"correct", "attempted", "failed", "metrics"}: every
   end-to-end metric with --trace 0, every per-layer metric with --trace 1.
   The line before it is the run's record (machine, sizing, sample counts,
   input fingerprints).  Exits 1 when any correctness check failed, 2 on a
   usage error. *)

open Harness

module type WORKLOAD = sig
  val name : string
  val scale : float

  val fingerprints : seed:int -> (string * string) list
  (** Generate the inputs of [seed] and digest them. *)

  val run : ctx -> result
end

let workloads : (module WORKLOAD) list =
  [ (module Train_rgcn2); (module Infer_attn); (module Serve_stream); (module Train_dist) ]

(* The recorded fingerprints are those of this seed; every run regenerates
   its inputs too and compares, whatever seed it was given. *)
let canary_seed = 1

let end_to_end =
  [
    ("setup_s", "s");
    ("host_ms_p50", "ms");
    ("host_ms_tail", "ms");
    ("sim_ms_p50", "sim-ms");
    ("sim_ms_p99", "sim-ms");
    ("slo_rps", "req/s-sim");
    ("launches_per_iter", "count");
    ("sim_peak_mem_mb", "MB");
    ("host_heap_peak_mb", "MB");
  ]

(* A workload reports 0 for a layer it does not exercise. *)
let per_layer =
  [
    ("core.compile_ms", "ms");
    ("core.plan_steps", "count");
    ("runtime.create_ms", "ms");
    ("runtime.warm_iter_ms", "ms");
    ("runtime.traced_iter_ms", "ms");
    ("runtime.run_plan_ms", "ms");
    ("runtime.outside_plan_ms", "ms");
    ("runtime.host_us_per_launch", "us");
    ("runtime.alloc_words_per_iter", "words");
    ("tensor.allocs_per_iter", "count");
    ("tensor.copied_bytes_per_iter", "bytes");
    ("tensor.gemm_gflops", "GFLOP/s");
  ]
  @ List.map
      (fun c -> (Printf.sprintf "gpu.%s_sim_ms" (Kernel.category_name c), "sim-ms"))
      Kernel.all_categories
  @ [
      ("gpu.sync_sim_ms", "sim-ms");
      ("gpu.steady_allocs", "count");
      ("graph.compaction_ratio", "ratio");
      ("graph.edge_cut", "fraction");
      ("graph.balance", "ratio");
      ("serve.host_ms_per_request", "ms");
      ("serve.mean_batch", "count");
      ("serve.queue_sim_ms_p99", "sim-ms");
      ("serve.sample_sim_ms_mean", "sim-ms");
      ("serve.transfer_sim_ms_mean", "sim-ms");
      ("serve.compute_sim_ms_mean", "sim-ms");
      ("serve.plan_cache_hit_ratio", "ratio");
      ("stream.apply_host_ms", "ms");
      ("stream.patch_ratio", "ratio");
      ("stream.rebuilds", "count");
      ("stream.compactions", "count");
      ("stream.epochs", "count");
      ("stream.recompiles", "count");
      ("dist.exposed_comm_ratio", "ratio");
      ("dist.overlap_ratio", "ratio");
      ("ckpt.save_ms", "ms");
      ("ckpt.load_ms", "ms");
      ("ckpt.bytes", "bytes");
      ("trace.overhead_ratio", "ratio");
    ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--fingerprints FILE]\n\
    \       main.exe --print-fingerprints\n\
     workloads: train_rgcn2 infer_attn serve_stream train_dist";
  exit 2

let find_workload name =
  List.find_opt (fun (module W : WORKLOAD) -> W.name = name) workloads

(* Every HECTOR_* variable is cleared before any library reads it, so the
   explicit settings below are the only configuration; returns the names
   that were set. *)
let scrub_environment () =
  let scrubbed =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i when String.length kv >= 7 && String.sub kv 0 7 = "HECTOR_" ->
               Some (String.sub kv 0 i)
           | _ -> None)
  in
  List.iter (fun v -> Unix.putenv v "") scrubbed;
  ignore (Hector_runtime.Knobs.refresh ());
  scrubbed

let json_string s = "\"" ^ Hector_obs.json_escape s ^ "\""
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
let json_float v = Printf.sprintf "%.17g" v

(* Compare [got] against the file's record for the canary seed. *)
let check_fingerprints ~file ~workload got =
  match Hector_runtime.Json_lite.(member (parse (read_file file)) workload) with
  | None -> check (Printf.sprintf "fingerprints: %s has no record for %s" file workload) false
  | Some recorded ->
      List.iter
        (fun (input, hash) ->
          let want = Hector_runtime.Json_lite.str_field_opt recorded input in
          if want <> Some hash then
            Printf.eprintf "perfbench: %s %s fingerprint %s, recorded %s\n%!" workload input hash
              (Option.value want ~default:"(none)");
          check (Printf.sprintf "fingerprint of %s input %s" workload input) (want = Some hash))
        got

let print_fingerprints () =
  print_endline
    (json_obj
       (("canary_seed", string_of_int canary_seed)
       :: List.map
            (fun (module W : WORKLOAD) ->
              ( W.name,
                json_obj
                  (List.map (fun (k, v) -> (k, json_string v))
                     (W.fingerprints ~seed:canary_seed)) ))
            workloads))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--print-fingerprints" :: rest -> parse (("print", "1") :: acc) rest
    | (("--workload" | "--seed" | "--seconds" | "--trace" | "--fingerprints") as k) :: v :: rest ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | a :: _ ->
        Printf.eprintf "perfbench: unexpected argument %S\n" a;
        usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_arg k =
    match Option.bind (get k) int_of_string_opt with Some v -> v | None -> usage ()
  in
  let scrubbed = scrub_environment () in
  let nproc = Domain.recommended_domain_count () in
  (* One domain.  On a shared two-core host, a second domain makes every
     parallel region wait for whichever core a neighbour is using: over the
     same minutes, serve_stream's host p50 moved 74 -> 198 ms at two
     domains and 79 -> 90 ms at one. *)
  let domains = 1 in
  Hector_tensor.Domain_pool.set_num_domains (Some domains);
  if get "print" <> None then (print_fingerprints (); exit 0);
  let (module W : WORKLOAD) =
    match Option.bind (get "workload") find_workload with Some w -> w | None -> usage ()
  in
  let seed = int_arg "seed" in
  let seconds = int_arg "seconds" in
  let trace =
    match get "trace" with Some "0" -> false | Some "1" -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let out_dir = ".perfbench_out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let ctx = { seed; seconds = float_of_int seconds; trace; out_dir; domains } in
  (match get "fingerprints" with
  | Some file ->
      check_fingerprints ~file ~workload:W.name (W.fingerprints ~seed:canary_seed)
  | None -> ());
  let result = W.run ctx in
  let expected = if trace then per_layer else end_to_end in
  let reported = if trace then result.layers else result.e2e in
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name expected) then
        invalid_arg (Printf.sprintf "perfbench: %s reported unknown metric %s" W.name m.name))
    reported;
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v =
          match List.find_opt (fun m -> m.name = name) reported with Some m -> m.value | None -> 0.0
        in
        check (Printf.sprintf "%s: metric %s is finite" W.name name) (Float.is_finite v);
        (name, json_obj [ ("value", json_float (if Float.is_finite v then v else 0.0)); ("unit", json_string unit_) ]))
      expected
  in
  print_endline
    (json_obj
       ([
          ("workload", json_string W.name);
          ("seed", string_of_int seed);
          ("trace", string_of_bool trace);
          ("nproc", string_of_int nproc);
          ("domains", string_of_int domains);
          ("ocaml", json_string Sys.ocaml_version);
          ("scale", json_float W.scale);
          ("hector_env_scrubbed", "[" ^ String.concat ", " (List.map json_string scrubbed) ^ "]");
          ("fingerprints", json_obj (List.map (fun (k, v) -> (k, json_string v)) result.fingerprints));
        ]
       @ List.map (fun (k, v) -> (k, json_string v)) result.record));
  let failed = tally.failed in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int tally.attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj metrics);
       ]);
  exit (if failed = 0 then 0 else 1)
