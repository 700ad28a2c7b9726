(* Quickstart: compile and run an RGAT layer on a small heterogeneous
   citation graph, inspect the plan, the generated CUDA-like code and the
   simulated device statistics.

   Run with:  dune exec examples/quickstart.exe *)

module Gen = Hector_graph.Generator
module Compiler = Hector_core.Compiler
module Plan = Hector_core.Plan
module Codegen = Hector_core.Codegen
module Session = Hector_runtime.Session
module Engine = Hector_gpu.Engine
module Stats = Hector_gpu.Stats
module Tensor = Hector_tensor.Tensor

let () =
  (* 1. a synthetic heterogeneous graph: 3 node types (author/paper/venue),
     6 relations, ~2k edges *)
  let graph =
    Gen.generate
      {
        Gen.name = "citations";
        num_ntypes = 3;
        num_etypes = 6;
        num_nodes = 500;
        num_edges = 2000;
        compaction_target = 0.5;
        scale = 1.0;
        seed = 42;
      }
  in
  Format.printf "graph: %a@.@." Hector_graph.Hetgraph.pp graph;

  (* 2. the model: single-headed RGAT written in the inter-operator IR *)
  let program = Hector_models.Model_defs.rgat ~in_dim:64 ~out_dim:64 () in
  Format.printf "=== inter-operator IR ===@.%a@.@." Hector_core.Inter_ir.pp_program program;

  (* 3. compile with compact materialization and linear-operator fusion,
     with an observability handle recording pass timings *)
  let obs = Hector_obs.create () in
  let options = Compiler.options_of_flags ~compact:true ~fusion:true () in
  let compiled = Compiler.compile ~obs ~options program in
  Format.printf "=== compiled plan (%d GEMM, %d traversal, %d fused weight products) ===@.%a@.@."
    (Plan.gemm_count compiled.Compiler.forward)
    (Plan.traversal_count compiled.Compiler.forward)
    (List.length compiled.Compiler.weight_ops)
    Plan.pp compiled.Compiler.forward;

  (* 4. the CUDA the code generator would emit *)
  print_endline "=== generated CUDA (excerpt) ===";
  let cuda = Codegen.emit_plan compiled.Compiler.forward in
  String.split_on_char '\n' cuda
  |> List.filteri (fun i _ -> i < 40)
  |> List.iter print_endline;
  print_endline "  ...\n";

  (* 5. run it on the simulated RTX 3090.  Session.Config.t is the primary
     configuration surface; passing the compile-time [obs] handle puts
     compiler passes and plan runs on one timeline. *)
  let config =
    { Session.Config.default with seed = 7; trace = true; observability = Some obs }
  in
  let session = Session.create ~config ~graph compiled in
  let outputs = Session.forward session in
  let out = List.assoc "out" outputs in
  Format.printf "=== execution ===@.output tensor: %a@." Tensor.pp out;
  Format.printf "simulated time: %.3f ms@." (Engine.elapsed_ms (Session.engine session));
  Format.printf "%a@." Stats.pp_breakdown (Engine.stats (Session.engine session));

  (* 6. per-op attribution: simulated time by model operation (sums to the
     simulated clock), plus the wall-clock compiler-pass spans *)
  print_endline "=== per-op simulated time ===";
  Stats.by_op (Engine.stats (Session.engine session))
  |> List.iter (fun (op, e) ->
         Printf.printf "  %-16s %8.3f ms  (%d launches)\n" op e.Stats.time_ms e.Stats.launches);
  print_endline "\n=== metrics snapshot (Session.metrics_json) ===";
  print_endline (Hector_obs.Json.to_string (Session.metrics_json session))
