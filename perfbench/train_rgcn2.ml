(* train_rgcn2: full-graph SGD training of the two-layer RGCN
   (64 -> 64 -> 16), uncompacted, inter-op fusion on.  GEMM, the generated
   backward and SGD dominate; RGCN plans launch no traversal kernels, so
   host-GEMM work shows here and traversal work should show no change. *)

open Harness
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Models = Hector_models.Model_defs
module Reference = Hector_models.Reference

let name = "train_rgcn2"
let scale = 1.0
let nodes = 1000
let edges = 6000
let sim_iters = 9
let lr = 0.01

let options = Compiler.options_of_flags ~training:true ~fuse_ops:true ~compact:false ~fusion:false ()
let program () = Models.rgcn_two_layer ~in_dim:Inputs.feat_dim ~hidden_dim:64 ~out_dim:Inputs.classes ()

type t = { session : Session.t; initial : (string * Tensor.t) list; mutable losses : float list }

let create ~seed ~graph ~features ~labels ~domains obs =
  let compiled = Compiler.compile ~obs ~options (program ()) in
  let config = session_config ~seed ~domains ~obs ~features in
  let session = Session.create ~config ~graph compiled in
  let initial = List.map (fun (n, w) -> (n, Tensor.copy w)) (Session.weights session) in
  let t = { session; initial; losses = [] } in
  ( t,
    {
      step = (fun _ -> t.losses <- Session.train_step session ~lr ~labels () :: t.losses);
      gpu = (fun () -> gpu_of_engine (Session.engine session));
    } )

(* Forward output against the naive reference at the given weights. *)
let check_reference ~graph ~features what t weights =
  Session.set_weights t.session weights;
  let out = List.assoc "out" (Session.forward t.session) in
  let w n = List.assoc n weights in
  let expected =
    Reference.rgcn_two_layer ~graph ~h:features ~norm:(Session.rgcn_norm graph) ~w1:(w "W1")
      ~w01:(w "W01") ~w2:(w "W2") ~w02:(w "W02")
  in
  check_close (name ^ ": " ^ what ^ " vs Reference.rgcn_two_layer") ~tol:1e-6 expected out

let checks ~graph ~features t =
  List.iter (finite_loss name) t.losses;
  let final = List.map (fun (n, w) -> (n, Tensor.copy w)) (Session.weights t.session) in
  check_reference ~graph ~features "final weights" t final;
  check_reference ~graph ~features "initial weights" t t.initial

let inputs ~seed =
  let graph = Inputs.graph ~name ~seed ~nodes ~edges ~scale in
  (graph, Inputs.features ~seed graph, Inputs.labels ~seed graph)

let fingerprints_of (graph, features, labels) =
  [ ("graph", Fp.graph graph); ("features", Fp.tensor features); ("labels", Fp.of_ints labels) ]

let fingerprints ~seed = fingerprints_of (inputs ~seed)

let run ctx =
  let ((graph, features, labels) as inp) = inputs ~seed:ctx.seed in
  let layers _ =
    [
      metric "core.plan_steps" (float_of_int (plan_steps (Compiler.compile ~options (program ()))));
      metric "tensor.gemm_gflops" (graph_gemm_gflops graph ~out:64);
      metric "graph.compaction_ratio" (compaction_ratio graph);
    ]
  in
  run_iterations ctx ~workload:name ~sim_iters
    ~create:(create ~seed:ctx.seed ~graph ~features ~labels ~domains:ctx.domains)
    ~engines:(fun t -> [ Session.engine t.session ])
    ~checks:(checks ~graph ~features) ~layers ~fingerprints:(fingerprints_of inp)
