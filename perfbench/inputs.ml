(* Seeded input generation.  Every input of a workload — graph, features,
   labels, request and delta traces — derives from the one [--seed]
   argument through [sub], so the same seed always yields the same inputs
   and the program under test only ever sees generated data. *)

module Tensor = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng

let feat_dim = 64
let classes = 16

(* Independent, deterministic sub-seed for input stream [k]. *)
let sub seed k = Hashtbl.hash (seed, k)

(* Node and edge counts are the workload's targets times one common scale
   factor, recorded with every result. *)
let graph ~name ~seed ~nodes ~edges ~scale =
  Hector_graph.Generator.generate
    {
      Hector_graph.Generator.name;
      num_ntypes = 4;
      num_etypes = 12;
      num_nodes = int_of_float (Float.round (float_of_int nodes *. scale));
      num_edges = int_of_float (Float.round (float_of_int edges *. scale));
      compaction_target = 0.4;
      scale = 1.0;
      seed = sub seed 1;
    }

let features ~seed (g : Hector_graph.Hetgraph.t) =
  Tensor.randn (Rng.create (sub seed 2)) [| g.Hector_graph.Hetgraph.num_nodes; feat_dim |]

(* Seed of the generated model weights. *)
let weights seed = sub seed 4

let labels ~seed (g : Hector_graph.Hetgraph.t) =
  let rng = Rng.create (sub seed 3) in
  Array.init g.Hector_graph.Hetgraph.num_nodes (fun _ -> Rng.int rng classes)
