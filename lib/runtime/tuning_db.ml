module Compiler = Hector_core.Compiler
module Layout = Hector_core.Layout
module Gs = Hector_core.Gemm_spec
module Ts = Hector_core.Traversal_spec
module G = Hector_graph.Hetgraph

(* --- graph signatures ------------------------------------------------- *)

type signature = {
  nodes_per_ntype : int array;
  edges_per_etype : int array;
  mean_degree : float;
}

let signature (g : G.t) =
  let nodes = Array.init (G.num_ntypes g) (fun nt -> snd (G.nodes_of_type g nt)) in
  let edges = Array.init (G.num_etypes g) (fun et -> snd (G.edges_of_type g et)) in
  (* sorted descending: invariant under node/edge *type* relabeling as well
     as node-id permutations (which the per-type counts never see) *)
  Array.sort (fun a b -> compare b a) nodes;
  Array.sort (fun a b -> compare b a) edges;
  {
    nodes_per_ntype = nodes;
    edges_per_etype = edges;
    mean_degree = float_of_int g.G.num_edges /. float_of_int (max 1 g.G.num_nodes);
  }

(* Bucketization: half-log2 steps for counts, quarter-log2 for the mean
   degree — graphs within ~40% of each other share a bucket, so a DB entry
   generalizes to nearby sizes without a measurement. *)
let bucket_count n = int_of_float (Float.round (2.0 *. log (float_of_int (1 + n)) /. log 2.0))
let bucket_degree d = int_of_float (Float.round (4.0 *. log (1.0 +. Float.max 0.0 d) /. log 2.0))

let bucketize s =
  ( Array.map bucket_count s.nodes_per_ntype,
    Array.map bucket_count s.edges_per_etype,
    bucket_degree s.mean_degree )

let log_distance a b =
  let d = ref 0.0 in
  let term x y =
    let r = log ((1.0 +. x) /. (1.0 +. y)) in
    d := !d +. (r *. r)
  in
  Array.iteri (fun i x -> term (float_of_int x) (float_of_int b.nodes_per_ntype.(i))) a.nodes_per_ntype;
  Array.iteri (fun i x -> term (float_of_int x) (float_of_int b.edges_per_etype.(i))) a.edges_per_etype;
  term a.mean_degree b.mean_degree;
  !d

(* --- entries ----------------------------------------------------------- *)

type entry = {
  model : string;
  model_name : string;
  device : string;
  training : bool;
  signature : signature;
  options : Compiler.options;
  estimated_ms : float;
  measured_ms : float;
}

type t = { mutable entries : entry list }

let create () = { entries = [] }
let size t = List.length t.entries
let entries t = t.entries

let same_key a ~model ~device ~training ~buckets =
  String.equal a.model model
  && String.equal a.device device
  && a.training = training
  && bucketize a.signature = buckets

let record t ~model ~model_name ~device ~training ~signature ~options ~estimated_ms
    ~measured_ms =
  let buckets = bucketize signature in
  let e =
    { model; model_name; device; training; signature; options; estimated_ms; measured_ms }
  in
  t.entries <- e :: List.filter (fun a -> not (same_key a ~model ~device ~training ~buckets)) t.entries

type hit = Exact of entry | Nearest of entry

let lookup t ~model ~device ~training signature =
  let peers =
    List.filter
      (fun e ->
        String.equal e.model model && String.equal e.device device && e.training = training)
      t.entries
  in
  let buckets = bucketize signature in
  match List.find_opt (fun e -> bucketize e.signature = buckets) peers with
  | Some e -> Some (Exact e)
  | None -> (
      (* nearest signature bucket: same type-structure shape, smallest
         log-space distance *)
      let comparable =
        List.filter
          (fun e ->
            Array.length e.signature.nodes_per_ntype = Array.length signature.nodes_per_ntype
            && Array.length e.signature.edges_per_etype
               = Array.length signature.edges_per_etype)
          peers
      in
      match comparable with
      | [] -> None
      | first :: rest ->
          let best =
            List.fold_left
              (fun acc e ->
                if log_distance signature e.signature < log_distance signature acc.signature
                then e
                else acc)
              first rest
          in
          Some (Nearest best))

(* --- JSON -------------------------------------------------------------- *)

open Hector_obs.Json

exception Malformed = Hector_obs.Json.Malformed

let options_json (o : Compiler.options) =
  Obj
    [
      ("compact", Bool (o.Compiler.layout.Layout.materialization = Layout.Compact));
      ("csr", Bool (o.Compiler.layout.Layout.adjacency = Layout.Csr));
      ("presorted", Bool o.Compiler.layout.Layout.nodes_presorted);
      ("fusion", Bool o.Compiler.linear_fusion);
      ("training", Bool o.Compiler.training);
      ("tile", int o.Compiler.gemm_schedule.Gs.tile_width);
      ("coarsen", int o.Compiler.gemm_schedule.Gs.coarsen);
      ("launch_bounds", Bool o.Compiler.gemm_schedule.Gs.launch_bounds);
      ("warp_accumulate", Bool o.Compiler.traversal_schedule.Ts.warp_accumulate);
      ("node_gather", Bool o.Compiler.prefer_node_gather);
      ("fuse_ops", match o.Compiler.fuse_ops with None -> Null | Some b -> Bool b);
    ]

let entry_json e =
  let ints a = Arr (Array.to_list (Array.map int a)) in
  Obj
    [
      ("model", Str e.model);
      ("model_name", Str e.model_name);
      ("device", Str e.device);
      ("training", Bool e.training);
      ("nodes", ints e.signature.nodes_per_ntype);
      ("edges", ints e.signature.edges_per_etype);
      ("mean_degree", Num e.signature.mean_degree);
      ("options", options_json e.options);
      ("options_id", Str (Compiler.options_id e.options));
      ("estimated_ms", Num e.estimated_ms);
      ("measured_ms", Num e.measured_ms);
    ]

let to_json t =
  to_string (Obj [ ("version", int 1); ("entries", Arr (List.rev_map entry_json t.entries)) ])
  ^ "\n"

let save t path = write_atomic path (to_json t)

(* --- decoding ---------------------------------------------------------- *)

let options_of_json j =
  let tile = int_of_float (num_field j "tile" 16.0) in
  let coarsen = int_of_float (num_field j "coarsen" 1.0) in
  let schedule = { Gs.tile_width = tile; coarsen; launch_bounds = bool_field j "launch_bounds" false } in
  Gs.validate_schedule schedule;
  {
    Compiler.layout =
      {
        Layout.materialization =
          (if bool_field j "compact" false then Layout.Compact else Layout.Vanilla);
        adjacency = (if bool_field j "csr" false then Layout.Csr else Layout.Coo);
        nodes_presorted = bool_field j "presorted" true;
      };
    linear_fusion = bool_field j "fusion" false;
    training = bool_field j "training" false;
    gemm_schedule = schedule;
    traversal_schedule = { Ts.warp_accumulate = bool_field j "warp_accumulate" true };
    prefer_node_gather = bool_field j "node_gather" false;
    fuse_ops =
      (match member j "fuse_ops" with
      | Some (Bool b) -> Some b
      | Some Null | None -> None
      | Some _ -> raise Malformed);
  }

let entry_of_json j =
  let options =
    match member j "options" with Some o -> options_of_json o | None -> raise Malformed
  in
  {
    model = str_field j "model";
    model_name = str_field j "model_name";
    device = str_field j "device";
    training = bool_field j "training" false;
    signature =
      {
        nodes_per_ntype = int_array_field j "nodes";
        edges_per_etype = int_array_field j "edges";
        mean_degree = num_field j "mean_degree" 0.0;
      };
    options;
    estimated_ms = num_field j "estimated_ms" 0.0;
    measured_ms = num_field j "measured_ms" 0.0;
  }

let of_json s =
  match member (parse s) "entries" with
  | Some (Arr l) -> { entries = List.rev_map entry_of_json l }
  | _ -> raise Malformed

let load path =
  if not (Sys.file_exists path) then create ()
  else
    let s = read_file path in
    (* a corrupt or foreign file (e.g. the torso a crashed in-place writer
       would have left — impossible since saves go through write_atomic,
       but clients may hand us anything) is treated as empty: tuning falls
       back to the search path rather than failing the caller *)
    match of_json s with db -> db | exception (Malformed | Invalid_argument _) -> create ()
