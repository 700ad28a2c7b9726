(* Unit and property tests for the dense tensor substrate. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_shape () =
  let t = T.create [| 2; 3 |] in
  check_int "rows" 2 (T.rows t);
  check_int "cols" 3 (T.cols t);
  check_int "numel" 6 (T.numel t);
  check_int "ndim" 2 (T.ndim t);
  check_float "zero" 0.0 (T.get t [| 1; 2 |])

let test_full_ones () =
  let t = T.full [| 4 |] 2.5 in
  check_float "full" 2.5 (T.get1 t 3);
  let o = T.ones [| 2; 2 |] in
  check_float "ones sum" 4.0 (T.sum o)

let test_init_order () =
  (* init must fill in row-major order *)
  let t = T.init [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 10) + idx.(1))) in
  check_float "0,0" 0.0 (T.get2 t 0 0);
  check_float "0,2" 2.0 (T.get2 t 0 2);
  check_float "1,0" 10.0 (T.get2 t 1 0);
  check_float "1,2" 12.0 (T.get2 t 1 2)

let test_of_array_mismatch () =
  Alcotest.check_raises "mismatch" (T.Shape_error "of_array: 3 elements vs shape product 4")
    (fun () -> ignore (T.of_array [| 2; 2 |] [| 1.; 2.; 3. |]))

let test_get_set_roundtrip () =
  let t = T.create [| 3; 4 |] in
  T.set t [| 2; 1 |] 7.0;
  check_float "get" 7.0 (T.get t [| 2; 1 |]);
  check_float "get2" 7.0 (T.get2 t 2 1);
  T.set2 t 0 3 (-1.0);
  check_float "set2/get" (-1.0) (T.get t [| 0; 3 |])

let test_bounds_checked () =
  let t = T.create [| 2; 2 |] in
  check_bool "raises"
    true
    (try
       ignore (T.get t [| 2; 0 |]);
       false
     with T.Shape_error _ -> true)

let test_reshape () =
  let t = T.init [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 3) + idx.(1))) in
  let r = T.reshape t [| 3; 2 |] in
  check_float "preserved order" 3.0 (T.get2 r 1 1);
  check_bool "bad reshape"
    true
    (try
       ignore (T.reshape t [| 4 |]);
       false
     with T.Shape_error _ -> true)

let test_slice0_view () =
  (* slice0 is a zero-copy view: parent mutation shows through *)
  let w = T.init [| 2; 2; 2 |] (fun idx -> float_of_int ((idx.(0) * 4) + (idx.(1) * 2) + idx.(2))) in
  let s1 = T.slice0 w 1 in
  check_float "slice read" 6.0 (T.get2 s1 1 0);
  T.set2 s1 1 0 99.0;
  check_float "parent sees write" 99.0 (T.get w [| 1; 1; 0 |])

let test_row_view () =
  let m = T.of_2d [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let r = T.row m 1 in
  check_float "row" 4.0 (T.get1 r 1);
  T.set1 r 0 (-3.0);
  check_float "parent" (-3.0) (T.get2 m 1 0)

let test_sub_rows () =
  let m = T.init [| 5; 2 |] (fun idx -> float_of_int idx.(0)) in
  let s = T.sub_rows m 2 2 in
  check_int "rows" 2 (T.rows s);
  check_float "first" 2.0 (T.get2 s 0 0);
  check_float "second" 3.0 (T.get2 s 1 1)

let test_reshape_of_view_copies () =
  let w = T.init [| 2; 4 |] (fun idx -> float_of_int ((idx.(0) * 4) + idx.(1))) in
  let v = T.sub_rows w 1 1 in
  let r = T.reshape v [| 2; 2 |] in
  T.set2 r 0 0 42.0;
  check_float "parent unchanged" 4.0 (T.get2 w 1 0)

let test_matmul_known () =
  let a = T.of_2d [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = T.of_2d [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = T.matmul a b in
  check_float "c00" 19.0 (T.get2 c 0 0);
  check_float "c01" 22.0 (T.get2 c 0 1);
  check_float "c10" 43.0 (T.get2 c 1 0);
  check_float "c11" 50.0 (T.get2 c 1 1)

let naive_matmul a b =
  let m = T.rows a and k = T.cols a and n = T.cols b in
  T.init [| m; n |] (fun idx ->
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (T.get2 a idx.(0) p *. T.get2 b p idx.(1))
      done;
      !acc)

let test_matmul_transposes () =
  let rng = Rng.create 11 in
  let a = T.randn rng [| 4; 3 |] and b = T.randn rng [| 3; 5 |] in
  let at = T.init [| 3; 4 |] (fun idx -> T.get2 a idx.(1) idx.(0)) in
  let bt = T.init [| 5; 3 |] (fun idx -> T.get2 b idx.(1) idx.(0)) in
  let expected = naive_matmul a b in
  check_bool "trans_a" true (T.approx_equal ~tol:1e-9 expected (T.matmul ~trans_a:true at b));
  check_bool "trans_b" true (T.approx_equal ~tol:1e-9 expected (T.matmul ~trans_b:true a bt));
  check_bool "both" true
    (T.approx_equal ~tol:1e-9 expected (T.matmul ~trans_a:true ~trans_b:true at bt))

let test_matmul_into_beta () =
  let a = T.of_2d [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let b = T.of_2d [| [| 2.; 0. |]; [| 0.; 2. |] |] in
  let c = T.full [| 2; 2 |] 1.0 in
  T.matmul_into ~beta:1.0 a b c;
  check_float "accumulated" 3.0 (T.get2 c 0 0);
  check_float "off-diagonal" 1.0 (T.get2 c 0 1)

let test_matmul_shape_error () =
  let a = T.create [| 2; 3 |] and b = T.create [| 4; 2 |] in
  check_bool "raises" true
    (try
       ignore (T.matmul a b);
       false
     with T.Shape_error _ -> true)

let test_dot_outer () =
  let x = T.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let y = T.of_array [| 3 |] [| 4.; 5.; 6. |] in
  check_float "dot" 32.0 (T.dot x y);
  let o = T.outer x y in
  check_float "outer 2,1" 15.0 (T.get2 o 2 1)

let test_elementwise () =
  let a = T.of_array [| 3 |] [| 1.; -2.; 3. |] in
  let b = T.of_array [| 3 |] [| 2.; 2.; 2. |] in
  check_float "add" 0.0 (T.get1 (T.add a b) 1);
  check_float "sub" (-4.0) (T.get1 (T.sub a b) 1);
  check_float "mul" 6.0 (T.get1 (T.mul a b) 2);
  check_float "div" 1.5 (T.get1 (T.div a b) 2);
  check_float "scale" (-6.0) (T.get1 (T.scale 3.0 a) 1)

let test_inplace () =
  let a = T.of_array [| 2 |] [| 1.; 2. |] in
  let b = T.of_array [| 2 |] [| 10.; 20. |] in
  T.add_inplace a b;
  check_float "add_inplace" 22.0 (T.get1 a 1);
  T.axpy 0.5 b a;
  check_float "axpy" 32.0 (T.get1 a 1);
  T.fill a 0.0;
  check_float "fill" 0.0 (T.get1 a 0)

let test_activations () =
  let a = T.of_array [| 2 |] [| -1.0; 2.0 |] in
  check_float "relu-" 0.0 (T.get1 (T.relu a) 0);
  check_float "relu+" 2.0 (T.get1 (T.relu a) 1);
  check_float "leaky" (-0.01) (T.get1 (T.leaky_relu a) 0);
  check_float "leaky slope" (-0.2) (T.get1 (T.leaky_relu ~slope:0.2 a) 0);
  check_float "exp" (Stdlib.exp 2.0) (T.get1 (T.exp a) 1)

let test_reductions () =
  let m = T.of_2d [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_float "sum" 10.0 (T.sum m);
  check_float "mean" 2.5 (T.mean m);
  check_float "max" 4.0 (T.max_value m);
  let sr = T.sum_rows m in
  check_float "sum_rows col0" 4.0 (T.get1 sr 0);
  check_float "sum_rows col1" 6.0 (T.get1 sr 1);
  let sc = T.sum_cols m in
  check_float "sum_cols row0" 3.0 (T.get1 sc 0);
  check_float "sum_cols row1" 7.0 (T.get1 sc 1)

let test_argmax_rows () =
  let m = T.of_2d [| [| 1.; 5.; 2. |]; [| 9.; 0.; 3. |] |] in
  let idx = T.argmax_rows m in
  check_int "row0" 1 idx.(0);
  check_int "row1" 0 idx.(1)

let test_gather_scatter () =
  let m = T.of_2d [| [| 0.; 0. |]; [| 1.; 1. |]; [| 2.; 2. |] |] in
  let g = T.gather_rows m [| 2; 0; 2 |] in
  check_float "gathered" 2.0 (T.get2 g 0 0);
  check_float "gathered dup" 2.0 (T.get2 g 2 1);
  let out = T.zeros [| 3; 2 |] in
  T.scatter_rows_set ~into:out [| 1; 0; 2 |] g;
  check_float "scatter set" 2.0 (T.get2 out 1 0);
  let acc = T.zeros [| 3; 2 |] in
  T.scatter_rows_add ~into:acc [| 0; 0; 1 |] g;
  (* rows 0 and 1 of g both land on row 0 *)
  check_float "scatter add" 2.0 (T.get2 acc 0 0);
  check_float "scatter add row1" 2.0 (T.get2 acc 1 1)

let test_concat_split () =
  let a = T.of_2d [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = T.of_2d [| [| 5. |]; [| 6. |] |] in
  let c = T.concat_cols a b in
  check_int "cols" 3 (T.cols c);
  check_float "left" 2.0 (T.get2 c 0 1);
  check_float "right" 6.0 (T.get2 c 1 2);
  let a', b' = T.split_cols c 2 in
  check_bool "left roundtrip" true (T.approx_equal ~tol:0.0 a a');
  check_bool "right roundtrip" true (T.approx_equal ~tol:0.0 b b')

let test_approx_equal () =
  let a = T.of_array [| 2 |] [| 1.0; 1000.0 |] in
  let b = T.of_array [| 2 |] [| 1.00005; 1000.05 |] in
  check_bool "within relative tol" true (T.approx_equal ~tol:1e-4 a b);
  let c = T.of_array [| 2 |] [| 1.1; 1000.0 |] in
  check_bool "outside tol" false (T.approx_equal ~tol:1e-4 a c);
  let d = T.of_array [| 1 |] [| 1.0 |] in
  check_bool "shape mismatch" false (T.approx_equal a d)

let test_glorot_bounds () =
  let rng = Rng.create 3 in
  let w = T.glorot rng [| 10; 20; 30 |] in
  let limit = sqrt (6.0 /. 50.0) in
  check_bool "bounded" true (T.max_value (T.map Float.abs w) <= limit)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.uniform a) (Rng.uniform b)
  done;
  let c = Rng.split a and d = Rng.split b in
  check_float "split same" (Rng.uniform c) (Rng.uniform d)

let test_rng_ranges () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    check_bool "int range" true (x >= 0 && x < 10);
    let f = Rng.uniform rng in
    check_bool "uniform range" true (f >= 0.0 && f < 1.0);
    let z = Rng.zipf rng ~n:7 ~s:1.0 in
    check_bool "zipf range" true (z >= 0 && z < 7)
  done

let test_rng_zipf_skew () =
  (* Zipf must prefer small indices. *)
  let rng = Rng.create 9 in
  let counts = Array.make 5 0 in
  for _ = 1 to 5000 do
    let z = Rng.zipf rng ~n:5 ~s:1.2 in
    counts.(z) <- counts.(z) + 1
  done;
  check_bool "head heavier than tail" true (counts.(0) > counts.(4))

let test_rng_gaussian_moments () =
  let rng = Rng.create 17 in
  let n = 20000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  check_bool "mean near 0" true (Float.abs mean < 0.05);
  check_bool "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_shuffle_permutation () =
  let rng = Rng.create 23 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "is permutation" true (sorted = Array.init 50 (fun i -> i))

(* --- property tests --- *)

let tensor_gen =
  QCheck.Gen.(
    let* r = int_range 1 6 in
    let* c = int_range 1 6 in
    let* data = array_size (return (r * c)) (float_range (-10.0) 10.0) in
    return (T.of_array [| r; c |] data))

let arb_matrix = QCheck.make tensor_gen ~print:(Format.asprintf "%a" T.pp)

let prop_distributive =
  QCheck.Test.make ~name:"matmul distributes over add" ~count:100
    (QCheck.pair arb_matrix arb_matrix)
    (fun (a, b) ->
      QCheck.assume (T.shape a = T.shape b);
      let k = T.cols a in
      let c = T.init [| k; 3 |] (fun idx -> float_of_int ((idx.(0) * 3) + idx.(1)) /. 7.0) in
      T.approx_equal ~tol:1e-6 (T.matmul (T.add a b) c) (T.add (T.matmul a c) (T.matmul b c)))

let prop_transpose =
  QCheck.Test.make ~name:"(A*B)^T = B^T * A^T (via flags)" ~count:100
    (QCheck.pair arb_matrix arb_matrix)
    (fun (a, b) ->
      QCheck.assume (T.cols a = T.rows b);
      let ab = T.matmul a b in
      let abt = T.init [| T.cols ab; T.rows ab |] (fun idx -> T.get2 ab idx.(1) idx.(0)) in
      (* B^T * A^T computed without materializing transposes *)
      let alt = T.matmul ~trans_a:true ~trans_b:true b a in
      T.approx_equal ~tol:1e-6 abt alt)

let prop_gather_scatter_inverse =
  QCheck.Test.make ~name:"scatter_set inverts gather on a permutation" ~count:100 arb_matrix
    (fun m ->
      let r = T.rows m in
      let rng = Rng.create (T.numel m) in
      let perm = Array.init r (fun i -> i) in
      Rng.shuffle rng perm;
      let g = T.gather_rows m perm in
      let out = T.zeros [| r; T.cols m |] in
      T.scatter_rows_set ~into:out perm g;
      T.approx_equal ~tol:0.0 m out)

let prop_sum_linear =
  QCheck.Test.make ~name:"sum is linear under scale" ~count:100 arb_matrix (fun m ->
      Float.abs (T.sum (T.scale 3.0 m) -. (3.0 *. T.sum m)) < 1e-6 *. (1.0 +. Float.abs (T.sum m)))

let prop_concat_split =
  QCheck.Test.make ~name:"split_cols inverts concat_cols" ~count:100
    (QCheck.pair arb_matrix arb_matrix)
    (fun (a, b) ->
      QCheck.assume (T.rows a = T.rows b);
      let a', b' = T.split_cols (T.concat_cols a b) (T.cols a) in
      T.approx_equal ~tol:0.0 a a' && T.approx_equal ~tol:0.0 b b')

(* --- the one GEMM kernel: bitwise oracle, NaN propagation, allocation --- *)

module Dp = Hector_tensor.Domain_pool

let with_domains d f =
  Dp.set_num_domains (Some d);
  Fun.protect ~finally:(fun () -> Dp.set_num_domains None) f

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let bits_equal a b =
  T.shape a = T.shape b && Array.for_all2 same_bits (T.to_flat_array a) (T.to_flat_array b)

(* ReLU-style values: exact zeros of both signs are common. *)
let zero_heavy rng =
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> 0.0
  | 4 -> -0.0
  | _ -> (Rng.uniform rng *. 4.0) -. 2.0

(* A [rows × cols] operand that is a view at a nonzero offset — a
   [sub_rows] window of a taller matrix or a [slice0] of a stack — returned
   as its parent and the function taking a parent to the view, so the
   output can be checked outside the view too. *)
let operand rng rows cols =
  let fill shape = T.init shape (fun _ -> zero_heavy rng) in
  if Rng.int rng 2 = 0 then
    let pad = 1 + Rng.int rng 3 in
    (fill [| rows + pad + 1; cols |], fun p -> T.sub_rows p pad rows)
  else
    let s = 1 + Rng.int rng 2 in
    (fill [| 3; rows; cols |], fun p -> T.slice0 p s)

let view_of rng rows cols =
  let parent, view = operand rng rows cols in
  view parent

(* The naive oracle: each element sums A(i,k)·B(k,j) for k = 0, 1, ... from
   +0.0 (beta = 0) or beta·C; a scattered product row sums from +0.0 and is
   then added to its destination row, rows in ascending order. *)
let sum_k kk init a b =
  let acc = ref init in
  for k = 0 to kk - 1 do
    acc := !acc +. (a k *. b k)
  done;
  !acc

let oracle_into ~m ~kk ~n ~beta ~a ~b c =
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let init = if beta = 0.0 then 0.0 else beta *. T.get2 c i j in
      T.set2 c i j (sum_k kk init (a i) (fun k -> b k j))
    done
  done

let oracle_scatter ~m ~kk ~n ~a ~b ~idx c =
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let d = idx.(i) in
      T.set2 c d j (T.get2 c d j +. sum_k kk 0.0 (a i) (fun k -> b k j))
    done
  done

(* (m, kk, n) of C[m×n] = A[m×kk]·B[kk×n].  Small shapes reach every
   n mod 4, odd kk, m = 0 and empty indices; tall ones split rows across
   domains; long ones run the reduction in several cache chunks. *)
let gemm_shape rng =
  match Rng.int rng 4 with
  | 0 | 1 -> (Rng.int rng 7, Rng.int rng 8, Rng.int rng 10)
  | 2 -> (700 + Rng.int rng 300, 7 + Rng.int rng 3, 7 + Rng.int rng 3)
  | _ -> (1 + Rng.int rng 3, 2100 + Rng.int rng 600, 7 + Rng.int rng 4)

let prop_gemm_oracle =
  QCheck.Test.make ~name:"every GEMM entry point == k-ascending oracle, bitwise, 1/2/4 domains"
    ~count:30
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let m, kk, n = gemm_shape rng in
      let get t i j = T.get2 t i j in
      let b_of ~trans_b bt = if trans_b then fun k j -> get bt j k else get bt in
      let bt_of ~trans_b = if trans_b then view_of rng n kk else view_of rng kk n in
      (* one case: its name, the oracle's output (the whole parent of the
         C view) and a run of the kernel on a fresh copy *)
      let case name ~crows ~oracle ~run =
        let cparent, cview = operand rng crows n in
        let expected = T.copy cparent in
        oracle (cview expected);
        ( name,
          expected,
          fun () ->
            let got = T.copy cparent in
            run (cview got);
            got )
      in
      let bools = [ false; true ] and betas = [ 0.0; 1.0; 0.5 ] in
      let matmul =
        List.concat_map
          (fun trans_a ->
            List.concat_map
              (fun trans_b ->
                List.map
                  (fun beta ->
                    let at = if trans_a then view_of rng kk m else view_of rng m kk in
                    let bt = bt_of ~trans_b in
                    let a i k = if trans_a then get at k i else get at i k in
                    case
                      (Printf.sprintf "matmul_into trans_a=%b trans_b=%b beta=%g" trans_a trans_b beta)
                      ~crows:m
                      ~oracle:(oracle_into ~m ~kk ~n ~beta ~a ~b:(b_of ~trans_b bt))
                      ~run:(T.matmul_into ~trans_a ~trans_b ~beta at bt))
                  betas)
              bools)
          bools
      in
      let arows = 1 + (m / 2) in
      let gather_idx = Array.init m (fun _ -> Rng.int rng arows) in
      let gather =
        List.concat_map
          (fun trans_b ->
            List.map
              (fun beta ->
                let at = view_of rng arows kk and bt = bt_of ~trans_b in
                case
                  (Printf.sprintf "matmul_gather_into trans_b=%b beta=%g" trans_b beta)
                  ~crows:m
                  ~oracle:
                    (oracle_into ~m ~kk ~n ~beta
                       ~a:(fun i k -> get at gather_idx.(i) k)
                       ~b:(b_of ~trans_b bt))
                  ~run:(T.matmul_gather_into ~trans_b ~beta at ~idx:gather_idx bt))
              betas)
          bools
      in
      (* a third as many destinations as product rows: duplicates abound *)
      let crows = 1 + (m / 3) in
      let scatter_idx = Array.init m (fun _ -> Rng.int rng crows) in
      let scatter =
        List.map
          (fun trans_b ->
            let at = view_of rng m kk and bt = bt_of ~trans_b in
            case
              (Printf.sprintf "matmul_scatter_add_into trans_b=%b" trans_b)
              ~crows
              ~oracle:(oracle_scatter ~m ~kk ~n ~a:(get at) ~b:(b_of ~trans_b bt) ~idx:scatter_idx)
              ~run:(fun c -> T.matmul_scatter_add_into ~trans_b at bt ~idx:scatter_idx c))
          bools
      in
      let xrows = 1 + (kk / 2) in
      let k_idx = Array.init kk (fun _ -> Rng.int rng xrows) in
      let gather_t =
        List.map
          (fun beta ->
            let at = view_of rng xrows m and bt = view_of rng kk n in
            case
              (Printf.sprintf "matmul_gather_t_into beta=%g" beta)
              ~crows:m
              ~oracle:(oracle_into ~m ~kk ~n ~beta ~a:(fun i k -> get at k_idx.(k) i) ~b:(get bt))
              ~run:(T.matmul_gather_t_into ~beta at ~idx:k_idx bt))
          betas
      in
      let cases = matmul @ gather @ scatter @ gather_t in
      List.for_all
        (fun d ->
          with_domains d (fun () ->
              List.for_all
                (fun (name, expected, run) ->
                  bits_equal expected (run ())
                  || QCheck.Test.fail_reportf "%s (m=%d kk=%d n=%d) differs at %d domains" name m
                       kk n d)
                cases))
        [ 1; 2; 4 ])

(* [0, 1]·[x, 2] through every entry point, in five output columns (one
   four-wide tile and one leftover column): a zero factor must not hide a
   NaN or Inf in the other operand. *)
let gemm_entry_points x =
  let row = T.of_2d [| [| 0.; 1. |] |] and col = T.of_2d [| Array.make 5 x; Array.make 5 2. |] in
  let into f =
    let c = T.create [| 1; 5 |] in
    f c;
    T.to_flat_array c
  in
  [
    ("matmul_into", into (T.matmul_into row col));
    ( "matmul_into trans_a trans_b",
      into
        (T.matmul_into ~trans_a:true ~trans_b:true
           (T.of_2d [| [| 0. |]; [| 1. |] |])
           (T.of_2d (Array.make 5 [| x; 2. |]))) );
    ( "matmul_gather_into",
      into (T.matmul_gather_into (T.of_2d [| [| 5.; 5. |]; [| 0.; 1. |] |]) ~idx:[| 1 |] col) );
    ("matmul_scatter_add_into", into (fun c -> T.matmul_scatter_add_into row col ~idx:[| 0 |] c));
    ( "matmul_gather_t_into",
      into (T.matmul_gather_t_into (T.of_2d [| [| 1. |]; [| 0. |] |]) ~idx:[| 1; 0 |] col) );
  ]

let test_gemm_nan_propagates () =
  List.iter
    (fun x ->
      List.iter
        (fun (name, v) ->
          check_bool (Printf.sprintf "%s: [0,1]·[%g,2] is NaN" name x) true
            (Array.for_all Float.is_nan v))
        (gemm_entry_points x))
    [ Float.nan; Float.infinity ]

(* The accumulators are unboxed and nothing is allocated per row: every
   entry point allocates the same few words at 64 rows as at 6000. *)
let test_gemm_allocation () =
  let words_at m =
    let rng = Rng.create 5 in
    let x = T.randn rng [| 64; 64 |] and xm = T.randn rng [| m; 64 |] in
    let w = T.randn rng [| 64; 64 |] and idx = Array.init m (fun i -> i mod 64) in
    let cm = T.create [| m; 64 |] and c64 = T.create [| 64; 64 |] in
    List.map
      (fun (name, f) ->
        f ();
        let before = Gc.minor_words () in
        f ();
        (name, Gc.minor_words () -. before))
      [
        ("matmul_into", fun () -> T.matmul_into xm w cm);
        ("matmul_into trans_a", fun () -> T.matmul_into ~trans_a:true ~beta:1.0 xm cm c64);
        ("matmul_into trans_b", fun () -> T.matmul_into ~trans_b:true ~beta:0.5 xm w cm);
        ("matmul_gather_into", fun () -> T.matmul_gather_into x ~idx w cm);
        ("matmul_scatter_add_into", fun () -> T.matmul_scatter_add_into xm w ~idx c64);
        ("matmul_gather_t_into", fun () -> T.matmul_gather_t_into ~beta:1.0 x ~idx cm c64);
      ]
  in
  with_domains 1 (fun () ->
      List.iter2
        (fun (name, small) (_, large) ->
          check_bool (Printf.sprintf "%s: %.0f words at m=64, %.0f at m=6000" name small large) true
            (small = large && large <= 256.0))
        (words_at 64) (words_at 6000))

let suite =
  [
    Alcotest.test_case "create/shape" `Quick test_create_shape;
    Alcotest.test_case "full/ones" `Quick test_full_ones;
    Alcotest.test_case "init row-major order" `Quick test_init_order;
    Alcotest.test_case "of_array mismatch" `Quick test_of_array_mismatch;
    Alcotest.test_case "get/set roundtrip" `Quick test_get_set_roundtrip;
    Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
    Alcotest.test_case "reshape" `Quick test_reshape;
    Alcotest.test_case "slice0 is a view" `Quick test_slice0_view;
    Alcotest.test_case "row is a view" `Quick test_row_view;
    Alcotest.test_case "sub_rows" `Quick test_sub_rows;
    Alcotest.test_case "reshape of view copies" `Quick test_reshape_of_view_copies;
    Alcotest.test_case "matmul known values" `Quick test_matmul_known;
    Alcotest.test_case "matmul transposes" `Quick test_matmul_transposes;
    Alcotest.test_case "matmul_into beta" `Quick test_matmul_into_beta;
    Alcotest.test_case "matmul shape error" `Quick test_matmul_shape_error;
    Alcotest.test_case "dot/outer" `Quick test_dot_outer;
    Alcotest.test_case "elementwise ops" `Quick test_elementwise;
    Alcotest.test_case "in-place ops" `Quick test_inplace;
    Alcotest.test_case "activations" `Quick test_activations;
    Alcotest.test_case "reductions" `Quick test_reductions;
    Alcotest.test_case "argmax_rows" `Quick test_argmax_rows;
    Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
    Alcotest.test_case "concat/split" `Quick test_concat_split;
    Alcotest.test_case "approx_equal" `Quick test_approx_equal;
    Alcotest.test_case "glorot bounds" `Quick test_glorot_bounds;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng zipf skew" `Quick test_rng_zipf_skew;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "GEMM entry points propagate NaN/Inf" `Quick test_gemm_nan_propagates;
    Alcotest.test_case "GEMM allocation independent of rows" `Quick test_gemm_allocation;
    QCheck_alcotest.to_alcotest prop_distributive;
    QCheck_alcotest.to_alcotest prop_transpose;
    QCheck_alcotest.to_alcotest prop_gather_scatter_inverse;
    QCheck_alcotest.to_alcotest prop_sum_linear;
    QCheck_alcotest.to_alcotest prop_concat_split;
    QCheck_alcotest.to_alcotest prop_gemm_oracle;
  ]
