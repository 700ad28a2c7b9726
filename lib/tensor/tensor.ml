type t = { shape : int array; offset : int; data : float array }

exception Shape_error of string

(* Multicore backend: element/row loops below a grain run sequentially;
   larger ones are chunked across the persistent domain pool.  Grains are
   in loop iterations, sized so a chunk is worth a fork/join handshake. *)
let elt_grain = 4096

let row_grain cols = max 1 (elt_grain / max 1 cols)

let shape_error fmt = Format.kasprintf (fun s -> raise (Shape_error s)) fmt

let product a = Array.fold_left ( * ) 1 a

let check_shape shape =
  Array.iter (fun d -> if d < 0 then shape_error "negative dimension in shape") shape

(* Lightweight instrumentation: fresh-buffer allocations and bulk row copies
   (gather/scatter/concat traffic).  Atomic so parallel kernels can report;
   bumped once per operation, never inside per-element loops. *)
let alloc_counter = Atomic.make 0
let copy_counter = Atomic.make 0

let count_alloc () = Atomic.incr alloc_counter
let count_copied bytes = if bytes > 0 then ignore (Atomic.fetch_and_add copy_counter bytes)

let allocation_count () = Atomic.get alloc_counter
let copied_bytes () = Atomic.get copy_counter

let reset_counters () =
  Atomic.set alloc_counter 0;
  Atomic.set copy_counter 0

let create shape =
  check_shape shape;
  count_alloc ();
  { shape = Array.copy shape; offset = 0; data = Array.make (product shape) 0.0 }

(* Uninitialized storage: contents are unspecified until written.  Only safe
   when every element is overwritten before its first read — callers below
   use it for outputs they fully define (map, matmul with beta=0, gather). *)
let create_uninit shape =
  check_shape shape;
  count_alloc ();
  { shape = Array.copy shape; offset = 0; data = Array.create_float (product shape) }

let zeros = create

let full shape v =
  check_shape shape;
  count_alloc ();
  { shape = Array.copy shape; offset = 0; data = Array.make (product shape) v }

let ones shape = full shape 1.0

let numel t = product t.shape

let shape t = Array.copy t.shape

let ndim t = Array.length t.shape

let dim t i =
  if i < 0 || i >= Array.length t.shape then shape_error "dim %d out of rank %d" i (Array.length t.shape);
  t.shape.(i)

let rows t = if ndim t <> 2 then shape_error "rows: tensor is %d-D, not 2-D" (ndim t) else t.shape.(0)
let cols t = if ndim t <> 2 then shape_error "cols: tensor is %d-D, not 2-D" (ndim t) else t.shape.(1)

let flat_index t idx =
  let n = Array.length t.shape in
  if Array.length idx <> n then shape_error "index rank %d vs tensor rank %d" (Array.length idx) n;
  let off = ref t.offset and stride = ref 1 in
  for i = n - 1 downto 0 do
    if idx.(i) < 0 || idx.(i) >= t.shape.(i) then
      shape_error "index %d out of bound %d in dim %d" idx.(i) t.shape.(i) i;
    off := !off + (idx.(i) * !stride);
    stride := !stride * t.shape.(i)
  done;
  !off

let get t idx = t.data.(flat_index t idx)
let set t idx v = t.data.(flat_index t idx) <- v

let get1 t i = t.data.(t.offset + i)
let set1 t i v = t.data.(t.offset + i) <- v

let get2 t i j = t.data.(t.offset + (i * t.shape.(1)) + j)
let set2 t i j v = t.data.(t.offset + (i * t.shape.(1)) + j) <- v

let item t =
  if numel t <> 1 then shape_error "item: tensor has %d elements" (numel t);
  t.data.(t.offset)

let init shape f =
  check_shape shape;
  let t = create shape in
  let n = Array.length shape in
  let idx = Array.make n 0 in
  let total = numel t in
  let pos = ref 0 in
  while !pos < total do
    t.data.(t.offset + !pos) <- f idx;
    incr pos;
    (* advance multi-index *)
    let i = ref (n - 1) in
    let carry = ref true in
    while !carry && !i >= 0 do
      idx.(!i) <- idx.(!i) + 1;
      if idx.(!i) >= shape.(!i) then begin
        idx.(!i) <- 0;
        decr i
      end
      else carry := false
    done
  done;
  t

let scalar v = full [||] v

let of_array shape data =
  check_shape shape;
  if Array.length data <> product shape then
    shape_error "of_array: %d elements vs shape product %d" (Array.length data) (product shape);
  count_alloc ();
  { shape = Array.copy shape; offset = 0; data = Array.copy data }

let of_2d rows_arr =
  let r = Array.length rows_arr in
  let c = if r = 0 then 0 else Array.length rows_arr.(0) in
  Array.iter
    (fun row -> if Array.length row <> c then shape_error "of_2d: ragged rows")
    rows_arr;
  let t = create [| r; c |] in
  for i = 0 to r - 1 do
    Array.blit rows_arr.(i) 0 t.data (i * c) c
  done;
  t

let randn rng shape =
  let t = create shape in
  for i = 0 to numel t - 1 do
    t.data.(i) <- Rng.gaussian rng
  done;
  t

let glorot rng shape =
  let n = Array.length shape in
  if n < 2 then shape_error "glorot: need at least 2 dimensions";
  let fan_in = shape.(n - 2) and fan_out = shape.(n - 1) in
  let limit = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  let t = create shape in
  for i = 0 to numel t - 1 do
    t.data.(i) <- (Rng.uniform rng *. 2.0 *. limit) -. limit
  done;
  t

let is_view t = t.offset <> 0 || Array.length t.data <> numel t

let to_flat_array t =
  Array.sub t.data t.offset (numel t)

let copy t =
  count_alloc ();
  { shape = Array.copy t.shape; offset = 0; data = to_flat_array t }

(* Zero-copy prefix view used by the arena memory planner: interpret the
   first [product shape'] elements of [t]'s backing store under a new shape.
   The base must itself be a plain tensor (not a view). *)
let view t shape' =
  check_shape shape';
  if t.offset <> 0 then shape_error "view: base tensor must not be a view";
  if product shape' > Array.length t.data then
    shape_error "view: %d elements exceed backing capacity %d" (product shape')
      (Array.length t.data);
  { shape = Array.copy shape'; offset = 0; data = t.data }

let reshape t shape' =
  check_shape shape';
  if product shape' <> numel t then
    shape_error "reshape: %d elements vs %d" (numel t) (product shape');
  if is_view t then { shape = Array.copy shape'; offset = 0; data = to_flat_array t }
  else { t with shape = Array.copy shape' }

let slice0 t i =
  if ndim t < 1 then shape_error "slice0: rank-0 tensor";
  if i < 0 || i >= t.shape.(0) then shape_error "slice0: index %d out of %d" i t.shape.(0);
  let sub_shape = Array.sub t.shape 1 (ndim t - 1) in
  let sz = product sub_shape in
  { shape = sub_shape; offset = t.offset + (i * sz); data = t.data }

let row m i =
  if ndim m <> 2 then shape_error "row: not a matrix";
  if i < 0 || i >= m.shape.(0) then shape_error "row: index %d out of %d" i m.shape.(0);
  { shape = [| m.shape.(1) |]; offset = m.offset + (i * m.shape.(1)); data = m.data }

let row_array m i =
  if ndim m <> 2 then shape_error "row_array: not a matrix";
  if i < 0 || i >= m.shape.(0) then shape_error "row_array: index %d out of %d" i m.shape.(0);
  Array.sub m.data (m.offset + (i * m.shape.(1))) m.shape.(1)

let copy_row_into m i buf =
  if ndim m <> 2 then shape_error "copy_row_into: not a matrix";
  if i < 0 || i >= m.shape.(0) then shape_error "copy_row_into: index %d out of %d" i m.shape.(0);
  let c = m.shape.(1) in
  if Array.length buf <> c then shape_error "copy_row_into: buffer %d vs %d cols" (Array.length buf) c;
  Array.blit m.data (m.offset + (i * c)) buf 0 c

let sub_rows m start len =
  if ndim m <> 2 then shape_error "sub_rows: not a matrix";
  if start < 0 || len < 0 || start + len > m.shape.(0) then
    shape_error "sub_rows: [%d, %d) out of %d rows" start (start + len) m.shape.(0);
  { shape = [| len; m.shape.(1) |]; offset = m.offset + (start * m.shape.(1)); data = m.data }

let row_segment m i lo len =
  if ndim m <> 2 then shape_error "row_segment: not a matrix";
  if i < 0 || i >= m.shape.(0) then shape_error "row_segment: row %d out of %d" i m.shape.(0);
  if lo < 0 || len < 0 || lo + len > m.shape.(1) then
    shape_error "row_segment: columns [%d, %d) out of %d" lo (lo + len) m.shape.(1);
  { shape = [| 1; len |]; offset = m.offset + (i * m.shape.(1)) + lo; data = m.data }

let to_2d m =
  if ndim m <> 2 then shape_error "to_2d: not a matrix";
  Array.init m.shape.(0) (fun i ->
      Array.sub m.data (m.offset + (i * m.shape.(1))) m.shape.(1))

let same_shape a b = a.shape = b.shape

let map f t =
  let n = numel t in
  let out = create_uninit t.shape in
  Domain_pool.parallel_for ~grain:elt_grain n (fun lo hi ->
      for i = lo to hi - 1 do
        out.data.(i) <- f t.data.(t.offset + i)
      done);
  out

let map2 f a b =
  if not (same_shape a b) then shape_error "map2: shape mismatch";
  let n = numel a in
  let out = create_uninit a.shape in
  Domain_pool.parallel_for ~grain:elt_grain n (fun lo hi ->
      for i = lo to hi - 1 do
        out.data.(i) <- f a.data.(a.offset + i) b.data.(b.offset + i)
      done);
  out

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let mul a b = map2 ( *. ) a b
let div a b = map2 ( /. ) a b
let scale k t = map (fun x -> k *. x) t

let add_inplace dst src =
  if not (same_shape dst src) then shape_error "add_inplace: shape mismatch";
  Domain_pool.parallel_for ~grain:elt_grain (numel dst) (fun lo hi ->
      for i = lo to hi - 1 do
        dst.data.(dst.offset + i) <- dst.data.(dst.offset + i) +. src.data.(src.offset + i)
      done)

let axpy a x y =
  if not (same_shape x y) then shape_error "axpy: shape mismatch";
  Domain_pool.parallel_for ~grain:elt_grain (numel x) (fun lo hi ->
      for i = lo to hi - 1 do
        y.data.(y.offset + i) <- y.data.(y.offset + i) +. (a *. x.data.(x.offset + i))
      done)

let scale_rows_inplace m s =
  if ndim m <> 2 || ndim s <> 2 then shape_error "scale_rows_inplace: operands must be 2-D";
  let r = m.shape.(0) and c = m.shape.(1) in
  if s.shape.(0) <> r || s.shape.(1) < 1 then
    shape_error "scale_rows_inplace: factors %dx%d for %d rows" s.shape.(0) s.shape.(1) r;
  let scols = s.shape.(1) in
  Domain_pool.parallel_for ~grain:(row_grain c) r (fun lo hi ->
      for i = lo to hi - 1 do
        let f = s.data.(s.offset + (i * scols)) and base = m.offset + (i * c) in
        for j = base to base + c - 1 do
          m.data.(j) <- m.data.(j) *. f
        done
      done)

let fill t v = Array.fill t.data t.offset (numel t) v

let exp t = map Stdlib.exp t

let leaky_relu ?(slope = 0.01) t = map (fun x -> if x > 0.0 then x else slope *. x) t

let relu t = map (fun x -> if x > 0.0 then x else 0.0) t

(* --- GEMM: one register-blocked kernel behind every access scheme ----
   Hector's GEMM template (paper §4.2) applies the gather, scatter and
   transpose access schemes inside one tile loop, so the per-edge operand
   matrix is never materialized.  Here that template is [gemm_row]; every
   public GEMM validates its shapes and indices, describes its access
   scheme as strides plus the role of its index array, and hands the rest
   to the kernel, which then reads and writes without bounds checks.

   The logical problem is C[m×n] := A[m×kk]·B[kk×n] + beta·C with
     A(i,k) = a.(a_off + row(i)·a_rs + step(k)·a_ks)
     B(k,j) = b.(b_off + k·b_ks + j·b_js)
     C(i,j) = c.(c_off + out(i)·c_rs + j)
   where [row], [step] and [out] are the identity except the one named by
   [access], which reads through [idx].  A transpose is a swap of strides.

   Each output element is one unboxed accumulator, summed k-ascending from
   +0.0 (beta = 0) or beta·C; a scattered row sums from +0.0 and its total
   is added to C once, as materialize-then-scatter does.  No term is
   skipped, so a NaN or Inf in A or B reaches C even where the other factor
   is zero.  The order is fixed per element, so results are bitwise equal
   at every domain count. *)

type access =
  | Direct
  | Gather_rows  (* logical row i of A is physical row idx.(i) *)
  | Gather_k  (* reduction step k reads physical row idx.(k) of A *)
  | Scatter_rows  (* product row i accumulates into row idx.(i) of C *)

type gemm = {
  access : access;
  idx : int array;
  m : int;
  kk : int;
  n : int;
  beta : float;
  a : float array;
  a_off : int;
  a_rs : int;
  a_ks : int;
  b : float array;
  b_off : int;
  b_ks : int;
  b_js : int;
  c : float array;
  c_off : int;
  c_rs : int;
}

(* Reduction steps [k0, k1) of logical row [i] of C, four columns per
   tile.  Past the first chunk the accumulators resume from the partial
   sums stored in C, which is exact.  [Array.unsafe_get] is written inline
   on arrays typed [float array]: a polymorphic alias of it would box every
   float it returns. *)
let gemm_row g i k0 k1 =
  let { access; idx; n; a; a_ks; b; b_ks; b_js; c; _ } = g in
  let arow = g.a_off + ((match access with Gather_rows -> Array.unsafe_get idx i | _ -> i) * g.a_rs) in
  let crow = g.c_off + ((match access with Scatter_rows -> Array.unsafe_get idx i | _ -> i) * g.c_rs) in
  let scatter = access = Scatter_rows and gather_k = access = Gather_k in
  let beta = if scatter then 0.0 else if k0 > 0 then 1.0 else g.beta in
  let load = beta <> 0.0 in
  let bj2 = 2 * b_js and bj3 = 3 * b_js in
  let j = ref 0 in
  while !j + 4 <= n do
    let cj = crow + !j in
    let s0 = ref (if load then beta *. Array.unsafe_get c cj else 0.0) in
    let s1 = ref (if load then beta *. Array.unsafe_get c (cj + 1) else 0.0) in
    let s2 = ref (if load then beta *. Array.unsafe_get c (cj + 2) else 0.0) in
    let s3 = ref (if load then beta *. Array.unsafe_get c (cj + 3) else 0.0) in
    let bp = ref (g.b_off + (!j * b_js) + (k0 * b_ks)) in
    if gather_k then
      for k = k0 to k1 - 1 do
        let av = Array.unsafe_get a (arow + (Array.unsafe_get idx k * a_ks)) in
        let p = !bp in
        s0 := !s0 +. (av *. Array.unsafe_get b p);
        s1 := !s1 +. (av *. Array.unsafe_get b (p + b_js));
        s2 := !s2 +. (av *. Array.unsafe_get b (p + bj2));
        s3 := !s3 +. (av *. Array.unsafe_get b (p + bj3));
        bp := p + b_ks
      done
    else begin
      let ap = ref (arow + (k0 * a_ks)) in
      for _ = k0 to k1 - 1 do
        let av = Array.unsafe_get a !ap in
        let p = !bp in
        s0 := !s0 +. (av *. Array.unsafe_get b p);
        s1 := !s1 +. (av *. Array.unsafe_get b (p + b_js));
        s2 := !s2 +. (av *. Array.unsafe_get b (p + bj2));
        s3 := !s3 +. (av *. Array.unsafe_get b (p + bj3));
        ap := !ap + a_ks;
        bp := p + b_ks
      done
    end;
    if scatter then begin
      Array.unsafe_set c cj (Array.unsafe_get c cj +. !s0);
      Array.unsafe_set c (cj + 1) (Array.unsafe_get c (cj + 1) +. !s1);
      Array.unsafe_set c (cj + 2) (Array.unsafe_get c (cj + 2) +. !s2);
      Array.unsafe_set c (cj + 3) (Array.unsafe_get c (cj + 3) +. !s3)
    end
    else begin
      Array.unsafe_set c cj !s0;
      Array.unsafe_set c (cj + 1) !s1;
      Array.unsafe_set c (cj + 2) !s2;
      Array.unsafe_set c (cj + 3) !s3
    end;
    j := !j + 4
  done;
  (* the n mod 4 leftover columns, one accumulator each *)
  while !j < n do
    let cj = crow + !j in
    let s = ref (if load then beta *. Array.unsafe_get c cj else 0.0) in
    let bp = ref (g.b_off + (!j * b_js) + (k0 * b_ks)) in
    for k = k0 to k1 - 1 do
      let step = if gather_k then Array.unsafe_get idx k else k in
      s := !s +. (Array.unsafe_get a (arow + (step * a_ks)) *. Array.unsafe_get b !bp);
      bp := !bp + b_ks
    done;
    Array.unsafe_set c cj (if scatter then Array.unsafe_get c cj +. !s else !s);
    incr j
  done

(* Rows [lo, hi) of C.  A long reduction runs in chunks of about 128 KiB
   of B, so a chunk stays cache-resident while every row of the block
   sweeps it.  A scatter is destination-partitioned: it sweeps every
   product row and computes those landing in [lo, hi), so no two domains
   write one row and duplicate destinations keep their order; its row sum
   is added to C once, so it is never chunked. *)
let gemm_rows g lo hi =
  match g.access with
  | Scatter_rows ->
      for i = 0 to g.m - 1 do
        let d = Array.unsafe_get g.idx i in
        if d >= lo && d < hi then gemm_row g i 0 g.kk
      done
  | Direct | Gather_rows | Gather_k ->
      (* at least one chunk, so kk = 0 still sets C := beta·C *)
      let chunk = max 1 (16384 / max 1 g.n) in
      let k0 = ref 0 and more = ref true in
      while !more do
        let k1 = min g.kk (!k0 + chunk) in
        for i = lo to hi - 1 do
          gemm_row g i !k0 k1
        done;
        k0 := k1;
        more := k1 < g.kk
      done

(* Run [g] over the domain pool; [out_rows] is the row count of C. *)
let gemm g ~out_rows =
  match g.access with
  | Scatter_rows when Domain_pool.sequential () || g.m * g.n <= elt_grain -> gemm_rows g 0 out_rows
  | Scatter_rows ->
      Domain_pool.parallel_for ~grain:(row_grain (max 1 (g.m * g.n / max 1 out_rows))) out_rows
        (gemm_rows g)
  | Direct | Gather_rows | Gather_k ->
      Domain_pool.parallel_for ~grain:(max 1 (32768 / max 1 (g.kk * g.n))) g.m (gemm_rows g)

(* Strides of a logical [kk×n] B read from [b], transposed or not. *)
let b_strides ~trans_b b = if trans_b then (1, b.shape.(1)) else (b.shape.(1), 1)

let check_2d what a b c =
  if ndim a <> 2 || ndim b <> 2 || ndim c <> 2 then shape_error "%s: operands must be 2-D" what

let check_idx what idx bound =
  Array.iter (fun r -> if r < 0 || r >= bound then shape_error "%s: row %d out of %d" what r bound) idx

let matmul_into ?(trans_a = false) ?(trans_b = false) ?(beta = 0.0) a b c =
  check_2d "matmul" a b c;
  let am, ak = if trans_a then (a.shape.(1), a.shape.(0)) else (a.shape.(0), a.shape.(1)) in
  let bk, bn = if trans_b then (b.shape.(1), b.shape.(0)) else (b.shape.(0), b.shape.(1)) in
  if ak <> bk then shape_error "matmul: inner dims %d vs %d" ak bk;
  if c.shape.(0) <> am || c.shape.(1) <> bn then
    shape_error "matmul: output %dx%d vs expected %dx%d" c.shape.(0) c.shape.(1) am bn;
  let acols = a.shape.(1) in
  let b_ks, b_js = b_strides ~trans_b b in
  gemm ~out_rows:am
    {
      access = Direct; idx = [||]; m = am; kk = ak; n = bn; beta;
      a = a.data; a_off = a.offset;
      a_rs = (if trans_a then 1 else acols); a_ks = (if trans_a then acols else 1);
      b = b.data; b_off = b.offset; b_ks; b_js;
      c = c.data; c_off = c.offset; c_rs = c.shape.(1);
    }

let matmul ?(trans_a = false) ?(trans_b = false) a b =
  let am = if trans_a then a.shape.(1) else a.shape.(0) in
  let bn = if trans_b then b.shape.(0) else b.shape.(1) in
  let c = create_uninit [| am; bn |] in
  matmul_into ~trans_a ~trans_b a b c;
  c

(* c := A[idx] * B (+ beta*c), where A[idx] is the row-gathered view of [a]:
   logical row i of the product reads physical row idx.(i) of [a]. *)
let matmul_gather_into ?(trans_b = false) ?(beta = 0.0) a ~idx b c =
  check_2d "matmul_gather_into" a b c;
  let m = Array.length idx in
  let ak = a.shape.(1) in
  let bk, bn = if trans_b then (b.shape.(1), b.shape.(0)) else (b.shape.(0), b.shape.(1)) in
  if ak <> bk then shape_error "matmul_gather_into: inner dims %d vs %d" ak bk;
  if c.shape.(0) <> m || c.shape.(1) <> bn then
    shape_error "matmul_gather_into: output %dx%d vs expected %dx%d" c.shape.(0) c.shape.(1) m bn;
  check_idx "matmul_gather_into" idx a.shape.(0);
  let b_ks, b_js = b_strides ~trans_b b in
  gemm ~out_rows:m
    {
      access = Gather_rows; idx; m; kk = ak; n = bn; beta;
      a = a.data; a_off = a.offset; a_rs = ak; a_ks = 1;
      b = b.data; b_off = b.offset; b_ks; b_js;
      c = c.data; c_off = c.offset; c_rs = bn;
    }

(* Row idx.(i) of [c] accumulates row i of the product A*B, added once the
   row's sum is complete. *)
let matmul_scatter_add_into ?(trans_b = false) a b ~idx c =
  check_2d "matmul_scatter_add_into" a b c;
  let m = a.shape.(0) in
  if Array.length idx <> m then
    shape_error "matmul_scatter_add_into: %d rows vs %d indices" m (Array.length idx);
  let ak = a.shape.(1) in
  let bk, bn = if trans_b then (b.shape.(1), b.shape.(0)) else (b.shape.(0), b.shape.(1)) in
  if ak <> bk then shape_error "matmul_scatter_add_into: inner dims %d vs %d" ak bk;
  if c.shape.(1) <> bn then
    shape_error "matmul_scatter_add_into: output has %d cols, expected %d" c.shape.(1) bn;
  check_idx "matmul_scatter_add_into" idx c.shape.(0);
  let b_ks, b_js = b_strides ~trans_b b in
  gemm ~out_rows:c.shape.(0)
    {
      access = Scatter_rows; idx; m; kk = ak; n = bn; beta = 1.0;
      a = a.data; a_off = a.offset; a_rs = ak; a_ks = 1;
      b = b.data; b_off = b.offset; b_ks; b_js;
      c = c.data; c_off = c.offset; c_rs = bn;
    }

(* c := A[idx]^T * B (+ beta*c) — the transpose access scheme composed with
   the gather, used for weight gradients (dW += X[src]^T * dY): reduction
   step k reads row idx.(k) of [a]. *)
let matmul_gather_t_into ?(beta = 0.0) a ~idx b c =
  check_2d "matmul_gather_t_into" a b c;
  let m = Array.length idx in
  if b.shape.(0) <> m then
    shape_error "matmul_gather_t_into: %d indices vs %d rows of b" m b.shape.(0);
  let ak = a.shape.(1) and bn = b.shape.(1) in
  if c.shape.(0) <> ak || c.shape.(1) <> bn then
    shape_error "matmul_gather_t_into: output %dx%d vs expected %dx%d" c.shape.(0) c.shape.(1) ak bn;
  check_idx "matmul_gather_t_into" idx a.shape.(0);
  gemm ~out_rows:ak
    {
      access = Gather_k; idx; m = ak; kk = m; n = bn; beta;
      a = a.data; a_off = a.offset; a_rs = 1; a_ks = ak;
      b = b.data; b_off = b.offset; b_ks = bn; b_js = 1;
      c = c.data; c_off = c.offset; c_rs = bn;
    }

let dot a b =
  if numel a <> numel b then shape_error "dot: %d vs %d elements" (numel a) (numel b);
  Domain_pool.parallel_for_reduce ~grain:elt_grain (numel a)
    ~init:(fun () -> 0.0)
    ~body:(fun acc lo hi ->
      let acc = ref acc in
      for i = lo to hi - 1 do
        acc := !acc +. (a.data.(a.offset + i) *. b.data.(b.offset + i))
      done;
      !acc)
    ~merge:( +. )

let outer a b =
  if ndim a <> 1 || ndim b <> 1 then shape_error "outer: operands must be 1-D";
  let m = a.shape.(0) and n = b.shape.(0) in
  let c = create [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      c.data.((i * n) + j) <- a.data.(a.offset + i) *. b.data.(b.offset + j)
    done
  done;
  c

let sum t =
  Domain_pool.parallel_for_reduce ~grain:elt_grain (numel t)
    ~init:(fun () -> 0.0)
    ~body:(fun acc lo hi ->
      let acc = ref acc in
      for i = lo to hi - 1 do
        acc := !acc +. t.data.(t.offset + i)
      done;
      !acc)
    ~merge:( +. )

let mean t =
  let n = numel t in
  if n = 0 then shape_error "mean: empty tensor";
  sum t /. float_of_int n

let max_value t =
  if numel t = 0 then shape_error "max_value: empty tensor";
  let acc = ref t.data.(t.offset) in
  for i = 1 to numel t - 1 do
    if t.data.(t.offset + i) > !acc then acc := t.data.(t.offset + i)
  done;
  !acc

let sum_rows m =
  let r = rows m and c = cols m in
  (* column-wise reduction: per-chunk column accumulators merged in chunk
     order, so the result is deterministic under any scheduling *)
  let acc =
    Domain_pool.parallel_for_reduce ~grain:(row_grain c) r
      ~init:(fun () -> Array.make c 0.0)
      ~body:(fun acc lo hi ->
        for i = lo to hi - 1 do
          let base = m.offset + (i * c) in
          for j = 0 to c - 1 do
            acc.(j) <- acc.(j) +. m.data.(base + j)
          done
        done;
        acc)
      ~merge:(fun a b ->
        for j = 0 to c - 1 do
          a.(j) <- a.(j) +. b.(j)
        done;
        a)
  in
  { shape = [| c |]; offset = 0; data = acc }

let sum_cols m =
  let r = rows m and c = cols m in
  let out = create [| r |] in
  Domain_pool.parallel_for ~grain:(row_grain c) r (fun lo hi ->
      for i = lo to hi - 1 do
        let base = m.offset + (i * c) in
        let acc = ref 0.0 in
        for j = 0 to c - 1 do
          acc := !acc +. m.data.(base + j)
        done;
        out.data.(i) <- !acc
      done);
  out

let argmax_rows m =
  let r = rows m and c = cols m in
  if c = 0 then shape_error "argmax_rows: zero columns";
  Array.init r (fun i ->
      let base = m.offset + (i * c) in
      let best = ref 0 in
      for j = 1 to c - 1 do
        if m.data.(base + j) > m.data.(base + !best) then best := j
      done;
      !best)

let gather_rows m idx =
  let c = cols m in
  let r = rows m in
  count_copied (Array.length idx * c * 8);
  let out = create_uninit [| Array.length idx; c |] in
  Domain_pool.parallel_for ~grain:(row_grain c) (Array.length idx) (fun lo hi ->
      for i = lo to hi - 1 do
        let src_row = idx.(i) in
        if src_row < 0 || src_row >= r then
          shape_error "gather_rows: row %d out of %d" src_row r;
        Array.blit m.data (m.offset + (src_row * c)) out.data (i * c) c
      done);
  out

let scatter_rows_set ~into idx src =
  let c = cols into in
  if cols src <> c then shape_error "scatter_rows_set: column mismatch";
  if rows src <> Array.length idx then shape_error "scatter_rows_set: row/index mismatch";
  count_copied (Array.length idx * c * 8);
  Array.iteri
    (fun i dst_row ->
      if dst_row < 0 || dst_row >= rows into then
        shape_error "scatter_rows_set: row %d out of %d" dst_row (rows into);
      Array.blit src.data (src.offset + (i * c)) into.data (into.offset + (dst_row * c)) c)
    idx

let scatter_rows_add_seq ~into idx src c =
  Array.iteri
    (fun i dst_row ->
      let sbase = src.offset + (i * c) and dbase = into.offset + (dst_row * c) in
      for j = 0 to c - 1 do
        into.data.(dbase + j) <- into.data.(dbase + j) +. src.data.(sbase + j)
      done)
    idx

let scatter_rows_add ~into idx src =
  let c = cols into in
  if cols src <> c then shape_error "scatter_rows_add: column mismatch";
  if rows src <> Array.length idx then shape_error "scatter_rows_add: row/index mismatch";
  let nrows = rows into in
  Array.iter
    (fun dst_row ->
      if dst_row < 0 || dst_row >= nrows then
        shape_error "scatter_rows_add: row %d out of %d" dst_row nrows)
    idx;
  let n = Array.length idx in
  (* Parallelized over *destination* row ranges, not over [idx]: each
     domain sweeps the whole index once and applies only the updates that
     land in its destination slice, so concurrent writes never touch the
     same row and duplicate indices accumulate in their sequential order —
     the pre-reduction analogue of the paper's atomic-free scatter. *)
  if Domain_pool.sequential () || n * c <= elt_grain then scatter_rows_add_seq ~into idx src c
  else
    Domain_pool.parallel_for ~grain:(row_grain (max 1 (n * c / max 1 nrows))) nrows
      (fun row_lo row_hi ->
        for i = 0 to n - 1 do
          let dst_row = idx.(i) in
          if dst_row >= row_lo && dst_row < row_hi then begin
            let sbase = src.offset + (i * c) and dbase = into.offset + (dst_row * c) in
            for j = 0 to c - 1 do
              into.data.(dbase + j) <- into.data.(dbase + j) +. src.data.(sbase + j)
            done
          end
        done)

let concat_cols a b =
  let r = rows a in
  if rows b <> r then shape_error "concat_cols: %d vs %d rows" r (rows b);
  let ca = cols a and cb = cols b in
  count_copied (r * (ca + cb) * 8);
  let out = create_uninit [| r; ca + cb |] in
  for i = 0 to r - 1 do
    Array.blit a.data (a.offset + (i * ca)) out.data (i * (ca + cb)) ca;
    Array.blit b.data (b.offset + (i * cb)) out.data ((i * (ca + cb)) + ca) cb
  done;
  out

let split_cols m k =
  let r = rows m and c = cols m in
  if k < 0 || k > c then shape_error "split_cols: %d out of %d columns" k c;
  count_copied (r * c * 8);
  let a = create_uninit [| r; k |] and b = create_uninit [| r; c - k |] in
  for i = 0 to r - 1 do
    Array.blit m.data (m.offset + (i * c)) a.data (i * k) k;
    Array.blit m.data (m.offset + (i * c) + k) b.data (i * (c - k)) (c - k)
  done;
  (a, b)

let max_abs_diff a b =
  if not (same_shape a b) then shape_error "max_abs_diff: shape mismatch";
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    let d = Float.abs (a.data.(a.offset + i) -. b.data.(b.offset + i)) in
    if d > !acc then acc := d
  done;
  !acc

let approx_equal ?(tol = 1e-4) a b =
  same_shape a b
  &&
  let ok = ref true in
  (try
     for i = 0 to numel a - 1 do
       let x = a.data.(a.offset + i) and y = b.data.(b.offset + i) in
       let scale_ref = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
       if Float.abs (x -. y) > tol *. scale_ref then begin
         ok := false;
         raise Exit
       end
     done
   with Exit -> ());
  !ok

let pp fmt t =
  let n = numel t in
  Format.fprintf fmt "tensor[%s](" (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)));
  let shown = min n 8 in
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf fmt ", ";
    Format.fprintf fmt "%g" t.data.(t.offset + i)
  done;
  if n > shown then Format.fprintf fmt ", ...";
  Format.fprintf fmt ")"
