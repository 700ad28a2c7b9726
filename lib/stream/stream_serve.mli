(** Serving live traffic over a mutating graph — the driver tying
    {!Mutable_graph} to {!Hector_serve.Serve}.

    One [t] owns a serving replica warmed against the mutable graph's
    {!Mutable_graph.capacity_graph}, so every in-epoch snapshot fits the
    replica's compiled plan, slab backings and staging tensors.  Deltas
    are applied at micro-batch boundaries (between {!serve} calls, or at
    the request indices {!replay} is given); the in-slack path is a pure
    {!Hector_serve.Serve.update_graph} — zero compiles, zero engine
    allocations — while an epoch bump retires the replica and warms a
    fresh one against the new capacity graph, {e pinning the model
    weights} ({!Hector_serve.Serve.model_weights}) so outputs stay
    comparable across the re-warm.

    {2 The correctness anchor}

    At any checkpoint, serving a trace through the long-lived replica
    must match a replica built from scratch over the current snapshot:
    sampling depends only on (request id, graph), weights are pinned, and
    the patched CSR is structurally equal to a rebuilt one, so
    {!check_equivalence} observes agreement within floating-point
    reassociation (≤ 1e-6; bitwise in practice) — the property the
    qcheck suite drives over random delta traces, models and domain
    counts. *)

module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload

type t

val create :
  ?config:Serve.config -> ?obs:Hector_obs.t -> mg:Mutable_graph.t ->
  Hector_core.Inter_ir.program -> t
(** Warm a replica for [mg]'s current epoch: compile against the capacity
    graph (the epoch is stamped on [config], overriding [config.epoch]),
    then swap in the current snapshot.  [config.weights] seeds the first
    replica as usual ([[]] → generated from [config.seed]); later epochs
    always inherit the previous replica's weights.  Raises
    [Invalid_argument] on unsupported programs (as
    {!Hector_serve.Serve.create}). *)

val apply : t -> Delta.t -> (Mutable_graph.apply_stats, string) result
(** Apply one delta now (a micro-batch boundary): mutate the graph, then
    either refresh the live replica in place (in-slack) or retire it and
    warm the next epoch's.  [Error] (an invalid delta) changes nothing.
    The simulated cost of the update is accounted in {!update_ms}. *)

val push : t -> Delta.t -> unit
(** Queue a delta; the next {!serve} call applies the backlog (in order)
    before admitting any request — deltas never interrupt a micro-batch.
    Invalid deltas are counted ({!Mutable_graph.counters}'
    [rejected_deltas]) and skipped. *)

val pending : t -> int
(** Queued deltas not yet applied. *)

val serve : t -> Workload.request array -> Serve.response array
(** Drain the delta backlog, then run the trace on the live replica
    (semantics of {!Hector_serve.Serve.serve}: an independent episode on
    the simulated clock; stale seeds are rejected, not raised). *)

val replay :
  t -> requests:Workload.request array -> deltas:(int * Delta.t) array ->
  Serve.response array
(** Interleave a delta trace with a request trace: each [(k, d)] applies
    [d] at the boundary before request index [k] ([k] may equal the trace
    length: applied after everything).  Deltas are applied in the given
    order; requests are served in segments between boundaries and the
    responses concatenated back into trace order.  Raises
    [Invalid_argument] if some [k] is out of range or the indices are not
    non-decreasing. *)

val check_equivalence :
  ?tol:float -> t -> Workload.request array -> (float, string) result
(** Serve [requests] through the live replica {e and} through a
    from-scratch replica over the current snapshot (same weights, same
    CSR), and compare: [Ok max_abs_diff] when every response pair agrees
    — same served/rejected/shed outcome, same output shape, outputs
    within [tol] (default [1e-6]) — [Error] describing the first
    disagreement otherwise. *)

val recompiles : t -> int
(** Total plan-cache misses over the subsystem's lifetime: retired
    replicas' plus the live one's.  After warmup this is [1]; it grows
    only when an epoch bump forces a re-warm — the bench gate pins it at
    [1] (zero recompiles) for in-slack traces. *)

val rewarms : t -> int
(** Replica re-warms (= epoch bumps observed). *)

val update_ms : t -> float
(** Simulated milliseconds spent applying deltas (host-side cost model:
    per-delta base + per-op cost, plus an epoch-rebuild surcharge). *)

val served : t -> int
(** Requests served across every replica the subsystem has owned (retired
    ones included). *)

val shed : t -> int

val rejected : t -> int

val mutable_graph : t -> Mutable_graph.t

val replica : t -> Serve.t
(** The live replica (retired ones are gone). *)

val batch_failures : t -> int
(** Fault-injected micro-batch failures aggregated across every replica
    the subsystem has owned (see {!Serve.batch_failures}). *)

val fault_shed : t -> int
(** Requests shed after a failed retry, aggregated like
    {!batch_failures} — a subset of {!shed}, so degradation under faults
    stays fully accounted across re-warms. *)

val obs : t -> Hector_obs.t

val checkpoint : t -> Hector_ckpt.Checkpoint.t
(** The subsystem's restorable state as a checkpoint: the pinned weight
    set plus the mutable graph's capacity epoch and delta version — what
    a restarted server needs to know which generation its weights belong
    to.  Persist it with {!Hector_ckpt.Checkpoint.save}. *)

val metrics_json : t -> Hector_obs.Json.t
(** JSON in the shared {!Hector_obs.Metrics} envelope
    ([subsystem = "stream"]): delta/op/epoch/compaction/CSR counters,
    recompiles and re-warms, update time, served/shed/rejected and the
    fault counters aggregated across every replica the subsystem has
    owned. *)
