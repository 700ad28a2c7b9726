(** The GPU execution engine: clock + allocator + statistics.

    [launch] charges a {!Kernel.t} descriptor to the simulated clock using a
    roofline-style cost model (see {!cost_ms} for the exact formula) and
    records it in the statistics.  Graph-proportional kernels are charged at
    logical (paper) scale.

    The engine is deterministic: identical launch sequences give identical
    elapsed times, so benchmark tables need no averaging over epochs.

    Every clock advance is attributed: launches land in the per-op table
    under their {!Kernel.provenance} op (or {!Kernel.unattributed}), host
    syncs under {!Stats.sync_op} — so [Stats.attributed_ms] equals
    {!elapsed_ms} up to floating-point reassociation. *)

type t
(** Mutable engine state. *)

val create :
  ?device:Device.t -> ?scale:float -> ?trace:bool -> ?obs:Hector_obs.t -> unit -> t
(** Fresh engine (default device {!Device.rtx3090}, default scale 1).
    With [trace:true] every launch is recorded on a timeline (see
    {!events} / {!to_chrome_trace}).  [obs] (default {!Hector_obs.disabled})
    receives launch/sync counters; a disabled handle costs one branch per
    launch and allocates nothing. *)

val device : t -> Device.t
(** The simulated device. *)

val scale : t -> float
(** Graph cost scale in effect. *)

val launch : t -> Kernel.t -> unit
(** Execute one kernel launch: advance the clock and record statistics. *)

val charge : t -> ms:float -> Kernel.t -> unit
(** [charge t ~ms k] accounts an event whose duration was computed {e
    outside} the device cost model — interconnect transfers of the
    distributed runtime ({!Kernel.category} [Comm]), whose time comes from
    a per-message latency + link bandwidth model rather than the roofline.
    The clock advances by exactly [ms]; the event is recorded in the
    statistics (per-category, per-kernel and per-provenance-op tables, so
    {!Stats.attributed_ms} still covers the whole clock) and on the trace
    timeline.  No graph-proportional scaling is applied.  Raises
    [Invalid_argument] on negative [ms]. *)

val post : t -> chan:int -> ?ready:float -> ms:float -> Kernel.t -> float
(** [post t ~chan ~ready ~ms k] schedules an asynchronous transfer on
    channel [chan]: it starts at [max ready (channel busy-until)] (default
    [ready] = the current clock), occupies the channel for [ms], and
    returns its completion time.  The engine clock does {e not} advance:
    the kernel is recorded immediately (launch count, flops, bytes) with
    zero time, the transfer appears on the trace timeline at its true
    start on the channel's own track, and the time a consumer actually
    stalls is charged later by {!wait_until}.  Transfers on distinct
    channels — or posted behind the compute clock — thus overlap with
    compute instead of serializing.  Raises [Invalid_argument] on a
    negative channel or duration. *)

val wait_until : t -> op:string -> float -> unit
(** [wait_until t ~op until] blocks the engine until simulated time
    [until]: if the clock is behind, it advances to [until] and the gap is
    attributed to [op] in the [Comm] category as wait time (no launch) —
    the {e exposed} cost of an asynchronous transfer.  A no-op when the
    clock is already past [until]. *)

val channel_until : t -> chan:int -> float
(** Busy-until time of one transfer channel (0 for never-used channels). *)

val posted_comm_ms : t -> float
(** Total duration of all transfers posted since creation or the last
    {!reset_clock} — the denominator of the overlap ratio: exposed comm is
    the [Comm]-category stats time, overlapped comm is the difference. *)

val host_sync : t -> ?us:float -> unit -> unit
(** Charge a host-side synchronization/dispatch gap (e.g. a Python-loop
    iteration between per-relation kernels in baseline systems).  The gap
    is attributed to the {!Stats.sync_op} pseudo-op so per-op times still
    cover the whole clock. *)

val elapsed_ms : t -> float
(** Simulated time since creation or the last {!reset_clock}. *)

val reset_clock : ?keep_events:bool -> t -> unit
(** Zero the clock and statistics (allocations stay).  Trace events are
    dropped too, unless [keep_events:true] — the escape hatch for
    accumulating a multi-phase timeline across resets. *)

val stats : t -> Stats.t
(** Live statistics accumulator. *)

val obs : t -> Hector_obs.t
(** The observability handle this engine reports counters to. *)

type event = {
  name : string;
  category : Kernel.category;
  start_ms : float;  (** simulated start time *)
  duration_ms : float;
  prov : Kernel.provenance option;  (** attribution of the traced launch *)
  chan : int option;
      (** asynchronous transfer channel ({!post}), [None] for the compute
          stream; channel [c] renders on tid [2 + c] in the chrome trace *)
}

val events : t -> event list
(** The recorded launch timeline, in execution order (empty unless the
    engine was created with [trace:true]). *)

val to_chrome_trace : ?obs:Hector_obs.t -> t -> string
(** Serialize the timeline as a Chrome-tracing JSON document
    (load in [chrome://tracing] or Perfetto).  Kernel names and categories
    are JSON-escaped, so arbitrary names survive the round trip.
    Simulated launches appear under pid 1 with their provenance in
    ["args"]; when an enabled [obs] is given, its wall-clock spans are
    merged in under pid 2. *)

val by_category_json : t -> Hector_obs.Json.t
(** The per-category time/launch table as a JSON object — for embedding
    in subsystem-level metrics documents. *)

val by_op_json : t -> Hector_obs.Json.t
(** The per-op time/launch table as a JSON object. *)

val memory : t -> Memory.t
(** The device allocator of this engine. *)

val alloc_tensor :
  t -> ?graph_proportional:bool -> label:string -> rows:int -> cols:int -> unit -> Memory.allocation
(** Convenience: allocate a [rows × cols] fp32 tensor. *)

val cost_ms : Device.t -> Kernel.t -> float
(** The pure cost model, exposed for tests and analysis:
    {ul
    {- occupancy [u = min 1 (resident threads / device capacity)], floored;}
    {- compute time = flops / (peak × u);}
    {- memory time = coalesced/bw + gathered/(bw × gather_eff) + atomic/atomic_bw,
       divided by a bandwidth utilization that also degrades at low occupancy;}
    {- total = launch overhead + max(compute, memory).}}
    Work quantities must already be at logical scale. *)

val predict_ms : ?scale:float -> Device.t -> Kernel.t -> float
(** [cost_ms] after applying the graph cost [scale] (default 1) exactly as
    {!launch} would — graph-proportional work quantities and grid size are
    multiplied (grid rounded to nearest, floored at one block) before
    pricing.  This is the primitive the plan cost estimator uses to predict
    what launching [k] on an engine created with the same scale would
    charge, without an engine. *)
