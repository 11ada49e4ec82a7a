//! Multi-worker runtime for Tofu-partitioned graphs.
//!
//! Executes a [`ShardedGraph`] across `N` OS threads — one per logical
//! device — connected by channels. Each worker owns:
//!
//! - its serial sub-schedule of the sharded graph
//!   ([`ShardedGraph::worker_schedule`]), which is a subsequence of the
//!   global topological order;
//! - a [`BufferPool`] seeded from the static memory planner's
//!   [`BufferPlan`], so the measured footprint can be held against
//!   `tofu-sim`'s `per_device_memory` prediction;
//! - typed send/receive ports for cross-device tensor pieces.
//!
//! Communication follows the §6 invariant the generator establishes: every
//! cross-device data edge enters a `multi_fetch` node, so producers *push*
//! exactly the piece each remote consumer needs (precomputed by
//! [`ShardedGraph::comm_edges`]) and non-fetch nodes only ever read local
//! values. Pushes go over unbounded channels and never block, which rules
//! out send/receive cycles: the earliest unexecuted node across all workers
//! (in global topological order) always has its remote pieces already sent
//! or owed by producers that come strictly earlier, so some worker can
//! always make progress.
//!
//! The run records a [`RunTrace`] — per-op wall-clock events, per-link
//! bytes, per-worker pool peaks — for side-by-side comparison with the
//! simulator's predictions.
//!
//! # Fault tolerance
//!
//! The runtime is built to *fail fast and recover* (DESIGN.md "Failure
//! model"):
//!
//! - **Cooperative abort.** Every worker shares an [`AbortToken`]; the first
//!   failure (kernel error, integrity violation, panic, injected fault)
//!   trips it, and every other worker observes the trip between schedule
//!   steps and inside its receive loop (at [`RunOptions::abort_poll`]
//!   granularity), so a dead peer stops the run in milliseconds instead of
//!   stalling healthy workers for the full `recv_timeout`. The run returns
//!   [`RuntimeError::Failed`] wrapping a [`RunFailure`] that names the
//!   first-failing worker and node and preserves the partial traces.
//! - **Message integrity.** Every [`Msg`] carries the sending worker, a
//!   per-link sequence number and a payload checksum; at
//!   [`IntegrityLevel::Full`] (the default) the receiver checks all three
//!   plus the expected piece (consumer node, input index, block shape)
//!   before stashing, so dropped, duplicated, reordered, misrouted or
//!   corrupted pieces surface as typed [`RuntimeError::Comm`] errors instead
//!   of wrong tensors. [`RunOptions::integrity`] relaxes the per-message
//!   work for trusted transports; fault suites must run at `Full`.
//! - **Zero-copy transport.** Payloads travel as reference-counted
//!   [`PieceRef`]s cut from a per-worker [`PieceSlab`]: the producer
//!   extracts the block once into a recycled buffer, the channel and the
//!   receiver's stash move `Arc`s, and the buffer returns to the slab once
//!   consumed. Extraction and fetch assembly are the bounds-checked
//!   [`tofu_tensor::append_block`] / [`tofu_tensor::copy_block`], so a
//!   malformed piece is a typed error, never a wrong read. Send routing is pre-resolved at plan time into a
//!   schedule-indexed table, so the send path performs no map lookups.
//! - **Fault injection.** A [`FaultPlan`] in [`RunOptions`] deterministically
//!   kills or panics a worker at a schedule position, tampers with a chosen
//!   message, or forces a pool over-budget event — so every failure path
//!   above is testable.
//! - **One recovery ladder.** A [`CheckpointPolicy`] snapshots worker
//!   values at global-schedule barriers. Every driver runs the same
//!   supervisor: retry a faulted attempt with capped jittered backoff from
//!   the last consistent checkpoint (replaying owed sends), reshape the
//!   worker set when an [`ElasticPolicy`] allows, and restart from a durable
//!   store after a whole-process crash. [`run_with_recovery`] is the retry
//!   rung on a fixed plan, [`run_with_elastic_recovery`] the whole ladder
//!   and [`run_with_durable_recovery`] one single-attempt pass of it per
//!   process incarnation. Recovered output is bit-identical to an
//!   undisturbed run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abort;
mod checkpoint;
mod durable;
mod elastic;
mod error;
mod fault;
mod pool;
mod reshard;
mod route;
mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use tofu_core::ShardedGraph;
use tofu_graph::{execute_node, plan_buffers, BufferPlan, NodeId, TensorId, TensorKind};
use tofu_obs::{Collector, SpanBuffer, Track};
use tofu_tensor::{append_block, copy_block, Shape, Tensor};

pub use abort::{AbortCause, AbortToken};
pub use checkpoint::{
    AttemptRecord, BackoffSchedule, BarrierUnit, CheckpointPolicy, RecoveryOptions, RecoveryReport,
};
pub use durable::{run_with_durable_recovery, CrashPoint, DurableOptions, DurableReport};
pub use elastic::{
    run_with_elastic_recovery, ElasticPolicy, ElasticReport, ElasticTransition, TransitionKind,
};
pub use error::{RunFailure, RuntimeError};
pub use fault::{
    ChurnEvent, ChurnPlan, Fault, FaultPersistence, FaultPlan, FaultRng, InjectedFault,
    MessageFault,
};
pub use pool::{BufferPool, PieceRef, PieceSlab};
pub use reshard::{resume_from_snapshot, FullSnapshot};
pub use tofu_durable::{
    BlobStore, DirStore, DiskFault, DiskFaultPlan, MemStore, RejectReason, RejectedCheckpoint,
};
pub use trace::{LinkStat, OpEvent, RunTrace, WorkerTrace};

use checkpoint::{checkpoint_cuts, CheckpointStore, ResumePoint};
use elastic::run_fixed;
use fault::{FaultState, StepFault};
use route::{FetchSource, RoutePlan, SendRoute, WorkerRoutes};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// How much per-message verification the receive path performs.
///
/// Payload and byte accounting are identical at every level — only the
/// *checks* differ, so a `Fast` run moves exactly the bytes a `Full` run
/// moves and produces bit-identical output on a healthy transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IntegrityLevel {
    /// Route-slot bounds and double-delivery checks only; trusts the
    /// transport. The per-message cost is two array index checks.
    Fast,
    /// Everything: per-link sequence numbers, payload checksums, the
    /// end-of-run drain sweep and the plan-time
    /// consumer/input/shape cross-check per message. Required whenever the
    /// fault plan injects message faults — the checks are what turn
    /// tampering into typed errors.
    #[default]
    Full,
}

/// Knobs of a run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Replay the planner with cross-op buffer reuse (the Fig. 7 control
    /// dependencies make this safe; turning it off models the ablation).
    pub buffer_reuse: bool,
    /// How long a worker waits on a remote piece before declaring the run
    /// stalled (guards against a dropped piece with no later traffic on the
    /// link; never hit on healthy runs).
    pub recv_timeout: Duration,
    /// Granularity at which blocked workers poll the shared abort token;
    /// bounds how stale a worker's view of a peer failure can be.
    pub abort_poll: Duration,
    /// Faults to inject (empty by default).
    pub faults: FaultPlan,
    /// Scripted fleet-membership events (empty by default). Only
    /// [`run_with_elastic_recovery`] can honor leaves *and* joins; the plain
    /// run paths reject a non-empty plan rather than silently ignore it.
    pub churn: ChurnPlan,
    /// Snapshot cadence for checkpoint-restart (`None` = no snapshots).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Optional per-worker cap on resident pool bytes; exceeding it fails
    /// the run with a typed over-budget pool error.
    pub pool_budget: Option<u64>,
    /// Per-message verification level (default [`IntegrityLevel::Full`]).
    /// Plans that inject message faults are rejected at any other level.
    pub integrity: IntegrityLevel,
    /// Optional trace sink. When set, every worker emits per-op spans (with
    /// recv-waits nested inside fetch spans), cumulative per-link byte
    /// counters, a pool-occupancy timeline and abort/checkpoint markers onto
    /// its `Track::runtime(device)` lane; attempts and recovery land on
    /// `Track::control()`. `None` (the default) costs one discriminant check
    /// per site — no clock reads, no allocation.
    pub collector: Option<Collector>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            buffer_reuse: true,
            recv_timeout: Duration::from_secs(60),
            abort_poll: Duration::from_millis(5),
            faults: FaultPlan::none(),
            churn: ChurnPlan::none(),
            checkpoint: None,
            pool_budget: None,
            integrity: IntegrityLevel::default(),
            collector: None,
        }
    }
}

/// Everything a run produces: the value of every tensor of the sharded
/// graph (gather the originals with [`ShardedGraph::gather`]) plus the
/// measured trace.
#[derive(Debug)]
pub struct RunOutput {
    /// Value of every tensor, merged across workers.
    pub values: BTreeMap<TensorId, Tensor>,
    /// The measured event trace.
    pub trace: RunTrace,
}

/// One cross-worker message: the extracted piece input `input_index` of
/// `consumer` is waiting for, stamped with the integrity metadata the
/// receiver verifies (sender, per-link sequence number, payload checksum)
/// and the pre-resolved receive slot it lands in. The payload is a shared
/// [`PieceRef`] — sending moves a refcount, never bytes.
struct Msg {
    src: usize,
    seq: u64,
    slot: u32,
    consumer: NodeId,
    input_index: usize,
    checksum: u64,
    piece: PieceRef,
}

/// What one worker thread hands back, success or not.
struct WorkerOutcome {
    /// The (possibly partial) trace; `None` when a panic unwound the worker
    /// before one could be assembled.
    trace: Option<WorkerTrace>,
    values: BTreeMap<TensorId, Arc<Tensor>>,
    /// Per destination: (bytes, messages) pushed.
    sent: Vec<(u64, u64)>,
    /// Transport-slab counters: fresh allocations and freelist reuses.
    slab_allocs: u64,
    slab_reuses: u64,
    error: Option<RuntimeError>,
    /// Time from the abort token tripping to this worker observing it.
    observed: Option<Duration>,
    /// The worker stopped voluntarily at the attempt's yield barrier.
    yielded: bool,
}

impl WorkerOutcome {
    /// A worker that failed before it could assemble a trace.
    fn lost(error: RuntimeError) -> WorkerOutcome {
        WorkerOutcome {
            trace: None,
            values: BTreeMap::new(),
            sent: Vec::new(),
            slab_allocs: 0,
            slab_reuses: 0,
            error: Some(error),
            observed: None,
            yielded: false,
        }
    }
}

/// How one execution attempt ended (when no failure intervened).
pub(crate) enum Attempt {
    /// Ran to completion.
    Done(RunOutput),
    /// Every worker stopped cleanly right after recording checkpoint `ckpt`
    /// — the cooperative pause [`run_with_elastic_recovery`] requests so it
    /// can grow onto a joining device at a consistent barrier.
    Yielded {
        /// The (1-based) checkpoint the attempt paused at.
        ckpt: usize,
    },
}

/// FNV-1a over the payload's f32 bit patterns; cheap and deterministic.
fn payload_checksum(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in data {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// What the pre-snapshot scan found wrong with a live value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotDefect {
    /// The value holds a NaN or infinity.
    NonFinite,
    /// The value's bytes no longer hash to the checksum recorded when it was
    /// produced — the buffer was corrupted while sitting in memory.
    ChecksumMismatch,
}

/// Scans a worker's live values right before they are recorded into
/// checkpoint state at barrier position `pos`: values dead before the barrier
/// (`scan_floor[t] < pos`) are unobservable on resume and skipped; the rest
/// must be finite and, when a produce-time checksum was recorded in `sums`,
/// must still hash to it. Returns the first offending tensor.
pub(crate) fn scan_snapshot(
    values: &BTreeMap<TensorId, Arc<Tensor>>,
    sums: &BTreeMap<TensorId, u64>,
    scan_floor: &[usize],
    pos: usize,
) -> std::result::Result<(), (TensorId, SnapshotDefect)> {
    for (t, v) in values {
        if scan_floor[t.0] < pos {
            continue; // dead before the barrier: unobservable on resume
        }
        if v.data().iter().any(|x| !x.is_finite()) {
            return Err((*t, SnapshotDefect::NonFinite));
        }
        if let Some(&sum) = sums.get(t) {
            if payload_checksum(v.data()) != sum {
                return Err((*t, SnapshotDefect::ChecksumMismatch));
            }
        }
    }
    Ok(())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Up-front validation shared by every driver, so misconfiguration fails
/// with a clear [`RuntimeError::InvalidOptions`] before any thread spawns.
/// `workers` is the (initial) fleet the fault and churn plans address.
fn validate(workers: usize, opts: &RunOptions, recovery: &RecoveryOptions) -> Result<()> {
    let k = workers;
    let invalid = |m: String| Err(RuntimeError::InvalidOptions(m));
    if k == 0 {
        return invalid("cannot run on zero workers".into());
    }
    if recovery.max_attempts == 0 {
        return invalid("max_attempts must be at least 1".into());
    }
    if opts.recv_timeout.is_zero() {
        return invalid("recv_timeout must be positive (a zero timeout stalls instantly)".into());
    }
    if opts.abort_poll.is_zero() {
        return invalid("abort_poll must be positive".into());
    }
    if !opts.faults.disk.is_empty() {
        return invalid(
            "disk faults target the durable checkpoint store; only run_with_durable_recovery \
             can honor them"
                .into(),
        );
    }
    if let Some(cp) = opts.checkpoint {
        if cp.every == 0 {
            return invalid("checkpoint interval must be positive".into());
        }
    }
    for f in &opts.faults.faults {
        match f.fault {
            Fault::Kill { worker, .. }
            | Fault::Panic { worker, .. }
            | Fault::PoolOverBudget { worker, .. } => {
                if worker >= k {
                    return invalid(format!("fault targets worker {worker} of {k}"));
                }
            }
            Fault::Message { src, dst, .. } => {
                if src >= k || dst >= k {
                    return invalid(format!("message fault targets link {src} -> {dst} of {k}"));
                }
                if src == dst {
                    return invalid(format!("message fault targets self-link {src} -> {dst}"));
                }
                if opts.integrity != IntegrityLevel::Full {
                    return invalid(
                        "message faults need IntegrityLevel::Full; Fast skips the checks that \
                         detect tampering"
                            .into(),
                    );
                }
            }
        }
    }
    if let Err(m) = opts.churn.validate(k) {
        return invalid(m);
    }
    if !opts.churn.is_empty() && recovery.elastic.is_none() {
        return invalid(
            "churn plans reshape the fleet; only run_with_elastic_recovery with \
             RecoveryOptions::elastic set can honor them"
                .into(),
        );
    }
    if opts.churn.has_joins() && opts.checkpoint.is_none() {
        return invalid(
            "churn joins grow the run at checkpoint barriers; set a \
             CheckpointPolicy::every_original cadence"
                .into(),
        );
    }
    Ok(())
}

/// Executes `sharded` across one thread per worker with default options.
/// `feeds` carries values for the sharded graph's leaf tensors (typically
/// from [`ShardedGraph::scatter`] over the original feeds).
pub fn run(sharded: &ShardedGraph, feeds: &[(TensorId, Tensor)]) -> Result<RunOutput> {
    run_with_options(sharded, feeds, &RunOptions::default())
}

/// [`run`] with explicit options: one attempt, no retry.
pub fn run_with_options(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
) -> Result<RunOutput> {
    run_fixed(sharded, feeds, opts, &RecoveryOptions::ONE_SHOT, None).map(|r| r.output)
}

/// [`run_with_options`] plus retry: a faulted run is re-attempted with
/// capped, deterministically jittered backoff (see [`BackoffSchedule`]),
/// resuming from the last *consistent* checkpoint when `opts.checkpoint` is
/// set (and from scratch otherwise). This is the first rung of the recovery
/// ladder on the caller's fixed plan. Transient injected faults fire once
/// across all attempts, so the retry observes a healthy world; permanent
/// faults re-fire every attempt — recovering past those takes the elastic
/// ladder of [`run_with_elastic_recovery`], which can replan. Setting
/// [`RecoveryOptions::elastic`] here is an [`RuntimeError::InvalidOptions`]:
/// a fixed plan has no graph to replan. The recovered output is
/// bit-identical to an undisturbed run (see DESIGN.md "Failure model" for
/// the argument).
pub fn run_with_recovery(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
    recovery: &RecoveryOptions,
) -> Result<RecoveryReport> {
    if recovery.elastic.is_some() {
        return Err(RuntimeError::InvalidOptions(
            "RecoveryOptions::elastic reshapes the worker set, which needs the original graph; \
             use run_with_elastic_recovery"
                .into(),
        ));
    }
    run_fixed(sharded, feeds, opts, recovery, None)
}

/// One execution attempt: spawns the workers, collects their outcomes, and
/// on any failure assembles the [`RunFailure`] post-mortem. `device_map[w]`
/// is the *physical* device logical worker `w` runs on — fault plans target
/// physical devices, so after an elastic shrink the surviving workers keep
/// their fault histories while the dead device's faults vanish with it.
///
/// When `yield_at` is `Some(k)`, every worker stops cleanly right after
/// recording checkpoint `k` (positions before its cut are fully executed,
/// nothing after runs) and the attempt resolves to [`Attempt::Yielded`].
/// This is sound mid-run: with plan-independent barriers a pre-cut consumer
/// only ever needs pieces from pre-cut producers, so every worker reaches
/// its cut without any post-cut work and no send is left owed *within* the
/// prefix. In-flight pieces addressed to post-cut consumers are expected
/// and simply dropped with the channels.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
    faults: &FaultState,
    store: &Mutex<CheckpointStore>,
    resume: Option<&ResumePoint>,
    device_map: &[usize],
    yield_at: Option<usize>,
) -> Result<Attempt> {
    let k = sharded.workers;
    debug_assert_eq!(device_map.len(), k);

    // Local schedule position of every node within its own worker.
    let mut local_pos = vec![0usize; sharded.graph.num_nodes()];
    for w in 0..k {
        for (i, id) in sharded.worker_schedule(w).iter().enumerate() {
            local_pos[id.0] = i;
        }
    }

    // Every send pre-resolved into a schedule-indexed routing table (slot
    // assignment, per-position route spans, receiver-side expectations and
    // pre-decoded fetch assemblies); the hot loops below never consult the
    // graph for routing again.
    let routes = RoutePlan::new(sharded, &local_pos, resume.map(|r| r.cuts.as_slice()));

    // Checkpoint barriers: per worker, which checkpoint ids to record at
    // which local schedule position.
    let cuts: Vec<Vec<usize>> = match opts.checkpoint {
        Some(cp) => checkpoint_cuts(sharded, cp),
        None => Vec::new(),
    };
    let mut ckpts_at: Vec<BTreeMap<usize, Vec<usize>>> = vec![BTreeMap::new(); k];
    for (ki, cut) in cuts.iter().enumerate() {
        for (w, map) in ckpts_at.iter_mut().enumerate() {
            map.entry(cut[w]).or_default().push(ki + 1);
        }
    }

    // One channel per worker. Workers share one immutable sender slice —
    // no per-run clone fan-out; a dead worker drops its *receiver*, so a
    // send to it still fails fast, and the abort token (not channel
    // disconnection) is the primary dead-peer signal.
    let mut txs: Vec<Sender<Msg>> = Vec::with_capacity(k);
    let mut rxs: Vec<Receiver<Msg>> = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }

    let token = AbortToken::new();
    let results: Mutex<Vec<Option<WorkerOutcome>>> = Mutex::new((0..k).map(|_| None).collect());
    // Yield rendezvous: a worker that paused at the yield barrier keeps its
    // receive port alive (parked, not exited) until every worker has reached
    // its own cut — otherwise a peer's pre-cut producer pushing a piece to
    // this worker's *post*-cut consumer would see a hung-up channel.
    let yield_latch = AtomicUsize::new(0);
    let epoch = Instant::now();
    // The collector's clock at this run's epoch: workers translate their
    // epoch-relative `Duration`s into collector microseconds by adding this
    // offset, so traces of successive attempts share one timeline.
    let obs_epoch_us = opts.collector.as_ref().map(|c| c.now_us()).unwrap_or(0.0);

    std::thread::scope(|scope| {
        for (w, rx) in rxs.into_iter().enumerate() {
            let txs = txs.as_slice();
            let worker_routes = &routes.workers[w];
            let results = &results;
            let token = token.clone();
            let ckpts_at = &ckpts_at[w];
            let store = opts.checkpoint.map(|_| store);
            let resume_data = resume.map(|r| (r.cuts[w], &r.values[w]));
            let yield_latch = &yield_latch;
            scope.spawn(move || {
                let outcome = run_worker(
                    sharded, w, feeds, rx, txs, epoch, obs_epoch_us, opts, faults, &token,
                    ckpts_at, store, resume_data, worker_routes, device_map, yield_at,
                    yield_latch,
                );
                if let Some(slot) = results.lock().get_mut(w) {
                    *slot = Some(outcome);
                }
            });
        }
    });
    drop(txs);

    let wall = epoch.elapsed();
    if let Some(c) = &opts.collector {
        c.complete(
            Track::control(),
            "run",
            "attempt",
            obs_epoch_us,
            obs_epoch_us + wall.as_secs_f64() * 1e6,
        );
    }
    let mut workers = Vec::new();
    let mut values: BTreeMap<TensorId, Arc<Tensor>> = BTreeMap::new();
    let mut sent_all: Vec<(usize, Vec<(u64, u64)>)> = Vec::new();
    let mut detection: Vec<(usize, Duration)> = Vec::new();
    let mut errors: Vec<(usize, RuntimeError)> = Vec::new();
    let mut any_yielded = false;
    let (mut slab_allocs, mut slab_reuses) = (0u64, 0u64);
    for (w, slot) in results.into_inner().into_iter().enumerate() {
        let Some(o) = slot else {
            errors.push((w, RuntimeError::Internal(format!("worker {w} vanished"))));
            continue;
        };
        any_yielded |= o.yielded;
        slab_allocs += o.slab_allocs;
        slab_reuses += o.slab_reuses;
        if let Some(t) = o.trace {
            workers.push(t);
        }
        values.extend(o.values);
        if !o.sent.is_empty() {
            sent_all.push((w, o.sent));
        }
        if let Some(d) = o.observed {
            detection.push((w, d));
        }
        if let Some(e) = o.error {
            errors.push((w, e));
        }
    }
    let mut links = Vec::new();
    for (src, per_dst) in &sent_all {
        for (dst, &(bytes, messages)) in per_dst.iter().enumerate() {
            if bytes > 0 || messages > 0 {
                links.push(LinkStat { src: *src, dst, bytes, messages });
            }
        }
    }
    let trace = RunTrace { workers, links, wall };
    if let Some(c) = &opts.collector {
        let copies: u64 = trace.workers.iter().map(|w| w.transport_copy_bytes).sum();
        c.add_total("runtime/transport_copy_bytes", copies as f64);
        c.add_total("runtime/slab_allocs", slab_allocs as f64);
        c.add_total("runtime/slab_reuses", slab_reuses as f64);
    }

    let cause = token.cause();
    if cause.is_none() && errors.is_empty() {
        // A failure always wins over a yield: if any worker died before its
        // cut we fall through to the post-mortem below and the checkpoint
        // stays whatever was consistently recorded.
        if any_yielded {
            let ckpt = yield_at
                .ok_or_else(|| RuntimeError::Internal("worker yielded without a barrier".into()))?;
            return Ok(Attempt::Yielded { ckpt });
        }
        // Success terminates the whole recovery ladder: the store's `Arc`
        // clones are dead weight, and dropping them lets the conversion
        // below reclaim most payloads by move instead of copy.
        if opts.checkpoint.is_some() {
            store.lock().clear();
        }
        let values = values
            .into_iter()
            .map(|(t, v)| (t, Arc::try_unwrap(v).unwrap_or_else(|a| (*a).clone())))
            .collect();
        return Ok(Attempt::Done(RunOutput { values, trace }));
    }
    // The token's cause identifies the *first* failure; that worker's own
    // typed error is the root cause. Workers that stopped because of the
    // abort hold secondary `Aborted` errors.
    let (primary, node, pos, summary) = match &cause {
        Some(c) => (c.worker, c.node, c.pos, c.summary.clone()),
        None => (errors[0].0, None, None, errors[0].1.to_string()),
    };
    let root = errors
        .iter()
        .position(|(w, e)| *w == primary && !matches!(e, RuntimeError::Aborted { .. }))
        .map(|i| errors.swap_remove(i).1)
        .unwrap_or(RuntimeError::Internal(summary));
    Err(RuntimeError::Failed(Box::new(RunFailure {
        worker: primary,
        node,
        pos,
        cause: Box::new(root),
        detection,
        trace,
    })))
}

/// Runs one worker to completion, converting every exit path — success,
/// typed error, panic — into a [`WorkerOutcome`] and tripping the shared
/// abort token on first failure.
#[allow(clippy::too_many_arguments)]
fn run_worker<'a>(
    sharded: &'a ShardedGraph,
    w: usize,
    feeds: &[(TensorId, Tensor)],
    rx: Receiver<Msg>,
    txs: &'a [Sender<Msg>],
    epoch: Instant,
    obs_epoch_us: f64,
    opts: &RunOptions,
    faults: &'a FaultState,
    token: &AbortToken,
    ckpts_at: &'a BTreeMap<usize, Vec<usize>>,
    store: Option<&'a Mutex<CheckpointStore>>,
    resume: Option<(usize, &'a BTreeMap<TensorId, Arc<Tensor>>)>,
    routes: &'a WorkerRoutes,
    device_map: &'a [usize],
    yield_at: Option<usize>,
    yield_latch: &'a AtomicUsize,
) -> WorkerOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut worker = match Worker::new(
            sharded, w, feeds, rx, txs, epoch, obs_epoch_us, opts, faults, token, ckpts_at,
            store, resume, routes, device_map, yield_at, yield_latch,
        ) {
            Ok(worker) => worker,
            Err(e) => {
                token.trip(AbortCause {
                    worker: w,
                    node: None,
                    pos: None,
                    summary: e.to_string(),
                    at: Instant::now(),
                });
                return WorkerOutcome::lost(e);
            }
        };
        let err = worker.run_inner().err();
        worker.finish(err)
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = panic_message(payload);
            token.trip(AbortCause {
                worker: w,
                node: None,
                pos: None,
                summary: format!("panic: {message}"),
                at: Instant::now(),
            });
            WorkerOutcome::lost(RuntimeError::WorkerPanic { worker: w, message })
        }
    }
}

/// One worker's execution state.
struct Worker<'a> {
    sharded: &'a ShardedGraph,
    w: usize,
    /// Physical device this logical worker runs on; fault plans address
    /// physical devices (see `run_attempt`).
    phys: usize,
    /// Logical-to-physical device map for the whole attempt, for addressing
    /// message faults by physical link.
    device_map: &'a [usize],
    schedule: Vec<NodeId>,
    plan: BufferPlan,
    /// Values are shared: checkpoints and resume snapshots hold `Arc`
    /// clones of the same payloads instead of deep copies.
    values: BTreeMap<TensorId, Arc<Tensor>>,
    /// Per tensor: the last local schedule position that reads it
    /// (`usize::MAX` when it stays live to run end — persistent leaves,
    /// comm-edge sources, unconsumed outputs). The checkpoint poison scan
    /// skips tensors dead before the barrier: they cannot influence a
    /// resumed run, and the snapshot still *records* them (bit-identity of
    /// recovered value maps requires every key).
    scan_floor: Vec<usize>,
    /// With checkpointing on: FNV-1a checksum of each value's payload,
    /// recorded the moment the value was produced (or fed / restored). The
    /// checkpoint barrier re-hashes live values against these, so a buffer
    /// aliased or overwritten after production is caught *before* the
    /// snapshot commits — and long before it could reach disk.
    value_sums: BTreeMap<TensorId, u64>,
    /// Remote pieces that arrived before their consumer needed them,
    /// indexed by the plan-time receive slot.
    pending: Vec<Option<PieceRef>>,
    rx: Receiver<Msg>,
    /// The attempt-wide shared sender slice (own slot included; the run
    /// scope owns the senders, so no per-run clone fan-out).
    txs: &'a [Sender<Msg>],
    /// This worker's pre-resolved routing table.
    routes: &'a WorkerRoutes,
    /// Recycling allocator for outgoing message payloads.
    slab: PieceSlab,
    /// Per-message verification level.
    integrity: IntegrityLevel,
    /// Cached: the fault plan contains at least one message fault, so the
    /// per-send fault scan is worth running at all.
    has_message_faults: bool,
    /// Payload bytes the transport copied beyond the producer's single
    /// block extraction (zero on the fault-free fast path).
    transport_copy_bytes: u64,
    /// Per destination: (bytes, messages) pushed.
    sent: Vec<(u64, u64)>,
    /// Per destination: next sequence number to stamp.
    next_seq: Vec<u64>,
    /// Per source: sequence number the next arrival must carry.
    expect_seq: Vec<u64>,
    bytes_received: u64,
    persistent_bytes: u64,
    pool: BufferPool,
    ops: Vec<OpEvent>,
    busy: Duration,
    epoch: Instant,
    /// Trace buffer on this worker's runtime lane; events accumulate locally
    /// and reach the shared collector in one batch at [`Worker::finish`].
    obs: Option<SpanBuffer>,
    /// Collector microseconds at `epoch` (see `run_attempt`).
    obs_epoch_us: f64,
    recv_timeout: Duration,
    abort_poll: Duration,
    token: AbortToken,
    faults: &'a FaultState,
    ckpts_at: &'a BTreeMap<usize, Vec<usize>>,
    store: Option<&'a Mutex<CheckpointStore>>,
    /// Schedule position execution starts at (non-zero on resume).
    start_pos: usize,
    /// Position / node currently executing, for failure attribution.
    cur_pos: Option<usize>,
    cur_node: Option<NodeId>,
    /// Latency from abort trip to this worker observing it.
    observed: Option<Duration>,
    completed: bool,
    /// Checkpoint barrier to stop cleanly at (elastic grow pause).
    yield_at: Option<usize>,
    /// Set once the yield barrier has been recorded; execution stops.
    yielded: bool,
    /// Rendezvous counter of paused workers (see `run_attempt`).
    yield_latch: &'a AtomicUsize,
}

impl<'a> Worker<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        sharded: &'a ShardedGraph,
        w: usize,
        feeds: &[(TensorId, Tensor)],
        rx: Receiver<Msg>,
        txs: &'a [Sender<Msg>],
        epoch: Instant,
        obs_epoch_us: f64,
        opts: &RunOptions,
        faults: &'a FaultState,
        token: &AbortToken,
        ckpts_at: &'a BTreeMap<usize, Vec<usize>>,
        store: Option<&'a Mutex<CheckpointStore>>,
        resume: Option<(usize, &'a BTreeMap<TensorId, Arc<Tensor>>)>,
        routes: &'a WorkerRoutes,
        device_map: &'a [usize],
        yield_at: Option<usize>,
        yield_latch: &'a AtomicUsize,
    ) -> Result<Worker<'a>> {
        let schedule = sharded.worker_schedule(w);
        let plan = plan_buffers(&sharded.graph, &schedule, opts.buffer_reuse);
        let (start_pos, values) = match resume {
            // The snapshot already holds the feeds plus everything the
            // prefix computed; re-feeding would be redundant. Cloning an
            // `Arc` map shares the payloads with the checkpoint store.
            Some((cut, snap)) => (cut, snap.clone()),
            None => {
                let mut values = BTreeMap::new();
                for (t, v) in feeds {
                    if sharded.device_of_tensor.get(t.0).copied().flatten() != Some(w) {
                        continue;
                    }
                    let meta = sharded.graph.tensor(*t);
                    if meta.kind == TensorKind::Intermediate {
                        return Err(RuntimeError::Internal(format!(
                            "worker {w}: fed tensor {:?} is not a leaf",
                            meta.name
                        )));
                    }
                    if v.shape() != &meta.shape {
                        return Err(RuntimeError::Internal(format!(
                            "worker {w}: fed shape {} for shard {:?} declared {}",
                            v.shape(),
                            meta.name,
                            meta.shape
                        )));
                    }
                    values.insert(*t, Arc::new(v.clone()));
                }
                (0, values)
            }
        };
        // Liveness floor for the checkpoint poison scan: last local read per
        // tensor, forced to "live forever" for persistent leaves and
        // comm-edge sources (their values feed resumes and owed sends).
        let mut scan_floor = vec![usize::MAX; sharded.graph.num_tensors()];
        for (pos, id) in schedule.iter().enumerate() {
            for t in &sharded.graph.node(*id).inputs {
                scan_floor[t.0] = pos;
            }
        }
        for t in &plan.persistent {
            scan_floor[t.0] = usize::MAX;
        }
        for r in routes.startup.iter().chain(routes.sends.iter()) {
            scan_floor[r.tensor.0] = usize::MAX;
        }
        let k = txs.len();
        let mut pool = BufferPool::new(w);
        pool.set_budget(opts.pool_budget);
        let value_sums = if store.is_some() {
            values.iter().map(|(t, v)| (*t, payload_checksum(v.data()))).collect()
        } else {
            BTreeMap::new()
        };
        Ok(Worker {
            sharded,
            w,
            phys: device_map[w],
            device_map,
            schedule,
            plan,
            values,
            scan_floor,
            value_sums,
            pending: vec![None; routes.slots.len()],
            rx,
            txs,
            routes,
            slab: PieceSlab::default(),
            integrity: opts.integrity,
            has_message_faults: faults.has_message_faults(),
            transport_copy_bytes: 0,
            sent: vec![(0, 0); k],
            next_seq: vec![0; k],
            expect_seq: vec![0; k],
            bytes_received: 0,
            persistent_bytes: 0,
            pool,
            ops: Vec::new(),
            busy: Duration::ZERO,
            epoch,
            obs: opts.collector.as_ref().map(|c| c.buffer(Track::runtime(w))),
            obs_epoch_us,
            recv_timeout: opts.recv_timeout,
            abort_poll: opts.abort_poll,
            token: token.clone(),
            faults,
            ckpts_at,
            store,
            start_pos,
            cur_pos: None,
            cur_node: None,
            observed: None,
            completed: false,
            yield_at,
            yielded: false,
            yield_latch,
        })
    }

    /// Parks a paused worker until every worker has reached its own yield
    /// cut (or a failure tripped the abort token), keeping this worker's
    /// receive port alive for peers still executing their prefixes.
    fn yield_park(&self) {
        let k = self.txs.len();
        self.yield_latch.fetch_add(1, Ordering::AcqRel);
        while self.yield_latch.load(Ordering::Acquire) < k && !self.token.is_tripped() {
            std::thread::sleep(self.abort_poll);
        }
    }

    /// Collector microseconds for an epoch-relative duration.
    fn obs_ts(&self, since_epoch: Duration) -> f64 {
        self.obs_epoch_us + since_epoch.as_secs_f64() * 1e6
    }

    /// Converts the finished (or failed) worker into its outcome, tripping
    /// the abort token if this worker failed first.
    fn finish(mut self, err: Option<RuntimeError>) -> WorkerOutcome {
        if let Some(e) = &err {
            if !matches!(e, RuntimeError::Aborted { .. }) {
                if let Some(buf) = self.obs.as_mut() {
                    buf.instant("abort", &format!("worker {} failed: {e}", self.w));
                }
            }
            // A worker that stopped *because of* the abort is not a new
            // failure; everything else races to trip (first wins).
            if !matches!(e, RuntimeError::Aborted { .. }) {
                self.token.trip(AbortCause {
                    worker: self.w,
                    node: self.cur_node,
                    pos: self.cur_pos,
                    summary: e.to_string(),
                    at: Instant::now(),
                });
            }
        }
        // One batched hand-off of everything this worker buffered (flush on
        // drop would also cover it; doing it here keeps the timing visible).
        if let Some(buf) = self.obs.as_mut() {
            buf.flush();
        }
        let trace = WorkerTrace {
            device: self.w,
            ops: std::mem::take(&mut self.ops),
            busy: self.busy,
            pool_peak_bytes: self.pool.peak_bytes(),
            persistent_bytes: self.persistent_bytes,
            bytes_sent: self.sent.iter().map(|&(b, _)| b).sum(),
            bytes_received: self.bytes_received,
            transport_copy_bytes: self.transport_copy_bytes,
            completed: self.completed,
            resumed_from: if self.start_pos > 0 { Some(self.start_pos) } else { None },
        };
        WorkerOutcome {
            trace: Some(trace),
            values: std::mem::take(&mut self.values),
            sent: std::mem::take(&mut self.sent),
            slab_allocs: self.slab.allocs(),
            slab_reuses: self.slab.reuses(),
            error: err,
            observed: self.observed,
            yielded: self.yielded,
        }
    }

    /// Observes the shared abort token; errors with `Aborted` once tripped.
    fn check_abort(&mut self) -> Result<()> {
        if self.token.is_tripped() {
            let cause = self.token.cause().expect("tripped token carries a cause");
            if self.observed.is_none() {
                self.observed = Some(cause.at.elapsed());
                if let Some(buf) = self.obs.as_mut() {
                    buf.instant("abort", &format!("abort observed (worker {} failed)", cause.worker));
                }
            }
            return Err(RuntimeError::Aborted { worker: self.w, by: cause.worker });
        }
        Ok(())
    }

    /// Records every checkpoint whose local cut is `pos` (positions
    /// `[0, pos)` are done). Every value still live at the barrier is
    /// scanned for NaN/Inf first and a poisoned snapshot is *never*
    /// committed — a checkpoint exists to be restored from, and restoring
    /// non-finite state would silently poison every later attempt.
    /// Tensors whose last local read precedes the barrier are skipped by the
    /// scan (a resume can never observe them) but stay in the snapshot: the
    /// recorded map is an `Arc` clone of the live one — refcount bumps, no
    /// payload copies — and bit-identity of recovered runs requires every
    /// key to survive.
    ///
    /// The same scan re-hashes each live value and compares it against the
    /// checksum recorded when the value was produced: a mismatch means some
    /// buffer aliased or scribbled over the payload after the fact, and the
    /// snapshot is rejected with [`RuntimeError::CorruptSnapshot`] before it
    /// can be committed (or persisted to disk).
    ///
    /// When the store carries a [`CheckpointSink`], the worker whose record
    /// makes checkpoint `k` consistent drives the sink — outside the store
    /// lock, so persistence I/O never serializes peers' barriers.
    fn take_checkpoints(&mut self, pos: usize) -> Result<()> {
        if let (Some(store), Some(ks)) = (self.store, self.ckpts_at.get(&pos)) {
            if let Err((t, defect)) =
                scan_snapshot(&self.values, &self.value_sums, &self.scan_floor, pos)
            {
                return Err(match defect {
                    SnapshotDefect::NonFinite => RuntimeError::PoisonedCheckpoint {
                        worker: self.w,
                        node: self
                            .sharded
                            .graph
                            .producer(t)
                            .map(|n| self.sharded.graph.node(n).name.clone()),
                        tensor: self.sharded.graph.tensor(t).name.clone(),
                    },
                    SnapshotDefect::ChecksumMismatch => RuntimeError::CorruptSnapshot {
                        worker: self.w,
                        tensor: self.sharded.graph.tensor(t).name.clone(),
                    },
                });
            }
            let mut to_persist = Vec::new();
            let sink = {
                let mut s = store.lock();
                for &k in ks {
                    s.record(k, self.w, self.values.clone());
                }
                let sink = s.sink();
                if sink.is_some() {
                    // Exactly one worker observes each k become consistent
                    // (its record is the last of the set), so each k is
                    // collected for persistence exactly once.
                    for &k in ks {
                        if let Some(vals) = s.consistent_values(k, self.sharded.workers) {
                            to_persist.push((k, vals));
                        }
                    }
                }
                sink
            };
            if let Some(sink) = sink {
                for (k, vals) in to_persist {
                    sink.on_consistent(self.sharded, self.w, k, &vals)?;
                }
            }
            for &k in ks {
                if let Some(buf) = self.obs.as_mut() {
                    buf.instant("ckpt", &format!("checkpoint {k}"));
                }
            }
            if let Some(y) = self.yield_at {
                if ks.contains(&y) {
                    // The pause barrier is recorded: stop before executing
                    // anything past this cut.
                    self.yielded = true;
                    if let Some(buf) = self.obs.as_mut() {
                        buf.instant("ckpt", &format!("yield at checkpoint {y}"));
                    }
                }
            }
        }
        Ok(())
    }

    fn run_inner(&mut self) -> Result<()> {
        // On resume, bring the pool to its pre-failure state by replaying
        // the plan's prefix (output sizes are static graph metadata).
        for pos in 0..self.start_pos {
            let out = self.sharded.graph.node(self.schedule[pos]).output;
            let bytes = self.sharded.graph.tensor(out).shape.bytes();
            self.pool.apply(self.plan.actions[pos], bytes)?;
        }

        // Resident leaf bytes, measured from the actual fed shards this
        // worker's non-fetch nodes consume.
        let mut persistent_bytes = 0u64;
        for t in &self.plan.persistent {
            let v = self.values.get(t).ok_or_else(|| RuntimeError::MissingFeed {
                worker: self.w,
                tensor: self.sharded.graph.tensor(*t).name.clone(),
            })?;
            persistent_bytes += v.shape().bytes();
        }
        self.persistent_bytes = persistent_bytes;

        // Owned leaf shards other devices fetch go out before any compute;
        // on resume this list also carries the owed snapshot sends.
        let routes = self.routes;
        for r in &routes.startup {
            self.send_route(r)?;
        }

        let last = self.schedule.len().saturating_sub(1);
        // Index-based walk: `NodeId` is `Copy`, so reading one id per step
        // borrows `self.schedule` only momentarily and the `&mut self` calls
        // below don't force a clone of the whole schedule.
        for pos in self.start_pos..self.schedule.len() {
            let id = self.schedule[pos];
            self.check_abort()?;
            self.cur_pos = Some(pos);
            self.cur_node = Some(id);
            self.take_checkpoints(pos)?;
            if self.yielded {
                // Stopping here is clean: every pre-cut producer already
                // ran and pushed its pieces, so no peer still inside its
                // prefix can block on this worker.
                self.cur_pos = None;
                self.cur_node = None;
                self.yield_park();
                return Ok(());
            }
            for f in self.faults.step_faults(self.phys, pos, last, self.start_pos) {
                match f {
                    StepFault::Kill => {
                        return Err(RuntimeError::Injected {
                            worker: self.w,
                            detail: format!("killed at schedule step {pos} (node {})", id.0),
                        })
                    }
                    StepFault::Panic => {
                        panic!("injected panic on worker {} at schedule step {pos}", self.w)
                    }
                    StepFault::PoolOverBudget => {
                        // Clamp below current occupancy: the next apply is
                        // guaranteed to observe an over-budget pool.
                        let clamp = self.pool.current_bytes().saturating_sub(1);
                        self.pool.set_budget(Some(clamp));
                    }
                }
            }
            let node = self.sharded.graph.node(id);
            let start = self.epoch.elapsed();
            let out = if node.op == "multi_fetch" {
                self.assemble_fetch(pos, id)?
            } else {
                let inputs: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|t| {
                        self.values.get(t).map(|v| v.as_ref()).ok_or_else(|| {
                            RuntimeError::MissingFeed {
                                worker: self.w,
                                tensor: self.sharded.graph.tensor(*t).name.clone(),
                            }
                        })
                    })
                    .collect::<Result<_>>()?;
                execute_node(&self.sharded.graph, id, &inputs)
                    .map_err(|source| RuntimeError::Exec { worker: self.w, source })?
            };
            self.pool.apply(self.plan.actions[pos], out.shape().bytes())?;
            let end = self.epoch.elapsed();
            self.busy += end - start;
            self.ops.push(OpEvent { node: id, start, end });
            if self.obs.is_some() {
                let (s_us, e_us) = (self.obs_ts(start), self.obs_ts(end));
                let cat = if node.op == "multi_fetch" { "fetch" } else { "op" };
                let pool_now = self.pool.current_bytes() as f64;
                if let Some(buf) = self.obs.as_mut() {
                    buf.complete(cat, &node.name, s_us, e_us);
                    buf.counter("pool bytes", e_us, pool_now);
                }
            }
            if self.store.is_some() {
                self.value_sums.insert(node.output, payload_checksum(out.data()));
            }
            self.values.insert(node.output, Arc::new(out));
            let (lo, hi) = routes.spans[pos];
            for r in &routes.sends[lo as usize..hi as usize] {
                self.send_route(r)?;
            }
        }
        self.cur_pos = None;
        self.cur_node = None;
        self.take_checkpoints(self.schedule.len())?;
        if self.yielded {
            // The whole schedule happens to sit before the yield barrier.
            // Skip the end-of-run checks: peers pausing at their own cuts
            // may legitimately leave pieces for this attempt's unexecuted
            // suffix in flight.
            self.yield_park();
            return Ok(());
        }

        // End-of-run integrity: every piece addressed to this worker must
        // have been consumed — a leftover means a duplicated or misrouted
        // message survived to the end. `Fast` skips the sweep entirely: the
        // routing table guarantees a fault-free run sends exactly the pieces
        // the plan owes, so the sweep only ever fires under injected faults
        // (which require `Full` anyway).
        if self.integrity == IntegrityLevel::Full {
            self.drain_check()?;
        }
        self.pool.verify_against(&self.plan)?;
        self.completed = true;
        Ok(())
    }

    /// Pushes the pre-routed piece `r` (extract into a slab buffer, seal,
    /// stamp, send), applying any injected message fault targeting this link
    /// position. The fast path performs exactly one copy — tensor to slab
    /// buffer — and the channel then carries only the `Arc`.
    fn send_route(&mut self, r: &SendRoute) -> Result<()> {
        let len_elems: usize = r.piece.len.iter().map(|&l| l.max(0) as usize).product();
        let mut buf = self.slab.alloc(len_elems);
        {
            let src = self.values.get(&r.tensor).ok_or_else(|| {
                RuntimeError::Internal(format!(
                    "worker {}: comm edge reads unevaluated tensor {:?}",
                    self.w, r.tensor
                ))
            })?;
            append_block(&mut buf, src.data(), src.shape().dims(), &r.piece.src_begin, &r.piece.len)
                .map_err(|e| RuntimeError::Internal(format!("piece extraction: {e}")))?;
        }
        let dims: Vec<usize> = r.piece.len.iter().map(|&l| l.max(0) as usize).collect();
        let mut piece = self.slab.seal(Shape::new(dims), buf);
        let bytes = piece.bytes();
        // The checksum covers the *intended* payload; corruption injected
        // below is therefore detectable at the receiver. Lower integrity
        // levels send 0 — the receiver doesn't look at it.
        let checksum = if self.integrity == IntegrityLevel::Full {
            payload_checksum(piece.data())
        } else {
            0
        };
        let index = self.sent[r.dst].1;
        let seq = self.next_seq[r.dst];
        self.next_seq[r.dst] += 1;
        self.sent[r.dst].0 += bytes;
        self.sent[r.dst].1 += 1;
        if self.obs.is_some() {
            let ts = self.obs_ts(self.epoch.elapsed());
            let total = self.sent[r.dst].0 as f64;
            let name = format!("link {}->{} bytes", self.w, r.dst);
            if let Some(buf) = self.obs.as_mut() {
                buf.counter(&name, ts, total);
            }
        }
        // The linear fault-table scan only runs when a message fault is
        // actually armed; fault-free runs skip it per message.
        let action = if self.has_message_faults {
            self.faults.message_action(self.phys, self.device_map[r.dst], index)
        } else {
            None
        };
        match action {
            // Lost on the wire: the sequence number is consumed, so the next
            // message on this link exposes the gap.
            Some(MessageFault::Drop) => return Ok(()),
            Some(MessageFault::Delay(d)) => std::thread::sleep(d),
            Some(MessageFault::Corrupt) => {
                // The sealed payload may be aliased (a duplicate in flight,
                // the slab's reclamation handle) — corrupting it in place
                // would tamper with every holder. Divert through an owned,
                // untracked buffer instead; the copy is charged to the
                // transport-copy counter like any other fault-path copy.
                let mut data = piece.data().to_vec();
                if let Some(v) = data.first_mut() {
                    *v = f32::from_bits(v.to_bits() ^ 0x0040_0000);
                }
                self.transport_copy_bytes += bytes;
                piece = PieceRef::from_vec(piece.shape().clone(), data);
            }
            Some(MessageFault::Duplicate) | None => {}
        }
        if r.dst == self.w {
            return Err(RuntimeError::Internal(
                "comm edge addressed to the sending worker".into(),
            ));
        }
        let tx = &self.txs[r.dst];
        let hung_up = |_| RuntimeError::Comm {
            worker: self.w,
            detail: format!("worker {} hung up", r.dst),
        };
        if action == Some(MessageFault::Duplicate) {
            // Cloning a `PieceRef` bumps a refcount; the payload stays shared.
            tx.send(Msg {
                src: self.w,
                seq,
                slot: r.slot,
                consumer: r.consumer,
                input_index: r.input_index,
                checksum,
                piece: piece.clone(),
            })
            .map_err(hung_up)?;
        }
        tx.send(Msg {
            src: self.w,
            seq,
            slot: r.slot,
            consumer: r.consumer,
            input_index: r.input_index,
            checksum,
            piece,
        })
        .map_err(hung_up)?;
        Ok(())
    }

    /// Executes a `multi_fetch` node: local inputs are copied out of the
    /// worker's own values; remote inputs block on their pre-assigned
    /// receive slot until the (already-extracted) piece arrives. The
    /// assembly plan was decoded once at plan time — no attribute parsing
    /// or graph lookups happen here.
    fn assemble_fetch(&mut self, pos: usize, id: NodeId) -> Result<Tensor> {
        let routes = self.routes;
        let plan = routes.fetches[pos]
            .as_ref()
            .ok_or_else(|| RuntimeError::Internal("assemble on non-fetch node".into()))?;
        let graph = &self.sharded.graph;
        let out_shape = &graph.tensor(graph.node(id).output).shape;
        let dims = out_shape.dims();
        let mut out = Tensor::zeros(out_shape.clone());
        let w = self.w;
        let misplaced =
            |i: usize, e| RuntimeError::Internal(format!("worker {w}: fetch piece {i}: {e}"));
        for (i, input) in plan.inputs.iter().enumerate() {
            let p = &input.piece;
            match input.source {
                FetchSource::Local(t) => {
                    let src = self.values.get(&t).ok_or_else(|| {
                        RuntimeError::Internal(format!(
                            "worker {}: fetch reads unevaluated local {t:?}",
                            self.w
                        ))
                    })?;
                    let (data, src_dims) = (src.data(), src.shape().dims());
                    let buf = out.data_mut();
                    copy_block(buf, dims, data, src_dims, &p.src_begin, &p.dst_begin, &p.len)
                        .map_err(|e| misplaced(i, e))?;
                }
                FetchSource::Remote { slot } => {
                    // Time the blocking receive separately so a trace splits
                    // a fetch node's span into recv-wait vs assembly.
                    let wait_start = self.obs.as_ref().map(|_| self.epoch.elapsed());
                    let piece = self.recv_piece(slot, id, i)?;
                    if let Some(ws) = wait_start {
                        let (s_us, e_us) = (self.obs_ts(ws), self.obs_ts(self.epoch.elapsed()));
                        let name = format!("recv {}[{i}]", self.sharded.graph.node(id).name);
                        if let Some(buf) = self.obs.as_mut() {
                            buf.complete("wait", &name, s_us, e_us);
                        }
                    }
                    self.bytes_received += piece.bytes();
                    // The producer already extracted the block: source
                    // offsets are zero in the received piece's coordinates.
                    let (data, src_dims) = (piece.data(), piece.shape().dims());
                    let zeros = vec![0; p.len.len()];
                    copy_block(out.data_mut(), dims, data, src_dims, &zeros, &p.dst_begin, &p.len)
                        .map_err(|e| misplaced(i, e))?;
                }
            }
        }
        Ok(out)
    }

    /// Validates an arriving message (link sequence, payload checksum,
    /// expected piece — depending on the configured integrity level) and
    /// stashes it in its receive slot. At [`IntegrityLevel::Fast`] only the
    /// slot-occupancy check remains, and that is required for correctness,
    /// not integrity: a slot holds exactly one piece per attempt.
    fn accept(&mut self, msg: Msg) -> Result<()> {
        let routes = self.routes;
        let comm = |detail: String| RuntimeError::Comm { worker: self.w, detail };
        let slot = msg.slot as usize;
        let Some(expect) = routes.slots.get(slot) else {
            return Err(comm(format!(
                "link {} -> {}: piece carries unknown receive slot {slot}",
                msg.src, self.w
            )));
        };
        if self.integrity == IntegrityLevel::Full {
            let expected = self.expect_seq[msg.src];
            if msg.seq != expected {
                return Err(comm(format!(
                    "link {} -> {}: message carries seq {} but {} was expected ({})",
                    msg.src,
                    self.w,
                    msg.seq,
                    expected,
                    if msg.seq < expected {
                        "a piece was duplicated or reordered"
                    } else {
                        "a piece was dropped"
                    }
                )));
            }
            self.expect_seq[msg.src] = expected + 1;
            if payload_checksum(msg.piece.data()) != msg.checksum {
                return Err(comm(format!(
                    "link {} -> {}: piece for node {} input {} failed its checksum \
                     (payload corrupted in transit)",
                    msg.src, self.w, msg.consumer.0, msg.input_index
                )));
            }
            // Expected-piece check against the plan-time routing table: the
            // stamped sender, consumer and input index must match what the
            // slot was assigned to carry, and the payload must be exactly
            // the block shape the generator planned.
            if msg.src != expect.src
                || msg.consumer != expect.consumer
                || msg.input_index != expect.input_index
            {
                return Err(comm(format!(
                    "link {} -> {}: piece stamped for node {} input {} landed in slot \
                     {slot}, which expects node {} input {} from worker {}",
                    msg.src,
                    self.w,
                    msg.consumer.0,
                    msg.input_index,
                    expect.consumer.0,
                    expect.input_index,
                    expect.src
                )));
            }
            if msg.piece.shape().dims() != expect.dims.as_slice() {
                return Err(comm(format!(
                    "link {} -> {}: piece for node {} input {} has shape {} but block \
                     {:?} was expected",
                    msg.src,
                    self.w,
                    msg.consumer.0,
                    msg.input_index,
                    msg.piece.shape(),
                    expect.dims
                )));
            }
        }
        if self.pending[slot].is_some() {
            return Err(comm(format!(
                "link {} -> {}: second piece for node {} input {} (duplicate)",
                msg.src, self.w, expect.consumer.0, expect.input_index
            )));
        }
        self.pending[slot] = Some(msg.piece);
        Ok(())
    }

    /// The piece for `slot`, from the stash or the wire. Polls the abort
    /// token at `abort_poll` granularity while waiting, so a peer failure is
    /// observed in milliseconds rather than `recv_timeout`.
    fn recv_piece(&mut self, slot: u32, consumer: NodeId, input_index: usize) -> Result<PieceRef> {
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            if let Some(v) = self.pending[slot as usize].take() {
                return Ok(v);
            }
            self.check_abort()?;
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::Comm {
                    worker: self.w,
                    detail: format!(
                        "stalled {:?} waiting for node {} input {input_index}",
                        self.recv_timeout, consumer.0
                    ),
                });
            }
            match self.rx.recv_timeout(self.abort_poll.min(deadline - now)) {
                Ok(msg) => self.accept(msg)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.check_abort()?;
                    return Err(RuntimeError::Comm {
                        worker: self.w,
                        detail: "every peer hung up".into(),
                    });
                }
            }
        }
    }

    /// End-of-run check: the receive port and every stash slot must be empty.
    fn drain_check(&mut self) -> Result<()> {
        while let Ok(msg) = self.rx.try_recv() {
            // A late arrival still goes through the integrity checks — a
            // duplicate trips the sequence check right here.
            self.accept(msg)?;
        }
        if let Some(slot) = self.pending.iter().position(|p| p.is_some()) {
            let e = &self.routes.slots[slot];
            return Err(RuntimeError::Comm {
                worker: self.w,
                detail: format!(
                    "piece for node {} input {} was never consumed \
                     (duplicated or misrouted message)",
                    e.consumer.0, e.input_index
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod snapshot_guard_tests {
    use super::*;

    fn arc(data: Vec<f32>) -> Arc<Tensor> {
        Arc::new(Tensor::from_vec(Shape::new(vec![data.len()]), data).unwrap())
    }

    #[test]
    fn clean_values_pass() {
        let values: BTreeMap<TensorId, Arc<Tensor>> =
            [(TensorId(0), arc(vec![1.0, 2.0])), (TensorId(1), arc(vec![-0.0, 3.5]))].into();
        let sums: BTreeMap<TensorId, u64> =
            values.iter().map(|(t, v)| (*t, payload_checksum(v.data()))).collect();
        assert_eq!(scan_snapshot(&values, &sums, &[10, 10], 5), Ok(()));
    }

    #[test]
    fn stale_checksum_is_corruption() {
        // Record the checksum of one payload, then "corrupt" the buffer by
        // swapping in different bytes — the scan must flag it.
        let good = arc(vec![1.0, 2.0]);
        let sums: BTreeMap<TensorId, u64> =
            [(TensorId(0), payload_checksum(good.data()))].into();
        let corrupted: BTreeMap<TensorId, Arc<Tensor>> =
            [(TensorId(0), arc(vec![1.0, 2.000001]))].into();
        assert_eq!(
            scan_snapshot(&corrupted, &sums, &[10], 5),
            Err((TensorId(0), SnapshotDefect::ChecksumMismatch))
        );
    }

    #[test]
    fn nonfinite_beats_checksum() {
        // A NaN payload is poison even if its checksum happens to match.
        let bad = arc(vec![f32::NAN]);
        let sums: BTreeMap<TensorId, u64> =
            [(TensorId(0), payload_checksum(bad.data()))].into();
        let values: BTreeMap<TensorId, Arc<Tensor>> = [(TensorId(0), bad)].into();
        assert_eq!(
            scan_snapshot(&values, &sums, &[10], 5),
            Err((TensorId(0), SnapshotDefect::NonFinite))
        );
    }

    #[test]
    fn dead_values_are_skipped() {
        // Dead before the barrier: even a corrupt value is unobservable.
        let values: BTreeMap<TensorId, Arc<Tensor>> = [(TensorId(0), arc(vec![f32::NAN]))].into();
        let sums: BTreeMap<TensorId, u64> = [(TensorId(0), 0xdead)].into();
        assert_eq!(scan_snapshot(&values, &sums, &[3], 5), Ok(()));
    }

    #[test]
    fn missing_sum_only_checks_finiteness() {
        // The poison scan runs without recorded sums for resumed values.
        let values: BTreeMap<TensorId, Arc<Tensor>> = [(TensorId(0), arc(vec![4.0]))].into();
        assert_eq!(scan_snapshot(&values, &BTreeMap::new(), &[10], 5), Ok(()));
    }
}
