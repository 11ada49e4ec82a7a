//! The recovery ladder, the only recovery implementation: retry → reshape
//! the worker set → restart from the durable store. Every driver is one
//! entry configuration of it (DESIGN.md "Failure model"):
//!
//! - [`run_with_recovery`](crate::run_with_recovery) runs the
//!   [`Supervisor`]'s attempt loop on the caller's fixed plan (as do
//!   `run_with_options` and `resume_from_snapshot`, with one attempt);
//! - [`run_with_elastic_recovery`] runs the whole [`ladder`] from the
//!   original graph;
//! - [`run_with_durable_recovery`](crate::run_with_durable_recovery) runs
//!   the ladder once per process incarnation, with one attempt and no
//!   policy, persisting through a checkpoint sink and restarting from the
//!   snapshot the store recovered.
//!
//! The rungs (DESIGN.md "Elastic recovery"):
//!
//! 1. **Transient retry.** Each worker count gets `max_attempts` runs,
//!    resuming from the latest consistent checkpoint with capped,
//!    deterministically jittered backoff between them.
//! 2. **Elastic shrink.** When a width exhausts its attempts, the worker the
//!    last failure blames is classified as *permanently lost*: its physical
//!    device leaves the topology, the partition search re-runs for the
//!    survivor count through [`partition_cached`] (warm [`SearchCaches`]
//!    make the replan a cache lookup, not a cold search), the last
//!    consistent checkpoint is reassembled into a plan-independent
//!    [`FullSnapshot`] and resharded onto the new plan, and execution
//!    resumes at the same original-graph barrier on the shrunk worker set.
//! 3. **Elastic grow.** When the [`ChurnPlan`] announces a (re)joining
//!    device, the run *yields*: every worker stops cleanly right after
//!    recording the next checkpoint barrier at or past the join's
//!    `at_ckpt` plus the policy's `grow_hysteresis`. The pause barrier is
//!    consistent by construction, so it is harvested into the carried
//!    snapshot, the device enters the fleet, and the search re-selects the
//!    widest feasible worker count ≤ the new capacity — resuming bit-exact
//!    at the grown width.
//! 4. **Capacity tracking with spares.** Not every device count is a
//!    feasible width (no tensor dimension may divide by it) and the policy
//!    may cap width; width selection steps down to the widest worker count
//!    the search can actually split — surplus devices idle as *spares* and
//!    are folded back in at the next transition.
//! 5. **Typed surrender.** When the policy forbids any feasible width the
//!    ladder ends with [`RuntimeError::Unrecoverable`] naming the whole
//!    width ladder, every lost device and the terminal cause — never a
//!    hang.
//!
//! Fault worker indices name **physical** devices: active workers keep
//! their physical identity across transitions (`devices[logical] =
//! physical`), so a permanent fault follows its device through shrinks,
//! spares and rejoins, while faults on survivors keep firing at any width.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tofu_core::{
    generate, partition_cached, CoreError, GenOptions, PartitionOptions, PartitionPlan,
    SearchCaches, ShardedGraph,
};
use tofu_graph::{plan_buffers, Graph, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::Tensor;

use crate::checkpoint::{
    checkpoint_cuts, AttemptRecord, BackoffSchedule, BarrierUnit, CheckpointSink,
    CheckpointStore, RecoveryOptions, RecoveryReport, ResumePoint,
};
use crate::error::{RunFailure, RuntimeError};
use crate::fault::{ChurnEvent, FaultState};
use crate::reshard::{assemble_snapshot, scatter_snapshot, FullSnapshot};
use crate::{run_attempt, validate, Attempt, Result, RunOptions, RunOutput};

/// Bounds on how far elastic recovery may reshape the worker set, in both
/// directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticPolicy {
    /// Fewest active workers the run may degrade to (inclusive; values
    /// below 1 mean 1).
    pub min_workers: usize,
    /// Most active workers a grow may reach (inclusive). Joining devices
    /// beyond the cap are kept as spares.
    pub max_workers: usize,
    /// Maximum number of shrink events (device removals).
    pub max_shrink_steps: usize,
    /// Maximum number of grow events (width increases). Joins past the cap
    /// are absorbed as spares.
    pub max_grow_steps: usize,
    /// Extra checkpoint barriers to wait past a join's `at_ckpt` before
    /// pausing the run to grow. Growing costs a yield + reshard + resume;
    /// hysteresis keeps a flapping device from buying that cost the moment
    /// it reappears, and — because the effective barrier is
    /// `clamp(at_ckpt + hysteresis, next-barrier ..= last-barrier)` —
    /// the grow point stays deterministic for a given plan.
    pub grow_hysteresis: usize,
    /// Per-device byte budget every candidate plan's static footprint
    /// (buffer-plan peak + persistent shards, the bytes the pools will
    /// actually hold) is checked against; over-budget widths are stepped
    /// past like infeasible ones.
    pub per_device_budget: Option<u64>,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            min_workers: 1,
            max_workers: usize::MAX,
            max_shrink_steps: usize::MAX,
            max_grow_steps: usize::MAX,
            grow_hysteresis: 0,
            per_device_budget: None,
        }
    }
}

/// What kind of fleet transition a ladder step was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// A device was lost and the active width stepped down.
    Shrink,
    /// A device joined and the active width stepped up.
    Grow,
    /// A device joined but the width could not increase (policy cap or no
    /// wider feasible width): it idles as a spare.
    SpareJoin,
    /// A scripted leave hit a device that was not active (a spare): the
    /// fleet shrank but the running width did not change.
    SpareLoss,
}

/// One fleet transition of an elastic run, with its recovery-latency
/// breakdown: detect (failure observation, shrinks only) → replan
/// (partition search at the new width, warm or cold) → reshard (snapshot
/// scatter onto the new plan) → resume (first attempt at the new width).
#[derive(Debug, Clone)]
pub struct ElasticTransition {
    /// What happened.
    pub kind: TransitionKind,
    /// Physical device that left or joined.
    pub device: usize,
    /// Active width before the transition.
    pub from_width: usize,
    /// Active width after it.
    pub to_width: usize,
    /// Checkpoint barrier the transition happened at: the yield barrier for
    /// grows, the carried snapshot's barrier for shrinks (`None` = the new
    /// width started from scratch).
    pub at_ckpt: Option<usize>,
    /// Slowest peer abort-detection latency of the triggering failure
    /// (shrinks only; grows are voluntary).
    pub detection: Option<Duration>,
    /// Partition-search time for the new width (includes stepped-past
    /// infeasible probes, excludes program lowering — lowering costs the
    /// same warm or cold).
    pub replan: Option<Duration>,
    /// Whether the new width's plan came out of the warm plan cache.
    pub replan_warm: bool,
    /// Snapshot reshard time onto the new plan.
    pub reshard: Option<Duration>,
    /// Bytes of full-tensor snapshot moved by that reshard.
    pub reshard_bytes: u64,
    /// Wall-clock of the first attempt at the new width.
    pub resume_wall: Option<Duration>,
}

/// What an elastic run hands back: the final output plus the whole ladder's
/// history. `output.values` is keyed by `sharded`'s tensor ids — gather
/// originals with [`ShardedGraph::gather`] on the returned `sharded`.
#[derive(Debug)]
pub struct ElasticReport {
    /// The successful run's output, on the final worker set.
    pub output: RunOutput,
    /// The sharded graph of the final (successful) plan.
    pub sharded: ShardedGraph,
    /// The final partition plan.
    pub plan: PartitionPlan,
    /// Active physical devices of the final width, in logical-worker order.
    pub devices: Vec<usize>,
    /// Fleet members idling as spares at the end (in the fleet but not
    /// active: policy caps or no feasible width used them).
    pub spares: Vec<usize>,
    /// Physical devices classified as permanently lost, in loss order.
    pub lost: Vec<usize>,
    /// Physical devices that (re)joined the fleet, in join order.
    pub joined: Vec<usize>,
    /// Worker counts attempted, ladder order (full width first).
    pub widths: Vec<usize>,
    /// Total attempts consumed across all widths.
    pub attempts: usize,
    /// The failure of every aborted attempt, in order.
    pub failures: Vec<RunFailure>,
    /// Per attempt: the checkpoint it resumed from (`None` = from scratch).
    pub resumed_from: Vec<Option<usize>>,
    /// Per attempt: worker set, resume point and latency breakdown.
    pub history: Vec<AttemptRecord>,
    /// Every fleet transition (shrink/grow/spare) with its detect → replan
    /// → reshard → resume latency split.
    pub transitions: Vec<ElasticTransition>,
    /// The plan-independent snapshot the final width resumed from, if any —
    /// feed it to [`resume_from_snapshot`](crate::resume_from_snapshot) at
    /// the final width to reproduce the output bit for bit.
    pub snapshot: Option<FullSnapshot>,
}

/// Worst per-device static memory footprint of a plan: buffer-plan peak
/// plus persistent shard bytes, per worker — the same accounting the
/// runtime's pools replay.
fn worst_device_footprint(sharded: &ShardedGraph, buffer_reuse: bool) -> u64 {
    (0..sharded.workers)
        .map(|w| {
            let schedule = sharded.worker_schedule(w);
            plan_buffers(&sharded.graph, &schedule, buffer_reuse).mem.total_bytes()
        })
        .max()
        .unwrap_or(0)
}

/// A committed width choice: the widest feasible worker count ≤ capacity.
struct Selection {
    width: usize,
    plan: PartitionPlan,
    sharded: ShardedGraph,
    /// Search time, stepped-past probes included.
    replan: Duration,
    /// The selected width's plan was a warm plan-cache hit.
    warm: bool,
}

/// Selects the widest feasible worker count ≤ `cap` under `policy`: worker
/// counts the search cannot split ([`CoreError::NoStrategy`]) or whose
/// static footprint exceeds the per-device budget are stepped past (width
/// tracks capacity; surplus devices idle as spares). With no policy the
/// width is exact — `cap` or error. The inner error is the terminal cause
/// when every permitted width is infeasible or over budget; the outer one
/// is a real failure (generator error, search blowup).
fn select_width(
    g: &Graph,
    base: &PartitionOptions,
    caches: &SearchCaches,
    obs: Option<&Collector>,
    policy: Option<&ElasticPolicy>,
    cap: usize,
    buffer_reuse: bool,
) -> Result<std::result::Result<Selection, RuntimeError>> {
    let (floor, ceil, budget) = match policy {
        Some(p) => (p.min_workers.max(1), cap.min(p.max_workers.max(1)), p.per_device_budget),
        None => (cap, cap, None),
    };
    let t0 = Instant::now();
    let obs_t0 = obs.map(|c| c.now_us()).unwrap_or(0.0);
    let mut terminal: Option<RuntimeError> = None;
    for w in (floor.max(1)..=ceil).rev() {
        // A replan is *warm* when the request memo answers for the selected
        // width — a finished plan served without any search. Step-plan hits
        // below the request level don't count: a first-ever search at this
        // width shares step fingerprints with other widths and still pays
        // real search work.
        let hits_before = caches.stats().request_hits;
        let plan = match partition_cached(g, &PartitionOptions { workers: w, ..*base }, caches, obs)
        {
            Ok(plan) => plan,
            Err(e @ (CoreError::NoStrategy { .. } | CoreError::BadWorkerCount(_)))
                if policy.is_some() =>
            {
                if let Some(c) = obs {
                    c.instant(Track::control(), "elastic", &format!("width {w} infeasible"));
                }
                terminal = Some(e.into());
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        let warm = caches.stats().request_hits > hits_before;
        // Replan time is the *search* (including every stepped-past
        // infeasible probe) — program lowering below costs the same warm or
        // cold and would drown the cache signal.
        let replan = t0.elapsed();
        let sharded = generate(g, &plan, &GenOptions::default())?;
        if let Some(b) = budget {
            let worst = worst_device_footprint(&sharded, buffer_reuse);
            if worst > b {
                if let Some(c) = obs {
                    c.instant(
                        Track::control(),
                        "elastic",
                        &format!("width {w} over budget ({worst} > {b} bytes/device)"),
                    );
                }
                terminal = Some(RuntimeError::Pool {
                    worker: 0,
                    detail: format!("plan for {w} workers needs {worst} bytes/device, budget is {b}"),
                });
                continue;
            }
        }
        if let Some(c) = obs {
            c.complete(
                Track::search(),
                "search",
                &format!("elastic replan ({w} workers)"),
                obs_t0,
                c.now_us(),
            );
        }
        return Ok(Ok(Selection { width: w, plan, sharded, replan, warm }));
    }
    Ok(Err(terminal.unwrap_or_else(|| {
        RuntimeError::InvalidOptions(format!(
            "elastic policy permits no worker count (capacity {cap})"
        ))
    })))
}

/// Inserts `d` into sorted `v` (active devices are always the lowest-id
/// fleet members, so logical-worker order stays deterministic).
fn insert_sorted(v: &mut Vec<usize>, d: usize) {
    let i = v.partition_point(|&x| x < d);
    v.insert(i, d);
}

/// A transition record at `width` before any latency is known; as is, one
/// that changed the fleet but not the running width.
fn transition(kind: TransitionKind, device: usize, width: usize) -> ElasticTransition {
    ElasticTransition {
        kind,
        device,
        from_width: width,
        to_width: width,
        at_ckpt: None,
        detection: None,
        replan: None,
        replan_warm: false,
        reshard: None,
        reshard_bytes: 0,
        resume_wall: None,
    }
}

/// One width of the ladder: a fixed plan, the devices it runs on, and the
/// checkpoint state its attempts share.
struct Rung<'a> {
    sharded: &'a ShardedGraph,
    /// Shard feeds; empty when every attempt resumes from `carried`.
    feeds: &'a [(TensorId, Tensor)],
    devices: Vec<usize>,
    /// The carried snapshot resharded onto this plan: where an attempt
    /// resumes when this width has no consistent checkpoint of its own.
    carried: Option<ResumePoint>,
    cuts: Vec<Vec<usize>>,
    /// Fresh per width: snapshots are keyed by this plan's tensor ids.
    /// Progress crosses widths only through the carried snapshot.
    store: Mutex<CheckpointStore>,
}

impl<'a> Rung<'a> {
    fn new(
        sharded: &'a ShardedGraph,
        feeds: &'a [(TensorId, Tensor)],
        devices: Vec<usize>,
        carried: Option<ResumePoint>,
        opts: &RunOptions,
        sink: Option<Arc<dyn CheckpointSink>>,
    ) -> Rung<'a> {
        Rung {
            sharded,
            feeds,
            devices,
            carried,
            cuts: opts.checkpoint.map(|cp| checkpoint_cuts(sharded, cp)).unwrap_or_default(),
            store: Mutex::new(sink.map(CheckpointStore::with_sink).unwrap_or_default()),
        }
    }

    /// The resume point of checkpoint `ckpt` of this width, if consistent.
    fn point(&self, ckpt: usize) -> Option<ResumePoint> {
        let values = self.store.lock().consistent_values(ckpt, self.devices.len())?;
        Some(ResumePoint { ckpt, cuts: self.cuts[ckpt - 1].clone(), values })
    }

    /// This width's newest consistent checkpoint. It is never older than the
    /// carried snapshot (attempts resume at or past its barrier), so it wins.
    fn latest(&self) -> Option<ResumePoint> {
        let ckpt = self.store.lock().latest_consistent(self.devices.len(), self.cuts.len())?;
        self.point(ckpt)
    }
}

/// How a rung ended.
enum RungEnd {
    /// An attempt ran to completion.
    Done(RunOutput),
    /// An attempt paused at consistent checkpoint `ckpt` so joining
    /// physical device `device` can enter the fleet.
    Yielded { ckpt: usize, device: usize },
    /// Every attempt failed; the last failure.
    Exhausted(RunFailure),
}

/// The recovery supervisor: the attempt loop every driver runs, one rung at
/// a time — retry with capped jittered backoff, resume from the newest
/// consistent checkpoint, yield at a join barrier — plus the attempt and
/// failure bookkeeping the reports carry.
struct Supervisor<'a> {
    opts: &'a RunOptions,
    recovery: &'a RecoveryOptions,
    faults: FaultState,
    backoff: BackoffSchedule,
    attempts: usize,
    failures: Vec<RunFailure>,
    history: Vec<AttemptRecord>,
}

impl<'a> Supervisor<'a> {
    fn new(opts: &'a RunOptions, recovery: &'a RecoveryOptions) -> Supervisor<'a> {
        Supervisor {
            opts,
            recovery,
            faults: FaultState::new(&opts.faults, &opts.churn),
            backoff: BackoffSchedule::from_recovery(recovery),
            attempts: 0,
            failures: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Runs up to `max_attempts` attempts of `rung`.
    fn climb(&mut self, rung: &Rung) -> Result<RungEnd> {
        let (opts, width) = (self.opts, rung.devices.len());
        // A join that may trigger a grow pause during this width's attempts.
        let join = self.faults.pending_join();
        for attempt in 1..=self.recovery.max_attempts {
            self.attempts += 1;
            let resume = rung.latest().or_else(|| rung.carried.clone());
            // Where to pause for a pending join: the first barrier strictly
            // after the resume point that honors `at_ckpt` plus hysteresis,
            // clamped into the plan's barrier range. `None` when the resume
            // point is already past the last barrier — the attempt then
            // runs to completion and the join stays pending.
            let yield_at: Option<usize> = join.and_then(|(_, at)| {
                let hyst = self.recovery.elastic.map_or(0, |p| p.grow_hysteresis);
                let lo = resume.as_ref().map_or(1, |p| p.ckpt + 1);
                let last = rung.cuts.len();
                (lo <= last).then(|| at.saturating_add(hyst).clamp(lo, last))
            });
            if let Some(c) = &opts.collector {
                let what = match &resume {
                    Some(p) => format!(
                        "attempt {attempt} @ {width} workers: resume from checkpoint {}",
                        p.ckpt
                    ),
                    None => format!("attempt {attempt} @ {width} workers: from scratch"),
                };
                c.instant(Track::control(), "recovery", &what);
            }
            let t0 = Instant::now();
            let outcome = run_attempt(
                rung.sharded,
                rung.feeds,
                opts,
                &self.faults,
                &rung.store,
                resume.as_ref(),
                &rung.devices,
                yield_at,
            );
            let mut record = AttemptRecord {
                width,
                devices: rung.devices.clone(),
                resumed_from: resume.as_ref().map(|p| p.ckpt),
                replan: None,
                reshard: None,
                reshard_bytes: 0,
                detection: None,
                wall: t0.elapsed(),
                ok: false,
                yielded: None,
            };
            match outcome {
                Ok(Attempt::Done(output)) => {
                    record.ok = true;
                    self.history.push(record);
                    return Ok(RungEnd::Done(output));
                }
                Ok(Attempt::Yielded { ckpt }) => {
                    record.yielded = Some(ckpt);
                    self.history.push(record);
                    let (device, _) = join.expect("yield only happens for a pending join");
                    return Ok(RungEnd::Yielded { ckpt, device });
                }
                Err(RuntimeError::Failed(f)) => {
                    record.detection = f.max_detection();
                    self.history.push(record);
                    if attempt == self.recovery.max_attempts {
                        return Ok(RungEnd::Exhausted(*f));
                    }
                    self.failures.push(*f);
                    let delay = self.backoff.next_delay();
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                // Configuration errors are not retryable.
                Err(e) => return Err(e),
            }
        }
        Err(RuntimeError::InvalidOptions("max_attempts must be at least 1".into()))
    }
}

/// The supervisor on a caller's fixed plan: transient retries only, never
/// reshaped. Every attempt without a checkpoint of its own resumes from
/// `carried` when one is given.
pub(crate) fn run_fixed(
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    opts: &RunOptions,
    recovery: &RecoveryOptions,
    carried: Option<&FullSnapshot>,
) -> Result<RecoveryReport> {
    validate(sharded.workers, opts, recovery)?;
    let carried = carried.map(|snap| scatter_snapshot(snap, sharded)).transpose()?;
    let devices = (0..sharded.workers).collect();
    let rung = Rung::new(sharded, feeds, devices, carried, opts, None);
    let mut sup = Supervisor::new(opts, recovery);
    match sup.climb(&rung)? {
        RungEnd::Done(output) => Ok(RecoveryReport {
            output,
            attempts: sup.attempts,
            failures: sup.failures,
            resumed_from: sup.history[1..].iter().map(|r| r.resumed_from).collect(),
            history: sup.history,
        }),
        RungEnd::Exhausted(f) => Err(RuntimeError::Failed(Box::new(f))),
        RungEnd::Yielded { .. } => {
            Err(RuntimeError::Internal("a fixed plan has no join to yield for".into()))
        }
    }
}

/// [`run_with_recovery`](crate::run_with_recovery) extended with the elastic
/// ladder: takes the **original** graph and full-tensor feeds (partitioning
/// and scattering are re-done per width), retries transient failures at the
/// current width, shrinks past permanent losses, grows onto devices a
/// [`ChurnPlan`](crate::ChurnPlan) rejoins, and reshards checkpoints across
/// plans so progress survives every width change. See the module docs for
/// the ladder.
pub fn run_with_elastic_recovery(
    g: &Graph,
    feeds: &[(TensorId, Tensor)],
    part_opts: &PartitionOptions,
    opts: &RunOptions,
    recovery: &RecoveryOptions,
    caches: &mut SearchCaches,
) -> Result<ElasticReport> {
    ladder(g, feeds, part_opts, opts, recovery, caches, None, None)
}

/// The whole ladder. `sink` observes every consistent checkpoint (the
/// durable layer persists through it); `carried` is a snapshot the first
/// width resumes from (a durable restart's recovered checkpoint).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ladder(
    g: &Graph,
    feeds: &[(TensorId, Tensor)],
    part_opts: &PartitionOptions,
    opts: &RunOptions,
    recovery: &RecoveryOptions,
    caches: &SearchCaches,
    sink: Option<Arc<dyn CheckpointSink>>,
    mut carried: Option<FullSnapshot>,
) -> Result<ElasticReport> {
    validate(part_opts.workers, opts, recovery)?;
    if opts.checkpoint.is_some_and(|cp| cp.unit != BarrierUnit::OriginalSteps) {
        return Err(RuntimeError::InvalidOptions(
            "the ladder reshards checkpoints across plans; use the plan-independent barriers \
             of CheckpointPolicy::every_original"
                .into(),
        ));
    }

    let obs = opts.collector.as_ref();
    let mut sup = Supervisor::new(opts, recovery);
    let policy = recovery.elastic;

    // The fleet: every present physical device, sorted. The first `width`
    // are active; the rest idle as spares.
    let mut available: Vec<usize> = (0..part_opts.workers).collect();
    let mut lost: Vec<usize> = Vec::new();
    let mut joined: Vec<usize> = Vec::new();
    let mut widths: Vec<usize> = Vec::new();
    let mut transitions: Vec<ElasticTransition> = Vec::new();
    let mut shrinks = 0usize;
    let mut grows = 0usize;
    // The fleet change that ended the previous width: its kind, the device
    // that left or joined, the width it ran at, and (for a loss) the
    // failure that triggered it.
    let mut change: Option<(TransitionKind, usize, usize, Option<RunFailure>)> = None;

    loop {
        let Selection { width, plan, sharded, replan, warm } = match select_width(
            g,
            part_opts,
            caches,
            obs,
            policy.as_ref(),
            available.len(),
            opts.buffer_reuse,
        )? {
            Ok(s) => s,
            // Without an elastic mandate an unrunnable width is the raw
            // error, not a surrender.
            Err(cause) if policy.is_none() => return Err(cause),
            Err(term) => {
                // A budget breach is more informative than the triggering
                // failure; a bare floor/feasibility breach is not.
                let cause = match change {
                    Some((.., Some(f))) if !matches!(term, RuntimeError::Pool { .. }) => {
                        RuntimeError::Failed(Box::new(f))
                    }
                    _ => term,
                };
                return Err(RuntimeError::Unrecoverable { lost, widths, cause: Box::new(cause) });
            }
        };
        let open = change.take().map(|(kind, device, from, f)| {
            // A join that could not widen the run leaves the device idle.
            let kind = match kind {
                TransitionKind::Grow if width <= from => TransitionKind::SpareJoin,
                k => k,
            };
            let grew = kind == TransitionKind::Grow;
            if let Some(c) = obs.filter(|_| kind != TransitionKind::Shrink) {
                let what = if grew {
                    format!(
                        "device {device} rejoined: grow {from} → {width} at checkpoint {}",
                        carried.as_ref().map_or(0, |s| s.ckpt)
                    )
                } else {
                    format!("device {device} rejoined as spare (no wider feasible width)")
                };
                c.instant(Track::control(), "churn", &what);
                c.add_total("elastic/joins", 1.0);
                if grew {
                    c.add_total("elastic/grows", 1.0);
                }
            }
            grows += usize::from(grew);
            transitions.push(ElasticTransition {
                to_width: width,
                at_ckpt: carried.as_ref().map(|s| s.ckpt),
                detection: f.as_ref().and_then(RunFailure::max_detection),
                replan: Some(replan),
                replan_warm: warm,
                ..transition(kind, device, from)
            });
            sup.failures.extend(f);
            transitions.len() - 1
        });
        widths.push(width);
        let devices: Vec<usize> = available[..width].to_vec();
        if let Some(c) = obs {
            c.counter(Track::control(), "elastic/surviving_workers", c.now_us(), width as f64);
            c.counter(
                Track::control(),
                "elastic/spare_devices",
                c.now_us(),
                (available.len() - width) as f64,
            );
            if shrinks + grows > 0 {
                c.add_total("elastic/replans", 1.0);
            }
        }

        // Reshard the carried snapshot (if any) onto this plan once; every
        // attempt at this width resumes from it or a later checkpoint, so
        // the original feeds are only scattered when there is none.
        let mut shard_feeds: Vec<(TensorId, Tensor)> = Vec::new();
        let (mut reshard, mut reshard_bytes) = (None, 0u64);
        let carried_point = match &carried {
            Some(snap) => {
                let t0 = Instant::now();
                let obs_t0 = obs.map(|c| c.now_us()).unwrap_or(0.0);
                let point = scatter_snapshot(snap, &sharded)?;
                reshard = Some(t0.elapsed());
                reshard_bytes = snap.bytes();
                if let Some(c) = obs {
                    c.complete(
                        Track::control(),
                        "elastic",
                        &format!("reshard checkpoint {} → {width} workers", snap.ckpt),
                        obs_t0,
                        c.now_us(),
                    );
                    c.add_total("elastic/reshard_bytes", snap.bytes() as f64);
                }
                Some(point)
            }
            None => {
                for (t, v) in feeds {
                    shard_feeds.extend(sharded.scatter(*t, v)?);
                }
                None
            }
        };

        // Resolve armed churn events that cannot fire mid-run: a leave of a
        // non-active device happens immediately (no worker runs on it), and
        // a join the policy caps is absorbed as a spare without a pause.
        loop {
            match sup.faults.armed_event() {
                Some(ChurnEvent::Leave { device, .. }) if !devices.contains(&device) => {
                    sup.faults.advance_churn();
                    if let Some(i) = available.iter().position(|&d| d == device) {
                        available.remove(i);
                        lost.push(device);
                        transitions.push(transition(TransitionKind::SpareLoss, device, width));
                        if let Some(c) = obs {
                            c.instant(
                                Track::control(),
                                "churn",
                                &format!("spare device {device} lost (width stays {width})"),
                            );
                        }
                    }
                }
                Some(ChurnEvent::Join { device, .. })
                    if policy.is_none_or(|p| {
                        width >= p.max_workers.max(1) || grows >= p.max_grow_steps
                    }) =>
                {
                    sup.faults.advance_churn();
                    insert_sorted(&mut available, device);
                    joined.push(device);
                    transitions.push(transition(TransitionKind::SpareJoin, device, width));
                    if let Some(c) = obs {
                        c.instant(
                            Track::control(),
                            "churn",
                            &format!("device {device} joined as spare (policy caps width)"),
                        );
                        c.add_total("elastic/joins", 1.0);
                    }
                }
                _ => break,
            }
        }

        let rung = Rung::new(&sharded, &shard_feeds, devices, carried_point, opts, sink.clone());
        let first = sup.history.len();
        let end = sup.climb(&rung)?;
        let record = &mut sup.history[first];
        record.replan = Some(replan);
        record.reshard = reshard;
        record.reshard_bytes = reshard_bytes;
        if let Some(i) = open {
            transitions[i].reshard = reshard;
            transitions[i].reshard_bytes = reshard_bytes;
            transitions[i].resume_wall = Some(record.wall);
        }
        change = Some(match end {
            RungEnd::Done(output) => {
                let spares: Vec<usize> =
                    available.iter().copied().filter(|d| !rung.devices.contains(d)).collect();
                let resumed_from = sup.history.iter().map(|r| r.resumed_from).collect();
                let Rung { devices, .. } = rung;
                return Ok(ElasticReport {
                    output,
                    sharded,
                    plan,
                    devices,
                    spares,
                    lost,
                    joined,
                    widths,
                    attempts: sup.attempts,
                    failures: sup.failures,
                    resumed_from,
                    history: sup.history,
                    transitions,
                    snapshot: carried,
                });
            }
            RungEnd::Yielded { ckpt, device } => {
                // The pause barrier is consistent by construction (every
                // worker recorded it before stopping): harvest it as the
                // carried snapshot and let the device in.
                let (Some(cp), Some(point)) = (opts.checkpoint, rung.point(ckpt)) else {
                    return Err(RuntimeError::Internal(format!(
                        "yield barrier {ckpt} is not a consistent checkpoint"
                    )));
                };
                carried = Some(assemble_snapshot(&sharded, ckpt, &point.values, cp.every)?);
                insert_sorted(&mut available, device);
                joined.push(device);
                sup.faults.advance_churn();
                (TransitionKind::Grow, device, width, None)
            }
            RungEnd::Exhausted(f) => {
                // This width is out of attempts: classify the blamed
                // worker's physical device as permanently lost and consult
                // the policy.
                let victim = rung.devices[f.worker];
                let Some(pol) = policy else {
                    // No elastic mandate: surface the final failure.
                    return Err(RuntimeError::Failed(Box::new(f)));
                };
                if let Some(c) = obs {
                    c.instant(
                        Track::control(),
                        "elastic",
                        &format!("device {victim} lost (permanent)"),
                    );
                }
                lost.push(victim);
                shrinks += 1;
                // A scripted leave of this device has done its job: retire
                // it so the next churn event arms.
                if matches!(sup.faults.armed_event(),
                    Some(ChurnEvent::Leave { device, .. }) if device == victim)
                {
                    sup.faults.advance_churn();
                }
                if shrinks > pol.max_shrink_steps {
                    return Err(RuntimeError::Unrecoverable {
                        lost,
                        widths,
                        cause: Box::new(RuntimeError::Failed(Box::new(f))),
                    });
                }
                // Harvest this width's best consistent checkpoint as the
                // carried plan-independent snapshot before the store (keyed
                // by this plan's tensor ids) is dropped.
                let fresher = rung
                    .latest()
                    .filter(|p| carried.as_ref().is_none_or(|c| p.ckpt >= c.ckpt));
                if let (Some(cp), Some(point)) = (opts.checkpoint, fresher) {
                    carried =
                        Some(assemble_snapshot(&sharded, point.ckpt, &point.values, cp.every)?);
                }
                available.retain(|&d| d != victim);
                (TransitionKind::Shrink, victim, width, Some(f))
            }
        });
    }
}
