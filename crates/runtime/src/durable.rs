//! Durable checkpoints: whole-process crash recovery from disk.
//!
//! The in-memory rungs of the recovery ladder (retry → elastic reshard) die
//! with the coordinating process: every consistent checkpoint lives in the
//! checkpoint store's heap. This module persists checkpoints through
//! [`tofu_durable`] the moment they become consistent, and
//! [`run_with_durable_recovery`] adds the last rung — a simulated
//! whole-process crash drops *all* in-memory state, then a fresh runtime:
//!
//! 1. **Discovers** the newest *valid* checkpoint on disk. Every candidate
//!    manifest is validated in full (self-checksum, name/body ordinal
//!    agreement, per-shard presence + size + checksum + decode); corrupt or
//!    torn candidates are skipped with a typed
//!    [`RejectReason`](tofu_durable::RejectReason), never silently used.
//! 2. **Reshards** it onto the current fleet. Durable checkpoints store
//!    *full* tensors keyed by original ids — plan-independent, exactly like
//!    the elastic path's [`FullSnapshot`] — so the restart width may differ
//!    from the width that wrote the checkpoint.
//! 3. **Resumes** at the checkpoint barrier, bit-identical to an
//!    undisturbed run resumed from the same cut, while continuing to
//!    persist and GC later checkpoints.
//!
//! Persistence rides the [`CheckpointSink`] hook: the worker whose barrier
//! record makes checkpoint `k` consistent commits it (shards first, then
//! the manifest — the commit point), then prunes superseded checkpoints
//! down to the retention budget. Disk faults from
//! [`FaultPlan::disk`](crate::FaultPlan) are injected into those writes via
//! [`FaultyStore`], deterministic and one-shot like every other injected
//! fault.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tofu_core::{PartitionOptions, SearchCaches, ShardedGraph};
use tofu_durable::{
    gc, recover_latest, write_checkpoint, BlobStore, DurableCheckpoint, FaultyStore,
    RejectedCheckpoint,
};
use tofu_graph::{Graph, TensorId};
use tofu_obs::{Collector, Track};
use tofu_tensor::Tensor;

use crate::checkpoint::{CheckpointSink, RecoveryOptions};
use crate::elastic::ladder;
use crate::error::{RunFailure, RuntimeError};
use crate::reshard::{assemble_snapshot, FullSnapshot};
use crate::{Result, RunOptions, RunOutput};

/// Where [`run_with_durable_recovery`] simulates the whole-process crash,
/// relative to the durable commit of a chosen checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die while persisting checkpoint `k`: shard files hit the disk but
    /// the manifest — the commit point — never does. Recovery must fall
    /// back to checkpoint `k - 1` (or scratch) and ignore the orphans.
    BeforeCommit(usize),
    /// Die right after checkpoint `k`'s manifest commits (before GC runs).
    /// Recovery must find `k` valid and resume from it.
    AfterCommit(usize),
}

/// Configuration of [`run_with_durable_recovery`].
pub struct DurableOptions {
    /// Where checkpoints are persisted. [`DirStore`](tofu_durable::DirStore)
    /// for a real directory, [`MemStore`](tofu_durable::MemStore) for tests.
    pub store: Arc<dyn BlobStore>,
    /// How many committed checkpoints to keep; older ones are GCed after
    /// each commit. Clamped to at least 1.
    pub retain: usize,
    /// Simulated whole-process crash. `None` runs straight through (still
    /// persisting every checkpoint).
    pub crash: Option<CrashPoint>,
    /// Worker count of the restarted process; `None` restarts at the
    /// original width. The checkpoint reshards either way.
    pub restart_workers: Option<usize>,
}

impl DurableOptions {
    /// Persist to `store` with default retention (2), no simulated crash.
    pub fn new(store: Arc<dyn BlobStore>) -> DurableOptions {
        DurableOptions { store, retain: 2, crash: None, restart_workers: None }
    }
}

impl std::fmt::Debug for DurableOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableOptions")
            .field("retain", &self.retain)
            .field("crash", &self.crash)
            .field("restart_workers", &self.restart_workers)
            .finish_non_exhaustive()
    }
}

/// What a durable run (and its optional crash-restart) did.
#[derive(Debug)]
pub struct DurableReport {
    /// The final (post-restart) run's output, keyed by the restart plan's
    /// tensor ids.
    pub output: RunOutput,
    /// The sharded graph of the restart plan — gather originals with
    /// [`ShardedGraph::gather`], and use it to build the
    /// bit-identity baseline via
    /// [`resume_from_snapshot`](crate::resume_from_snapshot).
    pub sharded: ShardedGraph,
    /// Worker count of the restarted (final) run.
    pub width: usize,
    /// Post-mortem of the simulated crash, when one was configured.
    pub crashed: Option<RunFailure>,
    /// Slowest peer abort-detection latency of the crash.
    pub detection: Option<Duration>,
    /// Checkpoint the restart resumed from (`None` = restarted from
    /// scratch: no valid checkpoint survived on disk).
    pub resumed_from: Option<usize>,
    /// The validated snapshot the restart resumed from, for constructing
    /// bit-identity baselines at the restart width.
    pub snapshot: Option<FullSnapshot>,
    /// Checkpoint candidates recovery rejected, newest first, each with its
    /// typed reason.
    pub rejected: Vec<RejectedCheckpoint>,
    /// Checkpoints committed across both incarnations.
    pub written: usize,
    /// Bytes written across both incarnations (shards + manifests).
    pub written_bytes: u64,
    /// Blobs removed by retention GC.
    pub gc_removed: usize,
    /// Total wall time spent in durable commits.
    pub write_wall: Duration,
    /// Wall time of recovery discovery + validation.
    pub validate_wall: Duration,
    /// Wall time resharding the recovered snapshot onto the restart plan.
    pub restore_wall: Duration,
    /// Bytes of full-tensor snapshot the restore resharded.
    pub restore_bytes: u64,
}

/// The [`CheckpointSink`] that makes checkpoints durable: assembles the
/// consistent barrier into a plan-independent snapshot, commits it (shards
/// first, manifest last), then GCs superseded checkpoints. One instance per
/// process incarnation; `floor` dedups persists (checkpoints become
/// consistent in ascending order, and a restart must not rewrite the
/// checkpoint it resumed from).
struct Persister {
    store: Arc<FaultyStore>,
    every: usize,
    retain: usize,
    /// Simulated crash, fired at most once.
    crash: Option<CrashPoint>,
    crash_fired: AtomicBool,
    /// Highest checkpoint already persisted (persists are skipped at or
    /// below it).
    floor: AtomicUsize,
    written: AtomicUsize,
    bytes: AtomicU64,
    gc_removed: AtomicUsize,
    write_us: AtomicU64,
    obs: Option<Collector>,
    /// Serializes commits: concurrent workers can complete different
    /// barriers back to back, and shard/manifest write order is the
    /// correctness argument.
    io: Mutex<()>,
}

fn to_durable(snap: &FullSnapshot) -> DurableCheckpoint {
    DurableCheckpoint {
        ckpt: snap.ckpt as u64,
        every: snap.every as u64,
        tensors: snap.tensors.iter().map(|(t, v)| (t.0 as u64, v.clone())).collect(),
    }
}

fn from_durable(d: DurableCheckpoint) -> FullSnapshot {
    FullSnapshot {
        ckpt: d.ckpt as usize,
        every: d.every as usize,
        tensors: d.tensors.into_iter().map(|(id, t)| (TensorId(id as usize), t)).collect(),
    }
}

impl CheckpointSink for Persister {
    fn on_consistent(
        &self,
        sharded: &ShardedGraph,
        worker: usize,
        ckpt: usize,
        values: &[std::collections::BTreeMap<TensorId, Arc<Tensor>>],
    ) -> Result<()> {
        let _serial = self.io.lock();
        if ckpt <= self.floor.load(Ordering::SeqCst) {
            return Ok(());
        }
        let snap = assemble_snapshot(sharded, ckpt, values, self.every)?;
        let durable = to_durable(&snap);
        let t0 = Instant::now();
        let obs_t0 = self.obs.as_ref().map(|c| c.now_us()).unwrap_or(0.0);
        let crash_here = |point: CrashPoint| {
            self.crash == Some(point) && !self.crash_fired.swap(true, Ordering::SeqCst)
        };
        if crash_here(CrashPoint::BeforeCommit(ckpt)) {
            // The doomed process got its shard files out but died before
            // the manifest — the commit point — existed.
            write_checkpoint(&*self.store, &durable, false)
                .map_err(|e| RuntimeError::Durable { worker, detail: e.to_string() })?;
            return Err(RuntimeError::Injected {
                worker,
                detail: format!(
                    "simulated process crash before durable commit of checkpoint {ckpt}"
                ),
            });
        }
        let stats = write_checkpoint(&*self.store, &durable, true)
            .map_err(|e| RuntimeError::Durable { worker, detail: e.to_string() })?;
        self.floor.store(ckpt, Ordering::SeqCst);
        self.written.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(stats.bytes, Ordering::SeqCst);
        self.write_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
        if let Some(c) = &self.obs {
            c.complete(
                Track::control(),
                "durable",
                &format!("commit checkpoint {ckpt}"),
                obs_t0,
                c.now_us(),
            );
            c.add_total("ckpt/written", 1.0);
            c.add_total("ckpt/bytes", stats.bytes as f64);
        }
        if crash_here(CrashPoint::AfterCommit(ckpt)) {
            // Committed, but the process died before GC could run: older
            // manifests survive as stale-but-valid fallbacks.
            return Err(RuntimeError::Injected {
                worker,
                detail: format!(
                    "simulated process crash after durable commit of checkpoint {ckpt}"
                ),
            });
        }
        let removed = gc(&*self.store, self.retain)
            .map_err(|e| RuntimeError::Durable { worker, detail: e.to_string() })?;
        if removed > 0 {
            self.gc_removed.fetch_add(removed, Ordering::SeqCst);
            if let Some(c) = &self.obs {
                c.add_total("ckpt/gc", removed as f64);
            }
        }
        Ok(())
    }
}

/// Runs `g` with every consistent checkpoint persisted durably, optionally
/// simulating a whole-process crash and recovering from disk.
///
/// Takes the **original** graph and full-tensor feeds (like
/// [`run_with_elastic_recovery`](crate::run_with_elastic_recovery)):
/// partitioning and feed scattering are done per incarnation, because the
/// restarted process may run at a different width
/// ([`DurableOptions::restart_workers`]) than the one that crashed. Each
/// incarnation is one single-attempt pass of the recovery ladder, so no
/// failure is retried: whatever ends the first incarnation is its death.
///
/// With a [`CrashPoint`] configured, the first incarnation *must* die there
/// (a crash point past the last barrier is an [`RuntimeError::InvalidOptions`]
/// — the run would complete instead of crashing). All of its in-memory
/// state — checkpoint store, fault state, values — is dropped; only the
/// blob store carries over, exactly like a real process death. The fresh
/// incarnation discovers the newest valid checkpoint ([`recover_latest`]),
/// reshards it onto the restart plan, resumes, and keeps persisting.
///
/// Disk faults in [`FaultPlan::disk`](crate::FaultPlan) corrupt the doomed
/// incarnation's writes; recovery detects each corruption during validation
/// and reports it in [`DurableReport::rejected`] with a typed reason —
/// falling back to an older checkpoint (or scratch), never resuming from
/// corrupt bytes.
pub fn run_with_durable_recovery(
    g: &Graph,
    feeds: &[(TensorId, Tensor)],
    part_opts: &PartitionOptions,
    opts: &RunOptions,
    durable: &DurableOptions,
    caches: &mut SearchCaches,
) -> Result<DurableReport> {
    let invalid = |m: &str| Err(RuntimeError::InvalidOptions(m.into()));
    let Some(cp) = opts.checkpoint else {
        return invalid(
            "durable recovery persists checkpoint barriers; set a \
             CheckpointPolicy::every_original cadence",
        );
    };
    if durable.restart_workers == Some(0) {
        return invalid("cannot restart on zero workers");
    }

    let obs = opts.collector.clone();
    // Disk faults are consumed here, by the store wrapper; the in-memory
    // run must not see them (plain validation rejects a non-empty plan).
    let mut run_opts = opts.clone();
    let disk = std::mem::take(&mut run_opts.faults.disk);
    let store = Arc::new(FaultyStore::new(durable.store.clone(), disk));
    let persister = |crash: Option<CrashPoint>, floor: usize| {
        Arc::new(Persister {
            store: store.clone(),
            every: cp.every,
            retain: durable.retain.max(1),
            crash,
            crash_fired: AtomicBool::new(false),
            floor: AtomicUsize::new(floor),
            written: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            gc_removed: AtomicUsize::new(0),
            write_us: AtomicU64::new(0),
            obs: obs.clone(),
            io: Mutex::new(()),
        })
    };
    let once = &RecoveryOptions::ONE_SHOT;

    let mut crashed: Option<RunFailure> = None;
    let mut doomed: Option<Arc<Persister>> = None;
    if let Some(crash) = durable.crash {
        let sink = persister(Some(crash), 0);
        let outcome =
            ladder(g, feeds, part_opts, &run_opts, once, caches, Some(sink.clone()), None);
        doomed = Some(sink);
        match outcome {
            Err(RuntimeError::Failed(f)) => {
                if let Some(c) = &obs {
                    c.instant(
                        Track::control(),
                        "durable",
                        &format!("process crashed: {}", f.cause),
                    );
                }
                crashed = Some(*f);
            }
            Ok(_) => {
                let (CrashPoint::BeforeCommit(k) | CrashPoint::AfterCommit(k)) = crash;
                return Err(RuntimeError::InvalidOptions(format!(
                    "the simulated crash point (checkpoint {k}) was never reached: the run \
                     completed — move the crash to an earlier barrier"
                )));
            }
            Err(e) => return Err(e),
        }
        // Whole-process crash: every in-memory checkpoint and the fault
        // state died with the ladder call. Only `store` survives.
    }

    // ===== fresh process =====
    let t_validate = Instant::now();
    let obs_t0 = obs.as_ref().map(|c| c.now_us()).unwrap_or(0.0);
    let recovery = recover_latest(&*store, Some(cp.every as u64))
        .map_err(|e| RuntimeError::Durable { worker: usize::MAX, detail: e.to_string() })?;
    let validate_wall = t_validate.elapsed();
    if let Some(c) = &obs {
        for r in &recovery.rejected {
            c.add_total("ckpt/rejected", 1.0);
            c.instant(
                Track::control(),
                "durable",
                &format!("rejected checkpoint {}: {}", r.ckpt, r.reason),
            );
        }
        c.complete(Track::control(), "durable", "discover newest valid checkpoint", obs_t0, c.now_us());
    }
    let snapshot = recovery.snapshot.map(from_durable);
    let resumed_from = snapshot.as_ref().map(|s| s.ckpt);

    let width = durable.restart_workers.unwrap_or(part_opts.workers);
    if let Some(c) = &obs {
        let what = match resumed_from {
            Some(k) => format!("restart at width {width}: resume from durable checkpoint {k}"),
            None => format!("restart at width {width}: no valid checkpoint, from scratch"),
        };
        c.instant(Track::control(), "durable", &what);
    }
    let fresh = persister(None, resumed_from.unwrap_or(0));
    let restart = PartitionOptions { workers: width, ..*part_opts };
    let report =
        ladder(g, feeds, &restart, &run_opts, once, caches, Some(fresh.clone()), snapshot)?;

    let persisters: Vec<&Persister> = doomed.iter().map(|p| &**p).chain([&*fresh]).collect();
    let sum = |count: fn(&Persister) -> u64| persisters.iter().map(|p| count(p)).sum::<u64>();
    let first = &report.history[0];
    Ok(DurableReport {
        restore_wall: first.reshard.unwrap_or_default(),
        restore_bytes: first.reshard_bytes,
        output: report.output,
        sharded: report.sharded,
        width,
        detection: crashed.as_ref().and_then(RunFailure::max_detection),
        crashed,
        resumed_from,
        snapshot: report.snapshot,
        rejected: recovery.rejected,
        written: sum(|p| p.written.load(Ordering::SeqCst) as u64) as usize,
        written_bytes: sum(|p| p.bytes.load(Ordering::SeqCst)),
        gc_removed: sum(|p| p.gc_removed.load(Ordering::SeqCst) as u64) as usize,
        write_wall: Duration::from_micros(sum(|p| p.write_us.load(Ordering::SeqCst))),
        validate_wall,
    })
}
