//! Memoization shared across DP invocations — and across threads.
//!
//! Four caches make the search layer fast without changing its answers:
//!
//! 1. a **strategy-enumeration cache** keyed by (op kind, attrs, shape
//!    signature) — the thousands of structurally identical nodes in
//!    WResNet/MLP enumerate their partition-n-reduce strategies once;
//! 2. a **step-plan cache** keyed by a structural fingerprint of the whole
//!    DP input (graph, shape view, coarsening, extra inputs, options) — a
//!    repeated basic step (e.g. the first 2-way cut shared by every
//!    power-of-two worker count in a sweep) is searched once;
//! 3. the per-class cost memo inside `dp.rs` (always on; it lives there
//!    because its keys are frontier-local);
//! 4. a **request memo** keyed by [`request_fingerprint`] — a repeat of a
//!    *whole* partition request skips even coarsening and returns the
//!    finished plan, and a width the search *proved infeasible*
//!    ([`crate::CoreError::NoStrategy`] / `BadWorkerCount`) is remembered
//!    too, so an elastic runtime probing the width ladder never re-proves
//!    an infeasibility. Transient errors (bounds, internal) are never
//!    memoized.
//!
//! All keys are *exact*: two entries collide only when the DP inputs are
//! byte-for-byte equivalent for the search, so cache hits are provably
//! answer-preserving. The differential harness in `crates/core/tests`
//! enforces this against the unoptimized reference search.
//!
//! # Concurrency
//!
//! [`SearchCaches`] is `Send + Sync`: both maps live behind **sharded
//! reader-writer locks** (16 shards each, selected by key bits, so readers
//! of different entries never contend on one lock) and the hit/miss tallies
//! are atomics. Because every cached value is a pure function of its exact
//! key, concurrent interleavings can only change *which thread computes an
//! entry first*, never the entry's value — so results stay bit-identical to
//! a single-threaded run (the plan-service stress tests assert this).
//!
//! The step-plan cache additionally performs **single-flight
//! deduplication**: when N threads miss the same fingerprint at once,
//! exactly one (the *leader*) runs the search while the rest block on a
//! condvar and receive the leader's plan as a hit. A leader that errors or
//! panics marks the flight failed and wakes the waiters, one of which
//! becomes the next leader — no flight is ever abandoned in a blocking
//! state.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use tofu_graph::Graph;

use crate::coarsen::CoarseGraph;
use crate::dp::{DpOptions, ExtraInputs, StepPlan};
use crate::error::CoreError;
use crate::recursive::{PartitionOptions, PartitionPlan};
use crate::strategies::{NodeStrategy, ShapeView};

/// A fast multiply-xor hasher for the DP's integer keys (packed spec
/// fingerprints). Not DoS-resistant — keys are internal, never
/// attacker-controlled — but several times faster than SipHash on the
/// millions of lookups a WResNet search performs.
#[derive(Default)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(buf)).wrapping_mul(SEED).rotate_left(5);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(SEED).rotate_left(5);
    }

    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// 128-bit FNV-1a, used for structural fingerprints where a collision would
/// silently return a wrong plan (so 64 bits would be uncomfortable).
#[derive(Clone, Copy)]
pub(crate) struct Fnv(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb0142_62b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000_000000000000013b;

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(FNV_PRIME);
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    pub(crate) fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn finish(self) -> u128 {
        self.0
    }
}

/// Cache hit/miss tallies, exposed for tests and the bench harness (the same
/// numbers flow into `tofu-obs` totals when a collector is attached).
///
/// Reading the tallies never drains them; use the derived-rate accessors
/// instead of diffing raw counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Strategy-enumeration cache hits.
    pub strategy_hits: u64,
    /// Strategy-enumeration cache misses.
    pub strategy_misses: u64,
    /// Step-plan cache hits (including single-flight waiters served by a
    /// leader's finished plan).
    pub plan_hits: u64,
    /// Step-plan cache misses (one per single-flight leader).
    pub plan_misses: u64,
    /// Request-memo hits: whole partition requests answered without any
    /// search — a finished plan or a remembered infeasibility (including
    /// single-flight waiters served by a leader's outcome).
    pub request_hits: u64,
    /// Request-memo misses (one per single-flight leader).
    pub request_misses: u64,
}

impl CacheStats {
    /// Hits / lookups of the strategy cache (`0.0` before any lookup).
    pub fn strategy_hit_rate(&self) -> f64 {
        rate(self.strategy_hits, self.strategy_misses)
    }

    /// Hits / lookups of the step-plan cache (`0.0` before any lookup).
    pub fn plan_hit_rate(&self) -> f64 {
        rate(self.plan_hits, self.plan_misses)
    }

    /// Hits / lookups of the request memo (`0.0` before any lookup).
    pub fn request_hit_rate(&self) -> f64 {
        rate(self.request_hits, self.request_misses)
    }

    /// Total lookups across all three tallied caches.
    pub fn lookups(&self) -> u64 {
        self.strategy_hits
            + self.strategy_misses
            + self.plan_hits
            + self.plan_misses
            + self.request_hits
            + self.request_misses
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// A non-draining point-in-time view of a [`SearchCaches`]: raw tallies plus
/// the derived rates and entry counts callers previously had to compute by
/// diffing counters. This is what the plan service's `stats` request
/// reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSnapshot {
    /// The raw hit/miss tallies.
    pub stats: CacheStats,
    /// Resident strategy-enumeration entries.
    pub strategy_entries: usize,
    /// Resident finished step plans (in-flight computations excluded).
    pub plan_entries: usize,
    /// Resident request-memo outcomes — finished plans *and* remembered
    /// infeasibilities (in-flight computations excluded).
    pub request_entries: usize,
    /// Derived strategy-cache hit rate.
    pub strategy_hit_rate: f64,
    /// Derived step-plan-cache hit rate.
    pub plan_hit_rate: f64,
    /// Derived request-memo hit rate.
    pub request_hit_rate: f64,
}

/// Lock shard count for both maps. A power of two so shard selection is a
/// mask; 16 shards keep 8–16 worker threads essentially contention-free
/// while costing a few hundred bytes when idle.
const SHARDS: usize = 16;

fn shard_of(h: u64) -> usize {
    (h as usize) & (SHARDS - 1)
}

fn string_shard(sig: &str) -> usize {
    let mut h = FastHasher::default();
    h.write(sig.as_bytes());
    shard_of(h.finish())
}

/// State of one in-flight step-plan computation.
enum FlightState {
    /// The leader is still searching.
    Computing,
    /// The leader finished; waiters take the plan from here.
    Done(StepPlan),
    /// The leader errored or panicked; a waiter must retry.
    Failed,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight { state: Mutex::new(FlightState::Computing), cv: Condvar::new() }
    }
}

enum PlanSlot {
    Ready(StepPlan),
    Pending(Arc<Flight>),
}

/// Result of a single-flight step-plan lookup.
pub(crate) enum PlanLookup {
    /// The plan was cached (or just produced by another thread's leader).
    Ready(StepPlan),
    /// This thread is the leader: it must compute the plan and then call
    /// [`PlanFlightGuard::fill`] (or let the guard drop to mark failure).
    Leader,
}

/// RAII companion of [`PlanLookup::Leader`]: guarantees the flight is
/// resolved even when the search errors or panics, so waiters never block
/// on an abandoned computation.
pub(crate) struct PlanFlightGuard<'a> {
    caches: &'a SearchCaches,
    key: u128,
    armed: bool,
}

impl PlanFlightGuard<'_> {
    /// Publishes the finished plan and wakes every waiter.
    pub(crate) fn fill(mut self, plan: &StepPlan) {
        self.armed = false;
        self.caches.plan_fill(self.key, plan);
    }
}

impl Drop for PlanFlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.caches.plan_fail(self.key);
        }
    }
}

/// Memoized outcome of one whole partition request.
///
/// `Infeasible` holds only the *provable* rejections — no strategy for some
/// node or an unusable worker count — which are pure functions of the
/// request exactly like a finished plan is. Resource-bound and internal
/// errors are circumstance-dependent and are never stored.
#[derive(Clone)]
pub(crate) enum RequestOutcome {
    /// The search finished; the plan is served verbatim.
    Plan(PartitionPlan),
    /// The search proved the request unsatisfiable.
    Infeasible(CoreError),
}

enum RequestFlightState {
    Computing,
    Done(RequestOutcome),
    Failed,
}

struct RequestFlight {
    state: Mutex<RequestFlightState>,
    cv: Condvar,
}

impl RequestFlight {
    fn new() -> RequestFlight {
        RequestFlight { state: Mutex::new(RequestFlightState::Computing), cv: Condvar::new() }
    }
}

enum RequestSlot {
    Ready(RequestOutcome),
    Pending(Arc<RequestFlight>),
}

/// Result of a single-flight request-memo lookup.
pub(crate) enum RequestLookup {
    /// The outcome was memoized (or just produced by another thread).
    Ready(RequestOutcome),
    /// This thread is the leader: it must run the search and resolve the
    /// flight through its [`RequestFlightGuard`].
    Leader,
}

/// RAII companion of [`RequestLookup::Leader`]: a leader that errors or
/// panics without filling marks the flight failed so waiters retry instead
/// of blocking forever.
pub(crate) struct RequestFlightGuard<'a> {
    caches: &'a SearchCaches,
    key: u128,
    armed: bool,
}

impl RequestFlightGuard<'_> {
    /// Publishes the outcome and wakes every waiter.
    pub(crate) fn fill(mut self, outcome: &RequestOutcome) {
        self.armed = false;
        self.caches.request_fill(self.key, outcome);
    }
}

impl Drop for RequestFlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.caches.request_fail(self.key);
        }
    }
}

/// Memoization state threaded through one or more searches.
///
/// A fresh instance is created per [`crate::partition`] call; callers that
/// run many related searches (worker-count sweeps, baseline comparisons)
/// can share one instance via [`crate::recursive::partition_cached`] to
/// also reuse plans across calls. The type is `Send + Sync`: a long-running
/// service wraps one instance in an `Arc` and calls
/// [`crate::recursive::partition_cached`] from many solver threads at once
/// (see the module docs for the bit-identity argument).
#[derive(Default)]
pub struct SearchCaches {
    strategies: [RwLock<HashMap<String, Vec<NodeStrategy>>>; SHARDS],
    plans: [RwLock<FastMap<u128, PlanSlot>>; SHARDS],
    requests: [RwLock<FastMap<u128, RequestSlot>>; SHARDS],
    strategy_hits: AtomicU64,
    strategy_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    request_hits: AtomicU64,
    request_misses: AtomicU64,
}

impl SearchCaches {
    /// An empty cache.
    pub fn new() -> SearchCaches {
        SearchCaches::default()
    }

    /// Current hit/miss tallies (non-draining).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            strategy_hits: self.strategy_hits.load(Ordering::Relaxed),
            strategy_misses: self.strategy_misses.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            request_hits: self.request_hits.load(Ordering::Relaxed),
            request_misses: self.request_misses.load(Ordering::Relaxed),
        }
    }

    /// A full non-draining snapshot: tallies, derived hit rates and resident
    /// entry counts.
    pub fn snapshot(&self) -> CacheSnapshot {
        let stats = self.stats();
        let strategy_entries =
            self.strategies.iter().map(|s| s.read().expect("cache lock").len()).sum();
        let plan_entries = self
            .plans
            .iter()
            .map(|s| {
                s.read()
                    .expect("cache lock")
                    .values()
                    .filter(|slot| matches!(slot, PlanSlot::Ready(_)))
                    .count()
            })
            .sum();
        let request_entries = self
            .requests
            .iter()
            .map(|s| {
                s.read()
                    .expect("cache lock")
                    .values()
                    .filter(|slot| matches!(slot, RequestSlot::Ready(_)))
                    .count()
            })
            .sum();
        CacheSnapshot {
            stats,
            strategy_entries,
            plan_entries,
            request_entries,
            strategy_hit_rate: stats.strategy_hit_rate(),
            plan_hit_rate: stats.plan_hit_rate(),
            request_hit_rate: stats.request_hit_rate(),
        }
    }

    /// Looks up enumerated strategies by signature, recording the hit.
    pub(crate) fn strategies_get(&self, sig: &str) -> Option<Vec<NodeStrategy>> {
        let shard = &self.strategies[string_shard(sig)];
        match shard.read().expect("cache lock").get(sig) {
            Some(v) => {
                self.strategy_hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.strategy_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub(crate) fn strategies_put(&self, sig: String, v: Vec<NodeStrategy>) {
        let shard = &self.strategies[string_shard(&sig)];
        // Two racing misses insert byte-identical values (the enumeration is
        // a pure function of the signature), so last-write-wins is safe.
        shard.write().expect("cache lock").insert(sig, v);
    }

    fn plan_shard(&self, key: u128) -> &RwLock<FastMap<u128, PlanSlot>> {
        &self.plans[shard_of(key as u64 ^ (key >> 64) as u64)]
    }

    /// Single-flight step-plan lookup: returns the cached plan, blocks until
    /// a concurrent leader publishes it, or elects the caller leader.
    pub(crate) fn plan_begin(&self, key: u128) -> PlanLookup {
        loop {
            // Fast path: shared read of the shard.
            let flight = {
                let map = self.plan_shard(key).read().expect("cache lock");
                match map.get(&key) {
                    Some(PlanSlot::Ready(p)) => {
                        self.plan_hits.fetch_add(1, Ordering::Relaxed);
                        return PlanLookup::Ready(p.clone());
                    }
                    Some(PlanSlot::Pending(f)) => Some(Arc::clone(f)),
                    None => None,
                }
            };
            match flight {
                Some(f) => {
                    // Wait for the leader; a failed flight retries the loop
                    // (and may elect this thread the next leader).
                    let mut st = f.state.lock().expect("flight lock");
                    while matches!(*st, FlightState::Computing) {
                        st = f.cv.wait(st).expect("flight lock");
                    }
                    if let FlightState::Done(p) = &*st {
                        self.plan_hits.fetch_add(1, Ordering::Relaxed);
                        return PlanLookup::Ready(p.clone());
                    }
                }
                None => {
                    let mut map = self.plan_shard(key).write().expect("cache lock");
                    // Re-check under the write lock: another thread may have
                    // inserted between our read and write acquisitions.
                    if map.contains_key(&key) {
                        continue;
                    }
                    map.insert(key, PlanSlot::Pending(Arc::new(Flight::new())));
                    self.plan_misses.fetch_add(1, Ordering::Relaxed);
                    return PlanLookup::Leader;
                }
            }
        }
    }

    /// Creates the leader guard for a key this thread won via
    /// [`PlanLookup::Leader`].
    pub(crate) fn plan_flight_guard(&self, key: u128) -> PlanFlightGuard<'_> {
        PlanFlightGuard { caches: self, key, armed: true }
    }

    fn plan_fill(&self, key: u128, plan: &StepPlan) {
        let old = {
            let mut map = self.plan_shard(key).write().expect("cache lock");
            map.insert(key, PlanSlot::Ready(plan.clone()))
        };
        if let Some(PlanSlot::Pending(f)) = old {
            let mut st = f.state.lock().expect("flight lock");
            *st = FlightState::Done(plan.clone());
            f.cv.notify_all();
        }
    }

    fn plan_fail(&self, key: u128) {
        let old = {
            let mut map = self.plan_shard(key).write().expect("cache lock");
            match map.get(&key) {
                Some(PlanSlot::Pending(_)) => map.remove(&key),
                _ => None,
            }
        };
        if let Some(PlanSlot::Pending(f)) = old {
            let mut st = f.state.lock().expect("flight lock");
            *st = FlightState::Failed;
            f.cv.notify_all();
        }
    }

    fn request_shard(&self, key: u128) -> &RwLock<FastMap<u128, RequestSlot>> {
        &self.requests[shard_of(key as u64 ^ (key >> 64) as u64)]
    }

    /// Single-flight request-memo lookup: returns the memoized outcome,
    /// blocks until a concurrent leader publishes one, or elects the caller
    /// leader.
    pub(crate) fn request_begin(&self, key: u128) -> RequestLookup {
        loop {
            let flight = {
                let map = self.request_shard(key).read().expect("cache lock");
                match map.get(&key) {
                    Some(RequestSlot::Ready(o)) => {
                        self.request_hits.fetch_add(1, Ordering::Relaxed);
                        return RequestLookup::Ready(o.clone());
                    }
                    Some(RequestSlot::Pending(f)) => Some(Arc::clone(f)),
                    None => None,
                }
            };
            match flight {
                Some(f) => {
                    let mut st = f.state.lock().expect("flight lock");
                    while matches!(*st, RequestFlightState::Computing) {
                        st = f.cv.wait(st).expect("flight lock");
                    }
                    if let RequestFlightState::Done(o) = &*st {
                        self.request_hits.fetch_add(1, Ordering::Relaxed);
                        return RequestLookup::Ready(o.clone());
                    }
                }
                None => {
                    let mut map = self.request_shard(key).write().expect("cache lock");
                    if map.contains_key(&key) {
                        continue;
                    }
                    map.insert(key, RequestSlot::Pending(Arc::new(RequestFlight::new())));
                    self.request_misses.fetch_add(1, Ordering::Relaxed);
                    return RequestLookup::Leader;
                }
            }
        }
    }

    /// Creates the leader guard for a key this thread won via
    /// [`RequestLookup::Leader`].
    pub(crate) fn request_flight_guard(&self, key: u128) -> RequestFlightGuard<'_> {
        RequestFlightGuard { caches: self, key, armed: true }
    }

    fn request_fill(&self, key: u128, outcome: &RequestOutcome) {
        let old = {
            let mut map = self.request_shard(key).write().expect("cache lock");
            map.insert(key, RequestSlot::Ready(outcome.clone()))
        };
        if let Some(RequestSlot::Pending(f)) = old {
            let mut st = f.state.lock().expect("flight lock");
            *st = RequestFlightState::Done(outcome.clone());
            f.cv.notify_all();
        }
    }

    fn request_fail(&self, key: u128) {
        let old = {
            let mut map = self.request_shard(key).write().expect("cache lock");
            match map.get(&key) {
                Some(RequestSlot::Pending(_)) => map.remove(&key),
                _ => None,
            }
        };
        if let Some(RequestSlot::Pending(f)) = old {
            let mut st = f.state.lock().expect("flight lock");
            *st = RequestFlightState::Failed;
            f.cv.notify_all();
        }
    }
}

/// Structural fingerprint of one DP invocation: everything `search` reads.
///
/// Node *names* are deliberately excluded so isomorphic subgraphs that
/// differ only in labels share an entry; everything that feeds the cost
/// model — op kinds, canonical attrs, per-tensor shapes under the view, the
/// coarsened group/class structure, extra fetch buffers, and every search
/// option — is folded in.
pub(crate) fn step_fingerprint(
    g: &Graph,
    view: &ShapeView,
    cg: &CoarseGraph,
    extra: &ExtraInputs,
    opts: &DpOptions,
) -> u128 {
    let mut h = Fnv::new();
    h.num(opts.ways as u64);
    h.byte(u8::from(opts.allow_reduce));
    h.num(opts.state_bound as u64);
    h.num(opts.internal_bound as u64);
    h.num(opts.beam as u64);
    h.byte(u8::from(opts.tuning.dominance));
    // Shapes under the view (covers graph tensors and extra buffers).
    h.num(view.len() as u64);
    for t in 0..view.len() {
        let dims = view.shape(tofu_graph::TensorId(t)).dims();
        h.num(dims.len() as u64);
        for &d in dims {
            h.num(d as u64);
        }
    }
    // Graph structure: ops, canonical attrs, wiring.
    h.num(g.num_nodes() as u64);
    for id in g.node_ids() {
        let n = g.node(id);
        h.bytes(n.op.as_bytes());
        h.byte(0);
        h.bytes(n.attrs.to_string().as_bytes());
        h.byte(0);
        h.num(n.inputs.len() as u64);
        for &t in &n.inputs {
            h.num(t.0 as u64);
        }
        h.num(n.output.0 as u64);
    }
    // Coarsening (groups and classes drive the DP's shape).
    for &gi in &cg.group_of {
        h.num(gi as u64);
    }
    for &ci in &cg.class_of {
        h.num(ci as u64);
    }
    for &e in &cg.class_is_ewise {
        h.byte(u8::from(e));
    }
    // Extra fetch buffers.
    h.num(extra.len() as u64);
    for (node, for_input, tensor) in extra.entries() {
        h.num(node.0 as u64);
        h.num(for_input as u64);
        h.num(tensor.0 as u64);
    }
    h.finish()
}

/// Structural fingerprint of one *whole partition request*: the graph (ops,
/// canonical attrs, shapes, wiring, coarsening tags — names excluded) plus
/// every [`PartitionOptions`] field that steers the search. Two requests
/// share a fingerprint exactly when `partition` would walk an identical
/// search and return an identical plan, so it is the natural key for a
/// request-level plan cache (the `tofu-serve` service keys its shared
/// response cache on this).
pub fn request_fingerprint(g: &Graph, opts: &PartitionOptions) -> u128 {
    let mut h = Fnv::new();
    h.num(opts.workers as u64);
    h.byte(u8::from(opts.allow_reduce));
    h.num(opts.state_bound as u64);
    h.num(opts.internal_bound as u64);
    h.num(opts.beam as u64);
    h.num(opts.fetch_buffer_floor);
    h.byte(u8::from(opts.tuning.reference));
    h.byte(u8::from(opts.tuning.strategy_cache));
    h.byte(u8::from(opts.tuning.dominance));
    h.byte(u8::from(opts.tuning.plan_cache));
    // Tensor shapes (declared, pre-recursion).
    h.num(g.num_tensors() as u64);
    for t in g.tensor_ids() {
        let dims = g.tensor(t).shape.dims();
        h.num(dims.len() as u64);
        for &d in dims {
            h.num(d as u64);
        }
    }
    // Nodes: op kind, canonical attrs, wiring, and the tags coarsening
    // reads (§5.1) — forward/backward pairing, RNN timestep coalescing and
    // layer placement all change the coarsened chain, hence the plan.
    h.num(g.num_nodes() as u64);
    for id in g.node_ids() {
        let n = g.node(id);
        h.bytes(n.op.as_bytes());
        h.byte(0);
        h.bytes(n.attrs.to_string().as_bytes());
        h.byte(0);
        h.num(n.inputs.len() as u64);
        for &t in &n.inputs {
            h.num(t.0 as u64);
        }
        h.num(n.output.0 as u64);
        h.byte(u8::from(n.tags.is_backward));
        h.num(n.tags.fw_origin.map_or(u64::MAX, |f| f.0 as u64));
        h.num(n.tags.layer.map_or(u64::MAX, |l| l as u64));
        h.num(n.tags.timestep.map_or(u64::MAX, |t| t as u64));
        match &n.tags.cell_position {
            Some(cp) => {
                h.byte(1);
                h.bytes(cp.as_bytes());
            }
            None => h.byte(0),
        }
        h.byte(0);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_hasher_spreads_small_keys() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..1000 {
            let mut h = FastHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn fnv_distinguishes_order() {
        let mut a = Fnv::new();
        a.num(1);
        a.num(2);
        let mut b = Fnv::new();
        b.num(2);
        b.num(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stats_start_zeroed() {
        let c = SearchCaches::new();
        assert_eq!(c.stats(), CacheStats::default());
        let snap = c.snapshot();
        assert_eq!(snap.strategy_entries, 0);
        assert_eq!(snap.plan_entries, 0);
        assert_eq!(snap.plan_hit_rate, 0.0);
    }

    #[test]
    fn hit_rates_derive_from_tallies() {
        let s = CacheStats {
            strategy_hits: 3,
            strategy_misses: 1,
            plan_hits: 0,
            plan_misses: 4,
            request_hits: 1,
            request_misses: 1,
        };
        assert!((s.strategy_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.plan_hit_rate(), 0.0);
        assert_eq!(s.request_hit_rate(), 0.5);
        assert_eq!(s.lookups(), 10);
    }

    #[test]
    fn single_flight_leader_then_hit() {
        let c = SearchCaches::new();
        let plan = StepPlan {
            ways: 2,
            tensor_spec: Vec::new(),
            node_choice: Vec::new(),
            comm_bytes: 7.0,
        };
        match c.plan_begin(42) {
            PlanLookup::Leader => c.plan_flight_guard(42).fill(&plan),
            PlanLookup::Ready(_) => panic!("fresh cache cannot hit"),
        }
        match c.plan_begin(42) {
            PlanLookup::Ready(p) => assert_eq!(p.comm_bytes, 7.0),
            PlanLookup::Leader => panic!("filled key must hit"),
        }
        assert_eq!(c.stats().plan_misses, 1);
        assert_eq!(c.stats().plan_hits, 1);
        assert_eq!(c.snapshot().plan_entries, 1);
    }

    #[test]
    fn failed_flight_elects_a_new_leader() {
        let c = SearchCaches::new();
        match c.plan_begin(7) {
            PlanLookup::Leader => {
                let guard = c.plan_flight_guard(7);
                drop(guard); // leader "errored": flight must clear
            }
            PlanLookup::Ready(_) => panic!("fresh cache cannot hit"),
        }
        // The key is free again: the next lookup becomes leader, not a hit.
        assert!(matches!(c.plan_begin(7), PlanLookup::Leader));
        assert_eq!(c.stats().plan_misses, 2);
    }

    #[test]
    fn waiters_block_until_leader_fills() {
        let c = Arc::new(SearchCaches::new());
        assert!(matches!(c.plan_begin(9), PlanLookup::Leader));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || match c.plan_begin(9) {
                PlanLookup::Ready(p) => p.comm_bytes,
                PlanLookup::Leader => panic!("flight in progress: nobody else leads"),
            }));
        }
        // Give the waiters time to park on the flight, then publish.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let plan = StepPlan {
            ways: 2,
            tensor_spec: Vec::new(),
            node_choice: Vec::new(),
            comm_bytes: 3.0,
        };
        c.plan_flight_guard(9).fill(&plan);
        for h in handles {
            assert_eq!(h.join().expect("waiter"), 3.0);
        }
        let stats = c.stats();
        assert_eq!(stats.plan_misses, 1, "single flight: one miss for five lookups");
        assert_eq!(stats.plan_hits, 4);
    }

    #[test]
    fn request_memo_remembers_plans_and_infeasibilities() {
        let c = SearchCaches::new();
        let plan = PartitionPlan {
            workers: 2,
            steps: Vec::new(),
            tiling: Vec::new(),
            search_time: std::time::Duration::ZERO,
        };
        match c.request_begin(1) {
            RequestLookup::Leader => {
                c.request_flight_guard(1).fill(&RequestOutcome::Plan(plan))
            }
            RequestLookup::Ready(_) => panic!("fresh memo cannot hit"),
        }
        assert!(matches!(
            c.request_begin(1),
            RequestLookup::Ready(RequestOutcome::Plan(p)) if p.workers == 2
        ));

        let err = CoreError::BadWorkerCount(7);
        match c.request_begin(2) {
            RequestLookup::Leader => {
                c.request_flight_guard(2).fill(&RequestOutcome::Infeasible(err))
            }
            RequestLookup::Ready(_) => panic!("fresh memo cannot hit"),
        }
        assert!(matches!(
            c.request_begin(2),
            RequestLookup::Ready(RequestOutcome::Infeasible(CoreError::BadWorkerCount(7)))
        ));

        let stats = c.stats();
        assert_eq!((stats.request_hits, stats.request_misses), (2, 2));
        assert_eq!(c.snapshot().request_entries, 2);
    }

    #[test]
    fn failed_request_flight_elects_a_new_leader() {
        let c = SearchCaches::new();
        match c.request_begin(5) {
            RequestLookup::Leader => drop(c.request_flight_guard(5)),
            RequestLookup::Ready(_) => panic!("fresh memo cannot hit"),
        }
        assert!(matches!(c.request_begin(5), RequestLookup::Leader));
        assert_eq!(c.stats().request_misses, 2);
        assert_eq!(c.snapshot().request_entries, 0, "a failed flight leaves nothing behind");
    }
}
