//! The benchmark's only call sites into the program's layers.
//!
//! Each layer entry point is called from exactly one adapter here, which
//! also records the benchmark's span around the call. A refactor of an
//! entry point then edits one call site, and every metric keeps its
//! definition.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;

use tofu_core::{
    coarsen, generate as generate_plan, partition_cached, request_fingerprint, GenOptions,
    PartitionOptions, PartitionPlan, SearchCaches, ShardedGraph,
};
use tofu_graph::{Executor, Graph, TensorId};
use tofu_models::BuiltModel;
use tofu_obs::Collector;
use tofu_runtime::{
    resume_from_snapshot, run_with_durable_recovery, run_with_options, CheckpointPolicy,
    CrashPoint, DurableOptions, DurableReport, MemStore, RunOptions, RunOutput,
};
use tofu_serve::protocol::{encode_partition, encode_plan_response, fingerprint_hex};
use tofu_serve::{plan_to_json, PlanClient, PlanServer, Request, Response, ServeConfig};
use tofu_tensor::Tensor;

use crate::inputs::ModelSpec;
use crate::spans::SpanLog;

/// Result type of the adapters: errors become text the report carries.
pub type Res<T> = Result<T, String>;

/// `tofu-models`: builds a training graph.
pub fn build(log: &mut SpanLog, spec: &ModelSpec) -> Res<BuiltModel> {
    log.time("models.build", || spec.build())
        .map_err(|e| format!("build {spec}: {e}"))
}

/// `tofu-core`: coarsening alone, as a probe of the first phase of
/// [`partition`] (which coarsens again internally).
pub fn coarsen_probe(log: &mut SpanLog, g: &Graph) -> usize {
    log.time("core.coarsen", || coarsen(g).groups.len())
}

/// `tofu-core`: the request fingerprint every cache layer keys on.
pub fn fingerprint(log: &mut SpanLog, g: &Graph, workers: usize) -> u128 {
    let opts = PartitionOptions {
        workers,
        ..Default::default()
    };
    log.time("core.fingerprint", || request_fingerprint(g, &opts))
}

/// `tofu-core`: the partition search, against caller-owned caches.
pub fn partition(
    log: &mut SpanLog,
    g: &Graph,
    workers: usize,
    caches: &mut SearchCaches,
    obs: Option<&Collector>,
) -> Res<PartitionPlan> {
    let opts = PartitionOptions {
        workers,
        ..Default::default()
    };
    log.time("core.partition", || partition_cached(g, &opts, caches, obs))
        .map_err(|e| format!("partition at w={workers}: {e}"))
}

/// `tofu-core`: lowers a plan to the sharded graph the runtime executes.
pub fn generate(log: &mut SpanLog, g: &Graph, plan: &PartitionPlan) -> Res<ShardedGraph> {
    log.time("core.generate", || {
        generate_plan(g, plan, &GenOptions::default())
    })
    .map_err(|e| format!("generate: {e}"))
}

/// `tofu-runtime`: one run of a sharded graph with default options, the
/// trace sink set when traced.
pub fn run(
    log: &mut SpanLog,
    sharded: &ShardedGraph,
    feeds: &[(TensorId, Tensor)],
    collector: Option<Collector>,
) -> Res<RunOutput> {
    let opts = RunOptions {
        collector,
        ..Default::default()
    };
    log.time("runtime.run", || run_with_options(sharded, feeds, &opts))
        .map_err(|e| format!("run: {e}"))
}

/// How a durable step ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableKind {
    /// Runs straight through, committing every checkpoint.
    Clean,
    /// Crashes the whole process right after checkpoint `commit` commits
    /// and restarts it at `restart` workers.
    Crash {
        /// Checkpoint whose commit the crash follows.
        commit: usize,
        /// Worker count of the restarted process.
        restart: usize,
    },
}

/// `tofu-runtime` + `tofu-durable`: one step through
/// `run_with_durable_recovery`, persisting to a fresh in-memory store.
#[allow(clippy::too_many_arguments)]
pub fn durable_step(
    log: &mut SpanLog,
    g: &Graph,
    feeds: &[(TensorId, Tensor)],
    workers: usize,
    every: usize,
    kind: DurableKind,
    caches: &mut SearchCaches,
    collector: Option<Collector>,
) -> Res<DurableReport> {
    let part = PartitionOptions {
        workers,
        ..Default::default()
    };
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::every_original(every)),
        collector,
        ..Default::default()
    };
    let mut durable = DurableOptions::new(Arc::new(MemStore::new()));
    if let DurableKind::Crash { commit, restart } = kind {
        durable.crash = Some(CrashPoint::AfterCommit(commit));
        durable.restart_workers = Some(restart);
    }
    log.time("durable.run", || {
        run_with_durable_recovery(g, feeds, &part, &opts, &durable, caches)
    })
    .map_err(|e| format!("durable step ({kind:?}): {e}"))
}

/// Oracle: an undisturbed run at the restart width, resumed from the
/// snapshot the recovery used.
pub fn resume_baseline(report: &DurableReport) -> Res<BTreeMap<TensorId, Tensor>> {
    let snap = report
        .snapshot
        .as_ref()
        .ok_or("recovery resumed from no snapshot")?;
    resume_from_snapshot(&report.sharded, &[], &RunOptions::default(), snap)
        .map(|out| out.values)
        .map_err(|e| format!("baseline resume: {e}"))
}

/// Oracle: the single-device executor.
pub fn reference(g: &Graph, feeds: &[(TensorId, Tensor)]) -> Res<BTreeMap<TensorId, Tensor>> {
    let mut exec = Executor::new();
    for (t, v) in feeds {
        exec.feed(*t, v.clone());
    }
    exec.run(g).map_err(|e| format!("executor: {e}"))
}

/// `tofu-serve`: an in-process plan server and one client connection,
/// split into a write half and a read half for pipelining.
pub struct PlanService {
    /// The running server.
    pub server: PlanServer,
    /// Write half of the client connection.
    pub writer: TcpStream,
    /// Read half of the client connection.
    pub reader: TcpStream,
}

/// Starts a [`PlanService`] with default settings and the trace sink set
/// when traced.
pub fn plan_service(collector: Option<Collector>) -> Res<PlanService> {
    let server = PlanServer::bind(
        "127.0.0.1:0",
        ServeConfig {
            collector,
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind plan server: {e}"))?;
    let mut client =
        PlanClient::connect(server.addr()).map_err(|e| format!("connect plan client: {e}"))?;
    let writer = client
        .stream_mut()
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let reader = client
        .stream_mut()
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    Ok(PlanService {
        server,
        writer,
        reader,
    })
}

/// `tofu-serve`: encodes a partition request the way the client does.
pub fn encode_request(log: &mut SpanLog, id: u64, g: &Graph, workers: usize) -> Vec<u8> {
    let opts = PartitionOptions {
        workers,
        ..Default::default()
    };
    log.time("serve.encode", || {
        encode_partition(id, "bench", g, &opts, None)
    })
}

/// `tofu-serve`: parses a response frame the way the client does.
pub fn parse_response(log: &mut SpanLog, payload: &[u8]) -> Res<Response> {
    log.time("serve.response_parse", || Response::from_bytes(payload))
        .map_err(|e| format!("parse response: {e}"))
}

/// `tofu-serve`: decodes a request payload the way the server does. The
/// server decodes inside its own threads, out of the benchmark's reach,
/// so the traced run replays this on each payload it sent.
pub fn decode_request(log: &mut SpanLog, payload: &[u8]) -> Res<Request> {
    log.time("serve.request_decode", || Request::from_bytes(payload))
        .map_err(|e| format!("decode request: {e}"))
}

/// `tofu-serve`: the exact response frame a served plan must match.
pub fn expected_response(
    id: u64,
    cached: bool,
    fingerprint: u128,
    plan: &PartitionPlan,
) -> Vec<u8> {
    encode_plan_response(
        id,
        cached,
        &fingerprint_hex(fingerprint),
        &plan_to_json(plan).to_json(),
    )
}
