//! `recover-decoder`: decoder training steps at width 2 through
//! `run_with_durable_recovery`, alternating a clean checkpointed step with a step whose
//! process crashes after its second commit and restarts at width 1.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tofu_core::SearchCaches;
use tofu_graph::TensorId;
use tofu_models::BuiltModel;
use tofu_obs::Collector;
use tofu_runtime::DurableReport;
use tofu_tensor::Tensor;

use crate::inputs::{self, ModelSpec};
use crate::layers::{self, DurableKind, Res};
use crate::report::{timed_setups, Outcome, Run};
use crate::spans::SpanLog;
use crate::stats::{mean, median, tail};
use crate::train::Model;
use crate::TRAIN_WIDTH;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = Model::Decoder.setup_reps();
/// Checkpoints per step: one every quarter of the original nodes.
const CHECKPOINT_QUARTERS: usize = 4;
/// The crash follows this commit.
const CRASH_COMMIT: usize = 2;
/// Width of the restarted process.
const RESTART_WIDTH: usize = 1;
/// Commits of a clean step: a barrier ends every quarter but the last.
const CLEAN_COMMITS: usize = CHECKPOINT_QUARTERS - 1;

struct Setup {
    model: BuiltModel,
    caches: SearchCaches,
}

/// Builds the decoder and warms the search caches for both widths
/// `run_with_durable_recovery` plans at, as a long-running trainer would.
fn setup(log: &mut SpanLog, spec: &ModelSpec) -> Res<Setup> {
    let model = layers::build(log, spec)?;
    let mut caches = SearchCaches::new();
    for w in [TRAIN_WIDTH, RESTART_WIDTH] {
        layers::partition(log, &model.graph, w, &mut caches, None)?;
    }
    Ok(Setup { model, caches })
}

/// One finished durable step.
struct Op {
    crash: bool,
    wall: f64,
    report: DurableReport,
}

fn bit_identical(a: &BTreeMap<TensorId, Tensor>, b: &BTreeMap<TensorId, Tensor>) -> bool {
    a.len() == b.len()
        && a.iter().all(|(t, va)| {
            b.get(t).is_some_and(|vb| {
                va.data()
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(vb.data().iter().map(|x| x.to_bits()))
            })
        })
}

fn check(op: &Op) -> Res<()> {
    let r = &op.report;
    if !op.crash {
        return match (r.crashed.is_none(), r.written) {
            (true, CLEAN_COMMITS) => Ok(()),
            (clean, n) => Err(format!("clean step: crashed {}, {n} commits", !clean)),
        };
    }
    if r.crashed.is_none() || r.resumed_from != Some(CRASH_COMMIT) || !r.rejected.is_empty() {
        return Err(format!(
            "crash step: resumed from {:?} with {} rejected checkpoints",
            r.resumed_from,
            r.rejected.len()
        ));
    }
    if !bit_identical(&r.output.values, &layers::resume_baseline(r)?) {
        return Err("recovered values differ from the resumed baseline".into());
    }
    Ok(())
}

/// Alternating durable steps until `until`, from the initial weights.
fn op_loop(
    s: &mut Setup,
    log: &mut SpanLog,
    out: &mut Outcome,
    seed: u64,
    until: Instant,
) -> Vec<Op> {
    let every = (s.model.graph.num_nodes() / CHECKPOINT_QUARTERS).max(1);
    let updates = inputs::updates(&s.model);
    let spec = Model::Decoder.spec();
    let mut weights = inputs::initial_weights(&s.model, &spec, seed);
    let mut ops = Vec::new();
    let mut index = 0u64;
    while Instant::now() < until {
        let crash = index % 2 == 1;
        let kind = if crash {
            DurableKind::Crash {
                commit: CRASH_COMMIT,
                restart: RESTART_WIDTH,
            }
        } else {
            DurableKind::Clean
        };
        let mut feeds = weights.clone();
        feeds.extend(inputs::batch(&s.model, &spec, seed, index));
        index += 1;
        out.attempted += 1;
        let collector = log.collector().cloned();
        let t0 = Instant::now();
        let report = layers::durable_step(
            log,
            &s.model.graph,
            &feeds,
            TRAIN_WIDTH,
            every,
            kind,
            &mut s.caches,
            collector,
        );
        let wall = t0.elapsed().as_secs_f64();
        let step = report.and_then(|report| {
            let mut next = Vec::with_capacity(updates.len());
            for &(w, updated) in &updates {
                let v = report
                    .sharded
                    .gather(
                        updated,
                        &inputs::shape(&s.model, updated),
                        &report.output.values,
                    )
                    .map_err(|e| format!("gather: {e}"))?;
                next.push((w, v));
            }
            Ok((report, next))
        });
        match step {
            Ok((report, next)) => {
                let op = Op {
                    crash,
                    wall,
                    report,
                };
                match check(&op) {
                    Ok(()) => {
                        weights = next;
                        ops.push(op);
                    }
                    Err(e) => out.fail(format!("step {index}: {e}")),
                }
            }
            Err(e) => out.fail(format!("step {index}: {e}")),
        }
    }
    ops
}

fn walls(ops: &[Op], crash: bool) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.crash == crash)
        .map(|o| o.wall)
        .collect()
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let spec = Model::Decoder.spec();
    let clock = Collector::new();
    let mut log = if run.trace {
        SpanLog::enabled(clock)
    } else {
        SpanLog::disabled()
    };
    let mut out = Outcome::new();
    out.note(format!(
        "config: {spec}, width {TRAIN_WIDTH}, MemStore, checkpoint every 1/{CHECKPOINT_QUARTERS} \
         of the original nodes; every other step crashes after commit {CRASH_COMMIT} and \
         restarts at width {RESTART_WIDTH}"
    ));
    let (setup_times, ready) = timed_setups(SETUP_REPS, || setup(&mut log, &spec));
    out.attempted += 1;
    let mut s = match ready {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            out.spans = log;
            return out;
        }
    };

    let start = Instant::now();
    if !run.trace {
        let ops = op_loop(
            &mut s,
            &mut log,
            &mut out,
            run.seed,
            start + Duration::from_secs_f64(run.seconds),
        );
        let recover = walls(&ops, true);
        let ckpt = walls(&ops, false);
        let (p, tail_v) = tail(&recover);
        let total: f64 = ops.iter().map(|o| o.wall).sum();
        let samples_per_s = s.model.batch as f64 * ops.len() as f64 / total;
        out.set("setup_s", median(&setup_times));
        out.set("op_s.p50", median(&recover));
        out.set("op_s.tail", tail_v);
        out.set("work_per_s", samples_per_s);
        out.note(format!(
            "recover_s.p50 {:.6} s | recover_s.p{p} {:.6} s | ckpt_step_s.p50 {:.6} s | \
             samples_per_s {samples_per_s:.3} | {} crash steps, {} clean steps",
            median(&recover),
            tail_v,
            median(&ckpt),
            recover.len(),
            ckpt.len()
        ));
    } else {
        let half = Duration::from_secs_f64(run.seconds / 2.0);
        let plain = op_loop(
            &mut s,
            &mut SpanLog::disabled(),
            &mut out,
            run.seed,
            start + half,
        );
        let traced = op_loop(&mut s, &mut log, &mut out, run.seed, Instant::now() + half);
        report_layers(&mut out, &traced, &log);
        let ratio = median(&walls(&traced, true)) / median(&walls(&plain, true));
        out.set("bench.trace_overhead_ratio", ratio);
        out.note(format!(
            "trace overhead: traced recovery median / untraced recovery median = {ratio:.4} \
             ({} traced, {} untraced steps)",
            traced.len(),
            plain.len()
        ));
    }
    out.spans = log;
    out
}

fn report_layers(out: &mut Outcome, ops: &[Op], log: &SpanLog) {
    let self_times = log.self_time_by_name();
    let span = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    let reps = SETUP_REPS as f64;
    out.set("models.build_s", span("models.build") / reps);
    out.set("core.partition_s", span("core.partition") / reps);
    let per = |crash: bool, f: &dyn Fn(&DurableReport) -> f64| {
        mean(
            &ops.iter()
                .filter(|o| o.crash == crash)
                .map(|o| f(&o.report))
                .collect::<Vec<_>>(),
        )
    };
    let all = |f: &dyn Fn(&DurableReport) -> f64| {
        mean(&ops.iter().map(|o| f(&o.report)).collect::<Vec<_>>())
    };
    out.set("durable.write_s", all(&|r| r.write_wall.as_secs_f64()));
    out.set(
        "durable.validate_s",
        all(&|r| r.validate_wall.as_secs_f64()),
    );
    // Per pair of one clean and one crash step: exact counts.
    out.set(
        "durable.bytes_written",
        per(false, &|r| r.written_bytes as f64) + per(true, &|r| r.written_bytes as f64),
    );
    out.set(
        "durable.commits",
        per(false, &|r| r.written as f64) + per(true, &|r| r.written as f64),
    );
    out.set(
        "runtime.detect_s",
        per(true, &|r| r.detection.map_or(0.0, |d| d.as_secs_f64())),
    );
    out.set(
        "runtime.restore_s",
        per(true, &|r| r.restore_wall.as_secs_f64()),
    );
    let wall: f64 = ops.iter().map(|o| o.wall).sum();
    let durable: f64 = ops
        .iter()
        .map(|o| (o.report.write_wall + o.report.validate_wall).as_secs_f64())
        .sum();
    out.note(format!(
        "check: durable.write_s + durable.validate_s is {:.1}% of op time over {} steps",
        100.0 * durable / wall,
        ops.len()
    ));
}
