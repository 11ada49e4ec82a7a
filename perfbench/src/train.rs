//! `train-wresnet` and `train-decoder`: a closed loop of training steps at
//! width 2, each step's updated weights feeding the next.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tofu_core::{PartitionPlan, SearchCaches, ShardedGraph};
use tofu_graph::TensorId;
use tofu_models::{BuiltModel, DecoderConfig};
use tofu_obs::Collector;
use tofu_tensor::Tensor;

use crate::inputs::{self, ModelSpec};
use crate::layers::{self, Res};
use crate::ledger::{waits_by_worker, StepLedger};
use crate::report::{timed_setups, Outcome, Run};
use crate::spans::SpanLog;
use crate::stats::{median, tail};
use crate::TRAIN_WIDTH;

/// Tolerance of the multi-worker step against the single-device executor,
/// as the runtime's own differential tests use it: partitioned reductions
/// re-associate f32 sums.
const REFERENCE_TOL: f32 = 1e-4;

/// Which model a training workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Model {
    /// WResNet-50-1, batch 8, 16×16 images.
    WResNet,
    /// Decoder block, seq 256, d_model 256, 8 heads, d_ff 1024, 64 classes.
    Decoder,
}

impl Model {
    /// Set-ups per run; `setup_s` is their median. The decoder sets up in
    /// ~12 ms, so it repeats more often for a steadier median.
    pub const fn setup_reps(self) -> usize {
        match self {
            Model::WResNet => 9,
            Model::Decoder => 15,
        }
    }

    /// The model configuration.
    pub fn spec(self) -> ModelSpec {
        match self {
            Model::WResNet => ModelSpec::wresnet_50_1(8),
            Model::Decoder => ModelSpec::Decoder(DecoderConfig {
                seq: 256,
                d_model: 256,
                heads: 8,
                d_ff: 1024,
                classes: 64,
                with_updates: true,
            }),
        }
    }
}

/// A model partitioned and lowered for the training width.
pub struct Trainer {
    /// The training graph.
    pub model: BuiltModel,
    /// The lowered plan.
    pub sharded: ShardedGraph,
    /// The plan.
    pub plan: PartitionPlan,
    updates: Vec<(TensorId, TensorId)>,
    spec: ModelSpec,
}

/// Builds, partitions and lowers the model at width 2, with fresh search
/// caches so every set-up pays the full search.
pub fn setup(log: &mut SpanLog, spec: &ModelSpec, obs: Option<&Collector>) -> Res<Trainer> {
    let model = layers::build(log, spec)?;
    let mut caches = SearchCaches::new();
    let plan = layers::partition(log, &model.graph, TRAIN_WIDTH, &mut caches, obs)?;
    let sharded = layers::generate(log, &model.graph, &plan)?;
    let updates = inputs::updates(&model);
    Ok(Trainer {
        model,
        sharded,
        plan,
        updates,
        spec: spec.clone(),
    })
}

/// One finished step.
pub struct Step {
    /// Loss of the step.
    pub loss: f32,
    /// Wall time of the runtime call.
    pub wall: f64,
    /// Where the runtime call's worker-seconds went.
    pub ledger: StepLedger,
    /// Gathered values of the original tensors the caller asked for.
    pub values: BTreeMap<TensorId, Tensor>,
}

impl Trainer {
    /// Splits full weights into the per-worker shard feeds a step takes.
    pub fn shard(&self, full: &[(TensorId, Tensor)]) -> Res<Vec<(TensorId, Tensor)>> {
        let mut out = Vec::new();
        for (t, v) in full {
            out.extend(
                self.sharded
                    .scatter(*t, v)
                    .map_err(|e| format!("scatter: {e}"))?,
            );
        }
        Ok(out)
    }

    /// Runs one step on the weight shards `weights` and the seeded batch
    /// `index`, replacing `weights` with the updated shards. `keep` lists
    /// original tensors to gather (outside the timed part).
    pub fn step(
        &self,
        log: &mut SpanLog,
        weights: &mut Vec<(TensorId, Tensor)>,
        seed: u64,
        index: u64,
        keep: &[TensorId],
    ) -> Res<Step> {
        let batch = inputs::batch(&self.model, &self.spec, seed, index);
        let collector = log.on().then(Collector::new);
        let span = log.enter("bench.step");
        let mut feeds = std::mem::take(weights);
        feeds.extend(self.shard(&batch)?);
        let call = Instant::now();
        let out = layers::run(log, &self.sharded, &feeds, collector.clone())?;
        let call_wall = call.elapsed().as_secs_f64();
        let mut values = out.values;
        let loss = self.gather(&values, self.model.loss)?.data()[0];
        *weights = self.carry(&mut values)?;
        log.exit(span);
        let kept = keep
            .iter()
            .map(|&t| Ok((t, self.gather(&values, t)?)))
            .collect::<Res<_>>()?;
        let waits = collector
            .map(|c| waits_by_worker(&c.events(), self.sharded.workers))
            .unwrap_or_default();
        let ledger = StepLedger::from_run(&self.sharded.graph, &out.trace, &waits, call_wall);
        Ok(Step {
            loss,
            wall: call_wall,
            ledger,
            values: kept,
        })
    }

    /// The full value of original tensor `t` from a run's shard values.
    fn gather(&self, values: &BTreeMap<TensorId, Tensor>, t: TensorId) -> Res<Tensor> {
        self.sharded
            .gather(t, &inputs::shape(&self.model, t), values)
            .map_err(|e| format!("gather: {e}"))
    }

    /// The next step's weight shards from this step's updated weights:
    /// shard by shard where both tensors share a tiling, through the full
    /// tensor otherwise.
    fn carry(&self, values: &mut BTreeMap<TensorId, Tensor>) -> Res<Vec<(TensorId, Tensor)>> {
        let sg = &self.sharded;
        let mut next = Vec::new();
        for &(w, updated) in &self.updates {
            if sg.regions.get(&w) == sg.regions.get(&updated) {
                for (&to, from) in sg.shards[&w].iter().zip(&sg.shards[&updated]) {
                    let v = values.remove(from).ok_or("updated weight shard missing")?;
                    next.push((to, v));
                }
            } else {
                let full = self.gather(values, updated)?;
                next.extend(self.shard(&[(w, full)])?);
            }
        }
        Ok(next)
    }
}

/// Step 1 against the single-device executor: loss and every gradient.
fn check_reference(
    tr: &Trainer,
    weights: &[(TensorId, Tensor)],
    seed: u64,
    step: &Step,
) -> Res<()> {
    let mut feeds = weights.to_vec();
    feeds.extend(inputs::batch(&tr.model, &tr.spec, seed, 0));
    let base = layers::reference(&tr.model.graph, &feeds)?;
    let checked = std::iter::once(tr.model.loss).chain(tr.model.grads.iter().map(|&(_, g)| g));
    for t in checked {
        let name = &tr.model.graph.tensor(t).name;
        let (Some(got), Some(want)) = (step.values.get(&t), base.get(&t)) else {
            return Err(format!("step 1: tensor {name} missing"));
        };
        if !got.allclose(want, REFERENCE_TOL) {
            return Err(format!(
                "step 1: {name} differs from the single-device executor"
            ));
        }
    }
    Ok(())
}

/// Closed loop of steps until `until`, from `weights` and batch `first`.
fn train_loop(
    tr: &Trainer,
    log: &mut SpanLog,
    out: &mut Outcome,
    mut weights: Vec<(TensorId, Tensor)>,
    seed: u64,
    first: u64,
    until: Instant,
) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut index = first;
    while Instant::now() < until {
        let step = tr.step(log, &mut weights, seed, index, &[]);
        index += 1;
        out.attempted += 1;
        match step {
            Ok(s) if s.loss.is_finite() => steps.push(s),
            Ok(s) => out.fail(format!("step {index}: loss {}", s.loss)),
            Err(e) => out.fail(format!("step {index}: {e}")),
        }
    }
    steps
}

/// Runs a training workload.
pub fn run(run: &Run, model: Model) -> Outcome {
    let spec = model.spec();
    let clock = Collector::new();
    let mut log = if run.trace {
        SpanLog::enabled(clock.clone())
    } else {
        SpanLog::disabled()
    };
    let mut out = Outcome::new();
    out.note(format!(
        "config: {spec}, width {TRAIN_WIDTH}, default RunOptions"
    ));

    let obs = log.collector().cloned();
    let (setup_times, trainer) =
        timed_setups(model.setup_reps(), || setup(&mut log, &spec, obs.as_ref()));
    out.attempted += 1;
    let tr = match trainer {
        Ok(t) => t,
        Err(e) => {
            out.fail(e);
            out.spans = log;
            return out;
        }
    };
    if run.trace {
        layers::coarsen_probe(&mut log, &tr.model.graph);
        layers::fingerprint(&mut log, &tr.model.graph, TRAIN_WIDTH);
    }

    // Step 1 is untimed: it warms the process and is checked against the
    // single-device executor.
    let initial = inputs::initial_weights(&tr.model, &spec, run.seed);
    let mut weights = match tr.shard(&initial) {
        Ok(w) => w,
        Err(e) => {
            out.fail(e);
            out.spans = log;
            return out;
        }
    };
    let keep: Vec<TensorId> = std::iter::once(tr.model.loss)
        .chain(tr.model.grads.iter().map(|&(_, g)| g))
        .collect();
    out.attempted += 1;
    match tr.step(&mut SpanLog::disabled(), &mut weights, run.seed, 0, &keep) {
        Ok(step) => {
            if let Err(e) = check_reference(&tr, &initial, run.seed, &step) {
                out.fail(e);
            }
        }
        Err(e) => out.fail(format!("step 1: {e}")),
    }

    let start = Instant::now();
    if !run.trace {
        let steps = train_loop(
            &tr,
            &mut log,
            &mut out,
            weights,
            run.seed,
            1,
            start + Duration::from_secs_f64(run.seconds),
        );
        report_end_to_end(&mut out, &tr, &steps, &setup_times);
    } else {
        // Half the time untraced, then the same steps traced from the same
        // weights: the loss trajectories must agree bit for bit, and the
        // step-time ratio is the tracing overhead.
        let half = Duration::from_secs_f64(run.seconds / 2.0);
        let plain = train_loop(
            &tr,
            &mut SpanLog::disabled(),
            &mut out,
            weights.clone(),
            run.seed,
            1,
            start + half,
        );
        let traced = train_loop(
            &tr,
            &mut log,
            &mut out,
            weights,
            run.seed,
            1,
            Instant::now() + half,
        );
        let common = plain.len().min(traced.len());
        out.attempted += 1;
        if common == 0 {
            out.fail("no step completed in both the untraced and the traced half".into());
        } else if let Some(i) =
            (0..common).find(|&i| plain[i].loss.to_bits() != traced[i].loss.to_bits())
        {
            out.fail(format!(
                "step {}: traced loss differs from untraced loss",
                i + 2
            ));
        }
        report_layers(&mut out, &tr, &traced, &log, &clock, model.setup_reps());
        let ratio = median(&walls(&traced)) / median(&walls(&plain));
        out.set("bench.trace_overhead_ratio", ratio);
        out.note(format!(
            "trace overhead: traced step median / untraced step median = {ratio:.4} \
             ({} traced, {} untraced steps; loss trajectories bit-identical over {common})",
            traced.len(),
            plain.len()
        ));
    }
    out.spans = log;
    out
}

fn walls(steps: &[Step]) -> Vec<f64> {
    steps.iter().map(|s| s.wall).collect()
}

fn report_end_to_end(out: &mut Outcome, tr: &Trainer, steps: &[Step], setup_times: &[f64]) {
    let w = walls(steps);
    let (p, tail_v) = tail(&w);
    let samples_per_s = tr.model.batch as f64 * w.len() as f64 / w.iter().sum::<f64>();
    let peak = steps
        .iter()
        .map(|s| s.ledger.peak_device_bytes)
        .max()
        .unwrap_or(0);
    out.set("setup_s", median(setup_times));
    out.set("op_s.p50", median(&w));
    out.set("op_s.tail", tail_v);
    out.set("work_per_s", samples_per_s);
    out.note(format!(
        "step_s.p50 {:.6} s | step_s.p{p} {:.6} s | samples_per_s {samples_per_s:.3} | \
         peak_device_bytes {peak} | {} steps",
        median(&w),
        tail_v,
        w.len()
    ));
}

fn report_layers(
    out: &mut Outcome,
    tr: &Trainer,
    steps: &[Step],
    log: &SpanLog,
    clock: &Collector,
    setups: usize,
) {
    let n = steps.len().max(1) as f64;
    let mean = |f: &dyn Fn(&StepLedger) -> f64| steps.iter().map(|s| f(&s.ledger)).sum::<f64>() / n;
    let self_times = log.self_time_by_name();
    let reps = setups as f64;
    let span = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    out.set("models.build_s", span("models.build") / reps);
    out.set("core.partition_s", span("core.partition") / reps);
    out.set("core.generate_s", span("core.generate") / reps);
    out.set("core.coarsen_s", span("core.coarsen"));
    out.set("core.fingerprint_s", span("core.fingerprint"));
    let totals = clock.totals();
    let total = |k: &str| totals.get(k).copied().unwrap_or(0.0);
    out.set("core.states_explored", total("dp/states_explored") / reps);
    out.set("core.plan_comm_bytes", tr.plan.total_comm_bytes());
    let hits = |h: &str, m: &str| {
        let (h, m) = (total(h), total(m));
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    out.set(
        "core.cache.plan_hit_ratio",
        hits("cache/plan_hit", "cache/plan_miss"),
    );
    out.set("tensor.conv_s", mean(&|l| l.conv));
    out.set("tensor.matmul_s", mean(&|l| l.matmul));
    out.set("tensor.norm_s", mean(&|l| l.norm));
    out.set("tensor.elementwise_s", mean(&|l| l.elementwise));
    out.set("tensor.update_s", mean(&|l| l.update));
    // A step's self time is its scatter of feeds into shards and gather of
    // loss and weights: the rest is the runtime call.
    out.set("core.scatter_gather_s", span("bench.step") / n);
    out.set("runtime.fetch_s", mean(&|l| l.fetch));
    out.set("runtime.recv_wait_s", mean(&|l| l.recv_wait));
    out.set("runtime.idle_s", mean(&|l| l.idle));
    out.set("runtime.call_overhead_s", mean(&|l| l.call_overhead));
    let last = steps.last().map(|s| s.ledger.clone()).unwrap_or_default();
    out.set("runtime.messages", last.messages as f64);
    out.set("runtime.comm_bytes", last.comm_bytes as f64);
    out.set(
        "runtime.transport_copy_bytes",
        last.transport_copy_bytes as f64,
    );
    out.set("runtime.pool_peak_bytes", last.pool_peak_bytes as f64);
    out.set("runtime.persistent_bytes", last.persistent_bytes as f64);
    out.attempted += 1;
    if let Some(s) = steps
        .iter()
        .find(|s| (s.ledger.messages, s.ledger.comm_bytes) != (last.messages, last.comm_bytes))
    {
        out.fail(format!(
            "message counts vary between identical steps: {} vs {}",
            s.ledger.messages, last.messages
        ));
    }
    let busy = mean(&|l| l.busy());
    let sum_err = steps
        .iter()
        .map(|s| (s.ledger.parts_sum() - s.ledger.call_wall * s.ledger.workers as f64).abs())
        .fold(0.0, f64::max);
    out.note(format!(
        "ledger per step (worker-seconds): conv {:.4} matmul {:.4} norm {:.4} elementwise {:.4} \
         update {:.4} fetch {:.4} recv_wait {:.4} idle {:.4} + overhead {:.4} x {} workers; \
         parts vs call wall x workers: max error {sum_err:.2e} s",
        mean(&|l| l.conv),
        mean(&|l| l.matmul),
        mean(&|l| l.norm),
        mean(&|l| l.elementwise),
        mean(&|l| l.update),
        mean(&|l| l.fetch),
        mean(&|l| l.recv_wait),
        mean(&|l| l.idle),
        mean(&|l| l.call_overhead),
        TRAIN_WIDTH
    ));
    out.note(format!(
        "check: tensor.conv_s is {:.1}% of busy time, tensor.matmul_s {:.1}%, \
         multi_fetch (with waits) {:.1}%",
        100.0 * mean(&|l| l.conv) / busy,
        100.0 * mean(&|l| l.matmul) / busy,
        100.0 * mean(&|l| l.fetch + l.recv_wait) / busy
    ));
}
