//! Metric names, the run record and the result line.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use tofu_obs::json::Json;

use crate::spans::SpanLog;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = [
    "train-wresnet",
    "train-decoder",
    "serve-plans",
    "recover-decoder",
];

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("models.build_s", "s"),
    ("core.coarsen_s", "s"),
    ("core.partition_s", "s"),
    ("core.generate_s", "s"),
    ("core.states_explored", "count"),
    ("core.plan_comm_bytes", "bytes"),
    ("core.fingerprint_s", "s"),
    ("core.cache.request_hit_ratio", "ratio"),
    ("core.cache.plan_hit_ratio", "ratio"),
    ("core.scatter_gather_s", "s"),
    ("tensor.conv_s", "s"),
    ("tensor.matmul_s", "s"),
    ("tensor.norm_s", "s"),
    ("tensor.elementwise_s", "s"),
    ("tensor.update_s", "s"),
    ("runtime.fetch_s", "s"),
    ("runtime.recv_wait_s", "s"),
    ("runtime.idle_s", "s"),
    ("runtime.call_overhead_s", "s"),
    ("runtime.messages", "count"),
    ("runtime.comm_bytes", "bytes"),
    ("runtime.transport_copy_bytes", "bytes"),
    ("runtime.pool_peak_bytes", "bytes"),
    ("runtime.persistent_bytes", "bytes"),
    ("runtime.detect_s", "s"),
    ("runtime.restore_s", "s"),
    ("durable.write_s", "s"),
    ("durable.validate_s", "s"),
    ("durable.bytes_written", "bytes"),
    ("durable.commits", "count"),
    ("serve.request_decode_s", "s"),
    ("serve.response_parse_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.joined", "count"),
    ("serve.rejected", "count"),
    ("bench.gen_lag_s.max", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// What a workload measured and checked.
pub struct Outcome {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed or gave a wrong result.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: configuration, workload-named figures, checks.
    pub info: Vec<String>,
    /// The benchmark's spans (empty when untraced).
    pub spans: SpanLog,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: BTreeMap::new(),
            info: Vec::new(),
            spans: SpanLog::disabled(),
        }
    }

    /// Counts one operation, failed when `result` is an error.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Records one more failed operation (already counted as attempted).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds an information line.
    pub fn note(&mut self, line: String) {
        self.info.push(line);
    }
}

/// Runs `setup` `reps` times, returning the seconds each took and the last
/// result. The previous result is dropped before the next set-up starts,
/// outside the timed part, so two never run side by side.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up ran"))
}

/// Prints the information lines and the result line, writes the run
/// record under `.bench_out/`, and picks the exit code.
pub fn finish(run: &Run, nproc: usize, mut out: Outcome) -> ExitCode {
    let names: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if run.trace => 0.0,
            None => {
                out.fail(format!("end-to-end metric {name} was not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            out.fail(format!("metric {name} is not a finite number"));
        }
        metrics.push((
            name,
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::from(unit)),
            ]),
        ));
    }
    let stamp = vec![
        ("workload", Json::from(run.workload.as_str())),
        ("seed", Json::from(run.seed)),
        ("seconds", Json::Num(run.seconds)),
        ("trace", Json::Bool(run.trace)),
        ("nproc", Json::from(nproc)),
        ("rustc", Json::from(env!("PERFBENCH_RUSTC"))),
    ];
    println!("stamp: {}", Json::obj(stamp.clone()).to_json());
    for line in &out.info {
        println!("{line}");
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
    ]);
    let mut record = stamp;
    record.push(("result", result.clone()));
    record.push((
        "info",
        Json::Arr(out.info.iter().map(|l| Json::from(l.as_str())).collect()),
    ));
    record.push((
        "errors",
        Json::Arr(out.errors.iter().map(|l| Json::from(l.as_str())).collect()),
    ));
    record.push(("spans", out.spans.to_json()));
    let path = format!(
        ".bench_out/{}-seed{}-trace{}.json",
        run.workload,
        run.seed,
        u8::from(run.trace)
    );
    if let Err(e) = std::fs::create_dir_all(".bench_out")
        .and_then(|_| std::fs::write(&path, Json::obj(record).to_json() + "\n"))
    {
        eprintln!("could not write {path}: {e}");
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofu_obs::json::parse;

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
