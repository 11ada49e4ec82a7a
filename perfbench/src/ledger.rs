//! Per-layer accounting of one runtime call.
//!
//! A call to the runtime lasts `call_wall` seconds on each of its `workers`
//! threads. Every worker-second of that lands in exactly one part:
//!
//! - kernel time, grouped by the executed node's op family (`tensor.*`);
//! - `multi_fetch` time outside receive waits (piece assembly);
//! - receive waits, from the runtime's `wait` spans;
//! - idle: the run's wall time not spent inside any op;
//! - call overhead: the call's wall time outside the run's own wall
//!   (planning validation, thread start, trace assembly), on every worker.
//!
//! So the parts add up to `call_wall × workers` by construction, and a
//! test holds the arithmetic to it.

use tofu_graph::Graph;
use tofu_obs::{Event, Phase};
use tofu_runtime::RunTrace;

/// Op family of an executed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Convolutions and their gradients.
    Conv,
    /// Matrix products, batched products and head projections.
    Matmul,
    /// Normalisation layers.
    Norm,
    /// Optimizer updates.
    Update,
    /// Cross-worker piece assembly.
    Fetch,
    /// Everything else: elementwise ops, reductions, pooling, losses.
    Elementwise,
}

/// The family a node op belongs to.
pub fn family(op: &str) -> Family {
    if op == "multi_fetch" {
        Family::Fetch
    } else if op.starts_with("conv") {
        Family::Conv
    } else if op.contains("matmul") || op.contains("proj_heads") || op == "sparse_dot" {
        Family::Matmul
    } else if op.contains("norm") || op == "scale_shift" {
        Family::Norm
    } else if op == "sgd_update" {
        Family::Update
    } else {
        Family::Elementwise
    }
}

/// Where one runtime call's worker-seconds went, plus its exact counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepLedger {
    /// Worker threads of the call.
    pub workers: usize,
    /// Wall time of the call as the caller saw it.
    pub call_wall: f64,
    /// Kernel worker-seconds per family.
    pub conv: f64,
    /// See [`Family::Matmul`].
    pub matmul: f64,
    /// See [`Family::Norm`].
    pub norm: f64,
    /// See [`Family::Elementwise`].
    pub elementwise: f64,
    /// See [`Family::Update`].
    pub update: f64,
    /// `multi_fetch` worker-seconds excluding receive waits.
    pub fetch: f64,
    /// Worker-seconds blocked on a remote piece.
    pub recv_wait: f64,
    /// Worker-seconds inside the run but outside any op.
    pub idle: f64,
    /// Call wall time minus the run's own wall time.
    pub call_overhead: f64,
    /// Messages between workers.
    pub messages: u64,
    /// Payload bytes between workers.
    pub comm_bytes: u64,
    /// Payload bytes copied in transit.
    pub transport_copy_bytes: u64,
    /// Largest buffer-pool high-water mark of any worker.
    pub pool_peak_bytes: u64,
    /// Largest resident leaf-shard footprint of any worker.
    pub persistent_bytes: u64,
    /// Largest per-worker peak footprint (persistent plus pool).
    pub peak_device_bytes: u64,
}

impl StepLedger {
    /// Accounts one call: `graph` is the sharded graph that ran, `waits`
    /// the receive-wait seconds per worker, `call_wall` the caller's time.
    pub fn from_run(graph: &Graph, trace: &RunTrace, waits: &[f64], call_wall: f64) -> StepLedger {
        let wall = trace.wall.as_secs_f64();
        let mut l = StepLedger {
            workers: trace.workers.len(),
            call_wall,
            call_overhead: call_wall - wall,
            messages: trace.links.iter().map(|k| k.messages).sum(),
            comm_bytes: trace.comm_bytes(),
            transport_copy_bytes: trace.workers.iter().map(|w| w.transport_copy_bytes).sum(),
            pool_peak_bytes: trace
                .workers
                .iter()
                .map(|w| w.pool_peak_bytes)
                .max()
                .unwrap_or(0),
            persistent_bytes: trace
                .workers
                .iter()
                .map(|w| w.persistent_bytes)
                .max()
                .unwrap_or(0),
            peak_device_bytes: trace.max_device_memory_bytes(),
            ..StepLedger::default()
        };
        for (i, w) in trace.workers.iter().enumerate() {
            let wait = waits.get(i).copied().unwrap_or(0.0);
            let mut busy = 0.0;
            for e in &w.ops {
                let d = (e.end - e.start).as_secs_f64();
                busy += d;
                match family(&graph.node(e.node).op) {
                    Family::Conv => l.conv += d,
                    Family::Matmul => l.matmul += d,
                    Family::Norm => l.norm += d,
                    Family::Update => l.update += d,
                    Family::Fetch => l.fetch += d,
                    Family::Elementwise => l.elementwise += d,
                }
            }
            l.fetch -= wait;
            l.recv_wait += wait;
            l.idle += wall - busy;
        }
        l
    }

    /// Kernel worker-seconds over all families.
    pub fn kernels(&self) -> f64 {
        self.conv + self.matmul + self.norm + self.elementwise + self.update
    }

    /// Worker-seconds inside ops (kernels, piece assembly, waits).
    pub fn busy(&self) -> f64 {
        self.kernels() + self.fetch + self.recv_wait
    }

    /// Sum of every part; equals `call_wall × workers`.
    pub fn parts_sum(&self) -> f64 {
        self.busy() + self.idle + self.call_overhead * self.workers as f64
    }
}

/// Receive-wait seconds per worker from the runtime's `wait` spans.
pub fn waits_by_worker(events: &[Event], workers: usize) -> Vec<f64> {
    let mut out = vec![0.0; workers];
    for e in events {
        if let (Phase::Complete { dur_us }, Some(d)) = (e.phase, e.track.device()) {
            if e.cat == "wait" && d < workers {
                out[d] += dur_us / 1e6;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use tofu_graph::{Attrs, NodeId};
    use tofu_obs::Track;
    use tofu_runtime::{LinkStat, OpEvent, WorkerTrace};
    use tofu_tensor::Shape;

    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn worker(device: usize, ops: Vec<OpEvent>) -> WorkerTrace {
        WorkerTrace {
            device,
            busy: ops.iter().map(|e| e.end - e.start).sum(),
            ops,
            pool_peak_bytes: 100 + device as u64,
            persistent_bytes: 10,
            bytes_sent: 0,
            bytes_received: 0,
            transport_copy_bytes: 0,
            completed: true,
            resumed_from: None,
        }
    }

    #[test]
    fn families_cover_the_model_ops() {
        assert_eq!(family("conv2d_bwd_filter"), Family::Conv);
        assert_eq!(family("batch_matmul_nt"), Family::Matmul);
        assert_eq!(family("unproj_heads_grad_w"), Family::Matmul);
        assert_eq!(family("layer_norm_x_grad"), Family::Norm);
        assert_eq!(family("scale_shift"), Family::Norm);
        assert_eq!(family("sgd_update"), Family::Update);
        assert_eq!(family("multi_fetch"), Family::Fetch);
        assert_eq!(family("relu_grad"), Family::Elementwise);
    }

    #[test]
    fn parts_add_up_to_call_wall_times_workers() {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new(vec![2, 2]));
        let w = g.add_weight("w", Shape::new(vec![2, 2]));
        let y = g.add_op("matmul", "mm", &[x, w], Attrs::new()).unwrap();
        g.add_op("relu", "act", &[y], Attrs::new()).unwrap();
        let (mm, act) = (NodeId(0), NodeId(1));
        let trace = RunTrace {
            workers: vec![
                worker(
                    0,
                    vec![
                        OpEvent {
                            node: mm,
                            start: ms(0),
                            end: ms(30),
                        },
                        OpEvent {
                            node: act,
                            start: ms(40),
                            end: ms(50),
                        },
                    ],
                ),
                worker(
                    1,
                    vec![OpEvent {
                        node: mm,
                        start: ms(5),
                        end: ms(65),
                    }],
                ),
            ],
            links: vec![LinkStat {
                src: 0,
                dst: 1,
                bytes: 64,
                messages: 2,
            }],
            wall: ms(80),
        };
        let l = StepLedger::from_run(&g, &trace, &[0.0, 0.0], 0.1);
        assert_eq!(l.workers, 2);
        assert!((l.matmul - 0.09).abs() < 1e-12);
        assert!((l.elementwise - 0.01).abs() < 1e-12);
        assert!((l.idle - 0.06).abs() < 1e-12);
        assert!((l.call_overhead - 0.02).abs() < 1e-12);
        assert!((l.parts_sum() - 0.1 * 2.0).abs() < 1e-12);
        assert_eq!((l.messages, l.comm_bytes, l.pool_peak_bytes), (2, 64, 101));
        // A receive wait moves time from piece assembly to waiting; the
        // parts still sum to the same total.
        let waited = StepLedger::from_run(&g, &trace, &[0.003, 0.0], 0.1);
        assert!((waited.recv_wait - 0.003).abs() < 1e-12);
        assert!((waited.parts_sum() - l.parts_sum()).abs() < 1e-12);
    }

    #[test]
    fn waits_come_from_runtime_wait_spans() {
        let ev = |cat: &'static str, device: usize, dur_us: f64| Event {
            name: "recv".into(),
            cat,
            ts_us: 0.0,
            track: Track::runtime(device),
            phase: Phase::Complete { dur_us },
            args: Vec::new(),
        };
        let events = vec![
            ev("wait", 0, 1000.0),
            ev("fetch", 0, 5000.0),
            ev("wait", 1, 250.0),
        ];
        assert_eq!(waits_by_worker(&events, 2), vec![0.001, 0.00025]);
    }
}
