//! Property tests for checkpoint resharding: slicing a full tensor into one
//! plan's shard layout and reassembling it — within a plan or across two
//! plans with different worker counts (including prime and non-power-of-two
//! widths) — must be bit-identical and conserve every byte.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tofu_core::{generate, partition, CoreError, GenOptions, PartitionOptions, ShardedGraph};
use tofu_models::{mlp, MlpConfig};
use tofu_graph::{GraphError, TensorKind};
use tofu_runtime::{resume_from_snapshot, FullSnapshot, RunOptions, RuntimeError};
use tofu_tensor::{Shape, Tensor, TensorError};

/// An MLP whose batch (840 = lcm 1..8) is divisible by every tested width,
/// so a feasible split exists for worker counts 2 through 8 — including the
/// primes 5 and 7 no power-of-two schedule reaches.
fn sharded_at(workers: usize) -> (tofu_graph::Graph, ShardedGraph) {
    let m = mlp(&MlpConfig { batch: 840, dims: vec![16], classes: 8, with_updates: true })
        .unwrap();
    let plan = partition(&m.graph, &PartitionOptions { workers, ..Default::default() }).unwrap();
    let sharded = generate(&m.graph, &plan, &GenOptions::default()).unwrap();
    (m.graph, sharded)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// scatter → gather round-trips bit-identically under the
    /// source plan AND through a second plan at a different worker count,
    /// for every original tensor of the graph, conserving total bytes.
    #[test]
    fn reshard_round_trips_across_worker_counts(
        w_old in 2usize..9,
        w_new in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(w_old != w_new);
        let (g, old) = sharded_at(w_old);
        let (_, new) = sharded_at(w_new);
        for (i, (&t, _)) in old.shards.iter().enumerate() {
            let full_shape = g.tensor(t).shape.clone();
            let full = Tensor::random(full_shape, seed + i as u64 + 1, 1.0);

            // Within-plan round trip.
            let mut values = BTreeMap::new();
            for (shard, piece) in old.scatter(t, &full).unwrap() {
                values.insert(shard, piece);
            }
            let back = old.gather(t, full.shape(), &values).unwrap();
            prop_assert_eq!(back.shape(), full.shape(), "tensor {:?} changed shape", t);
            prop_assert_eq!(
                back.shape().bytes(),
                full.shape().bytes(),
                "tensor {:?} lost bytes", t
            );
            prop_assert_eq!(bits(&back), bits(&full), "tensor {:?} not bit-identical", t);

            // Cross-plan: reshard the gathered value onto the other width
            // and reassemble there.
            let mut values_new = BTreeMap::new();
            for (shard, piece) in new.scatter(t, &back).unwrap() {
                values_new.insert(shard, piece);
            }
            let across = new.gather(t, full.shape(), &values_new).unwrap();
            prop_assert_eq!(
                bits(&across),
                bits(&full),
                "tensor {:?} corrupted by {} → {} reshard", t, w_old, w_new
            );
        }
    }

    /// A whole `FullSnapshot` survives shrink-then-grow AND grow-then-shrink
    /// resharding bit-for-bit: round-tripping every tensor through the
    /// narrower plan's shard layout and then the wider one's (and the other
    /// way round) reproduces the snapshot exactly. This is the invariant
    /// elastic recovery leans on when a run shrinks onto survivors and later
    /// grows back onto a rejoined device.
    #[test]
    fn snapshot_reshard_round_trips_in_both_directions(
        w_a in 2usize..9,
        w_b in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(w_a != w_b);
        let (w_small, w_large) = (w_a.min(w_b), w_a.max(w_b));
        let (g, small) = sharded_at(w_small);
        let (_, large) = sharded_at(w_large);
        let mut tensors = BTreeMap::new();
        for (i, (&t, _)) in small.shards.iter().enumerate() {
            let full_shape = g.tensor(t).shape.clone();
            tensors.insert(t, Tensor::random(full_shape, seed + i as u64 + 1, 1.0));
        }
        let snap = FullSnapshot { ckpt: 1, every: 1, tensors };

        // Shrink then grow: through the narrow layout, then the wide one.
        let shrunk = snap.reshard_through(&small).unwrap();
        let regrown = shrunk.reshard_through(&large).unwrap();
        // Grow then shrink: the opposite order.
        let grown = snap.reshard_through(&large).unwrap();
        let reshrunk = grown.reshard_through(&small).unwrap();

        for (t, want) in &snap.tensors {
            for (name, got) in [
                ("shrink", &shrunk.tensors[t]),
                ("shrink→grow", &regrown.tensors[t]),
                ("grow", &grown.tensors[t]),
                ("grow→shrink", &reshrunk.tensors[t]),
            ] {
                prop_assert_eq!(got.shape(), want.shape(), "tensor {:?} changed shape", t);
                prop_assert_eq!(
                    bits(got),
                    bits(want),
                    "tensor {:?} corrupted by {} through {}/{} workers",
                    t, name, w_small, w_large
                );
            }
        }
    }
}

/// A snapshot whose value does not have its tensor's full shape is refused
/// with a typed shape mismatch before any worker starts — whether the value
/// is too small to hold the shards (a `[1, d]` batch) or has extra columns
/// a strided copy would silently misread.
#[test]
fn mis_shaped_snapshot_is_refused() {
    let (g, sharded) = sharded_at(2);
    // A leaf the plan actually splits.
    let (&t, _) = sharded
        .regions
        .iter()
        .find(|(t, regions)| {
            g.tensor(**t).kind != TensorKind::Intermediate && regions[0] != regions[1]
        })
        .expect("some leaf is split across the two workers");
    let dims = g.tensor(t).shape.dims().to_vec();
    let leaves = |bad: &Shape| -> BTreeMap<_, _> {
        g.tensor_ids()
            .filter(|&id| g.tensor(id).kind != TensorKind::Intermediate)
            .map(|id| {
                let shape = if id == t { bad.clone() } else { g.tensor(id).shape.clone() };
                (id, Tensor::random(shape, 7, 1.0))
            })
            .collect()
    };
    let mut narrow = dims.clone();
    narrow[0] = 1;
    let mut wide = dims.clone();
    *wide.last_mut().unwrap() += 3;
    for bad in [Shape::new(narrow), Shape::new(wide)] {
        let snap = FullSnapshot { ckpt: 1, every: 1, tensors: leaves(&bad) };
        let err = resume_from_snapshot(&sharded, &[], &RunOptions::default(), &snap)
            .expect_err("a mis-shaped snapshot must not resume");
        assert!(
            matches!(
                err,
                RuntimeError::Core(CoreError::Graph(GraphError::Tensor(
                    TensorError::ShapeMismatch { .. }
                )))
            ),
            "{bad}: expected a typed shape mismatch, got {err}"
        );
    }
}
