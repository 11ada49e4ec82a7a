//! Seeded inputs: model configurations, weights and mini-batches.
//!
//! Everything the program under test receives is derived from the run's
//! `--seed` here; the same seed gives the same inputs.

use std::fmt;

use tofu_graph::{TensorId, TensorKind};
use tofu_models::{
    decoder_block, mlp, wresnet, BuiltModel, DecoderConfig, MlpConfig, WResNetConfig,
};
use tofu_tensor::{Shape, Tensor};

/// SplitMix64: a seed stream that is cheap to fork by key.
pub fn mix(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator over [`mix`].
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`key`) of one seed.
    pub fn new(seed: u64, key: u64) -> Rng {
        Rng(mix(seed, key))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix(self.0, 1);
        self.0
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A model the benchmark builds, by family and configuration.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    /// Multi-layer perceptron.
    Mlp(MlpConfig),
    /// Transformer decoder block.
    Decoder(DecoderConfig),
    /// Wide ResNet.
    WResNet(WResNetConfig),
}

impl ModelSpec {
    /// WResNet-50-1 at batch 8 on 16×16 images.
    pub fn wresnet_50_1(classes: usize) -> ModelSpec {
        ModelSpec::WResNet(WResNetConfig {
            layers: 50,
            width: 1,
            batch: 8,
            image: 16,
            classes,
            with_updates: true,
        })
    }

    /// Output classes of the training head.
    pub fn classes(&self) -> usize {
        match self {
            ModelSpec::Mlp(c) => c.classes,
            ModelSpec::Decoder(c) => c.classes,
            ModelSpec::WResNet(c) => c.classes,
        }
    }

    /// `(weight scale cap, input scale)` of the seeded initial state. The
    /// decoder's loss sums over its 256 tokens, so at the graph's fixed
    /// learning rate it trains stably only from small weights (the usual
    /// 0.02 of GPT-style models) and small inputs; with the defaults its
    /// weights diverge within a few steps.
    pub fn init(&self) -> (f32, f32) {
        match self {
            ModelSpec::Decoder(_) => (0.02, 0.1),
            _ => (0.5, 1.0),
        }
    }

    /// Builds the training graph.
    pub fn build(&self) -> tofu_graph::Result<BuiltModel> {
        match self {
            ModelSpec::Mlp(c) => mlp(c),
            ModelSpec::Decoder(c) => decoder_block(c),
            ModelSpec::WResNet(c) => wresnet(c),
        }
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelSpec::Mlp(c) => {
                write!(
                    f,
                    "mlp(batch {}, dims {:?}, classes {})",
                    c.batch, c.dims, c.classes
                )
            }
            ModelSpec::Decoder(c) => write!(
                f,
                "decoder_block(seq {}, d_model {}, heads {}, d_ff {}, classes {})",
                c.seq, c.d_model, c.heads, c.d_ff, c.classes
            ),
            ModelSpec::WResNet(c) => write!(
                f,
                "{}(batch {}, image {}x{}, classes {})",
                c.name(),
                c.batch,
                c.image,
                c.image,
                c.classes
            ),
        }
    }
}

/// Seeded initial weights, fan-in scaled.
pub fn initial_weights(m: &BuiltModel, spec: &ModelSpec, seed: u64) -> Vec<(TensorId, Tensor)> {
    m.weights
        .iter()
        .map(|&t| {
            let shape = &m.graph.tensor(t).shape;
            let fan_in = (shape.volume() / shape.dim(0).max(1)).max(1);
            let scale = (3.0f32 / fan_in as f32).sqrt().min(spec.init().0);
            (
                t,
                Tensor::random(shape.clone(), mix(seed, 0x5eed_0000 + t.0 as u64), scale),
            )
        })
        .collect()
}

/// The seeded mini-batch of step `step`: random data and labels in
/// `[0, classes)`.
pub fn batch(m: &BuiltModel, spec: &ModelSpec, seed: u64, step: u64) -> Vec<(TensorId, Tensor)> {
    let classes = spec.classes();
    let mut rng = Rng::new(seed, 0xba7c_0000 ^ step);
    m.graph
        .tensor_ids()
        .filter(|&t| m.graph.tensor(t).kind == TensorKind::Input)
        .map(|t| {
            let meta = m.graph.tensor(t);
            let v = if meta.name == "labels" {
                let labels = (0..meta.shape.volume())
                    .map(|_| rng.below(classes) as f32)
                    .collect();
                Tensor::from_vec(meta.shape.clone(), labels).expect("label volume matches")
            } else {
                Tensor::random(meta.shape.clone(), rng.next_u64(), spec.init().1)
            };
            (t, v)
        })
        .collect()
}

/// `(weight, updated weight)` for every `sgd_update` node: the updated
/// value feeds the weight input of the next step.
pub fn updates(m: &BuiltModel) -> Vec<(TensorId, TensorId)> {
    m.graph
        .node_ids()
        .map(|n| m.graph.node(n))
        .filter(|node| node.op == "sgd_update")
        .map(|node| (node.inputs[0], node.output))
        .collect()
}

/// Shape of a tensor of the original graph.
pub fn shape(m: &BuiltModel, t: TensorId) -> Shape {
    m.graph.tensor(t).shape.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let spec = ModelSpec::Mlp(MlpConfig {
            batch: 4,
            dims: vec![8, 8],
            classes: 4,
            with_updates: true,
        });
        let m = spec.build().unwrap();
        assert_eq!(batch(&m, &spec, 7, 3), batch(&m, &spec, 7, 3));
        assert_ne!(batch(&m, &spec, 7, 3), batch(&m, &spec, 8, 3));
        assert_eq!(initial_weights(&m, &spec, 1), initial_weights(&m, &spec, 1));
        assert_eq!(updates(&m).len(), m.weights.len());
    }

    #[test]
    fn rng_stays_in_range() {
        let mut r = Rng::new(3, 4);
        for _ in 0..1000 {
            assert!(r.below(5) < 5);
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
