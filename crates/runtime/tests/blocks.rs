//! Property tests for the block copy behind every `multi_fetch` assembly,
//! piece extraction and scatter/gather (`tofu_tensor::{copy_block,
//! append_block}`): extracting a piece and copying it into a destination
//! block must round-trip exactly, over random ranks 0 through 4, shapes,
//! offsets and extents (zero-length ones included) — and must never touch
//! destination elements outside the block. A block that does not fit is a
//! typed error that leaves the destination untouched.

use proptest::prelude::*;
use tofu_runtime::FaultRng;
use tofu_tensor::{append_block, copy_block, Shape, Tensor, TensorError};

/// Numbers every element so any misplaced copy is visible.
fn sequential(shape: Shape) -> Tensor {
    let n = shape.volume();
    Tensor::from_vec(shape, (0..n).map(|i| i as f32 + 1.0).collect()).unwrap()
}

/// A uniform draw from `0..=n`.
fn upto(rng: &mut FaultRng, n: usize) -> usize {
    rng.below(n as u64 + 1) as usize
}

/// A random start for a `len` block inside `dims`.
fn place(rng: &mut FaultRng, dims: &[usize], len: &[i64]) -> Vec<i64> {
    dims.iter().zip(len).map(|(&d, &l)| upto(rng, d - l as usize) as i64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// append_block followed by copy_block places exactly the source block
    /// at the destination offset, and copy_block straight from the source
    /// agrees with it.
    #[test]
    fn block_copy_round_trips(
        src_dims in prop::collection::vec(0usize..6, 0..5),
        seed in 0u64..1_000_000_000,
    ) {
        let mut rng = FaultRng::new(seed);
        let rank = src_dims.len();
        // A block inside the source (possibly empty along any axis), and a
        // destination with per-dimension slack so the block lands at a
        // random interior offset.
        let len: Vec<i64> = src_dims.iter().map(|&d| upto(&mut rng, d) as i64).collect();
        let src_begin = place(&mut rng, &src_dims, &len);
        let dst_dims: Vec<usize> = len.iter().map(|&l| l as usize + upto(&mut rng, 3)).collect();
        let dst_begin = place(&mut rng, &dst_dims, &len);

        let src = sequential(Shape::new(src_dims.clone()));
        let block = Shape::new(len.iter().map(|&l| l as usize).collect());

        // Path 1: extract then copy (what a remote fetch does).
        let mut extracted = Vec::new();
        append_block(&mut extracted, src.data(), &src_dims, &src_begin, &len).unwrap();
        prop_assert_eq!(extracted.len(), block.volume());
        let mut via_extract = Tensor::zeros(Shape::new(dst_dims.clone()));
        let zeros = vec![0i64; rank];
        copy_block(
            via_extract.data_mut(), &dst_dims, &extracted, block.dims(), &zeros, &dst_begin, &len,
        ).unwrap();

        // Path 2: copy straight out of the source (what a local fetch does).
        let mut direct = Tensor::zeros(Shape::new(dst_dims.clone()));
        let (dst, data) = (direct.data_mut(), src.data());
        copy_block(dst, &dst_dims, data, &src_dims, &src_begin, &dst_begin, &len).unwrap();

        for idx in Shape::new(dst_dims.clone()).indices() {
            let inside = idx.iter().enumerate().all(|(d, &i)| {
                i >= dst_begin[d] as usize && i < dst_begin[d] as usize + len[d] as usize
            });
            let want = if inside {
                let src_idx: Vec<usize> = idx
                    .iter()
                    .enumerate()
                    .map(|(d, &i)| i - dst_begin[d] as usize + src_begin[d] as usize)
                    .collect();
                src.at(&src_idx)
            } else {
                0.0
            };
            prop_assert_eq!(
                direct.at(&idx), want,
                "direct copy wrong at {:?} (block {:?}+{:?} from {:?})",
                idx, dst_begin, len, src_begin
            );
            prop_assert_eq!(
                via_extract.at(&idx), want,
                "extract+copy wrong at {:?}",
                idx
            );
        }
    }

    /// A block overrunning one axis of the source — even where the flat
    /// offsets stay inside the buffer — is a typed error naming that axis,
    /// and neither form writes anything first. A rank mismatch is an error
    /// too.
    #[test]
    fn out_of_bounds_block_is_a_typed_error(
        src_dims in prop::collection::vec(1usize..6, 1..5),
        seed in 0u64..1_000_000_000,
    ) {
        let mut rng = FaultRng::new(seed);
        let rank = src_dims.len();
        let axis = upto(&mut rng, rank - 1);
        let src_begin: Vec<i64> = src_dims.iter().map(|&d| upto(&mut rng, d - 1) as i64).collect();
        let mut len: Vec<i64> =
            src_dims.iter().zip(&src_begin).map(|(&d, &b)| d as i64 - b).collect();
        len[axis] += 1;
        let src = sequential(Shape::new(src_dims.clone()));
        // Room for the overrun in the destination: only the source is wrong.
        let dst_dims: Vec<usize> = len.iter().map(|&l| l as usize).collect();
        let zeros = vec![0i64; rank];

        let mut dst = Tensor::zeros(Shape::new(dst_dims.clone()));
        let (buf, data) = (dst.data_mut(), src.data());
        let err =
            copy_block(buf, &dst_dims, data, &src_dims, &src_begin, &zeros, &len).unwrap_err();
        prop_assert!(
            matches!(err, TensorError::BlockOutOfBounds { axis: a, .. } if a == axis),
            "copy_block: expected axis {} out of bounds, got {:?}", axis, err
        );
        prop_assert!(dst.data().iter().all(|&v| v == 0.0), "copy_block wrote before failing");

        let mut out = vec![-1.0f32];
        let err = append_block(&mut out, src.data(), &src_dims, &src_begin, &len).unwrap_err();
        prop_assert!(
            matches!(err, TensorError::BlockOutOfBounds { axis: a, .. } if a == axis),
            "append_block: expected axis {} out of bounds, got {:?}", axis, err
        );
        prop_assert_eq!(out, vec![-1.0f32], "append_block wrote before failing");

        let mut deeper = len.clone();
        deeper.push(1);
        let err =
            append_block(&mut Vec::new(), src.data(), &src_dims, &zeros, &deeper).unwrap_err();
        prop_assert!(matches!(err, TensorError::Incompatible(_)), "rank mismatch: {:?}", err);
    }
}
