//! The strided block copy every data move of a partitioned graph goes
//! through.
//!
//! A partitioned graph moves data only as rectangular region blocks (§6 of
//! the paper): a `multi_fetch` reads the sub-block of each shard its worker
//! needs, and scatter/gather slice a full tensor into shard regions and
//! back. Each of those moves is "copy the `len` block at `src_begin` of one
//! dense row-major buffer to `dst_begin` of another" — [`copy_block`] — or,
//! on the send path, "append that block to a buffer" — [`append_block`].
//!
//! Both check the block once — rank, per-dimension bounds, buffer length —
//! and then move one contiguous innermost row per slice copy. They never
//! panic: a block that does not fit is a typed error. Offsets and extents are
//! element counts per dimension, the encoding of a `multi_fetch` piece.

use crate::shape::row_major_strides;
use crate::{Result, TensorError};

/// Copies the `len` block at `src_begin` of `src` (a dense row-major buffer
/// of dims `src_dims`) to `dst_begin` of `dst` (dims `dst_dims`). Elements of
/// `dst` outside the block are left untouched.
///
/// # Examples
///
/// ```
/// use tofu_tensor::copy_block;
///
/// let src: Vec<f32> = (0..6).map(|i| i as f32).collect(); // 2x3
/// let mut dst = vec![0.0; 4]; // 2x2
/// copy_block(&mut dst, &[2, 2], &src, &[2, 3], &[0, 1], &[0, 0], &[2, 2]).unwrap();
/// assert_eq!(dst, [1.0, 2.0, 4.0, 5.0]);
/// // A block that overruns an inner dimension is an error, not a wrap-around.
/// assert!(copy_block(&mut dst, &[2, 2], &src, &[2, 3], &[0, 2], &[0, 0], &[1, 2]).is_err());
/// ```
pub fn copy_block(
    dst: &mut [f32],
    dst_dims: &[usize],
    src: &[f32],
    src_dims: &[usize],
    src_begin: &[i64],
    dst_begin: &[i64],
    len: &[i64],
) -> Result<()> {
    let src_off = locate(src.len(), src_dims, src_begin, len)?;
    let dst_off = locate(dst.len(), dst_dims, dst_begin, len)?;
    let src_strides = row_major_strides(src_dims);
    let dst_strides = row_major_strides(dst_dims);
    for_each_row(&src_strides, &dst_strides, src_off, dst_off, len, |s, d, n| {
        dst[d..d + n].copy_from_slice(&src[s..s + n]);
    });
    Ok(())
}

/// Appends the `len` block at `src_begin` of `src` (dims `src_dims`) to
/// `out`, packed row-major, one `extend_from_slice` per row. Nothing is
/// zero-filled first, so a recycled buffer that arrives empty with capacity
/// for the block is filled with exactly one copy of it.
pub fn append_block(
    out: &mut Vec<f32>,
    src: &[f32],
    src_dims: &[usize],
    src_begin: &[i64],
    len: &[i64],
) -> Result<()> {
    let src_off = locate(src.len(), src_dims, src_begin, len)?;
    let src_strides = row_major_strides(src_dims);
    // Appending needs no destination offsets; reuse the source strides.
    for_each_row(&src_strides, &src_strides, src_off, 0, len, |s, _, n| {
        out.extend_from_slice(&src[s..s + n]);
    });
    Ok(())
}

/// Checks that the `len` block at `begin` lies inside a buffer of `buf_len`
/// elements laid out as `dims`, and returns the block's flat start offset.
fn locate(buf_len: usize, dims: &[usize], begin: &[i64], len: &[i64]) -> Result<usize> {
    if begin.len() != dims.len() || len.len() != dims.len() {
        return Err(TensorError::Incompatible(format!(
            "block of rank {} (begin rank {}) in a rank-{} buffer",
            len.len(),
            begin.len(),
            dims.len()
        )));
    }
    let volume: usize = dims.iter().product();
    if buf_len != volume {
        return Err(TensorError::DataLength { expected: volume, actual: buf_len });
    }
    let mut off = 0;
    for (axis, ((&b, &l), &extent)) in begin.iter().zip(len).zip(dims).enumerate() {
        let end = b.checked_add(l).unwrap_or(i64::MAX);
        if b < 0 || l < 0 || end as u64 > extent as u64 {
            return Err(TensorError::BlockOutOfBounds { axis, begin: b, len: l, extent });
        }
        off = off * extent + b as usize;
    }
    Ok(off)
}

/// Calls `row(src_off, dst_off, n)` for each contiguous innermost row of a
/// validated `len` block, in row-major order.
fn for_each_row(
    src_strides: &[usize],
    dst_strides: &[usize],
    mut s: usize,
    mut d: usize,
    len: &[i64],
    mut row: impl FnMut(usize, usize, usize),
) {
    let Some((&inner, outer)) = len.split_last() else {
        // Rank 0: the block is the one element.
        row(s, d, 1);
        return;
    };
    if len.contains(&0) {
        return;
    }
    let mut idx = vec![0usize; outer.len()];
    'rows: loop {
        row(s, d, inner as usize);
        // Odometer over the outer dimensions.
        for k in (0..outer.len()).rev() {
            idx[k] += 1;
            s += src_strides[k];
            d += dst_strides[k];
            if idx[k] < outer[k] as usize {
                continue 'rows;
            }
            idx[k] = 0;
            s -= src_strides[k] * outer[k] as usize;
            d -= dst_strides[k] * outer[k] as usize;
        }
        break;
    }
}
