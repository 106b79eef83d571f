//! Byte-level linearization (§II-D): row-major ↔ column-major layout of an
//! N×M byte matrix.
//!
//! Column order puts each ID byte-column contiguously, turning the high
//! frequency of low ID values into literal runs of 0-bytes that the backend
//! compressor's LZ/RLE stage can exploit (§IV-H measures this at 8–10 % CR
//! and ~20 % compression-throughput on the IDs).

/// Row-block height for the tiled transpose: 256 rows × ≤16 columns of both
/// matrices stay well inside L1 while each tile is permuted.
const TILE_ROWS: usize = 256;

/// Transpose a row-major `rows`×`cols` byte matrix into column-major order.
pub fn to_columns(data: &[u8], rows: usize, cols: usize) -> Vec<u8> {
    assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
    if cols <= 1 {
        // A single column is its own transpose.
        return data.to_vec();
    }
    let mut out = vec![0u8; data.len()];
    if cols == 2 {
        // The hot shape (hi_bytes = 2): one sequential pass that deinterleaves
        // byte pairs into the two column halves.
        let (c0, c1) = out.split_at_mut(rows);
        for ((pair, x), y) in data.chunks_exact(2).zip(c0.iter_mut()).zip(c1.iter_mut()) {
            *x = pair[0];
            *y = pair[1];
        }
        return out;
    }
    // General case: block over rows so the strided side of the permutation
    // touches only a tile's worth of cache lines before moving on.
    for r0 in (0..rows).step_by(TILE_ROWS) {
        let r1 = (r0 + TILE_ROWS).min(rows);
        for c in 0..cols {
            let col = &mut out[c * rows + r0..c * rows + r1];
            for (slot, row) in col.iter_mut().zip(data[r0 * cols..].chunks_exact(cols)) {
                *slot = row[c];
            }
        }
    }
    out
}

/// Inverse of [`to_columns`].
pub fn to_rows(data: &[u8], rows: usize, cols: usize) -> Vec<u8> {
    let mut out = Vec::new();
    to_rows_into(data, rows, cols, &mut out);
    out
}

/// [`to_rows`] into a caller-owned buffer (cleared first, capacity kept): a
/// warm call on a sufficiently-large `out` performs no allocations, which the
/// archive's steady-state decode path relies on.
pub fn to_rows_into(data: &[u8], rows: usize, cols: usize, out: &mut Vec<u8>) {
    assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
    out.clear();
    if cols <= 1 {
        out.extend_from_slice(data);
        return;
    }
    out.resize(data.len(), 0);
    if cols == 2 {
        // Hot shape: re-interleave the two column halves in one pass.
        let (c0, c1) = data.split_at(rows);
        for ((pair, &x), &y) in out.chunks_exact_mut(2).zip(c0.iter()).zip(c1.iter()) {
            pair[0] = x;
            pair[1] = y;
        }
        return;
    }
    for r0 in (0..rows).step_by(TILE_ROWS) {
        let r1 = (r0 + TILE_ROWS).min(rows);
        for c in 0..cols {
            let col = &data[c * rows + r0..c * rows + r1];
            for (&b, row) in col.iter().zip(out[r0 * cols..].chunks_exact_mut(cols)) {
                row[c] = b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_small_matrix() {
        // 3 rows × 2 cols, row-major: [r0c0, r0c1, r1c0, r1c1, r2c0, r2c1].
        let data = [1u8, 2, 3, 4, 5, 6];
        let cols = to_columns(&data, 3, 2);
        assert_eq!(cols, vec![1, 3, 5, 2, 4, 6]);
        assert_eq!(to_rows(&cols, 3, 2), data.to_vec());
    }

    #[test]
    fn transpose_roundtrip_various_shapes() {
        // Includes shapes that straddle the tile boundary (rows around and
        // far past TILE_ROWS) and the cols ∈ {1, 2} fast paths.
        for (rows, cols) in [
            (1, 1),
            (1, 8),
            (8, 1),
            (7, 3),
            (100, 6),
            (33, 2),
            (255, 3),
            (256, 3),
            (257, 5),
            (1031, 2),
            (2048, 8),
        ] {
            let data: Vec<u8> = (0..rows * cols).map(|i| (i * 31 % 251) as u8).collect();
            let t = to_columns(&data, rows, cols);
            assert_eq!(to_rows(&t, rows, cols), data, "{rows}x{cols}");
        }
    }

    #[test]
    fn tiled_transpose_matches_naive() {
        // The tiled permutation must be byte-identical to the textbook one.
        for (rows, cols) in [(300, 3), (511, 6), (1000, 4)] {
            let data: Vec<u8> = (0..rows * cols).map(|i| (i * 131 % 256) as u8).collect();
            let mut naive = vec![0u8; data.len()];
            for c in 0..cols {
                for r in 0..rows {
                    naive[c * rows + r] = data[r * cols + c];
                }
            }
            assert_eq!(to_columns(&data, rows, cols), naive, "{rows}x{cols}");
        }
    }

    #[test]
    fn empty_matrix() {
        assert!(to_columns(&[], 0, 2).is_empty());
        assert!(to_rows(&[], 0, 2).is_empty());
    }

    #[test]
    fn column_order_groups_runs() {
        // Rows of [0, x]: column order must put all zeros adjacent.
        let data: Vec<u8> = (0..100u8).flat_map(|i| [0u8, i]).collect();
        let t = to_columns(&data, 100, 2);
        assert!(t[..100].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn shape_mismatch_panics() {
        to_columns(&[1, 2, 3], 2, 2);
    }
}
