//! Space-filling curve keys over quantized grid points.
//!
//! The N-dimensional Hilbert curve (Skilling's transform, *"Programming
//! the Hilbert curve"*, AIP 2004, equivalent to the Butz algorithm) keeps
//! points that are close on the curve close in space; the broker's slab
//! filter orders its representatives by it, and the Hilbert-packed
//! R-tree baselines (Kamel & Faloutsos, VLDB 1994) sort by it. Morton /
//! Z-order interleaving is the cheaper, less local alternative.

/// Maximum total key width supported (`dims * bits ≤ 128`).
const MAX_KEY_BITS: u32 = 128;

fn check_args(coords: &[u32], bits: u32) {
    assert!(!coords.is_empty(), "need at least one coordinate");
    assert!(bits >= 1, "need at least one bit per dimension");
    assert!(
        coords.len() as u32 * bits <= MAX_KEY_BITS,
        "dims * bits must be <= {MAX_KEY_BITS}"
    );
    debug_assert!(
        bits == 32 || coords.iter().all(|&c| c < (1u32 << bits)),
        "coordinate out of range for bit width"
    );
}

/// Computes the Hilbert index of a grid point.
///
/// `coords[d]` is the quantized coordinate along dimension `d`, each in
/// `[0, 2^bits)`. Returns the position of the point along the Hilbert curve
/// as a `dims*bits`-bit integer: points close on the curve are close in
/// space (the converse fails only at a bounded rate, which is exactly why
/// Hilbert packing clusters well).
///
/// # Panics
///
/// Panics if `coords` is empty, `bits == 0`, or `dims * bits > 128`.
///
/// # Example
///
/// ```
/// use pubsub_geom::hilbert_index;
///
/// // The order-1 2-D Hilbert curve visits (0,0),(0,1),(1,1),(1,0).
/// assert_eq!(hilbert_index(&[0, 0], 1), 0);
/// assert_eq!(hilbert_index(&[0, 1], 1), 1);
/// assert_eq!(hilbert_index(&[1, 1], 1), 2);
/// assert_eq!(hilbert_index(&[1, 0], 1), 3);
/// ```
pub fn hilbert_index(coords: &[u32], bits: u32) -> u128 {
    check_args(coords, bits);
    let n = coords.len();
    let mut x: Vec<u32> = coords.to_vec();

    // Skilling's AxestoTranspose: convert coordinates into the "transposed"
    // Hilbert representation in place.
    let m = 1u32 << (bits - 1);
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray decode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }

    // Interleave the transposed bits, most significant plane first, into a
    // single index.
    let mut index: u128 = 0;
    for b in (0..bits).rev() {
        for xi in &x {
            index = (index << 1) | u128::from((xi >> b) & 1);
        }
    }
    index
}

/// Computes the Morton (Z-order) index of a grid point by bit interleaving.
///
/// Same argument conventions as [`hilbert_index`].
///
/// # Panics
///
/// Panics if `coords` is empty, `bits == 0`, or `dims * bits > 128`.
pub fn morton_index(coords: &[u32], bits: u32) -> u128 {
    check_args(coords, bits);
    let mut index: u128 = 0;
    for b in (0..bits).rev() {
        for &c in coords {
            index = (index << 1) | u128::from((c >> b) & 1);
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hilbert_2d_order_1_matches_reference() {
        // Order-1 2-D Hilbert curve: U shape.
        assert_eq!(hilbert_index(&[0, 0], 1), 0);
        assert_eq!(hilbert_index(&[0, 1], 1), 1);
        assert_eq!(hilbert_index(&[1, 1], 1), 2);
        assert_eq!(hilbert_index(&[1, 0], 1), 3);
    }

    #[test]
    fn hilbert_is_a_bijection() {
        for (dims, bits) in [(2usize, 3u32), (3, 2), (4, 2)] {
            let side = 1u32 << bits;
            let total = (side as u128).pow(dims as u32);
            let mut seen = HashSet::new();
            let mut coords = vec![0u32; dims];
            'grid: loop {
                let idx = hilbert_index(&coords, bits);
                assert!(idx < total);
                assert!(seen.insert(idx), "duplicate index for {coords:?}");
                // Odometer.
                let mut d = 0;
                loop {
                    if d == dims {
                        break 'grid;
                    }
                    coords[d] += 1;
                    if coords[d] < side {
                        break;
                    }
                    coords[d] = 0;
                    d += 1;
                }
            }
            assert_eq!(seen.len() as u128, total);
        }
    }

    #[test]
    fn hilbert_consecutive_indexes_are_adjacent_cells() {
        // The defining property: walking the curve moves one grid step at a
        // time. Invert by brute force on a small grid.
        let bits = 3;
        let side = 1u32 << bits;
        let mut by_index = vec![None; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                by_index[hilbert_index(&[x, y], bits) as usize] = Some((x, y));
            }
        }
        for w in by_index.windows(2) {
            let (x0, y0) = w[0].unwrap();
            let (x1, y1) = w[1].unwrap();
            let dist = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(dist, 1, "curve jumped from {:?} to {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn morton_is_a_bijection_and_interleaves() {
        assert_eq!(morton_index(&[0b11, 0b00], 2), 0b1010);
        assert_eq!(morton_index(&[0b00, 0b11], 2), 0b0101);
        let mut seen = HashSet::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                assert!(seen.insert(morton_index(&[x, y], 3)));
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    #[should_panic(expected = "dims * bits")]
    fn too_many_bits_panics() {
        let coords = vec![0u32; 5];
        let _ = hilbert_index(&coords, 32);
    }

    #[test]
    fn four_dimensions_smoke() {
        // 4-D with 16 bits/dim = 64-bit keys: the paper's event space.
        let a = hilbert_index(&[1, 2, 3, 4], 16);
        let b = hilbert_index(&[1, 2, 3, 5], 16);
        assert_ne!(a, b);
    }
}
