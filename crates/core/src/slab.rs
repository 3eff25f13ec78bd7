//! The slab filter: which representatives can contain a point.
//!
//! The paper's grid model (Appendix A) records which subscriptions
//! intersect each cell. For boxes, "intersects the cell" is the AND over
//! dimensions of "overlaps the cell's slab", so the filter stores that
//! relation in separable form: every dimension is cut into [`SLABS`]
//! equal slabs over the finite extent of the representatives' bounds,
//! and row `(d, s)` is a bitmap with bit `r` set iff representative `r`'s
//! interval along `d` touches slab `s`. A point's candidates are the AND
//! of its `dims` slab rows.
//!
//! **Conservative by construction.** `slab(d, x) = min(⌊(x − min_d) ·
//! scale_d⌋, SLABS − 1)` is monotone over the whole `f64` line: the
//! saturating cast sends negative values and NaN to slab 0 and +∞ to the
//! last slab, and a degenerate dimension (empty, infinite or zero-wide
//! extent) has `scale_d = 0`, so everything lands in slab 0. Hence
//! `lo < x ≤ hi` implies `slab(lo) ≤ slab(x) ≤ slab(hi)`, and every
//! representative containing the point is a candidate. The caller
//! decides each candidate with the exact `f64` test
//! ([`crate::CoveringTable::hit_runs`]), so the filter only has to be
//! conservative, never exact.
//!
//! **No cliff at large `R`.** The flat AND reads `dims × ⌈R/64⌉` words.
//! Each row also carries a summary, one bit per bitmap word, set iff the
//! word is non-zero; the query ANDs the summaries first and reads only
//! the bitmap words all dimensions agree on. The covering build numbers
//! representatives along the Hilbert curve of their centres
//! ([`hilbert_order`]), so one bitmap word holds representatives close
//! in space and the surviving words are few.
//!
//! **Edited in place.** Because `slab` is monotone over the whole line,
//! a representative added after the build needs no rebuild: its bits go
//! in `slab(lo)..=slab(hi)` under the build's extent, and a bound
//! outside that extent saturates into an end slab, which keeps the
//! filter conservative. Rows gain a word when the count crosses a
//! multiple of 64 ([`SlabFilter::push`]); a representative whose
//! subscriptions are all gone drops out ([`SlabFilter::clear`]).

use pubsub_geom::hilbert_index;

/// Slabs per dimension. One bitmap bit per (dimension, slab) and
/// representative: `dims × 64` bits, 32 bytes at 4-D.
pub(crate) const SLABS: usize = 64;

/// The finite extent of `count` intervals per dimension, as `(min,
/// 1 / span)` pairs; `(0, 0)` for a dimension whose extent is empty,
/// infinite or zero-wide. Only finite bounds count: a representative
/// clamped to an unbounded space keeps its infinite side, which then
/// falls in the first or last slab.
fn extent(
    dims: usize,
    count: usize,
    bounds: impl Fn(usize, usize) -> (f64, f64),
) -> Vec<(f64, f64)> {
    (0..dims)
        .map(|d| {
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for r in 0..count {
                let (lo, hi) = bounds(r, d);
                if lo.is_finite() {
                    min = min.min(lo);
                }
                if hi.is_finite() {
                    max = max.max(hi);
                }
            }
            let span = max - min;
            if span.is_finite() && span > 0.0 {
                (min, 1.0 / span)
            } else {
                (0.0, 0.0)
            }
        })
        .collect()
}

/// The slot order of `count` boxes: their ids sorted by the Hilbert
/// index of their centres, quantized over [`extent`] to
/// `min(64 / dims, 16)` bits per dimension (input order when `dims >
/// 64`). `order[slot]` is the id numbered `slot`. Ties keep input order.
pub(crate) fn hilbert_order(
    dims: usize,
    count: usize,
    bounds: impl Fn(usize, usize) -> (f64, f64),
) -> Vec<u32> {
    let bits = (64 / dims as u32).min(16);
    if bits == 0 {
        return (0..count as u32).collect();
    }
    let ext = extent(dims, count, &bounds);
    let top = (1u32 << bits) - 1;
    let mut coords = vec![0u32; dims];
    let mut keyed: Vec<(u128, u32)> = (0..count)
        .map(|r| {
            for (d, (c, &(min, inv_span))) in coords.iter_mut().zip(&ext).enumerate() {
                let (lo, hi) = bounds(r, d);
                // Saturating: NaN (∞ − ∞) and negatives go to 0.
                let t = (0.5 * (lo + hi) - min) * inv_span * f64::from(top);
                *c = (t as u32).min(top);
            }
            (hilbert_index(&coords, bits), r as u32)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Per-dimension slab bitmaps over a representative set, with one
/// summary word per 64 bitmap words. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlabFilter {
    /// Per dimension: `(min, scale)`, `slab = (x − min) · scale`.
    slab_of: Vec<(f64, f64)>,
    /// Bitmap words per row: `⌈R / 64⌉`.
    words: usize,
    /// Row `(d, s)` is `bits[(d · SLABS + s) · words..][..words]`.
    bits: Vec<u64>,
    /// Summary words per row: `⌈words / 64⌉`.
    sum_words: usize,
    /// Row `(d, s)` is `summary[(d · SLABS + s) · sum_words..][..sum_words]`;
    /// bit `w` is set iff word `w` of the bitmap row is non-zero.
    summary: Vec<u64>,
}

impl SlabFilter {
    /// Builds the filter over `count` representatives whose exact bounds
    /// along dimension `d` are `bounds(r, d)`.
    pub(crate) fn build(
        dims: usize,
        count: usize,
        bounds: impl Fn(usize, usize) -> (f64, f64),
    ) -> Self {
        let slab_of: Vec<(f64, f64)> = extent(dims, count, &bounds)
            .into_iter()
            .map(|(min, inv_span)| (min, inv_span * SLABS as f64))
            .collect();
        let words = count.div_ceil(64);
        let sum_words = words.div_ceil(64);
        let mut filter = SlabFilter {
            slab_of,
            words,
            bits: vec![0; dims * SLABS * words],
            sum_words,
            summary: vec![0; dims * SLABS * sum_words],
        };
        for r in 0..count {
            filter.set(r, |d| bounds(r, d));
        }
        filter
    }

    /// Adds representative `r`, the next one (`r` is the count so far),
    /// whose bounds along dimension `d` are `bounds(d)`. Rows (and
    /// summary rows) gain a word when `r` opens a new one.
    pub(crate) fn push(&mut self, r: usize, bounds: impl Fn(usize) -> (f64, f64)) {
        let rows = self.dims() * SLABS;
        if r / 64 == self.words {
            self.bits = widen(&self.bits, rows, self.words);
            self.words += 1;
            if self.words > self.sum_words * 64 {
                self.summary = widen(&self.summary, rows, self.sum_words);
                self.sum_words += 1;
            }
        }
        self.set(r, bounds);
    }

    /// Sets representative `r`'s bits in `slab(lo)..=slab(hi)` of every
    /// dimension, and the summary bits of the words they land in.
    fn set(&mut self, r: usize, bounds: impl Fn(usize) -> (f64, f64)) {
        let w = r / 64;
        for d in 0..self.dims() {
            let (lo, hi) = bounds(d);
            for s in self.slab(d, lo)..=self.slab(d, hi) {
                let row = d * SLABS + s;
                self.bits[row * self.words + w] |= 1 << (r % 64);
                self.summary[row * self.sum_words + w / 64] |= 1 << (w % 64);
            }
        }
    }

    /// Drops representative `r` from every row, and each summary bit
    /// whose bitmap word went to zero.
    pub(crate) fn clear(&mut self, r: usize) {
        let w = r / 64;
        for row in 0..self.dims() * SLABS {
            let word = &mut self.bits[row * self.words + w];
            *word &= !(1 << (r % 64));
            if *word == 0 {
                self.summary[row * self.sum_words + w / 64] &= !(1 << (w % 64));
            }
        }
    }

    /// Dimensionality of the space the filter was built over.
    pub(crate) fn dims(&self) -> usize {
        self.slab_of.len()
    }

    /// The slab of coordinate `x` along dimension `d` (monotone in `x`).
    #[inline]
    fn slab(&self, d: usize, x: f64) -> usize {
        let (min, scale) = self.slab_of[d];
        // `as` saturates and maps NaN to 0.
        (((x - min) * scale) as usize).min(SLABS - 1)
    }

    /// Calls `candidate` with every representative whose bounds can
    /// contain `point`, ascending, and returns how many bitmap and
    /// summary words were ANDed. `rows` is scratch for the point's row
    /// per dimension.
    #[inline]
    pub(crate) fn candidates(
        &self,
        point: &[f64],
        rows: &mut Vec<usize>,
        mut candidate: impl FnMut(u32),
    ) -> u64 {
        rows.clear();
        rows.extend(
            point
                .iter()
                .enumerate()
                .map(|(d, &x)| d * SLABS + self.slab(d, x)),
        );
        let dims = rows.len() as u64;
        let mut anded = 0u64;
        for sw in 0..self.sum_words {
            let mut live = rows.iter().fold(!0u64, |acc, &row| {
                acc & self.summary[row * self.sum_words + sw]
            });
            anded += dims;
            while live != 0 {
                let w = sw * 64 + live.trailing_zeros() as usize;
                live &= live - 1;
                let mut reps = rows
                    .iter()
                    .fold(!0u64, |acc, &row| acc & self.bits[row * self.words + w]);
                anded += dims;
                while reps != 0 {
                    candidate((w * 64) as u32 + reps.trailing_zeros());
                    reps &= reps - 1;
                }
            }
        }
        anded
    }

    /// Whether summary word `sw` of some row has a bit set; `None` past
    /// the last summary word.
    #[cfg(test)]
    pub(crate) fn summary_word_in_use(&self, sw: usize) -> Option<bool> {
        (sw < self.sum_words).then(|| {
            (0..self.dims() * SLABS).any(|row| self.summary[row * self.sum_words + sw] != 0)
        })
    }

    /// Bytes of heap held by the bitmaps.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.bits.capacity() + self.summary.capacity()) * 8 + self.slab_of.capacity() * 16
    }
}

/// `rows` rows of `stride` words each, copied into rows one word wider
/// (the new last word of each row is zero).
fn widen(words: &[u64], rows: usize, stride: usize) -> Vec<u64> {
    let mut wide = vec![0; rows * (stride + 1)];
    for row in 0..rows {
        wide[row * (stride + 1)..][..stride].copy_from_slice(&words[row * stride..][..stride]);
    }
    wide
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covering::{build_covering, materialize_into, CoveringConfig};
    use proptest::prelude::*;
    use pubsub_geom::{Interval, Rect, Space};
    use pubsub_netsim::NodeId;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Whether `(lo, hi]` contains `x` along every dimension; `bounds`
    /// is one box, row-major.
    fn contains(bounds: &[(f64, f64)], x: &[f64]) -> bool {
        bounds
            .iter()
            .zip(x)
            .all(|(&(lo, hi), &x)| lo < x && x <= hi)
    }

    /// A coordinate on the grid of 64ths of `[0, 10]`: exactly a slab
    /// edge whenever the extent is the whole space.
    fn grid(rng: &mut ChaCha8Rng) -> f64 {
        f64::from(rng.gen_range(0..=64u32)) * (10.0 / 64.0)
    }

    /// An event coordinate: a slab edge, one of `bounds` (to probe the
    /// half-open ends), a hostile value, or anywhere around the space.
    fn coordinate(rng: &mut ChaCha8Rng, bounds: &[(f64, f64)]) -> f64 {
        match rng.gen_range(0..8u32) {
            0 | 1 => grid(rng),
            2 | 3 if !bounds.is_empty() => {
                let (lo, hi) = bounds[rng.gen_range(0..bounds.len())];
                if rng.gen_bool(0.5) {
                    lo
                } else {
                    hi
                }
            }
            4 => {
                let hostile = [
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -3.0,
                    13.0,
                    1e300,
                ];
                hostile[rng.gen_range(0..hostile.len())]
            }
            _ => rng.gen_range(-1.0..11.0),
        }
    }

    /// `count` with the shapes the filter's word arithmetic cares about:
    /// none, one, and counts that do not fill their last word.
    fn count_of(shape: u32, rng: &mut ChaCha8Rng) -> usize {
        match shape {
            0 => 0,
            1 => 1,
            2 => 64 * rng.gen_range(1..3usize) + rng.gen_range(1..64usize),
            _ => rng.gen_range(2..64usize),
        }
    }

    /// The candidates the filter passes to the exact test, checked with
    /// it; `bounds` is dimension-major, as the covering table keeps it.
    fn filtered(filter: &SlabFilter, bounds: &[Vec<(f64, f64)>], x: &[f64]) -> Vec<usize> {
        let mut rows = Vec::new();
        let mut hits = Vec::new();
        filter.candidates(x, &mut rows, |r| {
            if contains(&row(bounds, r as usize), x) {
                hits.push(r as usize);
            }
        });
        hits
    }

    /// Box `r` of dimension-major `bounds`, as one row.
    fn row(bounds: &[Vec<(f64, f64)>], r: usize) -> Vec<(f64, f64)> {
        bounds.iter().map(|b| b[r]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over raw bounds, the filter's candidates checked exactly are
        /// exactly the boxes a linear scan finds. Each dimension is
        /// plain, all-infinite (no finite extent), zero-wide (every box
        /// `(c, c]`), or mixed with infinite sides.
        #[test]
        fn filter_then_exact_test_equals_a_linear_scan(
            dims in 1usize..=6,
            shape in 0u32..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let count = count_of(shape, &mut rng);
            let modes: Vec<u32> = (0..dims).map(|_| rng.gen_range(0..6u32)).collect();
            // Dimension-major: `bounds[d][r]`.
            let bounds: Vec<Vec<(f64, f64)>> = modes
                .iter()
                .map(|&mode| {
                    let c = grid(&mut rng);
                    (0..count)
                        .map(|_| match mode {
                            0 => (f64::NEG_INFINITY, f64::INFINITY),
                            1 => (c, c),
                            2 => match rng.gen_range(0..3u32) {
                                0 => (f64::NEG_INFINITY, grid(&mut rng)),
                                1 => (grid(&mut rng), f64::INFINITY),
                                _ => (c - 1.0, c + 1.0),
                            },
                            _ => {
                                let (a, b) = (grid(&mut rng), grid(&mut rng));
                                (a.min(b), a.max(b))
                            }
                        })
                        .collect()
                })
                .collect();
            let filter = SlabFilter::build(dims, count, |r, d| bounds[d][r]);
            let flat: Vec<(f64, f64)> = bounds.iter().flatten().copied().collect();
            for _ in 0..64 {
                let x: Vec<f64> = (0..dims).map(|_| coordinate(&mut rng, &flat)).collect();
                let want: Vec<usize> =
                    (0..count).filter(|&r| contains(&row(&bounds, r), &x)).collect();
                prop_assert_eq!(filtered(&filter, &bounds, &x), want, "event {:?}", x);
            }
        }

        /// Through the covering layer (Hilbert-renumbered
        /// representatives, subsumed and merged groups) the slab filter
        /// plus `hit_runs` matches exactly the subscriptions a linear
        /// scan over the clamped rectangles matches — sides unbounded,
        /// sticking out of the space, or on slab edges; one space
        /// dimension may be zero-wide.
        #[test]
        fn slab_filter_and_exact_check_equal_a_linear_scan(
            dims in 1usize..=6,
            shape in 0u32..4,
            merge in prop::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let count = count_of(shape, &mut rng);
            let flat_dim = rng.gen_bool(0.2).then(|| rng.gen_range(0..dims));
            let hi: Vec<f64> = (0..dims)
                .map(|d| if flat_dim == Some(d) { 0.0 } else { 10.0 })
                .collect();
            let space = Space::anonymous(Rect::from_corners(&vec![0.0; dims], &hi).unwrap()).unwrap();
            let subs: Vec<(NodeId, Rect)> = (0..count)
                .map(|i| {
                    let sides = (0..dims)
                        .map(|_| match rng.gen_range(0..8u32) {
                            0 => Interval::unbounded(),
                            1 => Interval::at_least(grid(&mut rng)),
                            2 => Interval::at_most(grid(&mut rng)),
                            3 => {
                                let a = rng.gen_range(-2.0..12.0);
                                Interval::new(a, a + rng.gen_range(0.0..4.0)).unwrap()
                            }
                            _ => {
                                let (a, b) = (grid(&mut rng), grid(&mut rng));
                                Interval::new(a.min(b), a.max(b)).unwrap()
                            }
                        })
                        .collect();
                    (NodeId(i as u32 % 7), Rect::new(sides).unwrap())
                })
                .collect();
            let config = if merge {
                CoveringConfig { merge_cells: 8, min_cover_members: 2, ..CoveringConfig::default() }
            } else {
                CoveringConfig::default()
            };
            let table = build_covering(&space, &subs.as_slice(), &config).unwrap().table;
            let filter = SlabFilter::build(dims, table.rep_count(), |r, d| table.rep_bounds(r, d));
            let clamped: Vec<Vec<(f64, f64)>> = subs
                .iter()
                .map(|(_, r)| space.clamp(r).sides().iter().map(|s| (s.lo(), s.hi())).collect())
                .collect();
            let all: Vec<(f64, f64)> = clamped.iter().flatten().copied().collect();
            let (mut rows, mut runs, mut ids) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..64 {
                let x: Vec<f64> = (0..dims).map(|_| coordinate(&mut rng, &all)).collect();
                runs.clear();
                ids.clear();
                filter.candidates(&x, &mut rows, |rep| table.hit_runs(rep, &x, &mut runs));
                materialize_into(&table, &runs, &mut ids);
                let got: Vec<usize> = ids.iter().map(|s| s.0 as usize).collect();
                let want: Vec<usize> =
                    (0..count).filter(|&i| contains(&clamped[i], &x)).collect();
                prop_assert_eq!(got, want, "event {:?}", x);
            }
        }
    }

    #[test]
    fn hilbert_order_is_a_permutation_and_keeps_neighbours_together() {
        // A 16 × 16 lattice of unit boxes, numbered row by row.
        let order = hilbert_order(2, 256, |r, d| {
            let c = if d == 0 { r % 16 } else { r / 16 } as f64;
            (c, c + 1.0)
        });
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).collect::<Vec<u32>>());
        // Consecutive slots are lattice neighbours along the curve.
        for pair in order.windows(2) {
            let (a, b) = (pair[0] as i32, pair[1] as i32);
            let manhattan = (a % 16 - b % 16).abs() + (a / 16 - b / 16).abs();
            assert_eq!(manhattan, 1, "slots {a} -> {b}");
        }
        // Beyond 64 dimensions there are no key bits: input order.
        assert_eq!(hilbert_order(65, 3, |_, _| (0.0, 1.0)), vec![0, 1, 2]);
    }
}
