//! Compressed, quantized spatial index for the covering layer's
//! representative set.
//!
//! The `f64` trees ([`STree`](crate::STree),
//! [`PackedRTree`](crate::PackedRTree)) store two `f64`s per dimension per
//! entry — 64 bytes of bounds for a 4-D subscription before ids. At the
//! ROADMAP's millions-of-subscriptions scale that blows the cache and
//! the build materializes an O(N) `Rect` intermediate. [`CompactSTree`]
//! is a compressed index for a deduplicated *representative* set, such
//! as the core covering layer's (the broker's matcher itself filters
//! that set through slab bitmaps; this index stays as a baseline):
//!
//! * per-dimension **affine quantization** to `u16` cells with
//!   conservative outward rounding — `lo` cells round down, `hi` cells
//!   round up — so the quantized closed-cell test
//!   `qlo <= qx && qx <= qhi` can only over-approximate the exact
//!   half-open `lo < x && x <= hi` (4 bytes of bounds per dimension,
//!   16× smaller than `f64` bounds);
//! * a **dimension-major** bound layout with breadth-first node
//!   numbering, so every node's children (and every leaf's entries) are
//!   one contiguous span, walked up to eight events at a time by a
//!   lane-masked block traversal over the integer-lane kernels
//!   ([`simd::sweep_mask_q`], [`simd::lanes_contain_q`]);
//! * a **streaming build**: bounds are pulled through an accessor
//!   closure, so the builder never needs the caller to materialize an
//!   O(N) `f64` rectangle array — its own transients are one `u64`
//!   Hilbert key plus one `u32` permutation slot per representative;
//! * per-hit **certainty masks**: a hit whose cells sit strictly inside
//!   the quantized bounds is provably exact (DESIGN.md §15); only
//!   *boundary-ambiguous* hits are reported as such, and the caller
//!   (the covering layer, which keeps exact representative bounds)
//!   re-checks those few against `f64`.
//!
//! Queries therefore return a **superset-with-flags** of the exact
//! answer: every true hit is emitted, no certain hit is false, and
//! every possibly-false hit is flagged ambiguous. Property tests in
//! `crates/stree/tests/compact_properties.rs` pin all three claims
//! against [`LinearScan`](crate::LinearScan)-style exact oracles, plus
//! kernel-level bit-identity of the emitted tape.

use crate::hilbert::hilbert_index;
use crate::simd::{self, QuantBlock, SimdLevel, LANES};

/// Build parameters for [`CompactSTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactConfig {
    /// Entries per leaf (bounded by the 64-bit chunk mask sweet spot).
    pub leaf_size: usize,
    /// Children per internal node.
    pub fanout: usize,
}

impl Default for CompactConfig {
    fn default() -> Self {
        CompactConfig {
            leaf_size: 64,
            fanout: 16,
        }
    }
}

/// Number of the top cell: cells live in `[0, MAX_CELL]`.
const MAX_CELL: u16 = u16::MAX;

/// A quantized, Hilbert-packed, query-only spatial index over
/// representative rectangles, identified by dense `u32` ids
/// `0..len()`. See the module docs for layout and semantics.
#[derive(Debug, Clone, Default)]
pub struct CompactSTree {
    dims: usize,
    /// Per-dimension affine quantizer: `cell = (v - mins[d]) *
    /// inv_steps[d]`, floored (coordinates, lower bounds) or ceiled
    /// (upper bounds), saturated to `[0, MAX_CELL]`. `inv_steps[d] ==
    /// 0` marks a degenerate dimension (empty, infinite or zero-width
    /// range): everything lands in cell 0 and every hit is ambiguous.
    mins: Vec<f64>,
    inv_steps: Vec<f64>,
    /// Node bounds, dimension-major: `node_lo[d * node_count + v]`.
    node_lo: Vec<u16>,
    node_hi: Vec<u16>,
    /// Per node: child node span (internal) or entry span (leaf).
    spans: Vec<(u32, u32)>,
    leaf: Vec<bool>,
    /// Entry bounds, dimension-major: `entry_lo[d * entry_count + i]`.
    entry_lo: Vec<u16>,
    entry_hi: Vec<u16>,
    /// Representative id per entry slot.
    ids: Vec<u32>,
}

impl CompactSTree {
    /// Builds the index over `count` representatives of `dims`
    /// dimensions, pulling exact bounds through `bounds(rep, d) ->
    /// (lo, hi)`. The accessor is called a bounded number of times per
    /// representative and nothing `f64`-sized is retained per entry,
    /// which is what lets `compile_engine` stream a 10M-subscription
    /// build without an O(N) rectangle intermediate.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `count` exceeds `u32::MAX`.
    pub fn build(
        dims: usize,
        count: usize,
        bounds: impl Fn(usize, usize) -> (f64, f64),
        config: CompactConfig,
    ) -> Self {
        assert!(dims > 0, "need at least one dimension");
        assert!(count <= u32::MAX as usize, "representative ids are u32");
        let leaf_size = config.leaf_size.clamp(1, 64);
        let fanout = config.fanout.max(2);
        if count == 0 {
            // Every dimension degenerate, so `cell` still answers.
            return CompactSTree {
                dims,
                mins: vec![0.0; dims],
                inv_steps: vec![0.0; dims],
                ..CompactSTree::default()
            };
        }

        // Pass 1: per-dimension range scan for the quantizer.
        let mut mins = vec![f64::INFINITY; dims];
        let mut maxs = vec![f64::NEG_INFINITY; dims];
        for i in 0..count {
            for (d, (min, max)) in mins.iter_mut().zip(maxs.iter_mut()).enumerate() {
                let (lo, hi) = bounds(i, d);
                if lo.is_finite() && lo < *min {
                    *min = lo;
                }
                if hi.is_finite() && hi > *max {
                    *max = hi;
                }
            }
        }
        let mut inv_steps = vec![0.0f64; dims];
        for d in 0..dims {
            let span = maxs[d] - mins[d];
            if span.is_finite() && span > 0.0 {
                // Top out at MAX_CELL - 2 so the `q + 2 <= qhi`
                // certainty test never saturates for in-range data.
                inv_steps[d] = f64::from(MAX_CELL - 2) / span;
            } else {
                mins[d] = 0.0; // degenerate: everything in cell 0
            }
        }
        let quant = |d: usize, v: f64, up: bool| -> u16 {
            let t = (v - mins[d]) * inv_steps[d];
            // `as` saturates to [0, MAX_CELL] and maps NaN to 0, which
            // keeps both roundings monotone over the whole f64 line.
            if up {
                t.ceil() as u16
            } else {
                t.floor() as u16
            }
        };

        // Pass 2: Hilbert keys over quantized centers, then the
        // packing permutation. Transients: one (u64 key, u32 id) pair
        // per representative.
        let bits = (64 / dims as u32).min(16);
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(count);
        let mut coords = vec![0u32; dims];
        for i in 0..count {
            let key = if bits >= 1 {
                let shift = 16 - bits;
                for (d, c) in coords.iter_mut().enumerate() {
                    let (lo, hi) = bounds(i, d);
                    *c = u32::from(quant(d, 0.5 * (lo + hi), false) >> shift);
                }
                hilbert_index(&coords, bits) as u64
            } else {
                0 // dims > 64: insertion order
            };
            keyed.push((key, i as u32));
        }
        keyed.sort_unstable();

        // Pass 3: quantized entry arrays in packed order.
        let mut entry_lo = vec![0u16; dims * count];
        let mut entry_hi = vec![0u16; dims * count];
        let mut ids = vec![0u32; count];
        for (slot, &(_, rep)) in keyed.iter().enumerate() {
            ids[slot] = rep;
            for d in 0..dims {
                let (lo, hi) = bounds(rep as usize, d);
                entry_lo[d * count + slot] = quant(d, lo, false);
                entry_hi[d * count + slot] = quant(d, hi, true);
            }
        }
        drop(keyed);

        // Pass 4: complete bottom-up packing — level sizes bottom to
        // top, then breadth-first node numbering top to bottom so every
        // node's children (and every leaf's entries) are a contiguous
        // ascending span.
        let mut level_sizes = vec![count.div_ceil(leaf_size)];
        while *level_sizes.last().expect("non-empty") > 1 {
            level_sizes.push(level_sizes.last().expect("non-empty").div_ceil(fanout));
        }
        level_sizes.reverse(); // now top-down, root level first
        let node_count: usize = level_sizes.iter().sum();
        let mut spans = vec![(0u32, 0u32); node_count];
        let mut leaf = vec![false; node_count];
        let mut node_lo = vec![0u16; dims * node_count];
        let mut node_hi = vec![0u16; dims * node_count];

        let mut offsets = Vec::with_capacity(level_sizes.len());
        let mut acc = 0usize;
        for &s in &level_sizes {
            offsets.push(acc);
            acc += s;
        }
        for (li, &size) in level_sizes.iter().enumerate().rev() {
            let off = offsets[li];
            let bottom = li + 1 == level_sizes.len();
            for p in 0..size {
                let v = off + p;
                if bottom {
                    let start = p * leaf_size;
                    let len = leaf_size.min(count - start);
                    spans[v] = (start as u32, len as u32);
                    leaf[v] = true;
                    for d in 0..dims {
                        let (mut lo, mut hi) = (MAX_CELL, 0u16);
                        for i in start..start + len {
                            lo = lo.min(entry_lo[d * count + i]);
                            hi = hi.max(entry_hi[d * count + i]);
                        }
                        node_lo[d * node_count + v] = lo;
                        node_hi[d * node_count + v] = hi;
                    }
                } else {
                    let child_off = offsets[li + 1];
                    let child_size = level_sizes[li + 1];
                    let start = p * fanout;
                    let len = fanout.min(child_size - start);
                    spans[v] = ((child_off + start) as u32, len as u32);
                    for d in 0..dims {
                        let (mut lo, mut hi) = (MAX_CELL, 0u16);
                        for c in child_off + start..child_off + start + len {
                            lo = lo.min(node_lo[d * node_count + c]);
                            hi = hi.max(node_hi[d * node_count + c]);
                        }
                        node_lo[d * node_count + v] = lo;
                        node_hi[d * node_count + v] = hi;
                    }
                }
            }
        }

        CompactSTree {
            dims,
            mins,
            inv_steps,
            node_lo,
            node_hi,
            spans,
            leaf,
            entry_lo,
            entry_hi,
            ids,
        }
    }

    /// Number of indexed representatives.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the indexed rectangles.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of nodes in the packed tree.
    pub fn node_count(&self) -> usize {
        self.spans.len()
    }

    /// Bytes of heap held by the index arrays — the numerator of the
    /// bench's `bytes_per_subscription`.
    pub fn heap_bytes(&self) -> usize {
        self.mins.capacity() * 8
            + self.inv_steps.capacity() * 8
            + (self.node_lo.capacity() + self.node_hi.capacity()) * 2
            + self.spans.capacity() * 8
            + self.leaf.capacity()
            + (self.entry_lo.capacity() + self.entry_hi.capacity()) * 2
            + self.ids.capacity() * 4
    }

    /// Quantizes one coordinate to its cell (round-down, the event and
    /// lower-bound rounding). Monotone non-decreasing over the whole
    /// `f64` line; NaN lands in cell 0 (and can therefore never
    /// produce a certain hit — see the module docs).
    #[inline]
    fn cell(&self, d: usize, v: f64) -> u16 {
        ((v - self.mins[d]) * self.inv_steps[d]).floor() as u16
    }

    /// Fills a [`QuantBlock`] from up to [`LANES`] event coordinate
    /// slices, quantizing through this index's per-dimension scale.
    pub fn fill_block(&self, events: &[&[f64]], block: &mut QuantBlock) {
        debug_assert!(events.iter().all(|e| e.len() == self.dims));
        block.fill_with(self.dims, events.len(), |lane, d| {
            self.cell(d, events[lane][d])
        });
    }

    /// Block point query: up to [`LANES`] quantized events in **one
    /// joint traversal**. Each stack element carries a node id plus the
    /// bitmask of lanes still alive at that node, so a subtree shared by
    /// several events is walked once. A one-lane block is the point
    /// query. `emit(rep, hit_lanes, ambiguous_lanes)` is called per
    /// matched representative; `ambiguous_lanes ⊆ hit_lanes` flags the
    /// lanes whose hit needs the caller's exact `f64` re-check. Per lane,
    /// the hits are a superset of the exact answer and non-ambiguous hits
    /// are guaranteed exact. The emitted tape is
    /// identical at every kernel level (the integer kernels are exact).
    pub fn query_point_block(
        &self,
        block: &QuantBlock,
        stack: &mut Vec<u64>,
        emit: impl FnMut(u32, u8, u8),
    ) {
        self.query_point_block_at(simd::active_level(), block, stack, emit);
    }

    /// Explicit-kernel-level variant of
    /// [`CompactSTree::query_point_block`].
    pub fn query_point_block_at(
        &self,
        level: SimdLevel,
        block: &QuantBlock,
        stack: &mut Vec<u64>,
        mut emit: impl FnMut(u32, u8, u8),
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            match level {
                // SAFETY: dispatch only selects Avx2/Sse2 when the CPU
                // reports the feature.
                SimdLevel::Avx2 => {
                    return unsafe { self.block_query_avx2(block, stack, &mut emit) }
                }
                SimdLevel::Sse2 => {
                    return unsafe { self.block_query_sse2(block, stack, &mut emit) }
                }
                SimdLevel::Scalar => {}
            }
        }
        let _ = level;
        self.block_query_impl(SimdLevel::Scalar, block, stack, &mut emit);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn block_query_avx2(
        &self,
        block: &QuantBlock,
        stack: &mut Vec<u64>,
        emit: &mut impl FnMut(u32, u8, u8),
    ) {
        self.block_query_impl(SimdLevel::Avx2, block, stack, emit);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn block_query_sse2(
        &self,
        block: &QuantBlock,
        stack: &mut Vec<u64>,
        emit: &mut impl FnMut(u32, u8, u8),
    ) {
        self.block_query_impl(SimdLevel::Sse2, block, stack, emit);
    }

    /// The joint lane-masked traversal: stack elements pack
    /// `(node << 8) | lane_mask`, the root is pruned with one all-lanes
    /// test, spans sweep in ≤64 chunks per live lane, and a node down to
    /// one live lane skips the per-lane bookkeeping.
    ///
    /// Kernel-level-monomorphized through the `#[target_feature]`
    /// wrappers above: a dynamic kernel call per lane per dimension per
    /// chunk costs more than the compares it saves at typical fanouts,
    /// so the intrinsics must inline into the traversal loop to win.
    #[inline(always)]
    fn block_query_impl(
        &self,
        level: SimdLevel,
        block: &QuantBlock,
        stack: &mut Vec<u64>,
        emit: &mut impl FnMut(u32, u8, u8),
    ) {
        if self.spans.is_empty() {
            return;
        }
        debug_assert_eq!(block.dims(), self.dims);
        let n = self.node_count();
        let en = self.ids.len();
        stack.clear();
        let root = simd::lanes_contain_q(
            level,
            &self.node_lo,
            &self.node_hi,
            n,
            0,
            block,
            block.full_mask(),
        );
        if root != 0 {
            stack.push(u64::from(root));
        }
        while let Some(top) = stack.pop() {
            let v = (top >> 8) as usize;
            let active = top as u8;
            let (start, len) = self.spans[v];
            let (start, len) = (start as usize, len as usize);
            let is_leaf = self.leaf[v];
            let (lo, hi, stride) = if is_leaf {
                (&self.entry_lo, &self.entry_hi, en)
            } else {
                (&self.node_lo, &self.node_hi, n)
            };
            if active & (active - 1) == 0 {
                // Single live lane: sweep for it alone, no per-lane
                // bookkeeping.
                let l = active.trailing_zeros() as usize;
                let qpoint = block.point(l);
                let mut k = 0usize;
                while k < len {
                    let chunk = (len - k).min(64);
                    let base = start + k;
                    let mut hit: u64 = if chunk == 64 { !0 } else { (1u64 << chunk) - 1 };
                    let mut certain = hit;
                    for (d, &q) in qpoint.iter().enumerate() {
                        let row = d * stride + base;
                        let (h, c) = simd::sweep_mask_q(level, &lo[row..], &hi[row..], chunk, q);
                        hit &= h;
                        certain &= c;
                        if hit == 0 {
                            break;
                        }
                    }
                    while hit != 0 {
                        let j = hit.trailing_zeros() as usize;
                        hit &= hit - 1;
                        if is_leaf {
                            let amb = if (certain >> j) & 1 == 0 { active } else { 0 };
                            emit(self.ids[base + j], active, amb);
                        } else {
                            stack.push((((base + j) as u64) << 8) | u64::from(active));
                        }
                    }
                    k += chunk;
                }
                continue;
            }
            let mut k = 0usize;
            while k < len {
                let chunk = (len - k).min(64);
                let base = start + k;
                let full: u64 = if chunk == 64 { !0 } else { (1u64 << chunk) - 1 };
                let mut hits = [0u64; LANES];
                let mut certains = [0u64; LANES];
                let mut rest = active;
                while rest != 0 {
                    let l = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let qpoint = block.point(l);
                    let mut hit = full;
                    let mut certain = full;
                    for (d, &q) in qpoint.iter().enumerate() {
                        let row = d * stride + base;
                        let (h, c) = simd::sweep_mask_q(level, &lo[row..], &hi[row..], chunk, q);
                        hit &= h;
                        certain &= c;
                        if hit == 0 {
                            break;
                        }
                    }
                    hits[l] = hit;
                    certains[l] = certain;
                }
                let mut union = 0u64;
                for h in &hits {
                    union |= h;
                }
                while union != 0 {
                    let j = union.trailing_zeros() as usize;
                    union &= union - 1;
                    let mut lanes = 0u8;
                    let mut amb = 0u8;
                    let mut rest = active;
                    while rest != 0 {
                        let l = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let h = ((hits[l] >> j) & 1) as u8;
                        lanes |= h << l;
                        amb |= (h & !((certains[l] >> j) as u8) & 1) << l;
                    }
                    if is_leaf {
                        emit(self.ids[base + j], lanes, amb);
                    } else {
                        stack.push((((base + j) as u64) << 8) | u64::from(lanes));
                    }
                }
                k += chunk;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Rects = [(Vec<f64>, Vec<f64>)];

    /// Half-open containment against the source bounds.
    fn contains((lo, hi): &(Vec<f64>, Vec<f64>), p: &[f64]) -> bool {
        p.iter().enumerate().all(|(d, &x)| lo[d] < x && x <= hi[d])
    }

    /// Exact oracle: every rectangle containing `p`, ascending.
    fn exact_hits(rects: &Rects, p: &[f64]) -> Vec<u32> {
        (0..rects.len() as u32)
            .filter(|&i| contains(&rects[i as usize], p))
            .collect()
    }

    fn demo_rects(n: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        (0..n)
            .map(|i| {
                let a = (i % 37) as f64 * 0.7 - 5.0;
                let b = (i % 23) as f64 * 1.3 - 9.0;
                (vec![a, b], vec![a + 1.0 + (i % 5) as f64, b + 2.0])
            })
            .collect()
    }

    /// Per lane of a block query over `points`: the hits resolved to the
    /// exact set by re-checking ambiguous ones, the way the covering
    /// layer does, ascending.
    fn resolved_lanes(tree: &CompactSTree, rects: &Rects, points: &[&[f64]]) -> Vec<Vec<u32>> {
        let mut block = QuantBlock::new();
        tree.fill_block(points, &mut block);
        let mut out = vec![Vec::new(); points.len()];
        tree.query_point_block(&block, &mut Vec::new(), |rep, lanes, amb| {
            for (l, hits) in out.iter_mut().enumerate() {
                let ambiguous = amb >> l & 1 == 1;
                if lanes >> l & 1 == 1 && (!ambiguous || contains(&rects[rep as usize], points[l]))
                {
                    hits.push(rep);
                }
            }
        });
        for hits in &mut out {
            hits.sort_unstable();
        }
        out
    }

    /// [`resolved_lanes`] for one point: the one-lane block query.
    fn resolved(tree: &CompactSTree, rects: &Rects, p: &[f64]) -> Vec<u32> {
        resolved_lanes(tree, rects, &[p]).remove(0)
    }

    #[test]
    fn empty_and_tiny_trees() {
        let t = CompactSTree::build(3, 0, |_, _| unreachable!(), CompactConfig::default());
        assert!(t.is_empty());
        let mut block = QuantBlock::new();
        t.fill_block(&[&[1.5, f64::NAN, -2.0]], &mut block);
        assert_eq!(block.point(0), &[0, 0, 0]);
        t.query_point_block(&block, &mut Vec::new(), |_, _, _| panic!("no hits"));

        let rects = demo_rects(1);
        let t = CompactSTree::build(
            2,
            1,
            |i, d| (rects[i].0[d], rects[i].1[d]),
            CompactConfig::default(),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.node_count(), 1);
        let inside = vec![rects[0].0[0] + 0.5, rects[0].0[1] + 0.5];
        assert_eq!(resolved(&t, &rects, &inside), vec![0]);
    }

    #[test]
    fn resolved_hits_match_exact_oracle() {
        let rects = demo_rects(500);
        let t = CompactSTree::build(
            2,
            rects.len(),
            |i, d| (rects[i].0[d], rects[i].1[d]),
            CompactConfig {
                leaf_size: 8,
                fanout: 4,
            },
        );
        for i in 0..200 {
            let p = vec![(i % 41) as f64 * 0.63 - 6.0, (i % 29) as f64 * 0.91 - 10.0];
            assert_eq!(resolved(&t, &rects, &p), exact_hits(&rects, &p), "p={p:?}");
        }
    }

    #[test]
    fn certain_hits_are_never_false() {
        let rects = demo_rects(300);
        let t = CompactSTree::build(
            2,
            rects.len(),
            |i, d| (rects[i].0[d], rects[i].1[d]),
            CompactConfig::default(),
        );
        let mut block = QuantBlock::new();
        let mut stack = Vec::new();
        for i in 0..150 {
            let p = vec![(i % 31) as f64 * 0.83 - 6.0, (i % 19) as f64 * 1.17 - 10.0];
            t.fill_block(&[&p], &mut block);
            t.query_point_block(&block, &mut stack, |rep, _, amb| {
                assert!(
                    amb != 0 || contains(&rects[rep as usize], &p),
                    "certain hit rep={rep} p={p:?} is false"
                );
            });
        }
    }

    #[test]
    fn nan_and_out_of_range_points_resolve_to_empty_or_exact() {
        let rects = demo_rects(100);
        let t = CompactSTree::build(
            2,
            rects.len(),
            |i, d| (rects[i].0[d], rects[i].1[d]),
            CompactConfig::default(),
        );
        for p in [
            vec![f64::NAN, 0.0],
            vec![0.0, f64::NAN],
            vec![f64::INFINITY, 0.0],
            vec![f64::NEG_INFINITY, -3.0],
            vec![1e300, -1e300],
        ] {
            assert_eq!(resolved(&t, &rects, &p), exact_hits(&rects, &p), "p={p:?}");
        }
    }

    #[test]
    fn every_block_lane_resolves_to_the_exact_hits() {
        let rects = demo_rects(400);
        let t = CompactSTree::build(
            2,
            rects.len(),
            |i, d| (rects[i].0[d], rects[i].1[d]),
            CompactConfig {
                leaf_size: 16,
                fanout: 4,
            },
        );
        let points: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                vec![
                    (i * 7 % 41) as f64 * 0.63 - 6.0,
                    (i * 5 % 29) as f64 * 0.91 - 10.0,
                ]
            })
            .collect();
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        for (l, hits) in resolved_lanes(&t, &rects, &refs).iter().enumerate() {
            assert_eq!(hits, &exact_hits(&rects, &points[l]), "lane {l}");
        }
    }

    #[test]
    fn heap_bytes_is_small_per_entry() {
        let rects = demo_rects(4096);
        let t = CompactSTree::build(
            2,
            rects.len(),
            |i, d| (rects[i].0[d], rects[i].1[d]),
            CompactConfig::default(),
        );
        // 2 dims × 2 bounds × 2 bytes + 4 id bytes = 12 bytes/entry,
        // plus node overhead — far under the flat layout's ~40.
        assert!(
            t.heap_bytes() < rects.len() * 20,
            "heap_bytes = {} for {} entries",
            t.heap_bytes(),
            rects.len()
        );
    }
}
