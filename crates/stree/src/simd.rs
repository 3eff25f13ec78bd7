//! Explicit SIMD interval-containment kernels over quantized,
//! structure-of-arrays **event blocks** — the kernels behind
//! [`CompactSTree`](crate::CompactSTree)'s point and block queries.
//!
//! Two kernel orientations, both over `u16` cells:
//!
//! * the **lane kernel** ([`lanes_contain_q`]) — one bound pair (a tree
//!   node's interval along one dimension) tested against all [`LANES`]
//!   event cells of a [`QuantBlock`] at once; this is what lets a whole
//!   block of events share a single tree traversal, and
//! * the **sweep kernel** ([`sweep_mask_q`]) — one event cell broadcast
//!   against a contiguous run of up to 64 bound pairs from a
//!   dimension-major array, producing the hit and certainty bitmasks
//!   sixteen (AVX2) or eight (SSE2) bounds per instruction.
//!
//! Both kernels exist in three implementations — AVX2, SSE2 and a
//! portable scalar fallback — selected once per process by
//! [`active_level`]: runtime `is_x86_feature_detected!` dispatch on
//! x86-64 (the toolchain is stable, so `std::simd` is unavailable and
//! the kernels use `core::arch::x86_64` intrinsics directly), the
//! scalar fallback everywhere else. Setting `PUBSUB_NO_SIMD=1` in the
//! environment forces the scalar fallback, which CI uses to keep that
//! path exercised.
//!
//! # Semantics
//!
//! Integer compares are exact, so every implementation returns the same
//! masks for every input; the unit tests below and
//! `crates/stree/tests/compact_properties.rs` pin this across every
//! level the host supports.

use std::sync::atomic::{AtomicU8, Ordering};

/// Number of events per [`QuantBlock`]: 8 `u16` lanes, one SSE2
/// register.
pub const LANES: usize = 8;

/// Which kernel implementation is in use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// Portable scalar fallback (also forced by `PUBSUB_NO_SIMD=1`).
    Scalar,
    /// 128-bit SSE2 kernels (baseline on x86-64).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
}

impl SimdLevel {
    /// Short stable name for logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Cached dispatch decision: 0 = undetected, 1 = scalar, 2 = sse2,
/// 3 = avx2.
static LEVEL: AtomicU8 = AtomicU8::new(0);

fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => 1,
        SimdLevel::Sse2 => 2,
        SimdLevel::Avx2 => 3,
    }
}

fn decode(raw: u8) -> Option<SimdLevel> {
    match raw {
        1 => Some(SimdLevel::Scalar),
        2 => Some(SimdLevel::Sse2),
        3 => Some(SimdLevel::Avx2),
        _ => None,
    }
}

/// Detects the best level the host supports, honoring the
/// `PUBSUB_NO_SIMD` kill switch (any non-empty value other than `0`
/// forces scalar).
fn detect() -> SimdLevel {
    if std::env::var("PUBSUB_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0") {
        return SimdLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return SimdLevel::Sse2;
        }
    }
    SimdLevel::Scalar
}

/// The kernel level every block query dispatches to, decided once per
/// process (first call wins) from CPU feature detection and the
/// `PUBSUB_NO_SIMD` environment kill switch.
pub fn active_level() -> SimdLevel {
    if let Some(level) = decode(LEVEL.load(Ordering::Relaxed)) {
        return level;
    }
    let detected = detect();
    // Racing first calls agree (detection is deterministic), so a plain
    // store is fine.
    LEVEL.store(encode(detected), Ordering::Relaxed);
    detected
}

/// Test hook: forces the dispatch level for the whole process (`None`
/// reverts to detection on the next [`active_level`] call).
#[cfg(test)]
fn force_level(level: Option<SimdLevel>) {
    LEVEL.store(level.map_or(0, encode), Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Quantized (u16) kernels for the compressed representative index.
// ---------------------------------------------------------------------

/// A block of up to [`LANES`] events quantized to `u16` cells, in
/// dimension-major structure-of-arrays layout with a lane-major
/// mirror.
/// Built by `CompactSTree::fill_block`, which owns the per-dimension
/// affine quantizer; the kernels here only see cells.
#[derive(Debug, Default, Clone)]
pub struct QuantBlock {
    /// Dimension-major: `coords[d * LANES + lane]`.
    coords: Vec<u16>,
    /// Lane-major mirror: `points[lane * dims + d]`.
    points: Vec<u16>,
    dims: usize,
    lanes: usize,
}

impl QuantBlock {
    /// Creates an empty block; [`QuantBlock::fill_with`] sizes it.
    pub fn new() -> Self {
        QuantBlock::default()
    }

    /// Fills the block with `lanes` quantized events of `dims`
    /// dimensions, reading cell `quantize(lane, d)` for each slot. Idle
    /// lanes are padded with lane 0 so vector loads read defined values
    /// (their results are masked off by the caller).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`LANES`].
    pub fn fill_with(
        &mut self,
        dims: usize,
        lanes: usize,
        mut quantize: impl FnMut(usize, usize) -> u16,
    ) {
        assert!(lanes > 0 && lanes <= LANES);
        self.dims = dims;
        self.lanes = lanes;
        self.coords.clear();
        self.coords.resize(dims * LANES, 0);
        self.points.clear();
        self.points.resize(dims * LANES, 0);
        for lane in 0..lanes {
            for d in 0..dims {
                let q = quantize(lane, d);
                self.coords[d * LANES + lane] = q;
                self.points[lane * dims + d] = q;
            }
        }
        for lane in lanes..LANES {
            for d in 0..dims {
                self.coords[d * LANES + lane] = self.coords[d * LANES];
                self.points[lane * dims + d] = self.points[d];
            }
        }
    }

    /// Number of active lanes (events) in the block.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Dimensionality of the block's events.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bitmask of the active lanes.
    pub fn full_mask(&self) -> u8 {
        if self.lanes == LANES {
            u8::MAX
        } else {
            (1u8 << self.lanes) - 1
        }
    }

    /// The [`LANES`] cells of dimension `d` (padded lanes included).
    #[inline]
    pub fn dim(&self, d: usize) -> &[u16] {
        &self.coords[d * LANES..(d + 1) * LANES]
    }

    /// One lane's full quantized coordinate vector, contiguous.
    #[inline]
    pub fn point(&self, lane: usize) -> &[u16] {
        &self.points[lane * self.dims..(lane + 1) * self.dims]
    }
}

/// Quantized lane kernel: tests one quantized bound pair per dimension
/// — `lo[d * stride + v]`, `hi[d * stride + v]` — against every lane of
/// `block` and returns the surviving subset of `mask` under the
/// conservative closed-cell test `lo <= q && q <= hi`. Used for tree
/// *nodes*, where a superset mask only costs descent, never
/// correctness.
#[inline(always)]
pub fn lanes_contain_q(
    level: SimdLevel,
    lo: &[u16],
    hi: &[u16],
    stride: usize,
    v: usize,
    block: &QuantBlock,
    mut mask: u8,
) -> u8 {
    for d in 0..block.dims() {
        if mask == 0 {
            return 0;
        }
        let i = d * stride + v;
        mask &= lanes_in_interval_q(level, lo[i], hi[i], block.dim(d));
    }
    mask
}

/// One dimension of the quantized lane kernel: which of the [`LANES`]
/// cells `q` satisfy `lo <= q && q <= hi` (unsigned).
#[inline(always)]
fn lanes_in_interval_q(level: SimdLevel, lo: u16, hi: u16, qs: &[u16]) -> u8 {
    debug_assert_eq!(qs.len(), LANES);
    #[cfg(target_arch = "x86_64")]
    {
        match level {
            // SAFETY: dispatch only selects Avx2/Sse2 when the CPU
            // reports the feature (AVX2 implies SSE2; 8 u16 lanes fit
            // one 128-bit register, so both use the SSE2 body).
            SimdLevel::Avx2 | SimdLevel::Sse2 => {
                return unsafe { lanes_in_interval_q_sse2(lo, hi, qs) }
            }
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    lanes_in_interval_q_scalar(lo, hi, qs)
}

#[inline]
fn lanes_in_interval_q_scalar(lo: u16, hi: u16, qs: &[u16]) -> u8 {
    let mut m = 0u8;
    for (l, &q) in qs.iter().enumerate() {
        m |= u8::from((lo <= q) & (q <= hi)) << l;
    }
    m
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn lanes_in_interval_q_sse2(lo: u16, hi: u16, qs: &[u16]) -> u8 {
    use core::arch::x86_64::*;
    // SAFETY: qs has LANES = 8 u16 elements — one unaligned 128-bit
    // load. Unsigned compares via the 0x8000 sign-bias trick:
    // a <=u b  ⇔  (a ^ 0x8000) <=s (b ^ 0x8000).
    unsafe {
        let bias = _mm_set1_epi16(i16::MIN);
        let q = _mm_xor_si128(_mm_loadu_si128(qs.as_ptr().cast()), bias);
        let vlo = _mm_xor_si128(_mm_set1_epi16(lo as i16), bias);
        let vhi = _mm_xor_si128(_mm_set1_epi16(hi as i16), bias);
        // lo <= q && q <= hi  ⇔  !(lo > q) && !(q > hi).
        let out = _mm_or_si128(_mm_cmpgt_epi16(vlo, q), _mm_cmpgt_epi16(q, vhi));
        let hit = _mm_xor_si128(out, _mm_set1_epi16(-1));
        let packed = _mm_packs_epi16(hit, _mm_setzero_si128());
        (_mm_movemask_epi8(packed) & 0xff) as u8
    }
}

/// Quantized sweep kernel: tests cell `q` against the quantized bound
/// pairs `lo[..chunk]` / `hi[..chunk]` (`chunk <= 64`) and returns
/// **two** bitmasks `(hit, certain)`:
///
/// * bit `j` of `hit` ⇔ `lo[j] <= q && q <= hi[j]` — a conservative
///   superset of the exact half-open f64 test (outward rounding
///   guarantees no true hit is lost);
/// * bit `j` of `certain` ⇔ `lo[j] < q && q + 2 <= hi[j]` — hits whose
///   exactness is provable from cells alone (see DESIGN.md §15); hits
///   with the bit clear are *boundary-ambiguous* and need the f64
///   re-check.
///
/// `certain` is always a subset of `hit`.
#[inline(always)]
pub fn sweep_mask_q(level: SimdLevel, lo: &[u16], hi: &[u16], chunk: usize, q: u16) -> (u64, u64) {
    debug_assert!(chunk <= 64 && lo.len() >= chunk && hi.len() >= chunk);
    #[cfg(target_arch = "x86_64")]
    {
        match level {
            // SAFETY: dispatch only selects Avx2/Sse2 when the CPU
            // reports the feature.
            SimdLevel::Avx2 => return unsafe { sweep_mask_q_avx2(lo, hi, chunk, q) },
            SimdLevel::Sse2 => return unsafe { sweep_mask_q_sse2(lo, hi, chunk, q) },
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    sweep_mask_q_scalar(lo, hi, chunk, q)
}

#[inline]
fn sweep_mask_q_scalar(lo: &[u16], hi: &[u16], chunk: usize, q: u16) -> (u64, u64) {
    let mut hit = 0u64;
    let mut certain = 0u64;
    for j in 0..chunk {
        hit |= u64::from((lo[j] <= q) & (q <= hi[j])) << j;
        certain |= u64::from((lo[j] < q) & (u32::from(q) + 2 <= u32::from(hi[j]))) << j;
    }
    (hit, certain)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sweep_mask_q_sse2(lo: &[u16], hi: &[u16], chunk: usize, q: u16) -> (u64, u64) {
    use core::arch::x86_64::*;
    // SAFETY: every load reads 8 u16 elements at offset j with
    // j + 8 <= chunk <= lo.len(), hi.len().
    unsafe {
        let bias = _mm_set1_epi16(i16::MIN);
        let ones = _mm_set1_epi16(-1);
        let vq = _mm_xor_si128(_mm_set1_epi16(q as i16), bias);
        // q + 2 <= hi  ⇔  hi > q + 1; saturating add keeps q = 65535
        // correct (certain must be false there, and 65535 > anything
        // biased never holds).
        let vq1 = _mm_xor_si128(_mm_set1_epi16(q.saturating_add(1) as i16), bias);
        let mut hit = 0u64;
        let mut certain = 0u64;
        let mut j = 0usize;
        while j + 8 <= chunk {
            let vlo = _mm_xor_si128(_mm_loadu_si128(lo.as_ptr().add(j).cast()), bias);
            let vhi = _mm_xor_si128(_mm_loadu_si128(hi.as_ptr().add(j).cast()), bias);
            let out = _mm_or_si128(_mm_cmpgt_epi16(vlo, vq), _mm_cmpgt_epi16(vq, vhi));
            let hitv = _mm_xor_si128(out, ones);
            let certv = _mm_and_si128(_mm_cmpgt_epi16(vq, vlo), _mm_cmpgt_epi16(vhi, vq1));
            // Pack hit bytes into the low 8 mask bits, certain into the
            // high 8, with a single movemask.
            let packed = _mm_packs_epi16(hitv, certv);
            let m = _mm_movemask_epi8(packed) as u32;
            hit |= u64::from(m & 0xff) << j;
            certain |= u64::from((m >> 8) & 0xff) << j;
            j += 8;
        }
        while j < chunk {
            hit |= u64::from((lo[j] <= q) & (q <= hi[j])) << j;
            certain |= u64::from((lo[j] < q) & (u32::from(q) + 2 <= u32::from(hi[j]))) << j;
            j += 1;
        }
        (hit, certain)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_mask_q_avx2(lo: &[u16], hi: &[u16], chunk: usize, q: u16) -> (u64, u64) {
    use core::arch::x86_64::*;
    // SAFETY: every load reads 16 u16 elements at offset j with
    // j + 16 <= chunk <= lo.len(), hi.len().
    unsafe {
        let bias = _mm256_set1_epi16(i16::MIN);
        let ones = _mm256_set1_epi16(-1);
        let vq = _mm256_xor_si256(_mm256_set1_epi16(q as i16), bias);
        let vq1 = _mm256_xor_si256(_mm256_set1_epi16(q.saturating_add(1) as i16), bias);
        let mut hit = 0u64;
        let mut certain = 0u64;
        let mut j = 0usize;
        while j + 16 <= chunk {
            let vlo = _mm256_xor_si256(_mm256_loadu_si256(lo.as_ptr().add(j).cast()), bias);
            let vhi = _mm256_xor_si256(_mm256_loadu_si256(hi.as_ptr().add(j).cast()), bias);
            let out = _mm256_or_si256(_mm256_cmpgt_epi16(vlo, vq), _mm256_cmpgt_epi16(vq, vhi));
            let hitv = _mm256_xor_si256(out, ones);
            let certv = _mm256_and_si256(_mm256_cmpgt_epi16(vq, vlo), _mm256_cmpgt_epi16(vhi, vq1));
            // packs interleaves 128-bit halves: [hit0-7, cert0-7,
            // hit8-15, cert8-15]; the 64-bit-quad permute 0b11011000
            // restores [hit0-15, cert0-15] so one movemask yields both.
            let packed = _mm256_permute4x64_epi64::<0b11011000>(_mm256_packs_epi16(hitv, certv));
            let m = _mm256_movemask_epi8(packed) as u32;
            hit |= u64::from(m & 0xffff) << j;
            certain |= u64::from(m >> 16) << j;
            j += 16;
        }
        if j < chunk {
            let (h, c) = sweep_mask_q_sse2(&lo[j..], &hi[j..], chunk - j, q);
            hit |= h << j;
            certain |= c << j;
        }
        (hit, certain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        let mut out = vec![SimdLevel::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                out.push(SimdLevel::Sse2);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                out.push(SimdLevel::Avx2);
            }
        }
        out
    }

    #[test]
    fn quant_lane_kernel_levels_agree() {
        let qs = [0u16, 1, 2, 7, 255, 256, 32767, 65535];
        let bounds = [
            (0u16, 0u16),
            (0, 65535),
            (1, 1),
            (7, 255),
            (256, 256),
            (32767, 65535),
            (65535, 65535),
            (5, 4), // inverted: empty
        ];
        for &(lo, hi) in &bounds {
            let want = lanes_in_interval_q_scalar(lo, hi, &qs);
            for level in levels() {
                assert_eq!(
                    lanes_in_interval_q(level, lo, hi, &qs),
                    want,
                    "lo={lo} hi={hi} level={level:?}"
                );
            }
        }
    }

    #[test]
    fn quant_sweep_kernel_levels_agree_for_every_chunk_size() {
        let lo: Vec<u16> = (0..64)
            .map(|j| match j % 5 {
                0 => 0,
                1 => 65535,
                _ => (j as u16) * 701,
            })
            .collect();
        let hi: Vec<u16> = (0..64)
            .map(|j| match j % 7 {
                0 => 65535,
                1 => 0,
                _ => (j as u16).wrapping_mul(907).wrapping_add(500),
            })
            .collect();
        for q in [0u16, 1, 2, 499, 500, 501, 32768, 65533, 65534, 65535] {
            for chunk in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 63, 64] {
                let want = sweep_mask_q_scalar(&lo, &hi, chunk, q);
                for level in levels() {
                    assert_eq!(
                        sweep_mask_q(level, &lo, &hi, chunk, q),
                        want,
                        "q={q} chunk={chunk} level={level:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn quant_certain_is_subset_of_hit_and_matches_definition() {
        let lo: Vec<u16> = (0..64).map(|j| (j as u16).wrapping_mul(1031)).collect();
        let hi: Vec<u16> = lo.iter().map(|&l| l.saturating_add(3)).collect();
        for q in 0..=700u16 {
            let (hit, certain) = sweep_mask_q_scalar(&lo, &hi, 64, q);
            assert_eq!(certain & !hit, 0, "certain must imply hit (q={q})");
            for j in 0..64 {
                let h = (lo[j] <= q) && (q <= hi[j]);
                let c = (lo[j] < q) && (u32::from(q) + 2 <= u32::from(hi[j]));
                assert_eq!(hit >> j & 1 == 1, h);
                assert_eq!(certain >> j & 1 == 1, c);
            }
        }
    }

    #[test]
    fn quant_block_transposes_and_pads() {
        let mut block = QuantBlock::new();
        let cells = [[10u16, 100], [20, 200], [30, 300]];
        block.fill_with(2, 3, |lane, d| cells[lane][d]);
        assert_eq!(block.lanes(), 3);
        assert_eq!(block.dims(), 2);
        assert_eq!(block.full_mask(), 0b111);
        assert_eq!(&block.dim(0)[..3], &[10, 20, 30]);
        assert_eq!(&block.dim(1)[..3], &[100, 200, 300]);
        assert_eq!(block.dim(0)[7], 10);
        assert_eq!(block.point(1), &[20, 200]);
    }

    #[test]
    fn forced_level_round_trips() {
        force_level(Some(SimdLevel::Scalar));
        assert_eq!(active_level(), SimdLevel::Scalar);
        force_level(None);
        let _ = active_level(); // re-detects without panicking
        force_level(None);
    }
}
