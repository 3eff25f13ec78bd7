//! Correctness properties for the quantized [`CompactSTree`]:
//!
//! * **superset** — every exact hit is emitted (outward rounding never
//!   loses a true hit);
//! * **certainty** — a hit emitted without the ambiguous flag is always
//!   an exact hit (no re-check needed), so resolving ambiguous hits
//!   against the exact `f64` bounds reproduces the exact answer;
//! * **kernel bit-identity** — the emitted block tape (ids, lane masks,
//!   ambiguity flags, order) is identical at every kernel level the
//!   host supports.
//!
//! Both are checked on every lane of block tapes of 1..=[`LANES`]
//! points; a one-lane block is the point query.

use proptest::prelude::*;
use pubsub_stree::simd::{QuantBlock, SimdLevel, LANES};
use pubsub_stree::{CompactConfig, CompactSTree};

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

/// Integer-cornered rects so coordinates land exactly on bounds often.
fn rects(dims: usize) -> impl Strategy<Value = Vec<(Vec<f64>, Vec<f64>)>> {
    prop::collection::vec(prop::collection::vec((-15i32..15, 0u32..10), dims), 1..150).prop_map(
        |rs| {
            rs.into_iter()
                .map(|sides| {
                    let lo: Vec<f64> = sides.iter().map(|&(l, _)| f64::from(l)).collect();
                    let hi: Vec<f64> = sides
                        .iter()
                        .map(|&(l, w)| f64::from(l) + f64::from(w))
                        .collect();
                    (lo, hi)
                })
                .collect()
        },
    )
}

fn coord() -> impl Strategy<Value = f64> {
    (0u32..10, -20.0f64..20.0, -16i32..16).prop_map(|(sel, real, int)| match sel {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3..=6 => f64::from(int),
        _ => real,
    })
}

fn exact(lo: &[f64], hi: &[f64], p: &[f64]) -> bool {
    p.iter().enumerate().all(|(d, &x)| lo[d] < x && x <= hi[d])
}

/// The exact answer for `p`: every rectangle containing it, ascending.
fn exact_hits(rs: &[(Vec<f64>, Vec<f64>)], p: &[f64]) -> Vec<u32> {
    (0..rs.len() as u32)
        .filter(|&i| exact(&rs[i as usize].0, &rs[i as usize].1, p))
        .collect()
}

fn build(dims: usize, rs: &[(Vec<f64>, Vec<f64>)], leaf: usize, fanout: usize) -> CompactSTree {
    CompactSTree::build(
        dims,
        rs.len(),
        |i, d| (rs[i].0[d], rs[i].1[d]),
        CompactConfig {
            leaf_size: leaf,
            fanout,
        },
    )
}

/// Splits a block tape into per-lane `(rep, ambiguous)` hit lists.
fn lanes_of(tape: &[(u32, u8, u8)], lanes: usize) -> Vec<Vec<(u32, bool)>> {
    (0..lanes)
        .map(|l| {
            tape.iter()
                .filter(|&&(_, hit, _)| hit >> l & 1 == 1)
                .map(|&(rep, _, amb)| (rep, amb >> l & 1 == 1))
                .collect()
        })
        .collect()
}

/// Checks one lane's hits against the exact answer: a non-ambiguous hit
/// is exact (certainty), and re-checking the ambiguous ones yields
/// exactly the exact answer (superset + resolution).
fn check_lane(rs: &[(Vec<f64>, Vec<f64>)], p: &[f64], hits: &[(u32, bool)]) -> Result<(), String> {
    let mut resolved = Vec::new();
    for &(rep, amb) in hits {
        let (lo, hi) = &rs[rep as usize];
        let is_exact = exact(lo, hi, p);
        prop_assert!(amb || is_exact, "false certain hit {} at {:?}", rep, p);
        if is_exact {
            resolved.push(rep);
        }
    }
    resolved.sort_unstable();
    prop_assert_eq!(resolved, exact_hits(rs, p), "p = {:?}", p);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn superset_certainty_and_resolution(
        (dims, rs, points, leaf, fanout) in (1usize..5).prop_flat_map(|dims| {
            (
                Just(dims),
                rects(dims),
                prop::collection::vec(prop::collection::vec(coord(), dims), 1..40),
                1usize..66,
                2usize..9,
            )
        })
    ) {
        let tree = build(dims, &rs, leaf, fanout);
        let mut block = QuantBlock::new();
        let mut stack = Vec::new();
        // Blocks of LANES points, the last one ragged (1..=LANES lanes).
        for chunk in points.chunks(LANES) {
            let refs: Vec<&[f64]> = chunk.iter().map(|p| p.as_slice()).collect();
            tree.fill_block(&refs, &mut block);
            let mut tape = Vec::new();
            tree.query_point_block(&block, &mut stack, |rep, lanes, amb| {
                tape.push((rep, lanes, amb));
            });
            for (p, hits) in chunk.iter().zip(lanes_of(&tape, chunk.len())) {
                check_lane(&rs, p, &hits)?;
            }
        }
    }

    #[test]
    fn scalar_and_block_tapes_are_level_identical(
        (dims, rs, points, leaf, fanout) in (1usize..5).prop_flat_map(|dims| {
            (
                Just(dims),
                rects(dims),
                prop::collection::vec(prop::collection::vec(coord(), dims), 1..=LANES),
                1usize..66,
                2usize..9,
            )
        })
    ) {
        let tree = build(dims, &rs, leaf, fanout);
        let mut bstack = Vec::new();

        // Block tape per level, and each lane's resolution against the
        // exact answer.
        let refs: Vec<&[f64]> = points.iter().map(|p| p.as_slice()).collect();
        let mut block = QuantBlock::new();
        tree.fill_block(&refs, &mut block);
        let mut block_tapes: Vec<Vec<(u32, u8, u8)>> = Vec::new();
        for &level in &levels() {
            let mut tape = Vec::new();
            tree.query_point_block_at(level, &block, &mut bstack, |rep, lanes, amb| {
                tape.push((rep, lanes, amb));
            });
            block_tapes.push(tape);
        }
        for t in &block_tapes[1..] {
            prop_assert_eq!(t, &block_tapes[0]);
        }
        for (p, hits) in points.iter().zip(lanes_of(&block_tapes[0], points.len())) {
            check_lane(&rs, p, &hits)?;
        }
    }
}
