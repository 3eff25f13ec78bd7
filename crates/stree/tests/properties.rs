//! Property tests: every tree index must agree with the linear-scan oracle
//! and uphold its structural invariants on arbitrary inputs.

use proptest::prelude::*;
use pubsub_geom::{Point, Rect};
use pubsub_stree::{
    CountingIndex, CurveKind, Entry, EntryId, LinearScan, PackedConfig, PackedRTree, STree,
    STreeConfig, SpatialIndex,
};

const DIMS: usize = 3;

fn entry_strategy() -> impl Strategy<Value = Rect> {
    prop::collection::vec((-50.0f64..50.0, 0.0f64..30.0), DIMS).prop_map(|sides| {
        let lo: Vec<f64> = sides.iter().map(|&(l, _)| l).collect();
        let hi: Vec<f64> = sides.iter().map(|&(l, len)| l + len).collect();
        Rect::from_corners(&lo, &hi).expect("ordered corners")
    })
}

fn entries_strategy() -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec(entry_strategy(), 0..300).prop_map(|rects| {
        rects
            .into_iter()
            .enumerate()
            .map(|(i, r)| Entry::new(r, EntryId(i as u32)))
            .collect()
    })
}

fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(-60.0f64..60.0, DIMS), 1..20)
        .prop_map(|ps| ps.into_iter().map(|c| Point::new(c).unwrap()).collect())
}

fn sorted(mut v: Vec<EntryId>) -> Vec<EntryId> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stree_matches_oracle(
        entries in entries_strategy(),
        points in points_strategy(),
        fanout in 2usize..20,
        skew in 0.05f64..0.5,
    ) {
        let oracle = LinearScan::new(entries.clone()).unwrap();
        let tree = STree::build(entries, STreeConfig::new(fanout, skew).unwrap()).unwrap();
        prop_assert!(tree.validate().is_ok());
        for p in &points {
            prop_assert_eq!(sorted(tree.query_point(p)), sorted(oracle.query_point(p)));
        }
    }

    #[test]
    fn stree_region_matches_oracle(
        entries in entries_strategy(),
        query in entry_strategy(),
        fanout in 2usize..20,
    ) {
        let oracle = LinearScan::new(entries.clone()).unwrap();
        let tree = STree::build(entries, STreeConfig::new(fanout, 0.3).unwrap()).unwrap();
        prop_assert_eq!(
            sorted(tree.query_region(&query)),
            sorted(oracle.query_region(&query))
        );
    }

    #[test]
    fn packed_trees_match_oracle(
        entries in entries_strategy(),
        points in points_strategy(),
        fanout in 2usize..20,
        hilbert in prop::bool::ANY,
    ) {
        let curve = if hilbert { CurveKind::Hilbert } else { CurveKind::Morton };
        let oracle = LinearScan::new(entries.clone()).unwrap();
        let tree = PackedRTree::build(
            entries,
            PackedConfig::new(fanout, curve, 8).unwrap(),
        )
        .unwrap();
        prop_assert!(tree.validate().is_ok());
        for p in &points {
            prop_assert_eq!(sorted(tree.query_point(p)), sorted(oracle.query_point(p)));
        }
    }

    #[test]
    fn counting_index_matches_oracle(
        entries in entries_strategy(),
        points in points_strategy(),
    ) {
        let oracle = LinearScan::new(entries.clone()).unwrap();
        let idx = CountingIndex::new(entries).unwrap();
        for p in &points {
            prop_assert_eq!(sorted(idx.query_point(p)), sorted(oracle.query_point(p)));
        }
    }

    #[test]
    fn counting_index_handles_unbounded_sides(
        entries in entries_strategy(),
        points in points_strategy(),
        unbound_mask in prop::collection::vec((0usize..3, prop::bool::ANY), 0..20),
    ) {
        // Punch unbounded sides into some entries; the counting index must
        // still agree with brute force (geometric trees would reject these).
        let mut entries = entries;
        for (k, &(dim, high_side)) in unbound_mask.iter().enumerate() {
            if let Some(e) = entries.get_mut(k) {
                let mut sides: Vec<_> = e.rect.sides().to_vec();
                sides[dim] = if high_side {
                    pubsub_geom::Interval::greater_than(sides[dim].lo())
                } else {
                    pubsub_geom::Interval::at_most(sides[dim].hi())
                };
                e.rect = Rect::new(sides).unwrap();
            }
        }
        let oracle = LinearScan::new(entries.clone()).unwrap();
        let idx = CountingIndex::new(entries).unwrap();
        for p in &points {
            prop_assert_eq!(sorted(idx.query_point(p)), sorted(oracle.query_point(p)));
        }
    }

    #[test]
    fn count_point_equals_result_len(
        entries in entries_strategy(),
        points in points_strategy(),
        hilbert in prop::bool::ANY,
    ) {
        // The specialized count_point overrides (STree, PackedRTree)
        // must agree with materializing the ids.
        let curve = if hilbert { CurveKind::Hilbert } else { CurveKind::Morton };
        let tree = STree::build(entries.clone(), STreeConfig::default()).unwrap();
        let packed =
            PackedRTree::build(entries, PackedConfig::new(16, curve, 8).unwrap()).unwrap();
        for p in &points {
            prop_assert_eq!(tree.count_point(p), tree.query_point(p).len());
            prop_assert_eq!(packed.count_point(p), packed.query_point(p).len());
        }
    }
}
