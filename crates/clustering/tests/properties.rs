//! Property tests: clustering invariants on random subscription layouts,
//! and parity with the full-refold reference in `reference/`.

mod reference;

use proptest::prelude::*;
use pubsub_clustering::{
    cluster, expected_waste, ClusteringAlgorithm, ClusteringConfig, GridModel, GroupState,
    SubscriberSet,
};
use pubsub_geom::{CellId, Grid, Interval, Rect};
use reference::RefGroup;

fn model_strategy() -> impl Strategy<Value = GridModel> {
    model_strategy_over(12)
}

/// Up to 40 random rectangles over `subscribers` subscriber indices on a
/// 2×2 to 5×5 grid.
fn model_strategy_over(subscribers: usize) -> impl Strategy<Value = GridModel> {
    let sub = (
        0usize..subscribers,
        (0.0f64..9.0, 0.5f64..6.0),
        (0.0f64..9.0, 0.5f64..6.0),
    );
    (prop::collection::vec(sub, 1..40), 2usize..6).prop_map(move |(subs, cells)| {
        let grid = Grid::uniform(
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
            cells,
        )
        .unwrap();
        let rects: Vec<(usize, Rect)> = subs
            .into_iter()
            .map(|(s, (x, w), (y, h))| {
                (
                    s,
                    Rect::from_corners(&[x, y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap(),
                )
            })
            .collect();
        // A synthetic density putting more mass near the origin.
        GridModel::build(grid, subscribers, &rects, |r| {
            let c = r.center();
            (20.0 - c.coord(0) - c.coord(1)).max(0.0) / 400.0
        })
        .unwrap()
    })
}

/// Every algorithm's partition, its exact waste and the working set are
/// those of the reference, to the bit.
fn cluster_parity(model: &GridModel, n: usize, t: usize) -> Result<(), String> {
    prop_assert_eq!(model.top_cells(t), reference::top_cells(model, t));
    for alg in ClusteringAlgorithm::ALL {
        let got = cluster(model, &ClusteringConfig::new(alg, n).with_max_cells(t)).unwrap();
        let want = reference::cluster(model, alg, n, t);
        prop_assert_eq!(&got, &want, "{} n={} t={}", alg, n, t);
        prop_assert_eq!(
            expected_waste(model, &got).to_bits(),
            reference::expected_waste(model, &want).to_bits(),
            "{} waste",
            alg
        );
    }
    Ok(())
}

/// One group and its reference through the same `add`/`remove`/`merge`
/// sequence: after every op the cells, EW, mass and union size agree, and
/// so does the distance to every cell of the grid, to the bit. An op is
/// `(kind, cell, cells to merge)`; a removal picks a member.
fn group_parity(model: &GridModel, ops: &[(usize, usize, Vec<usize>)]) -> Result<(), String> {
    let count = model.grid().cell_count();
    let ids =
        |cells: &[usize]| -> Vec<CellId> { cells.iter().map(|&c| CellId(c % count)).collect() };
    let mut group = GroupState::from_cells(model, &[]);
    let mut want = RefGroup::from_cells(model, &[]);
    for (kind, cell, others) in ops {
        let cell = CellId(cell % count);
        match kind {
            0 => {
                group.add(model, cell);
                want.add(model, cell);
            }
            1 => {
                let cell = group
                    .cells()
                    .get(cell.0 % group.len().max(1))
                    .copied()
                    .unwrap_or(cell);
                group.remove(model, cell);
                want.remove(model, cell);
            }
            _ => {
                group.merge(model, &GroupState::from_cells(model, &ids(others)));
                want.merge(model, &RefGroup::from_cells(model, &ids(others)));
            }
        }
        prop_assert_eq!(group.cells(), want.cells());
        prop_assert_eq!(
            group.ew().to_bits(),
            want.ew().to_bits(),
            "ew {} vs {}",
            group.ew(),
            want.ew()
        );
        prop_assert_eq!(group.mass().to_bits(), want.mass().to_bits());
        prop_assert_eq!(group.member_count(), want.members().len());
        for c in (0..count).map(CellId) {
            let (got, expected) = (group.distance_to(model, c), want.distance_to(model, c));
            prop_assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "distance to {:?}: {} vs {}",
                c,
                got,
                expected
            );
        }
    }
    Ok(())
}

fn ops_strategy() -> impl Strategy<Value = Vec<(usize, usize, Vec<usize>)>> {
    prop::collection::vec(
        (
            0usize..3,
            0usize..25,
            prop::collection::vec(0usize..25, 0..4),
        ),
        1..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clustering_matches_the_full_refold_reference(
        narrow in model_strategy(),
        wide in model_strategy_over(130),
        n in 1usize..=6,
        t in 1usize..=25,
    ) {
        cluster_parity(&narrow, n, t)?;
        cluster_parity(&wide, n, t)?;
    }

    #[test]
    fn group_ops_match_the_full_refold_reference(
        narrow in model_strategy(),
        wide in model_strategy_over(130),
        ops in ops_strategy(),
    ) {
        group_parity(&narrow, &ops)?;
        group_parity(&wide, &ops)?;
    }
}

// The same properties over 512 cases: `cargo test -p pubsub-clustering --
// --ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    #[ignore]
    fn clustering_matches_the_full_refold_reference_deep(
        narrow in model_strategy(),
        wide in model_strategy_over(130),
        n in 1usize..=6,
        t in 1usize..=25,
    ) {
        cluster_parity(&narrow, n, t)?;
        cluster_parity(&wide, n, t)?;
    }

    #[test]
    #[ignore]
    fn group_ops_match_the_full_refold_reference_deep(
        narrow in model_strategy(),
        wide in model_strategy_over(130),
        ops in ops_strategy(),
    ) {
        group_parity(&narrow, &ops)?;
        group_parity(&wide, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partitions_are_disjoint_and_cover_the_working_set(
        model in model_strategy(),
        n in 1usize..8,
        alg_idx in 0usize..4,
    ) {
        let alg = ClusteringAlgorithm::ALL[alg_idx];
        let cfg = ClusteringConfig::new(alg, n).with_max_cells(30);
        let part = cluster(&model, &cfg).unwrap();
        let h = model.top_cells(30);
        prop_assert_eq!(part.group_count(), n.min(h.len()));
        // Every working-set cell is assigned to exactly one group.
        let mut seen = std::collections::HashSet::new();
        for q in 0..part.group_count() {
            for c in part.cells_of_group(q) {
                prop_assert!(seen.insert(c));
                prop_assert!(h.contains(&c));
            }
        }
        prop_assert_eq!(seen.len(), h.len());
        // Cell lookup agrees with group membership.
        for q in 0..part.group_count() {
            for c in part.cells_of_group(q) {
                prop_assert_eq!(part.group_of_cell(c), Some(q));
            }
        }
    }

    #[test]
    fn ew_is_nonnegative_and_zero_for_singletons(
        model in model_strategy(),
        cells in prop::collection::vec(0usize..16, 1..10),
    ) {
        let count = model.grid().cell_count();
        let ids: Vec<CellId> = cells.iter().map(|&c| CellId(c % count)).collect();
        let g = GroupState::from_cells(&model, &ids);
        prop_assert!(g.ew() >= 0.0, "EW = {}", g.ew());
        let single = GroupState::singleton(&model, ids[0]);
        prop_assert_eq!(single.ew(), 0.0);
    }

    #[test]
    fn distance_equals_add_increment(
        model in model_strategy(),
        cells in prop::collection::vec(0usize..16, 2..8),
    ) {
        let count = model.grid().cell_count();
        let ids: Vec<CellId> = cells.iter().map(|&c| CellId(c % count)).collect();
        let (extra, rest) = ids.split_first().unwrap();
        let mut g = GroupState::from_cells(&model, rest);
        if !g.contains(*extra) && !g.is_empty() {
            let d = g.distance_to(&model, *extra);
            let before = g.ew();
            g.add(&model, *extra);
            prop_assert!((g.ew() - before - d).abs() < 1e-9);
        }
    }

    /// The grouped build against the per-pair build and the recipe both
    /// replaced — clamp, list the cells, insert one bit at a time — at
    /// subscriber counts on both sides of a word boundary. Items carry
    /// subscriber sets of any size (empty, repeated indices, across
    /// words); their rectangles are unbounded, empty or outside the grid,
    /// and some repeat.
    #[test]
    fn grouped_build_equals_the_per_pair_build(
        count_idx in 0usize..5,
        cells in 1usize..6,
        items in prop::collection::vec(
            (
                prop::collection::vec(0usize..130, 0..6),
                0usize..6,
                (-2.0f64..11.0, 0.0f64..8.0),
                (-2.0f64..11.0, 0.0f64..8.0),
            ),
            0..30,
        ),
        repeats in prop::collection::vec(0usize..30, 0..8),
    ) {
        let count = [1, 63, 64, 65, 130][count_idx];
        let grid = Grid::new(
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
            vec![cells, cells + 1],
        )
        .unwrap();
        let mut groups: Vec<(Vec<usize>, Rect)> = items
            .into_iter()
            .map(|(subs, kind, (x, w), (y, h))| {
                let first = match kind {
                    0 => Interval::at_least(x),
                    1 => Interval::unbounded(),
                    2 => Interval::empty_at(x),
                    _ => Interval::new(x, x + w).unwrap(),
                };
                let second = Interval::new(y, y + h).unwrap();
                let subs = subs.into_iter().map(|s| s % count).collect();
                (subs, Rect::new(vec![first, second]).unwrap())
            })
            .collect();
        for r in repeats {
            if let Some(again) = groups.get(r).cloned() {
                groups.push(again);
            }
        }
        let pairs: Vec<(usize, Rect)> = groups
            .iter()
            .flat_map(|(subs, r)| subs.iter().map(move |&s| (s, r.clone())))
            .collect();

        let mut reference = vec![SubscriberSet::new(count); grid.cell_count()];
        for (s, r) in &pairs {
            for cell in grid.cells_intersecting(&r.clamp_to(grid.bounds())) {
                reference[cell.0].insert(*s);
            }
        }
        let grouped = GridModel::build_grouped(
            grid.clone(),
            count,
            groups
                .iter()
                .map(|(subs, r)| (subs.iter().copied(), r.sides().iter().copied())),
            |_| 0.5,
        )
        .unwrap();
        let per_pair = GridModel::build(grid.clone(), count, &pairs, |_| 0.5).unwrap();
        for (i, want) in reference.iter().enumerate() {
            prop_assert_eq!(grouped.members(CellId(i)), want, "cell {}", i);
            prop_assert_eq!(per_pair.members(CellId(i)), want, "cell {}", i);
        }
    }

    #[test]
    fn top_cells_are_sorted_by_weight(model in model_strategy(), t in 1usize..40) {
        let top = model.top_cells(t);
        for w in top.windows(2) {
            prop_assert!(model.weight(w[0]) >= model.weight(w[1]) - 1e-12);
        }
        for &c in &top {
            prop_assert!(!model.members(c).is_empty());
        }
    }

    #[test]
    fn subscriber_set_algebra(
        a in prop::collection::vec(0usize..100, 0..30),
        b in prop::collection::vec(0usize..100, 0..30),
    ) {
        let mut sa = SubscriberSet::new(100);
        for &i in &a { sa.insert(i); }
        let mut sb = SubscriberSet::new(100);
        for &i in &b { sb.insert(i); }
        use std::collections::HashSet;
        let ha: HashSet<_> = a.iter().copied().collect();
        let hb: HashSet<_> = b.iter().copied().collect();
        prop_assert_eq!(sa.len(), ha.len());
        prop_assert_eq!(sa.diff_count(&sb), ha.difference(&hb).count());
        prop_assert_eq!(sb.diff_count(&sa), hb.difference(&ha).count());
        let mut u = sa.clone();
        u.union_with(&sb);
        prop_assert_eq!(u.len(), ha.union(&hb).count());
        let collected: Vec<usize> = u.iter().collect();
        let mut expected: Vec<usize> = ha.union(&hb).copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(collected, expected);
    }
}
