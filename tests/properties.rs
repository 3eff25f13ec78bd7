//! Property tests for the network substrate on random connected graphs:
//! the compiled engine (`FlatNet`, `SptTable`, the `CostScratch` walks,
//! the all-pairs table and the ALM overlay over it) equals the node-based
//! oracle of `common/walks.rs` bit for bit, and the product's cost models
//! keep their orderings. Also: the broker's grid model, built once per
//! distinct covering rectangle, equals the per-subscription build.

#[path = "common/floyd.rs"]
mod floyd;
#[path = "common/walks.rs"]
mod walks;

use std::collections::BTreeSet;

use proptest::prelude::*;
use pubsub::clustering::GridModel;
use pubsub::core::{Broker, CoveringConfig};
use pubsub::geom::{CellId, Grid, Interval, Rect, Space};
use pubsub::netsim::{
    all_pairs_dists, alm_tree_cost, cost_events_into, multicast_tree_cost_flat,
    sparse_mode_cost_flat, unicast_and_tree_cost, unicast_cost_flat, CostScratch, DijkstraScratch,
    FlatNet, Graph, NodeId, SptTable, SptView, TransitStubConfig, WaxmanConfig, NO_PARENT,
};
use walks::{dijkstra, multicast_tree_cost, sparse_mode_cost, unicast_cost};

/// A random connected graph: spanning tree plus extra edges.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (2usize..24)
        .prop_flat_map(|n| {
            let tree = prop::collection::vec((0usize..1000, 0.5f64..20.0), n - 1);
            let extra = prop::collection::vec((0usize..1000, 0usize..1000, 0.5f64..20.0), 0..20);
            (Just(n), tree, extra)
        })
        .prop_map(|(n, tree, extra)| {
            let mut g = Graph::new(n);
            for (i, (r, c)) in tree.into_iter().enumerate() {
                let child = i + 1;
                let parent = r % child;
                g.add_edge(NodeId(child as u32), NodeId(parent as u32), c)
                    .unwrap();
            }
            for (a, b, c) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge(NodeId(a as u32), NodeId(b as u32), c).unwrap();
                }
            }
            g
        })
}

fn receivers_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..1000, 1..12)
}

/// The product's SPT rows for `sources`, one thread.
fn spt_table(g: &Graph, sources: &[NodeId]) -> SptTable {
    SptTable::build(&FlatNet::compile(g), sources, Some(1))
}

/// The product's distance and parent rows from `source`.
fn flat_sssp(
    net: &FlatNet,
    source: NodeId,
    scratch: &mut DijkstraScratch,
) -> (Vec<f64>, Vec<Option<NodeId>>) {
    let n = net.node_count();
    let (mut dist, mut parent, mut up_cost) = (vec![0.0; n], vec![0; n], vec![0.0; n]);
    net.sssp_into(source, scratch, &mut dist, &mut parent, &mut up_cost);
    let parent = parent
        .into_iter()
        .map(|p| (p != NO_PARENT).then_some(NodeId(p)))
        .collect();
    (dist, parent)
}

/// Asserts the product's SPT from `source` equals the oracle's, distances
/// bit for bit and the same parent on ties.
fn assert_same_spt(g: &Graph, source: NodeId) {
    let (dist, parent) = flat_sssp(&FlatNet::compile(g), source, &mut DijkstraScratch::new());
    let node = dijkstra(g, source);
    for v in g.node_ids() {
        assert_eq!(
            dist[v.0 as usize].to_bits(),
            node.dist(v).to_bits(),
            "dist at {v}"
        );
        assert_eq!(parent[v.0 as usize], node.parent(v), "parent at {v}");
    }
}

/// A star with a shared trunk:
///
/// ```text
/// 0 --2-- 1 --3-- 2
///          \--4-- 3
/// ```
fn trunk() -> Graph {
    let mut g = Graph::new(4);
    g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
    g.add_edge(NodeId(1), NodeId(2), 3.0).unwrap();
    g.add_edge(NodeId(1), NodeId(3), 4.0).unwrap();
    g
}

#[test]
fn flat_dijkstra_matches_node_walk_including_ties() {
    // Two equal-cost routes 0→3 (via 1 and via 2): a distance tie, so
    // the parent tree depends on tie-breaking.
    let mut diamond = Graph::new(4);
    diamond.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    diamond.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
    diamond.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
    diamond.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
    assert_same_spt(&diamond, NodeId(0));
    assert_same_spt(&diamond, NodeId(3));
}

#[test]
fn flat_costs_equal_node_based_costs() {
    let g = trunk();
    let spt = dijkstra(&g, NodeId(0));
    let table = spt_table(&g, &[NodeId(0), NodeId(1)]);
    let view = table.view(NodeId(0)).unwrap();
    let mut scratch = CostScratch::new();
    for receivers in [
        vec![],
        vec![NodeId(0)],
        vec![NodeId(2)],
        vec![NodeId(2), NodeId(2), NodeId(3)],
        vec![NodeId(1), NodeId(2), NodeId(3), NodeId(0)],
    ] {
        let uni = unicast_cost(&spt, &receivers);
        let tree = multicast_tree_cost(&spt, &receivers);
        assert_eq!(unicast_cost_flat(view, &receivers, &mut scratch), uni);
        assert_eq!(
            multicast_tree_cost_flat(view, &receivers, &mut scratch),
            tree
        );
        let pair = unicast_and_tree_cost(view, &receivers, &mut scratch);
        assert_eq!((pair.unicast, pair.tree), (uni, tree));
    }
    // Sparse mode through the RP view.
    let rp_spt = dijkstra(&g, NodeId(1));
    let rp_view = table.view(NodeId(1)).unwrap();
    let to_rp = spt.dist(NodeId(1));
    let receivers = [NodeId(2), NodeId(3)];
    assert_eq!(
        sparse_mode_cost_flat(rp_view, to_rp, &receivers, &mut scratch),
        sparse_mode_cost(&rp_spt, to_rp, &receivers)
    );
    assert_eq!(
        sparse_mode_cost_flat(rp_view, to_rp, &[], &mut scratch),
        0.0
    );
}

#[test]
fn all_pairs_matches_floyd_warshall_on_waxman_graphs() {
    for seed in [3u64, 17, 42] {
        let topo = WaxmanConfig {
            nodes: 30,
            alpha: 0.4,
            beta: 0.4,
            cost_scale: 10.0,
        }
        .generate(seed)
        .unwrap();
        let g = topo.graph();
        let fast = all_pairs_dists(&FlatNet::compile(g), None);
        let oracle = floyd::floyd_warshall(g);
        for s in 0..g.node_count() {
            for t in 0..g.node_count() {
                assert!(
                    (fast[s][t] - oracle[s][t]).abs() < 1e-9,
                    "seed={seed} s={s} t={t}: {} vs {}",
                    fast[s][t],
                    oracle[s][t]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dijkstra_matches_all_pairs_table(g in graph_strategy()) {
        let apsp = all_pairs_dists(&FlatNet::compile(&g), Some(2));
        for (s, row) in apsp.iter().enumerate().take(g.node_count()) {
            let sp = dijkstra(&g, NodeId(s as u32));
            for (t, &d) in row.iter().enumerate().take(g.node_count()) {
                prop_assert!((sp.dist(NodeId(t as u32)) - d).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn flat_dijkstra_equals_node_dijkstra_bitwise(g in graph_strategy()) {
        // The CSR engine must reproduce the node-based walk exactly —
        // distances bit-for-bit and the same SPT parent on ties — because
        // the broker's byte-identical-costs guarantee rests on it.
        let net = FlatNet::compile(&g);
        let mut scratch = DijkstraScratch::new();
        for s in 0..g.node_count() {
            let source = NodeId(s as u32);
            let (dist, parent) = flat_sssp(&net, source, &mut scratch);
            let node = dijkstra(&g, source);
            for t in 0..g.node_count() {
                let v = NodeId(t as u32);
                prop_assert_eq!(dist[t].to_bits(), node.dist(v).to_bits(),
                    "dist bits differ at source {} target {}", source, v);
                prop_assert_eq!(parent[t], node.parent(v),
                    "parent differs at source {} target {}", source, v);
            }
        }
    }

    #[test]
    fn flat_costs_equal_node_costs_bitwise(
        g in graph_strategy(),
        recv in receivers_strategy(),
        src in 0usize..1000,
    ) {
        let n = g.node_count();
        let source = NodeId((src % n) as u32);
        let receivers: Vec<NodeId> = recv.iter().map(|&r| NodeId((r % n) as u32)).collect();
        let spt = dijkstra(&g, source);
        let net = FlatNet::compile(&g);
        let table = SptTable::build(&net, &[source], Some(1));
        let view = table.view(source).unwrap();
        let mut scratch = CostScratch::new();

        let uni = unicast_cost(&spt, &receivers);
        let tree = multicast_tree_cost(&spt, &receivers);
        prop_assert_eq!(unicast_cost_flat(view, &receivers, &mut scratch).to_bits(), uni.to_bits());
        prop_assert_eq!(
            multicast_tree_cost_flat(view, &receivers, &mut scratch).to_bits(),
            tree.to_bits()
        );
        let pair = unicast_and_tree_cost(view, &receivers, &mut scratch);
        prop_assert_eq!(pair.unicast.to_bits(), uni.to_bits());
        prop_assert_eq!(pair.tree.to_bits(), tree.to_bits());

        let sparse = sparse_mode_cost(&spt, 1.25, &receivers);
        prop_assert_eq!(
            sparse_mode_cost_flat(view, 1.25, &receivers, &mut scratch).to_bits(),
            sparse.to_bits()
        );
    }

    #[test]
    fn batched_cost_events_equal_per_call_costs(
        g in graph_strategy(),
        sets in prop::collection::vec(receivers_strategy(), 1..8),
    ) {
        let n = g.node_count();
        let sets: Vec<Vec<NodeId>> = sets
            .into_iter()
            .map(|s| s.into_iter().map(|r| NodeId((r % n) as u32)).collect())
            .collect();
        let spt = dijkstra(&g, NodeId(0));
        let net = FlatNet::compile(&g);
        let table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let view = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        let mut batched = Vec::new();
        cost_events_into(view, sets.iter().map(Vec::as_slice), &mut scratch, &mut batched);
        prop_assert_eq!(batched.len(), sets.len());
        for (set, pair) in sets.iter().zip(&batched) {
            prop_assert_eq!(pair.unicast.to_bits(), unicast_cost(&spt, set).to_bits());
            prop_assert_eq!(pair.tree.to_bits(), multicast_tree_cost(&spt, set).to_bits());
        }
    }

    #[test]
    fn spt_table_rows_match_dijkstra_for_any_thread_count(
        g in graph_strategy(),
        srcs in prop::collection::vec(0usize..1000, 1..6),
        threads in 1usize..5,
    ) {
        let n = g.node_count();
        let sources: Vec<NodeId> = srcs.iter().map(|&s| NodeId((s % n) as u32)).collect();
        let net = FlatNet::compile(&g);
        let table = SptTable::build(&net, &sources, Some(threads));
        for &s in &sources {
            let view = table.view(s).unwrap();
            let oracle = dijkstra(&g, s);
            for t in 0..n {
                let v = NodeId(t as u32);
                prop_assert_eq!(view.dist(v).to_bits(), oracle.dist(v).to_bits());
                prop_assert_eq!(view.parent(v), oracle.parent(v));
            }
        }
    }

    #[test]
    fn cost_models_are_ordered(g in graph_strategy(), recv in receivers_strategy(), src in 0usize..1000) {
        let n = g.node_count();
        let source = NodeId((src % n) as u32);
        let receivers: Vec<NodeId> = recv.iter().map(|&r| NodeId((r % n) as u32)).collect();
        let net = FlatNet::compile(&g);
        let table = SptTable::build(&net, &[source], Some(1));
        let spt = table.view(source).unwrap();
        let mut scratch = CostScratch::new();
        let uni = unicast_cost_flat(spt, &receivers, &mut scratch);
        let multi = multicast_tree_cost_flat(spt, &receivers, &mut scratch);
        let alm = alm_tree_cost(&all_pairs_dists(&net, Some(1)), source, &receivers);
        // Both multicast flavors beat unicast (they share work; unicast
        // shares nothing). Dense-mode and ALM are *incomparable* in
        // general: ALM may relay through a member that the shortest-path
        // tree reaches by a divergent branch.
        prop_assert!(multi <= uni + 1e-9, "multi={multi} uni={uni}");
        prop_assert!(alm <= uni + 1e-9, "alm={alm} uni={uni}");
        prop_assert!(multi >= 0.0);
    }

    #[test]
    fn multicast_tree_cost_is_monotone_in_receivers(
        g in graph_strategy(),
        recv in receivers_strategy(),
    ) {
        let n = g.node_count();
        let receivers: Vec<NodeId> = recv.iter().map(|&r| NodeId((r % n) as u32)).collect();
        let table = spt_table(&g, &[NodeId(0)]);
        let spt = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        let all = multicast_tree_cost_flat(spt, &receivers, &mut scratch);
        for k in 0..receivers.len() {
            let subset = &receivers[..k];
            prop_assert!(multicast_tree_cost_flat(spt, subset, &mut scratch) <= all + 1e-9);
        }
    }

    #[test]
    fn singleton_multicast_equals_unicast(g in graph_strategy(), r in 0usize..1000) {
        let n = g.node_count();
        let target = [NodeId((r % n) as u32)];
        let table = spt_table(&g, &[NodeId(0)]);
        let spt = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        let multi = multicast_tree_cost_flat(spt, &target, &mut scratch);
        prop_assert!((multi - unicast_cost_flat(spt, &target, &mut scratch)).abs() < 1e-9);
    }

    #[test]
    fn topologies_are_connected_for_any_seed(seed in 0u64..500) {
        let topo = TransitStubConfig::tiny().generate(seed).unwrap();
        prop_assert!(topo.graph().is_connected());
    }

    #[test]
    fn waxman_topologies_are_connected_for_any_seed(seed in 0u64..200) {
        let topo = WaxmanConfig {
            nodes: 40,
            alpha: 0.08,
            beta: 0.3,
            cost_scale: 10.0,
        }
        .generate(seed)
        .unwrap();
        prop_assert!(topo.graph().is_connected());
        prop_assert_eq!(topo.stub_nodes().len(), 40);
    }

    #[test]
    fn sparse_mode_properties(g in graph_strategy(), recv in receivers_strategy(), rp in 0usize..1000) {
        let n = g.node_count();
        let rp = NodeId((rp % n) as u32);
        let source = NodeId(0);
        let receivers: Vec<NodeId> = recv.iter().map(|&r| NodeId((r % n) as u32)).collect();
        let table = spt_table(&g, &[source, rp]);
        let (src_spt, rp_spt) = (table.view(source).unwrap(), table.view(rp).unwrap());
        let mut scratch = CostScratch::new();
        let sparse = sparse_mode_cost_flat(rp_spt, src_spt.dist(rp), &receivers, &mut scratch);
        let dense = multicast_tree_cost_flat(src_spt, &receivers, &mut scratch);
        prop_assert!(sparse >= 0.0);
        // RP at the publisher collapses sparse mode to dense mode.
        let collapsed = sparse_mode_cost_flat(src_spt, 0.0, &receivers, &mut scratch);
        prop_assert!((collapsed - dense).abs() < 1e-9);
        // Empty receiver sets are free.
        prop_assert_eq!(sparse_mode_cost_flat(rp_spt, src_spt.dist(rp), &[], &mut scratch), 0.0);
    }

    #[test]
    fn shortest_path_reconstruction_matches_distance(g in graph_strategy(), t in 0usize..1000) {
        let target = NodeId((t % g.node_count()) as u32);
        let table = spt_table(&g, &[NodeId(0)]);
        let sp = table.view(NodeId(0)).unwrap();
        let path = path_to(sp, target);
        prop_assert_eq!(path[0], NodeId(0));
        prop_assert_eq!(*path.last().unwrap(), target);
        // Summing the cheapest parallel edge along the path reproduces the
        // distance.
        let mut total = 0.0;
        for w in path.windows(2) {
            let hop = g
                .neighbors(w[0])
                .filter(|&(n, _)| n == w[1])
                .map(|(_, c)| c)
                .fold(f64::INFINITY, f64::min);
            total += hop;
        }
        prop_assert!((total - sp.dist(target)).abs() < 1e-9);
    }

    #[test]
    fn alm_over_all_pairs_equals_node_alm_bitwise(
        g in graph_strategy(),
        recv in receivers_strategy(),
        src in 0usize..1000,
    ) {
        let n = g.node_count();
        let source = NodeId((src % n) as u32);
        let members: Vec<NodeId> = recv.iter().map(|&r| NodeId((r % n) as u32)).collect();
        let dist = all_pairs_dists(&FlatNet::compile(&g), Some(2));
        prop_assert_eq!(
            alm_tree_cost(&dist, source, &members).to_bits(),
            walks::alm_tree_cost(&g, source, &members).to_bits()
        );
    }
}

/// The SPT path from `view`'s source to `target`, both ends included.
fn path_to(view: SptView<'_>, target: NodeId) -> Vec<NodeId> {
    let mut path = vec![target];
    while let Some(p) = view.parent(*path.last().unwrap()) {
        path.push(p);
    }
    path.reverse();
    path
}

/// One side of a test rectangle over the space `(0, 10]`: bounded
/// inside, unbounded on one or both ends, or wholly outside.
fn side_strategy() -> impl Strategy<Value = Interval> {
    (0usize..6, -4.0f64..12.0, 0.0f64..6.0).prop_map(|(kind, x, w)| match kind {
        0 => Interval::at_least(x),
        1 => Interval::at_most(x),
        2 => Interval::unbounded(),
        3 => Interval::new(11.0 + w, 12.0 + w).unwrap(),
        _ => Interval::new(x, x + w).unwrap(),
    })
}

/// `GridModel::build` over the registry's raw `(dense subscriber, rect)`
/// pairs, with the broker's default (uniform) density.
fn per_subscription_model(broker: &Broker, cells: usize) -> GridModel {
    let registry = broker.registry();
    let nodes: BTreeSet<NodeId> = registry.live().map(|(_, n, _)| n).collect();
    let dense = |n: NodeId| nodes.iter().position(|&m| m == n).unwrap();
    let pairs: Vec<(usize, Rect)> = registry
        .live()
        .map(|(_, n, r)| (dense(n), Rect::new(r.to_vec()).unwrap()))
        .collect();
    let bounds = broker.space().bounds().clone();
    let volume = bounds.volume();
    let grid = Grid::uniform(bounds, cells).unwrap();
    GridModel::build(grid, nodes.len(), &pairs, |r| r.volume() / volume).unwrap()
}

/// Asserts two grid models equal: masses bit for bit, member sets equal.
fn assert_same_model(got: &GridModel, want: &GridModel) -> Result<(), String> {
    prop_assert_eq!(got.subscriber_count(), want.subscriber_count());
    prop_assert_eq!(got.grid().cell_count(), want.grid().cell_count());
    for i in 0..want.grid().cell_count() {
        let c = CellId(i);
        prop_assert_eq!(
            got.mass(c).to_bits(),
            want.mass(c).to_bits(),
            "mass of {}",
            c
        );
        prop_assert_eq!(got.members(c), want.members(c), "members of {}", c);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compile walks each covering group's clamped rectangle once and
    /// ORs in its members; the model must equal one walk per live
    /// subscription after `build()` and after churn plus `recompile()`.
    ///
    /// Populations are duplicate-heavy: the first half of the stub nodes
    /// draw from a small pool (with `x ≤ 5` always in it), so those
    /// rectangles intern and become cover candidates. The other half hold
    /// one-off rectangles, which are subsumed or merged, and whose cells
    /// no heavy subscriber masks. Sides are unbounded, bounded or wholly
    /// outside the space, under the interning-only, subsuming and merging
    /// covering configs.
    #[test]
    fn grid_model_per_group_equals_per_subscription(
        seed in 0u64..50,
        pool in prop::collection::vec((side_strategy(), side_strategy()), 0..6),
        heavy in prop::collection::vec((0usize..64, 0usize..8), 1..100),
        light in prop::collection::vec((0usize..64, side_strategy(), side_strategy()), 0..12),
        churn in prop::collection::vec((0usize..64, 0usize..8, 0usize..200), 0..12),
        merge_idx in 0usize..3,
        min_cover_members in 2usize..5,
        cells in 2usize..7,
    ) {
        let merge_cells = [0, 4, 16][merge_idx];
        let topo = TransitStubConfig::tiny().generate(seed).unwrap();
        let stubs = topo.stub_nodes().to_vec();
        let (heavy_nodes, light_nodes) = stubs.split_at(stubs.len() / 2);
        let mut pool: Vec<Rect> = pool.into_iter().map(|(a, b)| Rect::new(vec![a, b]).unwrap()).collect();
        pool.push(Rect::new(vec![Interval::at_most(5.0), Interval::unbounded()]).unwrap());
        let pick = |n: usize, r: usize| (heavy_nodes[n % heavy_nodes.len()], pool[r % pool.len()].clone());
        let subs = heavy
            .iter()
            .map(|&(n, r)| pick(n, r))
            .chain(light.into_iter().map(|(n, a, b)| {
                (light_nodes[n % light_nodes.len()], Rect::new(vec![a, b]).unwrap())
            }));
        let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
        let mut broker = Broker::builder(topo, space)
            .covering(CoveringConfig { merge_cells, min_cover_members, ..CoveringConfig::default() })
            .grid_cells(cells)
            .subscriptions(subs)
            .build()
            .unwrap();
        assert_same_model(broker.grid_model(), &per_subscription_model(&broker, cells))?;

        for (n, r, victim) in churn {
            let (node, rect) = pick(n, r);
            broker.subscribe(node, rect).unwrap();
            let live: Vec<_> = broker.registry().live().map(|(h, _, _)| h).collect();
            broker.unsubscribe(live[victim % live.len()]).unwrap();
        }
        broker.recompile().unwrap();
        assert_same_model(broker.grid_model(), &per_subscription_model(&broker, cells))?;
    }
}
