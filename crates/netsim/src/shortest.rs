//! The all-pairs distance table over a compiled [`FlatNet`].

use crate::{DijkstraScratch, FlatNet, NodeId, NO_PARENT};

/// All-pairs shortest distances: row `s` holds `dist(s, t)` for every
/// node `t` (`+∞` where unreachable).
///
/// One [`FlatNet::sssp_into`] per source — `O(V·E log V)` — with the rows
/// computed in parallel on the `pubsub-parallel` scoped pool
/// (`threads = None` means available parallelism). Each row is the one a
/// single-source run produces, bit for bit, for any thread count.
/// Application-level multicast prices its overlay over this table (see
/// [`crate::alm_tree_cost`]).
pub fn all_pairs_dists(net: &FlatNet, threads: Option<usize>) -> Vec<Vec<f64>> {
    let n = net.node_count();
    let sources: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    pubsub_parallel::map_with_scratch(
        &sources,
        pubsub_parallel::effective_threads(threads),
        DijkstraScratch::new,
        |&source, scratch| {
            let mut dist = vec![f64::INFINITY; n];
            let mut parent = vec![NO_PARENT; n];
            let mut up_cost = vec![0.0; n];
            net.sssp_into(source, scratch, &mut dist, &mut parent, &mut up_cost);
            dist
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, SptTable};

    /// A small weighted graph with a known structure:
    ///
    /// ```text
    ///   0 --1-- 1 --1-- 2
    ///   |               |
    ///   +------10-------+
    /// ```
    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 10.0).unwrap();
        g
    }

    fn spt(g: &Graph, source: NodeId) -> SptTable {
        SptTable::build(&FlatNet::compile(g), &[source], Some(1))
    }

    #[test]
    fn dijkstra_prefers_cheap_two_hop_path() {
        let table = spt(&triangle(), NodeId(0));
        let sp = table.view(NodeId(0)).unwrap();
        assert_eq!(sp.dist(NodeId(0)), 0.0);
        assert_eq!(sp.dist(NodeId(1)), 1.0);
        assert_eq!(sp.dist(NodeId(2)), 2.0);
        assert_eq!(sp.parent(NodeId(2)), Some(NodeId(1)));
        assert_eq!(sp.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(sp.parent(NodeId(0)), None);
        assert_eq!(sp.source(), NodeId(0));
        assert_eq!(sp.node_count(), 3);
    }

    #[test]
    fn unreachable_nodes() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let table = spt(&g, NodeId(0));
        let sp = table.view(NodeId(0)).unwrap();
        assert!(!sp.reachable(NodeId(2)));
        assert_eq!(sp.parent(NodeId(2)), None);
        assert_eq!(sp.dist(NodeId(2)), f64::INFINITY);
        assert_eq!(
            all_pairs_dists(&FlatNet::compile(&g), Some(1))[2][0],
            f64::INFINITY
        );
    }

    #[test]
    fn parallel_edges_use_cheapest() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 5.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        let table = spt(&g, NodeId(0));
        assert_eq!(table.view(NodeId(0)).unwrap().dist(NodeId(1)), 2.0);
    }

    #[test]
    fn all_pairs_matches_dijkstra() {
        // Deterministic pseudo-random graph.
        let n = 20;
        let mut g = Graph::new(n);
        let mut x = 12345u64;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 1..n {
            let j = (rnd() * i as f64) as usize;
            g.add_edge(NodeId(i as u32), NodeId(j as u32), 1.0 + rnd() * 9.0)
                .unwrap();
        }
        for _ in 0..15 {
            let a = (rnd() * n as f64) as usize % n;
            let b = (rnd() * n as f64) as usize % n;
            if a != b {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), 1.0 + rnd() * 9.0)
                    .unwrap();
            }
        }
        let net = FlatNet::compile(&g);
        let sources: Vec<NodeId> = g.node_ids().collect();
        let table = SptTable::build(&net, &sources, Some(1));
        for threads in [Some(1), Some(2), None] {
            let apsp = all_pairs_dists(&net, threads);
            for (s, row) in apsp.iter().enumerate().take(n) {
                let sp = table.view(NodeId(s as u32)).unwrap();
                for (t, &d) in row.iter().enumerate().take(n) {
                    // Bit-identical to the single-source rows.
                    assert_eq!(
                        sp.dist(NodeId(t as u32)).to_bits(),
                        d.to_bits(),
                        "s={s} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn spt_distances_are_consistent_with_parents() {
        let g = triangle();
        let table = spt(&g, NodeId(0));
        let sp = table.view(NodeId(0)).unwrap();
        for t in 1..3u32 {
            if let Some(p) = sp.parent(NodeId(t)) {
                // dist(child) = dist(parent) + cost(parent, child)
                let edge_cost = g
                    .neighbors(NodeId(t))
                    .filter(|&(n, _)| n == p)
                    .map(|(_, c)| c)
                    .fold(f64::INFINITY, f64::min);
                assert!((sp.dist(NodeId(t)) - sp.dist(p) - edge_cost).abs() < 1e-9);
                assert_eq!(sp.up_cost(NodeId(t)), sp.dist(NodeId(t)) - sp.dist(p));
            }
        }
    }
}
