//! The `O(V^3)` Floyd–Warshall all-pairs table: the oracle for the
//! product's repeated-Dijkstra `all_pairs_dists`. It sums paths in a
//! different order, so it agrees to a tolerance, not bit for bit.

use pubsub::netsim::{EdgeId, Graph};

/// All-pairs shortest distances, `+∞` where unreachable.
pub fn floyd_warshall(graph: &Graph) -> Vec<Vec<f64>> {
    let n = graph.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for id in 0..graph.edge_count() {
        let (a, b, c) = graph.edge(EdgeId(id as u32));
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if c < d[ai][bi] {
            d[ai][bi] = c;
            d[bi][ai] = c;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if d[i][k].is_infinite() {
                continue;
            }
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}
