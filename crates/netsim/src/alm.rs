//! Application-level multicast (ALM) cost model — extension.
//!
//! The paper notes its results are "relevant to two flavors of
//! multicasting, network supported and application level" (citing ALMI).
//! In ALM the group members form an overlay tree; every overlay hop is a
//! plain unicast over the underlay, so a link shared by two overlay hops is
//! paid twice. We build the overlay greedily (Prim's algorithm over the
//! metric closure of the member set plus the publisher), which is the
//! standard mesh-first/tree-second ALMI construction collapsed to its tree
//! step.

use crate::NodeId;

/// Cost of delivering one message from `source` to all `members` over a
/// greedy minimum-spanning overlay tree, with `dist` the all-pairs
/// distance table of [`crate::all_pairs_dists`].
///
/// Each overlay edge costs the shortest-path distance between its
/// endpoints; unlike dense-mode multicast, underlay links shared by
/// distinct overlay edges are paid once per overlay edge. Duplicate members
/// and members equal to the source are ignored. Unreachable members yield
/// `+∞`.
///
/// # Panics
///
/// Panics if `source` or a member id is out of range for the table.
pub fn alm_tree_cost(dist: &[Vec<f64>], source: NodeId, members: &[NodeId]) -> f64 {
    let mut uniq: Vec<usize> = Vec::new();
    for &m in members {
        let i = m.0 as usize;
        if m != source && !uniq.contains(&i) {
            uniq.push(i);
        }
    }
    if uniq.is_empty() {
        return 0.0;
    }
    // Prim over {source} ∪ members.
    let n = uniq.len();
    let mut in_tree = vec![false; n];
    let mut best: Vec<f64> = uniq.iter().map(|&m| dist[source.0 as usize][m]).collect();
    let mut total = 0.0;
    for _ in 0..n {
        let mut pick = usize::MAX;
        let mut pick_d = f64::INFINITY;
        for i in 0..n {
            if !in_tree[i] && best[i] < pick_d {
                pick_d = best[i];
                pick = i;
            }
        }
        if pick == usize::MAX {
            // Every member left is cut off from the overlay.
            return f64::INFINITY;
        }
        in_tree[pick] = true;
        total += pick_d;
        for i in 0..n {
            if !in_tree[i] {
                best[i] = best[i].min(dist[uniq[pick]][uniq[i]]);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        all_pairs_dists, multicast_tree_cost_flat, unicast_cost_flat, CostScratch, FlatNet, Graph,
        SptTable,
    };

    /// Line graph 0-1-2-3 with unit costs.
    fn line() -> Graph {
        let mut g = Graph::new(4);
        for i in 0..3u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        g
    }

    fn dists(g: &Graph) -> Vec<Vec<f64>> {
        all_pairs_dists(&FlatNet::compile(g), Some(1))
    }

    #[test]
    fn line_graph_overlay_chains_members() {
        let d = dists(&line());
        // Members 1,2,3 from source 0: greedy overlay is the chain
        // 0->1->2->3, total 3 (one hop each).
        assert_eq!(
            alm_tree_cost(&d, NodeId(0), &[NodeId(1), NodeId(2), NodeId(3)]),
            3.0
        );
        // Without member 1 and 2 relaying, 0->3 costs 3 directly.
        assert_eq!(alm_tree_cost(&d, NodeId(0), &[NodeId(3)]), 3.0);
        // Member 2 relays to 3: 0->2 (2) + 2->3 (1).
        assert_eq!(alm_tree_cost(&d, NodeId(0), &[NodeId(2), NodeId(3)]), 3.0);
    }

    #[test]
    fn alm_between_ip_multicast_and_unicast() {
        // Star trunk where sharing matters.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 10.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        let net = FlatNet::compile(&g);
        let table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let spt = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        let members = [NodeId(2), NodeId(3)];
        let ip = multicast_tree_cost_flat(spt, &members, &mut scratch);
        let alm = alm_tree_cost(&all_pairs_dists(&net, Some(1)), NodeId(0), &members);
        let uni = unicast_cost_flat(spt, &members, &mut scratch);
        // IP multicast pays the trunk once (12), ALM pays it once because
        // member 2 relays to 3 (11 + 2 = 13 vs unicast 22).
        assert_eq!(ip, 12.0);
        assert_eq!(alm, 13.0);
        assert_eq!(uni, 22.0);
        assert!(ip <= alm && alm <= uni);
    }

    #[test]
    fn degenerate_inputs() {
        let d = dists(&line());
        assert_eq!(alm_tree_cost(&d, NodeId(0), &[]), 0.0);
        assert_eq!(alm_tree_cost(&d, NodeId(0), &[NodeId(0)]), 0.0);
        assert_eq!(
            alm_tree_cost(&d, NodeId(0), &[NodeId(1), NodeId(1)]),
            alm_tree_cost(&d, NodeId(0), &[NodeId(1)])
        );
    }

    #[test]
    fn unreachable_member_is_infinite() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let d = dists(&g);
        assert_eq!(alm_tree_cost(&d, NodeId(0), &[NodeId(2)]), f64::INFINITY);
        // A reachable member joins first; the cut-off one still prices
        // the overlay at +∞ rather than indexing past the members.
        assert_eq!(
            alm_tree_cost(&d, NodeId(0), &[NodeId(1), NodeId(2)]),
            f64::INFINITY
        );
    }
}
