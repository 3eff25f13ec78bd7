//! The two delivery cost models of the paper's experiments (§5.2).
//!
//! Costs are sums of edge costs over the links a message traverses:
//!
//! * **unicast** — one message per receiver, each following the shortest
//!   path from the publisher, links are paid once *per message* (no
//!   sharing);
//! * **dense-mode multicast** — one message flooded down the shortest-path
//!   tree rooted at the publisher; each link of the union of root-paths is
//!   paid exactly once.
//!
//! The paper's "100% improvement" reference point — a multicast group
//! formed of exactly the interested subscribers — is
//! [`multicast_tree_cost_flat`] applied to the matched set itself.
//!
//! Every walk here reads a precomputed [`SptView`] and marks visited nodes
//! in a reusable [`CostScratch`], so costing an event allocates nothing.

use crate::{NodeId, SptView};

/// Reusable epoch-stamped visited marks for the cost walks.
///
/// A mark is "set" iff it equals the current epoch, so clearing between
/// calls is a single counter increment instead of a fresh
/// `vec![false; n]`, and the buffers are allocated once per broker, not
/// once per event.
///
/// Two mark arrays are kept because [`unicast_and_tree_cost`] needs
/// independent "already billed" (unicast dedup) and "already in tree"
/// (tree-walk dedup) sets in one pass.
#[derive(Clone, Debug, Default)]
pub struct CostScratch {
    seen: Vec<u32>,
    tree: Vec<u32>,
    epoch: u32,
}

impl CostScratch {
    /// Creates an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new walk over `n` nodes: bumps the epoch (resetting the
    /// marks wholesale on wrap-around or size change) and returns it.
    #[inline]
    fn begin(&mut self, n: usize) -> u32 {
        if self.seen.len() != n {
            self.seen.clear();
            self.seen.resize(n, 0);
            self.tree.clear();
            self.tree.resize(n, 0);
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.tree.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The unicast and dense-mode tree costs of one receiver set, computed
/// together by [`unicast_and_tree_cost`] / [`cost_events_into`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PairCost {
    /// `Σ_r dist(source, r)` — see [`unicast_cost_flat`].
    pub unicast: f64,
    /// Dense-mode SPT tree cost — see [`multicast_tree_cost_flat`].
    pub tree: f64,
}

/// Total cost of unicasting one message to each receiver along its
/// shortest path in `view`: `Σ_r dist(publisher, r)`.
///
/// Receivers equal to the source cost nothing; duplicate receivers are
/// counted once (a subscriber node receives one copy regardless of how many
/// of its subscriptions matched). Unreachable receivers contribute `+∞`,
/// which surfaces configuration errors loudly rather than silently.
pub fn unicast_cost_flat(
    view: SptView<'_>,
    receivers: &[NodeId],
    scratch: &mut CostScratch,
) -> f64 {
    let epoch = scratch.begin(view.node_count());
    let dist = view.raw_dist();
    let source = view.source();
    let mut total = 0.0;
    for &r in receivers {
        let ri = r.0 as usize;
        if r == source || scratch.seen[ri] == epoch {
            continue;
        }
        scratch.seen[ri] = epoch;
        total += dist[ri];
    }
    total
}

/// Total cost of one dense-mode multicast to `receivers`: the sum of edge
/// costs over the union of shortest paths from the publisher to each
/// receiver in `view` (each shared link paid once). Unreachable receivers
/// contribute `+∞`.
///
/// Each receiver's parent chain is walked once, stopping at the first
/// epoch-stamped node, and every tree edge is paid via the precomputed
/// `up_cost` row (the `dist(child) - dist(parent)` subtraction, done once
/// at table-build time).
pub fn multicast_tree_cost_flat(
    view: SptView<'_>,
    receivers: &[NodeId],
    scratch: &mut CostScratch,
) -> f64 {
    let epoch = scratch.begin(view.node_count());
    scratch.tree[view.source().0 as usize] = epoch;
    let parent = view.raw_parent();
    let up_cost = view.raw_up_cost();
    let mut total = 0.0;
    for &r in receivers {
        if !view.reachable(r) {
            return f64::INFINITY;
        }
        let mut cur = r.0 as usize;
        while scratch.tree[cur] != epoch {
            scratch.tree[cur] = epoch;
            let p = parent[cur];
            if p == crate::NO_PARENT {
                break;
            }
            total += up_cost[cur];
            cur = p as usize;
        }
    }
    total
}

/// Total cost of one *sparse-mode* multicast: the message is tunneled
/// from the publisher to the rendezvous point (`publisher_to_rp`, a
/// shortest-path unicast) and flooded down the shared tree rooted at the
/// RP (`rp_view`).
///
/// Sparse mode is the other router flavor the paper names (§5.2); it
/// trades per-publisher tree state for the RP detour. An empty receiver
/// set costs nothing; unreachable receivers contribute `+∞`.
pub fn sparse_mode_cost_flat(
    rp_view: SptView<'_>,
    publisher_to_rp: f64,
    receivers: &[NodeId],
    scratch: &mut CostScratch,
) -> f64 {
    if receivers.is_empty() {
        return 0.0;
    }
    publisher_to_rp + multicast_tree_cost_flat(rp_view, receivers, scratch)
}

/// Computes [`unicast_cost_flat`] and [`multicast_tree_cost_flat`] for one
/// receiver set in a single pass over the receivers: each receiver's `dist` load
/// is shared between the unicast sum and the reachability check, and no
/// allocation happens. Both accumulators add terms in exactly the order
/// the separate functions would, so the results are bit-identical.
pub fn unicast_and_tree_cost(
    view: SptView<'_>,
    receivers: &[NodeId],
    scratch: &mut CostScratch,
) -> PairCost {
    let epoch = scratch.begin(view.node_count());
    let source = view.source();
    scratch.tree[source.0 as usize] = epoch;
    let dist = view.raw_dist();
    let parent = view.raw_parent();
    let up_cost = view.raw_up_cost();
    let mut unicast = 0.0;
    let mut tree = 0.0;
    let mut tree_infinite = false;
    for &r in receivers {
        let ri = r.0 as usize;
        if r != source && scratch.seen[ri] != epoch {
            scratch.seen[ri] = epoch;
            unicast += dist[ri];
        }
        if !tree_infinite {
            if !dist[ri].is_finite() {
                tree_infinite = true;
            } else {
                let mut cur = ri;
                while scratch.tree[cur] != epoch {
                    scratch.tree[cur] = epoch;
                    let p = parent[cur];
                    if p == crate::NO_PARENT {
                        break;
                    }
                    tree += up_cost[cur];
                    cur = p as usize;
                }
            }
        }
    }
    PairCost {
        unicast,
        tree: if tree_infinite { f64::INFINITY } else { tree },
    }
}

/// Batched costing: [`unicast_and_tree_cost`] over many receiver sets
/// (one per published event) with a single scratch, appending one
/// [`PairCost`] per receiver set without clearing `out`, so a warm
/// buffer makes the whole cost stage allocation-free. The fused publish
/// pipeline's per-worker scratch reuses its pair buffer this way.
pub fn cost_events_into<'a, I>(
    view: SptView<'_>,
    sets: I,
    scratch: &mut CostScratch,
    out: &mut Vec<PairCost>,
) where
    I: IntoIterator<Item = &'a [NodeId]>,
{
    out.extend(
        sets.into_iter()
            .map(|receivers| unicast_and_tree_cost(view, receivers, scratch)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatNet, Graph, SptTable};

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

    /// Rows rooted at 0 (the publisher) and 1 (a rendezvous point).
    fn trunk_table() -> SptTable {
        SptTable::build(
            &FlatNet::compile(&trunk()),
            &[NodeId(0), NodeId(1)],
            Some(1),
        )
    }

    #[test]
    fn unicast_pays_trunk_per_receiver() {
        let table = trunk_table();
        let spt = table.view(NodeId(0)).unwrap();
        let cost = unicast_cost_flat(spt, &[NodeId(2), NodeId(3)], &mut CostScratch::new());
        assert_eq!(cost, (2.0 + 3.0) + (2.0 + 4.0));
    }

    #[test]
    fn multicast_pays_trunk_once() {
        let table = trunk_table();
        let spt = table.view(NodeId(0)).unwrap();
        let cost = multicast_tree_cost_flat(spt, &[NodeId(2), NodeId(3)], &mut CostScratch::new());
        assert_eq!(cost, 2.0 + 3.0 + 4.0);
    }

    #[test]
    fn multicast_never_exceeds_unicast() {
        let table = trunk_table();
        let spt = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        for receivers in [
            vec![NodeId(1)],
            vec![NodeId(2)],
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(3), NodeId(2)],
        ] {
            assert!(
                multicast_tree_cost_flat(spt, &receivers, &mut scratch)
                    <= unicast_cost_flat(spt, &receivers, &mut scratch) + 1e-9
            );
        }
    }

    #[test]
    fn source_and_duplicates_cost_nothing_extra() {
        let table = trunk_table();
        let spt = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        let mut uni = |r: &[NodeId]| unicast_cost_flat(spt, r, &mut scratch);
        assert_eq!(uni(&[NodeId(0)]), 0.0);
        assert_eq!(uni(&[NodeId(2), NodeId(2)]), uni(&[NodeId(2)]));
        let mut tree = |r: &[NodeId]| multicast_tree_cost_flat(spt, r, &mut scratch);
        assert_eq!(tree(&[NodeId(0)]), 0.0);
        assert_eq!(tree(&[NodeId(2), NodeId(2)]), tree(&[NodeId(2)]));
    }

    #[test]
    fn empty_receiver_set_is_free() {
        let table = trunk_table();
        let spt = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        assert_eq!(unicast_cost_flat(spt, &[], &mut scratch), 0.0);
        assert_eq!(multicast_tree_cost_flat(spt, &[], &mut scratch), 0.0);
    }

    #[test]
    fn unreachable_receiver_is_infinite() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let table = SptTable::build(&FlatNet::compile(&g), &[NodeId(0)], Some(1));
        let spt = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        assert_eq!(
            unicast_cost_flat(spt, &[NodeId(2)], &mut scratch),
            f64::INFINITY
        );
        assert_eq!(
            multicast_tree_cost_flat(spt, &[NodeId(2)], &mut scratch),
            f64::INFINITY
        );
    }

    #[test]
    fn sparse_mode_adds_the_rendezvous_detour() {
        let table = trunk_table();
        let (pub_spt, rp_spt) = (
            table.view(NodeId(0)).unwrap(),
            table.view(NodeId(1)).unwrap(),
        );
        let mut scratch = CostScratch::new();
        // RP at node 1: publisher 0 tunnels 0->1 (cost 2), then the shared
        // tree 1->{2,3} costs 3+4.
        let to_rp = pub_spt.dist(NodeId(1));
        let receivers = [NodeId(2), NodeId(3)];
        let cost = sparse_mode_cost_flat(rp_spt, to_rp, &receivers, &mut scratch);
        assert_eq!(cost, 2.0 + 3.0 + 4.0);
        // With RP = publisher, sparse mode equals dense mode.
        let same = sparse_mode_cost_flat(pub_spt, 0.0, &receivers, &mut scratch);
        assert_eq!(
            same,
            multicast_tree_cost_flat(pub_spt, &receivers, &mut scratch)
        );
        // Empty receivers are free even with a positive tunnel cost.
        assert_eq!(sparse_mode_cost_flat(rp_spt, to_rp, &[], &mut scratch), 0.0);
    }

    #[test]
    fn flat_costs_handle_unreachable_receivers() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let net = FlatNet::compile(&g);
        let table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let view = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        let receivers = [NodeId(2), NodeId(1)];
        assert_eq!(
            unicast_cost_flat(view, &receivers, &mut scratch),
            f64::INFINITY
        );
        assert_eq!(
            multicast_tree_cost_flat(view, &receivers, &mut scratch),
            f64::INFINITY
        );
        let pair = unicast_and_tree_cost(view, &receivers, &mut scratch);
        assert_eq!(pair.unicast, f64::INFINITY);
        assert_eq!(pair.tree, f64::INFINITY);
    }

    #[test]
    fn cost_events_batches_with_one_scratch() {
        let table = trunk_table();
        let view = table.view(NodeId(0)).unwrap();
        let sets: Vec<Vec<NodeId>> = vec![
            vec![NodeId(2), NodeId(3)],
            vec![],
            vec![NodeId(1)],
            vec![NodeId(3), NodeId(3), NodeId(2)],
        ];
        let mut scratch = CostScratch::new();
        let mut batched = vec![PairCost {
            unicast: -1.0,
            tree: -1.0,
        }];
        cost_events_into(
            view,
            sets.iter().map(Vec::as_slice),
            &mut scratch,
            &mut batched,
        );
        // Appends after what the buffer already held.
        assert_eq!(batched.len(), 1 + sets.len());
        for (set, pair) in sets.iter().zip(&batched[1..]) {
            let mut fresh = CostScratch::new();
            assert_eq!(pair.unicast, unicast_cost_flat(view, set, &mut fresh));
            assert_eq!(pair.tree, multicast_tree_cost_flat(view, set, &mut fresh));
        }
    }

    #[test]
    fn cost_scratch_survives_epoch_wraparound_and_resize() {
        let table = trunk_table();
        let view = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch {
            epoch: u32::MAX - 2,
            ..CostScratch::new()
        };
        let expected = 2.0 + 3.0 + 4.0;
        for _ in 0..6 {
            assert_eq!(
                multicast_tree_cost_flat(view, &[NodeId(2), NodeId(3)], &mut scratch),
                expected
            );
        }
        // A differently-sized view resets the marks.
        let mut g2 = Graph::new(2);
        g2.add_edge(NodeId(0), NodeId(1), 5.0).unwrap();
        let net2 = FlatNet::compile(&g2);
        let table2 = SptTable::build(&net2, &[NodeId(0)], Some(1));
        let view2 = table2.view(NodeId(0)).unwrap();
        assert_eq!(
            multicast_tree_cost_flat(view2, &[NodeId(1)], &mut scratch),
            5.0
        );
        assert_eq!(
            multicast_tree_cost_flat(view, &[NodeId(2), NodeId(3)], &mut scratch),
            expected
        );
    }

    #[test]
    fn multicast_subset_monotonicity() {
        // Adding receivers can only grow the tree.
        let table = trunk_table();
        let spt = table.view(NodeId(0)).unwrap();
        let mut scratch = CostScratch::new();
        let small = multicast_tree_cost_flat(spt, &[NodeId(2)], &mut scratch);
        let big = multicast_tree_cost_flat(spt, &[NodeId(2), NodeId(3)], &mut scratch);
        assert!(big >= small);
    }
}
