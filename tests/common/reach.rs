//! The reachability oracle for fault plans: BFS over the pristine graph
//! minus the cut links and down nodes, recomputed from scratch.

use std::collections::HashSet;

use pubsub::netsim::{FaultEvent, Graph, NodeId};

/// The nodes `source` reaches once `events` have fired in order. Empty
/// when `source` itself is down; degradations change costs, never
/// connectivity.
pub fn reachable<'a>(
    graph: &Graph,
    events: impl IntoIterator<Item = &'a FaultEvent>,
    source: NodeId,
) -> HashSet<NodeId> {
    let mut cut = HashSet::new();
    let mut down = HashSet::new();
    for event in events {
        match *event {
            FaultEvent::LinkCut { a, b } => {
                cut.insert((a.min(b), a.max(b)));
            }
            FaultEvent::LinkRestore { a, b } => {
                cut.remove(&(a.min(b), a.max(b)));
            }
            FaultEvent::LinkDegrade { .. } => {}
            FaultEvent::NodeDown { node } => {
                down.insert(node);
            }
            FaultEvent::NodeUp { node } => {
                down.remove(&node);
            }
        }
    }
    let mut seen = HashSet::new();
    if down.contains(&source) {
        return seen;
    }
    seen.insert(source);
    let mut stack = vec![source];
    while let Some(n) = stack.pop() {
        for (m, _) in graph.neighbors(n) {
            if !down.contains(&m) && !cut.contains(&(n.min(m), n.max(m))) && seen.insert(m) {
                stack.push(m);
            }
        }
    }
    seen
}
