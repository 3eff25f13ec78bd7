//! The matching reference the parity suites check brokers against: a
//! `LinearScan` over the clamped rectangles of a broker's live
//! subscriptions.

use std::collections::HashMap;

use pubsub::core::{Broker, PublishOutcome};
use pubsub::geom::{Point, Rect};
use pubsub::netsim::NodeId;
use pubsub::stree::{Entry, EntryId, LinearScan, SpatialIndex};

/// A linear scan over one broker state's live subscriptions, each
/// clamped to the broker's space and keyed by its registry handle.
pub struct ScanOracle {
    scan: LinearScan,
    owners: HashMap<u32, NodeId>,
}

impl ScanOracle {
    /// Snapshots `broker`'s live subscriptions; rebuild after churn.
    pub fn of(broker: &Broker) -> Self {
        let space = broker.space();
        let mut owners = HashMap::new();
        let mut entries = Vec::new();
        for (handle, node, rect) in broker.registry().live() {
            owners.insert(handle.raw(), node);
            let rect = Rect::new(rect.to_vec()).expect("registered rects have sides");
            entries.push(Entry::new(space.clamp(&rect), EntryId(handle.raw())));
        }
        ScanOracle {
            scan: LinearScan::new(entries).expect("one space, one dimensionality"),
            owners,
        }
    }

    /// Checks one outcome `broker` produced for `event` while it held the
    /// scanned subscriptions: the matched ids name exactly the scan's
    /// hits, and the interested plus unreachable nodes are exactly their
    /// owners.
    pub fn check(
        &self,
        broker: &Broker,
        event: &Point,
        outcome: &PublishOutcome,
    ) -> Result<(), String> {
        let mut want: Vec<u32> = self.scan.query_point(event).iter().map(|e| e.0).collect();
        want.sort_unstable();
        let mut got: Vec<u32> = outcome
            .matched_subscriptions
            .iter()
            .map(|&id| broker.handle_of(id).map_or(u32::MAX, |h| h.raw()))
            .collect();
        got.sort_unstable();
        if got != want {
            return Err(format!(
                "event {event:?}: matched handles {got:?}, scan {want:?}"
            ));
        }
        let mut nodes: Vec<NodeId> = want.iter().map(|h| self.owners[h]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut seen = outcome.interested.clone();
        seen.extend_from_slice(&outcome.unreachable);
        seen.sort_unstable();
        if seen != nodes {
            return Err(format!(
                "event {event:?}: interested + unreachable {seen:?}, scan owners {nodes:?}"
            ));
        }
        Ok(())
    }
}
