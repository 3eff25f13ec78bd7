//! Chaos property tests for the fault-injection layer: arbitrary fault
//! plans (cuts, node failures, degradations, repairs) against an
//! independent from-scratch reachability oracle. The contract under any
//! fault state is *exactly-once-to-reachable*: every matched subscriber
//! the surviving network can reach is in `interested` (delivered once),
//! every other matched subscriber is in `unreachable`, and no cost is
//! ever infinite.

#[path = "common/reach.rs"]
mod reach;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, BrokerError, Decision};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{FaultEvent, FaultPlan, NetError, NodeId, Topology, TransitStubConfig};

/// (node pick, (x origin, width), (y origin, height)).
type SubSpec = (usize, (f64, f64), (f64, f64));

/// One raw fault instruction: (step, kind, node pick a, node pick b).
/// `kind` maps onto cut / down / degrade / restore / up.
type FaultSpec = (u8, u8, usize, usize);

#[derive(Debug, Clone)]
struct Scenario {
    topo_seed: u64,
    threshold: f64,
    groups: usize,
    subs: Vec<SubSpec>,
    events: Vec<(f64, f64)>,
    faults: Vec<FaultSpec>,
    /// Churn instruction per event index: Some(spec) subscribes before
    /// that publish; an unsubscribe fires when the rect is degenerate.
    churn: Vec<(usize, SubSpec)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let sub = (
        0usize..100,
        (0.0f64..9.0, 0.5f64..8.0),
        (0.0f64..9.0, 0.5f64..8.0),
    );
    (
        0u64..30,
        0.0f64..=1.0,
        1usize..4,
        prop::collection::vec(sub.clone(), 2..20),
        prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..25),
        prop::collection::vec((0u8..25, 0u8..5, 0usize..100, 0usize..100), 0..12),
        prop::collection::vec((0usize..25, sub), 0..4),
    )
        .prop_map(
            |(topo_seed, threshold, groups, subs, events, faults, churn)| Scenario {
                topo_seed,
                threshold,
                groups,
                subs,
                events,
                faults,
                churn,
            },
        )
}

fn build(s: &Scenario) -> (Broker, Topology) {
    let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let mut b = Broker::builder(topo.clone(), space)
        .threshold(s.threshold)
        .clustering(
            ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, s.groups).with_max_cells(30),
        )
        .grid_cells(5);
    for (n, (x, w), (y, h)) in &s.subs {
        let node = nodes[n % nodes.len()];
        let rect = Rect::from_corners(&[*x, *y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap();
        b = b.subscription(node, rect);
    }
    (b.build().unwrap(), topo)
}

/// Resolves a raw fault spec against the topology. Node picks index the
/// full node range, so cuts may name non-adjacent pairs (a no-op for the
/// overlay and for the oracle alike).
fn resolve_fault(spec: &FaultSpec, nodes: usize) -> (u64, FaultEvent) {
    let (at, kind, a, b) = *spec;
    let a = NodeId((a % nodes) as u32);
    let b = NodeId((b % nodes) as u32);
    let event = match kind {
        0 => FaultEvent::LinkCut { a, b },
        1 => FaultEvent::NodeDown { node: a },
        2 => FaultEvent::LinkDegrade {
            a,
            b,
            factor: 2.0 + (at as f64),
        },
        3 => FaultEvent::LinkRestore { a, b },
        _ => FaultEvent::NodeUp { node: a },
    };
    (at as u64, event)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once-to-reachable under arbitrary fault plans, including
    /// subscriptions churning mid-plan.
    #[test]
    fn delivery_covers_exactly_the_reachable_matched_set(s in scenario_strategy()) {
        let (mut broker, topo) = build(&s);
        let nodes = topo.graph().node_count();
        let stub_nodes = topo.stub_nodes().to_vec();
        let publisher = broker.publisher();

        let mut plan = FaultPlan::new();
        let mut schedule: Vec<(u64, FaultEvent)> = Vec::new();
        for spec in &s.faults {
            let (at, event) = resolve_fault(spec, nodes);
            plan.push(at, event);
            schedule.push((at, event));
        }
        schedule.sort_by_key(|&(at, _)| at);
        broker.install_fault_plan(plan).unwrap();

        let mut fired = 0usize;
        let mut live_handles = Vec::new();

        for (step, &(x, y)) in s.events.iter().enumerate() {
            // Mid-plan churn: mutate the live subscription set.
            for (at, (n, (sx, w), (sy, h))) in &s.churn {
                if *at != step {
                    continue;
                }
                if step % 2 == 0 || live_handles.is_empty() {
                    let node = stub_nodes[n % stub_nodes.len()];
                    let rect = Rect::from_corners(
                        &[*sx, *sy],
                        &[(sx + w).min(10.0), (sy + h).min(10.0)],
                    )
                    .unwrap();
                    live_handles.push(broker.subscribe(node, rect).unwrap());
                } else {
                    let h = live_handles.remove(n % live_handles.len());
                    broker.unsubscribe(h).unwrap();
                }
            }

            // Mirror the broker's fault clock: events due at `step` fire
            // before the publication.
            while fired < schedule.len() && schedule[fired].0 <= step as u64 {
                fired += 1;
            }
            // The from-scratch oracle: BFS over the pristine graph minus
            // every fault fired so far. A down publisher reaches nothing,
            // not even itself.
            let fired_events = schedule[..fired].iter().map(|(_, event)| event);
            let reachable = reach::reachable(topo.graph(), fired_events, publisher);

            let event = Point::new(vec![x, y]).unwrap();
            let (_, matched) = broker.match_only(&event).unwrap();
            match broker.publish(&event) {
                Err(BrokerError::Net(NetError::Unreachable { node })) => {
                    // Only a downed publisher aborts a publish.
                    prop_assert_eq!(node, publisher.0);
                    prop_assert!(!reachable.contains(&publisher));
                    continue;
                }
                Err(e) => return Err(format!("unexpected error: {e}")),
                Ok(out) => {
                    prop_assert!(reachable.contains(&publisher));
                    // Partition: interested ∪ unreachable == matched,
                    // split exactly by oracle reachability.
                    let mut got: Vec<NodeId> =
                        out.interested.iter().chain(out.unreachable.iter()).copied().collect();
                    got.sort_by_key(|n| n.0);
                    let mut want = matched.clone();
                    want.sort_by_key(|n| n.0);
                    prop_assert_eq!(&got, &want);
                    for n in &out.interested {
                        prop_assert!(
                            reachable.contains(n),
                            "delivered to oracle-unreachable node {}", n.0
                        );
                    }
                    for n in &out.unreachable {
                        prop_assert!(
                            !reachable.contains(n),
                            "skipped oracle-reachable node {}", n.0
                        );
                    }
                    // Degraded costs are always finite.
                    prop_assert!(out.costs.scheme.is_finite());
                    prop_assert!(out.costs.unicast.is_finite());
                    prop_assert!(out.costs.ideal.is_finite());
                    if out.interested.is_empty() {
                        prop_assert!(matches!(out.decision, Decision::Drop));
                    }
                }
            }
        }

        // The report reconciles across every delivery flavor.
        let r = broker.report();
        prop_assert_eq!(
            r.messages,
            r.dropped + r.unicasts + r.multicasts + r.partial_multicasts
        );
    }
}
