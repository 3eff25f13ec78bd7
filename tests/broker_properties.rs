//! Property tests over the whole broker: random small topologies, random
//! subscription layouts, random thresholds — the per-message contracts
//! must hold for all of them.

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, Decision, DistributionPolicy, UnicastReason};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::TransitStubConfig;

/// (node pick, (x origin, width), (y origin, height)).
type SubSpec = (usize, (f64, f64), (f64, f64));

#[derive(Debug, Clone)]
struct Scenario {
    topo_seed: u64,
    threshold: f64,
    groups: usize,
    algorithm: ClusteringAlgorithm,
    subs: Vec<SubSpec>,
    events: Vec<(f64, f64)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let sub = (
        0usize..100,
        (0.0f64..9.0, 0.5f64..8.0),
        (0.0f64..9.0, 0.5f64..8.0),
    );
    (
        0u64..50,
        0.0f64..=1.0,
        1usize..5,
        0usize..4,
        prop::collection::vec(sub, 1..25),
        prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..30),
    )
        .prop_map(
            |(topo_seed, threshold, groups, alg, subs, events)| Scenario {
                topo_seed,
                threshold,
                groups,
                algorithm: ClusteringAlgorithm::ALL[alg],
                subs,
                events,
            },
        )
}

fn build(s: &Scenario) -> Broker {
    let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let mut b = Broker::builder(topo, space)
        .threshold(s.threshold)
        .clustering(ClusteringConfig::new(s.algorithm, s.groups).with_max_cells(30))
        .grid_cells(5);
    for (n, (x, w), (y, h)) in &s.subs {
        let node = nodes[n % nodes.len()];
        let rect = Rect::from_corners(&[*x, *y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap();
        b = b.subscription(node, rect);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn per_message_contracts_hold(s in scenario_strategy()) {
        let mut broker = build(&s);
        for &(x, y) in &s.events {
            let event = Point::new(vec![x, y]).unwrap();
            let out = broker.publish(&event).unwrap();

            // Cost ordering.
            prop_assert!(out.costs.ideal <= out.costs.unicast + 1e-9);
            prop_assert!(out.costs.scheme >= out.costs.ideal - 1e-9);
            prop_assert!(out.costs.scheme.is_finite());

            // Decision semantics.
            match &out.decision {
                Decision::Drop => {
                    prop_assert!(out.interested.is_empty());
                    prop_assert_eq!(out.costs.scheme, 0.0);
                }
                Decision::Unicast { reason } => {
                    prop_assert!(!out.interested.is_empty());
                    prop_assert!((out.costs.scheme - out.costs.unicast).abs() < 1e-9);
                    match reason {
                        UnicastReason::CatchAll => {
                            prop_assert_eq!(out.group_region, None);
                        }
                        UnicastReason::BelowThreshold => {
                            let q = out.group_region.expect("threshold unicast has a group");
                            let size = broker.groups().members(q).len();
                            let ratio = out.interested.len() as f64 / size.max(1) as f64;
                            prop_assert!(
                                ratio < broker.policy().threshold() || size == 0
                            );
                        }
                        UnicastReason::GroupSevered => {
                            prop_assert!(false, "severed groups need an installed fault plan");
                        }
                    }
                }
                Decision::Multicast { group } => {
                    prop_assert!(!out.interested.is_empty());
                    prop_assert_eq!(out.group_region, Some(*group));
                    let members = broker.groups().members(*group);
                    let ratio = out.interested.len() as f64 / members.len().max(1) as f64;
                    prop_assert!(
                        ratio >= broker.policy().threshold()
                            || (members.is_empty() && broker.policy().threshold() == 0.0)
                    );
                    // Containment: every interested node is a group member.
                    for n in &out.interested {
                        prop_assert!(members.binary_search(n).is_ok());
                    }
                }
                Decision::PartialMulticast { .. } => {
                    prop_assert!(false, "partial multicast needs an installed fault plan");
                }
            }

            // Matched subscriptions' owners are exactly the interested set.
            let mut owners: Vec<_> = out
                .matched_subscriptions
                .iter()
                .map(|&id| broker.matcher().owner(id))
                .collect();
            owners.sort();
            owners.dedup();
            prop_assert_eq!(owners, out.interested.clone());
        }

        // Report counters reconcile.
        let r = broker.report();
        prop_assert_eq!(r.messages as usize, s.events.len());
        prop_assert_eq!(r.messages, r.dropped + r.unicasts + r.multicasts);
    }

    #[test]
    fn publish_batch_matches_sequential_publish(
        s in scenario_strategy(),
        threads in prop::option::of(1usize..6),
    ) {
        // The batched pipeline (parallel matching, sequential fold) must
        // produce byte-identical outcomes and cost reports to publishing
        // the same events one at a time — for any thread count.
        let events: Vec<Point> = s
            .events
            .iter()
            .map(|&(x, y)| Point::new(vec![x, y]).unwrap())
            .collect();

        let mut sequential = build(&s);
        let expected: Vec<_> = events
            .iter()
            .map(|e| sequential.publish(e).unwrap())
            .collect();

        let mut batched = build(&s);
        let got = batched.publish_batch(&events, threads).unwrap();

        prop_assert_eq!(got, expected);
        prop_assert_eq!(batched.report(), sequential.report());
    }

    #[test]
    fn threshold_monotonicity_in_multicast_count(s in scenario_strategy()) {
        // Raising the threshold can only reduce the number of multicasts
        // on the same event stream.
        let mut broker = build(&s);
        let events: Vec<Point> = s
            .events
            .iter()
            .map(|&(x, y)| Point::new(vec![x, y]).unwrap())
            .collect();
        let mut last = u64::MAX;
        for t in [0.0, 0.25, 0.5, 1.0] {
            *broker.policy_mut() = DistributionPolicy::new(t).unwrap();
            broker.reset_report();
            for e in &events {
                broker.publish(e).unwrap();
            }
            let multicasts = broker.report().multicasts;
            prop_assert!(multicasts <= last);
            last = multicasts;
        }
    }
}
