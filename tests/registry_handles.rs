//! Model-based property tests for subscription-handle safety: random
//! interleavings of subscribe / unsubscribe / recompile, checked against
//! a plain list model. Stale and double-freed handles must always be
//! rejected, live handles must always resolve, and the registry must
//! agree with the model after every step.

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, BrokerError, SubscriptionHandle};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{NodeId, TransitStubConfig};

fn build(topo_seed: u64) -> (Broker, Vec<NodeId>) {
    let topo = TransitStubConfig::tiny().generate(topo_seed).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let broker = Broker::builder(topo, space)
        .threshold(0.15)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5)
        .subscription(
            nodes[0],
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
        )
        .build()
        .unwrap();
    (broker, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn handles_stay_safe_under_random_churn(
        topo_seed in 0u64..20,
        ops in prop::collection::vec(
            (0u8..4, 0usize..100, (0.0f64..9.0, 0.5f64..8.0), (0.0f64..9.0, 0.5f64..8.0)),
            1..40,
        ),
        probe in (0.0f64..10.0, 0.0f64..10.0),
    ) {
        let (mut broker, nodes) = build(topo_seed);
        // The model: live handles with their (node, rect), plus every
        // handle ever freed.
        let mut live: Vec<(SubscriptionHandle, NodeId, Rect)> = broker
            .registry()
            .live()
            .map(|(h, n, r)| (h, n, r.clone()))
            .collect();
        let mut dead: Vec<SubscriptionHandle> = Vec::new();

        for (kind, pick, (x, w), (y, h)) in &ops {
            match kind {
                0 | 3 => {
                    let node = nodes[pick % nodes.len()];
                    let rect = Rect::from_corners(
                        &[*x, *y],
                        &[(x + w).min(10.0), (y + h).min(10.0)],
                    )
                    .unwrap();
                    let handle = broker.subscribe(node, rect.clone()).unwrap();
                    // A fresh handle never aliases a live or dead one.
                    prop_assert!(live.iter().all(|(hh, _, _)| *hh != handle));
                    prop_assert!(dead.iter().all(|hh| *hh != handle));
                    live.push((handle, node, rect));
                    if *kind == 3 {
                        broker.recompile().unwrap();
                    }
                }
                1 if !live.is_empty() => {
                    let (handle, _, _) = live.remove(pick % live.len());
                    broker.unsubscribe(handle).unwrap();
                    dead.push(handle);
                }
                _ if !dead.is_empty() => {
                    // Stale handle: must fail, must not disturb state.
                    let handle = dead[pick % dead.len()];
                    let err = broker.unsubscribe(handle).unwrap_err();
                    prop_assert!(matches!(err, BrokerError::UnknownHandle { .. }));
                }
                _ => {}
            }

            // Registry agrees with the model after every operation.
            let got: Vec<(SubscriptionHandle, NodeId)> = broker
                .registry()
                .live()
                .map(|(hh, n, _)| (hh, n))
                .collect();
            let mut want: Vec<(SubscriptionHandle, NodeId)> =
                live.iter().map(|(hh, n, _)| (*hh, *n)).collect();
            // `live()` iterates in insertion order; model removal keeps
            // relative order, so both sides match element-wise after a
            // stable sort by handle.
            let mut got_sorted = got.clone();
            got_sorted.sort_by_key(|(hh, _)| hh.raw());
            want.sort_by_key(|(hh, _)| hh.raw());
            prop_assert_eq!(got_sorted, want);
        }

        // Matching only ever reaches live subscribers.
        let event = Point::new(vec![probe.0, probe.1]).unwrap();
        let (subs, matched) = broker.match_only(&event).unwrap();
        for n in &matched {
            prop_assert!(live.iter().any(|(_, node, _)| node == n));
        }
        // And matched subscription ids resolve to live handles.
        for id in &subs {
            if let Some(handle) = broker.handle_of(*id) {
                prop_assert!(live.iter().any(|(hh, _, _)| *hh == handle));
            }
        }
    }
}
