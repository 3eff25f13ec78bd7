//! Integration tests for the extension features: the predicate language
//! feeding the broker, multicast groups kept exact under churn, and the
//! exact cost rule beating a fixed threshold.

use std::collections::BTreeSet;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, DistributionPolicy, Predicate, SubscriptionHandle, SubscriptionSpec};
use pubsub::geom::{Interval, Point, Rect, Space};
use pubsub::netsim::{NodeId, TransitStubConfig};
use pubsub::workload::{stock_space, Modes, SubscriptionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn specs_compile_and_match_through_the_broker() {
    let topology = TransitStubConfig::tiny().generate(3).unwrap();
    let space = stock_space();
    let nodes = topology.stub_nodes().to_vec();

    // "Buy or sell events for name in (9,10], quote between 8 and 10,
    // any volume" — the bst disjunction decomposes into two rectangles.
    let spec = SubscriptionSpec::new()
        .attr(
            "bst",
            Predicate::any_of(vec![
                Interval::new(-1.0, 0.0).unwrap(), // B
                Interval::new(0.0, 1.0).unwrap(),  // S
            ]),
        )
        .attr("name", Predicate::range(9.0, 10.0))
        .attr("quote", Predicate::range(8.0, 10.0));
    assert_eq!(spec.rectangle_count(), 2);
    let rects = spec.compile(&space).unwrap();

    let mut builder = Broker::builder(topology, space);
    for r in rects {
        builder = builder.subscription(nodes[0], r);
    }
    let mut broker = builder.build().unwrap();

    // A matching "buy" event.
    let hit = broker
        .publish(&Point::new(vec![0.0, 9.5, 9.0, 3.0]).unwrap())
        .unwrap();
    assert_eq!(hit.interested, vec![nodes[0]]);
    // Only one of the decomposed rectangles matches (they are disjoint).
    assert_eq!(hit.matched_subscriptions.len(), 1);

    // A "transaction" event (bst = 2) matches neither rectangle.
    let miss = broker
        .publish(&Point::new(vec![2.0, 9.5, 9.0, 3.0]).unwrap())
        .unwrap();
    assert!(miss.interested.is_empty());
}

/// (node pick, x lo, x width, y lo, y height) of one subscription.
type Sub = (usize, f64, f64, f64, f64);

fn sub_rect(&(_, x, w, y, h): &Sub) -> Rect {
    Rect::from_corners(&[x, y], &[x + w, y + h]).unwrap()
}

fn sub() -> impl Strategy<Value = Sub> {
    // Origins reach past the space, so some rectangles are clamped.
    (
        0usize..64,
        -1.0f64..10.0,
        0.2f64..5.0,
        -1.0f64..10.0,
        0.2f64..5.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Between recompiles the multicast groups stay exact: after every
    /// subscribe and unsubscribe, group `q`'s members are the nodes with
    /// a live subscription whose clamped rectangle touches a cell of the
    /// compiled partition's `S_q`. `recluster_fraction(10.0)` keeps the
    /// drift threshold out of reach, so no recompile resets the state.
    #[test]
    fn groups_stay_exact_between_compiles(
        topo_seed in 0u64..20,
        // At least 16, so 160 ops stay under 10 × the live count.
        initial in prop::collection::vec(sub(), 16..40),
        // (unsubscribe?, live pick, new subscription)
        ops in prop::collection::vec((0usize..5, 0usize..1000, sub()), 65..160),
    ) {
        let topology = TransitStubConfig::tiny().generate(topo_seed).unwrap();
        let nodes = topology.stub_nodes().to_vec();
        let node_of = |s: &Sub| nodes[s.0 % nodes.len()];
        let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap())
            .unwrap();
        let mut broker = Broker::builder(topology, space)
            .subscriptions(initial.iter().map(|s| (node_of(s), sub_rect(s))))
            .clustering(
                ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 4).with_max_cells(12),
            )
            .grid_cells(6)
            .recluster_fraction(10.0)
            .build()
            .unwrap();
        let mut handles: Vec<SubscriptionHandle> =
            broker.registry().live().map(|(h, _, _)| h).collect();
        for (kind, pick, s) in &ops {
            if *kind < 2 && !handles.is_empty() {
                let h = handles.swap_remove(pick % handles.len());
                broker.unsubscribe(h).unwrap();
            } else {
                handles.push(broker.subscribe(node_of(s), sub_rect(s)).unwrap());
            }
            let partition = broker.partition();
            let mut expected = vec![BTreeSet::new(); broker.groups().len()];
            for (_, node, rect) in broker.registry().live() {
                let clamped = broker.space().clamp(&Rect::new(rect.to_vec()).unwrap());
                for cell in partition.grid().cells_intersecting(&clamped) {
                    if let Some(q) = partition.group_of_cell(cell) {
                        expected[q].insert(node);
                    }
                }
            }
            for (q, members) in expected.iter().enumerate() {
                let members: Vec<NodeId> = members.iter().copied().collect();
                prop_assert_eq!(broker.groups().members(q), &members[..], "group {}", q);
            }
        }
        let churn = broker.metrics_snapshot().churn;
        prop_assert_eq!(churn.recompiles, 0);
    }
}

#[test]
fn cost_exact_does_not_regress_below_the_global_threshold() {
    // On the paper workload, deciding each event by cost must do at
    // least as well as the global t = 0.15 — event by event, so on the
    // whole stream too.
    let topology = TransitStubConfig::riabov().generate(1903).unwrap();
    let placed = SubscriptionConfig::riabov()
        .generate(&topology, 2003)
        .unwrap();
    let model = Modes::Nine.model();
    let density = model.clone();
    let mut broker = Broker::builder(topology, stock_space())
        .subscriptions(placed.into_iter().map(|p| (p.node, p.rect)))
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .threshold(0.15)
        .density(move |r| density.mass(r))
        .build()
        .unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(91);
    let eval: Vec<Point> = (0..3000).map(|_| model.sample(&mut rng)).collect();
    let fixed: Vec<_> = eval.iter().map(|e| broker.publish(e).unwrap()).collect();
    let fixed_report = *broker.report();

    *broker.policy_mut() = DistributionPolicy::cost_exact();
    broker.reset_report();
    for (e, f) in eval.iter().zip(&fixed) {
        let out = broker.publish(e).unwrap();
        assert_eq!(out.interested, f.interested);
        assert!(out.costs.scheme <= f.costs.scheme);
    }
    let exact = broker.report().improvement_percent();
    let fixed = fixed_report.improvement_percent();
    assert!(
        exact >= fixed,
        "cost-exact {exact:.1}% must not regress below fixed {fixed:.1}%"
    );
}
