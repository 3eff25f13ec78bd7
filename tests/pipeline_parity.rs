//! The fused-pipeline parity properties. Chunking invariance:
//! `publish_batch` on the persistent worker pool is bit-identical to a
//! `publish` loop (N events at T workers == N one-event batches inline)
//! — same subscription ids, interested nodes, decisions and message
//! costs to the last bit, and the same cumulative report — for any
//! worker count, on a freshly compiled snapshot AND mid-churn with a
//! non-empty overlay and tombstones. Since `publish` is itself a
//! one-event batch, correctness rests on an independent reference:
//! `outcomes_equal_an_independent_oracle` recomputes every outcome from
//! the registry, the policy and the node-based walks of
//! `common/walks.rs`. Also exercises pool sharing (two brokers, one pool)
//! and clean shutdown on drop.

#[path = "common/walks.rs"]
mod walks;

use std::sync::Arc;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, CostReport, Decision, DeliveryMode, PublishOutcome};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{NodeId, TransitStubConfig};
use pubsub::parallel::WorkerPool;
use walks::{alm_tree_cost, dijkstra, multicast_tree_cost, sparse_mode_cost, unicast_cost};

/// (node pick, (x origin, width), (y origin, height)).
type SubSpec = (usize, (f64, f64), (f64, f64));

#[derive(Debug, Clone)]
struct Scenario {
    topo_seed: u64,
    threshold: f64,
    groups: usize,
    algorithm: ClusteringAlgorithm,
    delivery: usize,
    subs: Vec<SubSpec>,
    /// Overlay churn applied before the mid-churn probe: subscriptions
    /// to add live and how many of the compiled ones to tombstone.
    added: Vec<SubSpec>,
    removed: usize,
    events: Vec<(f64, f64)>,
}

fn sub_spec() -> impl Strategy<Value = SubSpec> {
    (
        0usize..100,
        (0.0f64..9.0, 0.5f64..8.0),
        (0.0f64..9.0, 0.5f64..8.0),
    )
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u64..50,
        0.0f64..=1.0,
        1usize..5,
        0usize..4,
        0usize..3,
        prop::collection::vec(sub_spec(), 2..12),
        prop::collection::vec(sub_spec(), 1..6),
        1usize..3,
        // Straddles two BLOCKs (2 × 32): batches of fewer than two
        // blocks exercise the inline path, larger ones the pooled
        // multi-block path.
        prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..220),
    )
        .prop_map(
            |(topo_seed, threshold, groups, alg, delivery, subs, added, removed, events)| {
                Scenario {
                    topo_seed,
                    threshold,
                    groups,
                    algorithm: ClusteringAlgorithm::ALL[alg],
                    delivery,
                    subs,
                    added,
                    removed,
                    events,
                }
            },
        )
}

fn space_2d() -> Space {
    Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
}

fn spec_rect((_, (x, w), (y, h)): &SubSpec) -> Rect {
    Rect::from_corners(&[*x, *y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap()
}

fn build_broker(s: &Scenario, pool: Option<Arc<WorkerPool>>) -> (Broker, Vec<NodeId>) {
    let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let delivery = match s.delivery {
        0 => DeliveryMode::DenseMode,
        1 => DeliveryMode::SparseMode {
            rendezvous: *topo.transit_nodes().first().unwrap(),
        },
        _ => DeliveryMode::ApplicationLevel,
    };
    let subs: Vec<(NodeId, Rect)> = s
        .subs
        .iter()
        .map(|spec| (nodes[spec.0 % nodes.len()], spec_rect(spec)))
        .collect();
    // High drift threshold: the mid-churn probe needs the overlay and
    // tombstones to survive the scenario's churn, not be recompiled away.
    let mut builder = Broker::builder(topo, space_2d())
        .threshold(s.threshold)
        .clustering(ClusteringConfig::new(s.algorithm, s.groups).with_max_cells(30))
        .grid_cells(5)
        .delivery_mode(delivery)
        .recluster_fraction(100.0)
        .subscriptions(subs);
    if let Some(pool) = pool {
        builder = builder.worker_pool(pool);
    }
    (builder.build().unwrap(), nodes)
}

/// Applies the scenario's churn so the broker has a non-empty overlay
/// AND non-empty tombstones (live brokers only; recompiles triggered by
/// drift would clear both, so churn volume is kept small by strategy).
fn apply_churn(broker: &mut Broker, s: &Scenario, nodes: &[NodeId]) {
    let handles: Vec<_> = broker.registry().live().map(|(h, _, _)| h).collect();
    for spec in &s.added {
        broker
            .subscribe(nodes[spec.0 % nodes.len()], spec_rect(spec))
            .unwrap();
    }
    for h in handles.iter().take(s.removed) {
        broker.unsubscribe(*h).unwrap();
    }
}

fn events_of(s: &Scenario) -> Vec<Point> {
    s.events
        .iter()
        .map(|&(x, y)| Point::new(vec![x, y]).unwrap())
        .collect()
}

fn assert_outcomes_identical(batch: &[PublishOutcome], sequential: &[PublishOutcome]) {
    assert_eq!(batch.len(), sequential.len());
    for (a, b) in batch.iter().zip(sequential) {
        assert_eq!(a.matched_subscriptions, b.matched_subscriptions);
        assert_eq!(a.interested, b.interested);
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.group_region, b.group_region);
        assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
        assert_eq!(a.costs.unicast.to_bits(), b.costs.unicast.to_bits());
        assert_eq!(a.costs.ideal.to_bits(), b.costs.ideal.to_bits());
    }
}

fn assert_reports_identical(a: &CostReport, b: &CostReport) {
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.scheme_cost.to_bits(), b.scheme_cost.to_bits());
    assert_eq!(a.unicast_cost.to_bits(), b.unicast_cost.to_bits());
    assert_eq!(a.ideal_cost.to_bits(), b.ideal_cost.to_bits());
    assert_eq!(a.wasted_deliveries, b.wasted_deliveries);
}

/// Recomputes every outcome from first principles and compares: the
/// interested set by a linear scan of the live registry, the decision
/// from the policy over `(region, |s|, |M_q|)`, and the costs by the
/// node-based walks over a fresh Dijkstra tree — nothing the publish
/// path itself runs.
fn assert_outcomes_match_oracle(broker: &Broker, events: &[Point], outcomes: &[PublishOutcome]) {
    assert_eq!(outcomes.len(), events.len());
    let graph = broker.topology().graph();
    let spt = dijkstra(graph, broker.publisher());
    let rendezvous = match broker.delivery_mode() {
        DeliveryMode::SparseMode { rendezvous } => {
            Some((dijkstra(graph, rendezvous), spt.dist(rendezvous)))
        }
        _ => None,
    };
    for (event, out) in events.iter().zip(outcomes) {
        let mut want: Vec<NodeId> = broker
            .registry()
            .live()
            .filter(|(_, _, sides)| Rect::new(sides.to_vec()).unwrap().contains_point(event))
            .map(|(_, node, _)| node)
            .collect();
        want.sort();
        want.dedup();
        assert_eq!(out.interested, want, "event {event:?}");
        assert!(out.unreachable.is_empty());

        let region = broker.partition().group_of_point(event);
        let members = region.map_or(&[][..], |q| broker.groups().members(q));
        assert_eq!(out.group_region, region);
        assert_eq!(
            out.decision,
            broker
                .policy()
                .decide_counts(region, want.len(), members.len()),
            "event {event:?}"
        );

        let unicast = unicast_cost(&spt, &want);
        assert_eq!(out.costs.unicast.to_bits(), unicast.to_bits());
        let send = |receivers: &[NodeId]| match (broker.delivery_mode(), &rendezvous) {
            (_, Some((rp_spt, pub_to_rp))) => sparse_mode_cost(rp_spt, *pub_to_rp, receivers),
            (DeliveryMode::ApplicationLevel, None) => {
                alm_tree_cost(graph, broker.publisher(), receivers)
            }
            (_, None) => multicast_tree_cost(&spt, receivers),
        };
        assert_eq!(out.costs.ideal.to_bits(), send(&want).to_bits());
        match out.decision {
            Decision::Drop => assert_eq!(out.costs.scheme.to_bits(), 0f64.to_bits()),
            Decision::Unicast { .. } => {
                assert_eq!(out.costs.scheme.to_bits(), unicast.to_bits());
            }
            Decision::Multicast { group } => {
                let scheme = send(broker.groups().members(group));
                assert_eq!(out.costs.scheme.to_bits(), scheme.to_bits());
            }
            Decision::PartialMulticast { .. } => panic!("no fault plan is installed"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every outcome of `publish_batch` (inline and pooled) and of a
    /// `publish` loop equals the independent oracle — compiled snapshot
    /// and mid-churn, across the delivery modes.
    #[test]
    fn outcomes_equal_an_independent_oracle(s in scenario_strategy()) {
        let pool = Arc::new(WorkerPool::new(3));
        let events = events_of(&s);
        for churned in [false, true] {
            for threads in [Some(1usize), Some(3), None] {
                let (mut broker, nodes) = build_broker(&s, Some(Arc::clone(&pool)));
                if churned {
                    apply_churn(&mut broker, &s, &nodes);
                    prop_assert!(broker.metrics_snapshot().churn.tombstone_len > 0);
                }
                let outcomes: Vec<_> = match threads {
                    Some(_) => broker.publish_batch(&events, threads).unwrap(),
                    None => events.iter().map(|e| broker.publish(e).unwrap()).collect(),
                };
                assert_outcomes_match_oracle(&broker, &events, &outcomes);
            }
        }
    }

    /// Pooled `publish_batch` == sequential `publish` loop, bit for bit,
    /// for thread counts below, at, and above the pool size — compiled
    /// snapshot and mid-churn (non-empty overlay + tombstones), across
    /// all three delivery modes.
    #[test]
    fn pooled_batch_is_bit_identical_to_sequential_publish(s in scenario_strategy()) {
        let pool = Arc::new(WorkerPool::new(4));
        let events = events_of(&s);
        for threads in [1usize, 2, 3, 7, pool.threads()] {
            for churned in [false, true] {
                let (mut batch_broker, nodes) = build_broker(&s, Some(Arc::clone(&pool)));
                let (mut seq_broker, _) = build_broker(&s, None);
                if churned {
                    apply_churn(&mut batch_broker, &s, &nodes);
                    apply_churn(&mut seq_broker, &s, &nodes);
                    prop_assert_eq!(
                        batch_broker.metrics_snapshot().churn.overlay_len,
                        s.added.len()
                    );
                    prop_assert!(batch_broker.metrics_snapshot().churn.tombstone_len > 0);
                }
                let batch = batch_broker.publish_batch(&events, Some(threads)).unwrap();
                let sequential: Vec<_> = events
                    .iter()
                    .map(|e| seq_broker.publish(e).unwrap())
                    .collect();
                assert_outcomes_identical(&batch, &sequential);
                assert_reports_identical(batch_broker.report(), seq_broker.report());
                prop_assert_eq!(
                    batch_broker.metrics_snapshot().scheme_cost_walks,
                    seq_broker.metrics_snapshot().scheme_cost_walks
                );
            }
        }
    }

    /// `publish_batch_stats` advances the report exactly as
    /// `publish_batch` does — same bits — without materializing
    /// outcomes, and repeated batches stop growing the arenas.
    #[test]
    fn stats_path_matches_outcome_path(s in scenario_strategy()) {
        let events = events_of(&s);
        let (mut with_outcomes, _) = build_broker(&s, None);
        let (mut stats_only, _) = build_broker(&s, None);
        for _ in 0..3 {
            with_outcomes.publish_batch(&events, Some(2)).unwrap();
            let report = stats_only.publish_batch_stats(&events, Some(2)).unwrap();
            assert_reports_identical(&report, with_outcomes.report());
        }
        let counters = stats_only.metrics_snapshot().pipeline;
        prop_assert_eq!(counters.batches, 3);
        prop_assert_eq!(counters.events, 3 * events.len() as u64);
        // Identical batches: only the first can grow the arenas.
        prop_assert!(counters.arena_growths <= 1);
    }
}

/// One pool serving two brokers concurrently-in-sequence: the pool
/// serializes whole jobs, so interleaved batches from different brokers
/// stay correct and bit-identical to sequential publishing.
#[test]
fn one_pool_serves_two_brokers() {
    let pool = Arc::new(WorkerPool::new(3));
    let topo_a = TransitStubConfig::tiny().generate(7).unwrap();
    let topo_b = TransitStubConfig::tiny().generate(8).unwrap();
    let rect = |a: f64, b: f64| Rect::from_corners(&[a, a], &[b, b]).unwrap();
    let mut broker_a = Broker::builder(topo_a.clone(), space_2d())
        .worker_pool(Arc::clone(&pool))
        .subscription(topo_a.stub_nodes()[0], rect(0.0, 6.0))
        .subscription(topo_a.stub_nodes()[1], rect(2.0, 9.0))
        .build()
        .unwrap();
    let mut broker_b = Broker::builder(topo_b.clone(), space_2d())
        .worker_pool(Arc::clone(&pool))
        .subscription(topo_b.stub_nodes()[2], rect(1.0, 5.0))
        .build()
        .unwrap();
    let events: Vec<Point> = (0..300)
        .map(|i| Point::new(vec![(i % 10) as f64, (i % 7) as f64 + 0.5]).unwrap())
        .collect();
    for _ in 0..2 {
        let out_a = broker_a.publish_batch(&events, Some(3)).unwrap();
        let out_b = broker_b.publish_batch(&events, Some(3)).unwrap();
        assert_eq!(out_a.len(), events.len());
        assert_eq!(out_b.len(), events.len());
    }
    let mut seq_a = Broker::builder(topo_a.clone(), space_2d())
        .subscription(topo_a.stub_nodes()[0], rect(0.0, 6.0))
        .subscription(topo_a.stub_nodes()[1], rect(2.0, 9.0))
        .build()
        .unwrap();
    for _ in 0..2 {
        for event in &events {
            seq_a.publish(event).unwrap();
        }
    }
    assert_eq!(broker_a.report(), seq_a.report());
    assert!(broker_a.metrics_snapshot().pipeline.pooled_batches >= 1);
}

/// Dropping brokers and the last pool handle joins all workers cleanly
/// (shutdown is observable as the drop returning at all — a leaked or
/// deadlocked worker would hang the test binary).
#[test]
fn pool_shutdown_joins_cleanly_after_broker_drop() {
    let pool = Arc::new(WorkerPool::new(2));
    let topo = TransitStubConfig::tiny().generate(3).unwrap();
    let node = topo.stub_nodes()[0];
    let mut broker = Broker::builder(topo, space_2d())
        .worker_pool(Arc::clone(&pool))
        .subscription(node, Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0]).unwrap())
        .build()
        .unwrap();
    let events: Vec<Point> = (0..200)
        .map(|i| Point::new(vec![(i % 10) as f64, 2.0]).unwrap())
        .collect();
    broker.publish_batch(&events, Some(2)).unwrap();
    drop(broker);
    assert_eq!(Arc::strong_count(&pool), 1);
    drop(pool); // joins the workers; must not hang or panic
}

/// Acceptance gate for the compiled engine: every cost the broker
/// reports equals the node-based SPT walk bit for bit (the dense
/// two-camp broker: eight stub subscribers split between the halves of
/// the space, two Forgy groups, t = 0.15).
#[test]
fn flat_costs_are_byte_identical_to_node_based_walks() {
    let topo = TransitStubConfig::tiny().generate(5).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    assert!(nodes.len() >= 8);
    let halves = [
        Rect::from_corners(&[0.0, 0.0], &[5.0, 10.0]).unwrap(),
        Rect::from_corners(&[5.0, 0.0], &[10.0, 10.0]).unwrap(),
    ];
    let mut broker = Broker::builder(topo, space_2d())
        .threshold(0.15)
        .delivery_mode(DeliveryMode::DenseMode)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
        .grid_cells(4)
        .subscriptions(
            nodes
                .iter()
                .take(8)
                .enumerate()
                .map(|(i, &n)| (n, halves[i % 2].clone())),
        )
        .build()
        .unwrap();
    let spt = dijkstra(broker.topology().graph(), broker.publisher());
    let events: Vec<Point> = (0..60)
        .map(|i| Point::new(vec![f64::from(i % 10) + 0.5, f64::from(i % 7) + 0.5]).unwrap())
        .collect();
    let outcomes = broker.publish_batch(&events, None).unwrap();
    for out in &outcomes {
        assert_eq!(
            out.costs.unicast.to_bits(),
            unicast_cost(&spt, &out.interested).to_bits()
        );
        assert_eq!(
            out.costs.ideal.to_bits(),
            multicast_tree_cost(&spt, &out.interested).to_bits()
        );
        if let Decision::Multicast { group } = out.decision {
            assert_eq!(
                out.costs.scheme.to_bits(),
                multicast_tree_cost(&spt, broker.groups().members(group)).to_bits()
            );
        }
    }
}
