//! The covering-parity property: whatever the covering layer aggregates
//! (duplicate interning, rectangle subsumption, optional quantized
//! merge), a broker must match exactly what a flat linear scan over its
//! live subscriptions' clamped rectangles matches, and must be
//! **bit-identical** in every observable to the same broker compiled
//! with interning alone (one representative per distinct rectangle,
//! nothing subsumed or merged) — matched subscription ids, interested
//! nodes, decisions, message costs down to the last bit, and the
//! cumulative `CostReport` — across `publish`, `publish_batch`, and
//! subscribe/unsubscribe churn followed by a `recompile()`. Covering is
//! a pure matcher-index transformation; if any of these diverge, the
//! expansion table lost or invented a subscription.

mod common;

use common::ScanOracle;
use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, CoveringConfig, PublishOutcome, SubscriptionHandle};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{NodeId, TransitStubConfig};

/// (node pick, (x origin, width), (y origin, height)).
type SubSpec = (usize, (f64, f64), (f64, f64));

#[derive(Debug, Clone)]
enum ChurnOp {
    Subscribe(SubSpec),
    /// Unsubscribes the live handle at this index (mod the live count).
    Unsubscribe(usize),
    /// Re-subscribes a duplicate of the live subscription at this index
    /// (mod the live count) — feeds the interning path during churn.
    Duplicate(usize),
}

#[derive(Debug, Clone)]
struct Scenario {
    topo_seed: u64,
    threshold: f64,
    groups: usize,
    algorithm: ClusteringAlgorithm,
    /// Index into [`covering_configs`].
    covering: usize,
    initial: Vec<SubSpec>,
    ops: Vec<ChurnOp>,
    events: Vec<(f64, f64)>,
}

/// The reference configuration: duplicate interning only.
fn interning_only() -> CoveringConfig {
    CoveringConfig {
        max_covers: 0,
        ..CoveringConfig::default()
    }
}

/// The covering configurations under test: plain interning+subsumption,
/// aggressive subsumption, and the quantized merge pass.
fn covering_configs() -> [CoveringConfig; 3] {
    [
        CoveringConfig::default(),
        CoveringConfig {
            max_covers: 16,
            min_cover_members: 2,
            merge_cells: 0,
        },
        CoveringConfig {
            max_covers: 32,
            min_cover_members: 2,
            merge_cells: 24,
        },
    ]
}

fn sub_spec() -> impl Strategy<Value = SubSpec> {
    (
        0usize..100,
        // Coarse 0.5-grid origins/sizes so distinct specs often produce
        // the *same* rectangle — exercising interning and subsumption —
        // while fractional events still land on predicate boundaries.
        (0u8..18, 1u8..16),
        (0u8..18, 1u8..16),
    )
        .prop_map(|(node, (xo, xw), (yo, yw))| {
            (
                node,
                (f64::from(xo) * 0.5, f64::from(xw) * 0.5),
                (f64::from(yo) * 0.5, f64::from(yw) * 0.5),
            )
        })
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    // 3:1:1 subscribe/unsubscribe/duplicate mix, encoded as a mapped
    // tuple (the vendored proptest shim has no `prop_oneof!`).
    let op = (0usize..5, sub_spec(), 0usize..64).prop_map(|(kind, spec, idx)| match kind {
        0..=2 => ChurnOp::Subscribe(spec),
        3 => ChurnOp::Unsubscribe(idx),
        _ => ChurnOp::Duplicate(idx),
    });
    (
        0u64..50,
        0.0f64..=1.0,
        1usize..5,
        0usize..4,
        0usize..3,
        prop::collection::vec(sub_spec(), 4..30),
        prop::collection::vec(op, 1..25),
        prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..20),
    )
        .prop_map(
            |(topo_seed, threshold, groups, alg, covering, initial, ops, events)| Scenario {
                topo_seed,
                threshold,
                groups,
                algorithm: ClusteringAlgorithm::ALL[alg],
                covering,
                initial,
                ops,
                events,
            },
        )
}

fn space_2d() -> Space {
    Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap()
}

fn spec_rect((_, (x, w), (y, h)): &SubSpec) -> Rect {
    Rect::from_corners(&[*x, *y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap()
}

fn builder(s: &Scenario, subs: Vec<(NodeId, Rect)>, covering: CoveringConfig) -> Broker {
    let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
    Broker::builder(topo, space_2d())
        .threshold(s.threshold)
        .clustering(ClusteringConfig::new(s.algorithm, s.groups).with_max_cells(30))
        .grid_cells(5)
        .subscriptions(subs)
        .covering(covering)
        .build()
        .unwrap()
}

fn assert_outcomes_eq(a: &PublishOutcome, b: &PublishOutcome) -> Result<(), String> {
    prop_assert_eq!(&a.matched_subscriptions, &b.matched_subscriptions);
    prop_assert_eq!(&a.interested, &b.interested);
    prop_assert_eq!(&a.decision, &b.decision);
    prop_assert_eq!(a.group_region, b.group_region);
    prop_assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
    prop_assert_eq!(a.costs.unicast.to_bits(), b.costs.unicast.to_bits());
    prop_assert_eq!(a.costs.ideal.to_bits(), b.costs.ideal.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// End-to-end parity of the covered compile with the scan and the
    /// interning-only compile: identical delivered sets and cost reports
    /// for per-event publishes, for the fused batch pipeline, and again
    /// after churn + recompile (the streaming registry compile path).
    #[test]
    fn covered_broker_is_bit_identical_to_flat(s in scenario_strategy()) {
        let config = covering_configs()[s.covering];
        let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
        let nodes = topo.stub_nodes().to_vec();
        let initial: Vec<(NodeId, Rect)> = s
            .initial
            .iter()
            .map(|spec| (nodes[spec.0 % nodes.len()], spec_rect(spec)))
            .collect();
        let mut interned = builder(&s, initial.clone(), interning_only());
        let mut covered = builder(&s, initial, config);

        let stats = *covered.covering_stats().unwrap();
        prop_assert_eq!(stats.concrete, s.initial.len());
        prop_assert!(stats.representatives <= stats.uniques);
        prop_assert!(stats.uniques <= stats.concrete);
        let reference = *interned.covering_stats().unwrap();
        prop_assert_eq!((reference.subsumed, reference.merged), (0, 0));
        prop_assert_eq!(reference.representatives, stats.uniques);
        let scan = ScanOracle::of(&covered);

        let events: Vec<Point> = s
            .events
            .iter()
            .map(|&(x, y)| Point::new(vec![x, y]).unwrap())
            .collect();

        // Per-event publish parity.
        for event in &events {
            let a = covered.publish(event).unwrap();
            let b = interned.publish(event).unwrap();
            scan.check(&covered, event, &a)?;
            assert_outcomes_eq(&a, &b)?;
        }
        prop_assert_eq!(covered.report(), interned.report());

        // Fused batch pipeline parity (single- and multi-worker).
        for threads in [Some(1), Some(2)] {
            let a = covered.publish_batch(&events, threads).unwrap();
            let b = interned.publish_batch(&events, threads).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for ((x, y), event) in a.iter().zip(&b).zip(&events) {
                scan.check(&covered, event, x)?;
                assert_outcomes_eq(x, y)?;
            }
            prop_assert_eq!(covered.report(), interned.report());
        }

        // Identical churn on both sides. Handles stay in lockstep
        // because both registries saw the same insertion sequence.
        let mut covered_handles: Vec<SubscriptionHandle> =
            covered.registry().live().map(|(h, _, _)| h).collect();
        let mut interned_handles: Vec<SubscriptionHandle> =
            interned.registry().live().map(|(h, _, _)| h).collect();
        for op in &s.ops {
            match op {
                ChurnOp::Subscribe(spec) => {
                    let node = nodes[spec.0 % nodes.len()];
                    covered_handles.push(covered.subscribe(node, spec_rect(spec)).unwrap());
                    interned_handles.push(interned.subscribe(node, spec_rect(spec)).unwrap());
                }
                ChurnOp::Unsubscribe(i) => {
                    if covered_handles.is_empty() {
                        continue;
                    }
                    let i = i % covered_handles.len();
                    covered.unsubscribe(covered_handles.swap_remove(i)).unwrap();
                    interned.unsubscribe(interned_handles.swap_remove(i)).unwrap();
                }
                ChurnOp::Duplicate(i) => {
                    if covered_handles.is_empty() {
                        continue;
                    }
                    let i = i % covered_handles.len();
                    let (node, rect) = {
                        let r = covered.registry();
                        let (_, node, rect) = r
                            .live()
                            .find(|(h, _, _)| *h == covered_handles[i])
                            .unwrap();
                        (node, Rect::new(rect.to_vec()).unwrap())
                    };
                    covered_handles.push(covered.subscribe(node, rect.clone()).unwrap());
                    interned_handles.push(interned.subscribe(node, rect).unwrap());
                }
            }
        }

        // Recompile both through the streaming registry path. Still
        // bit-identical, and still the scan's matches.
        covered.recompile().unwrap();
        interned.recompile().unwrap();
        covered.reset_report();
        interned.reset_report();
        let scan = ScanOracle::of(&covered);
        for event in &events {
            let a = covered.publish(event).unwrap();
            let b = interned.publish(event).unwrap();
            scan.check(&covered, event, &a)?;
            assert_outcomes_eq(&a, &b)?;
        }
        prop_assert_eq!(covered.report(), interned.report());

        // The covering stats survive the recompile and still describe
        // the post-churn population.
        let stats = covered.covering_stats().unwrap();
        prop_assert_eq!(stats.concrete, covered.registry().len());
    }

    /// Duplicate-heavy populations actually aggregate: with every
    /// subscription drawn from a pool much smaller than the population,
    /// the representative count must collapse to at most the pool size,
    /// while matching stays the scan's and bit-identical to the
    /// interning-only build.
    #[test]
    fn duplicates_collapse_without_changing_matches(
        seed in 0u64..30,
        picks in prop::collection::vec((0usize..8, 0usize..100), 32..120),
        events in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..12),
    ) {
        let topo = TransitStubConfig::tiny().generate(seed).unwrap();
        let nodes = topo.stub_nodes().to_vec();
        // A pool of 8 distinct rectangles; every subscription picks one.
        let pool: Vec<Rect> = (0..8u8)
            .map(|i| {
                let lo = f64::from(i) * 0.7;
                Rect::from_corners(&[lo, lo * 0.5], &[lo + 3.0, lo * 0.5 + 2.5]).unwrap()
            })
            .collect();
        let subs: Vec<(NodeId, Rect)> = picks
            .iter()
            .map(|&(p, n)| (nodes[n % nodes.len()], pool[p].clone()))
            .collect();

        let scenario = Scenario {
            topo_seed: seed,
            threshold: 0.5,
            groups: 2,
            algorithm: ClusteringAlgorithm::ALL[0],
            covering: 0,
            initial: Vec::new(),
            ops: Vec::new(),
            events: Vec::new(),
        };
        let mut interned = builder(&scenario, subs.clone(), interning_only());
        let mut covered = builder(&scenario, subs, CoveringConfig::default());
        let scan = ScanOracle::of(&covered);

        let stats = covered.covering_stats().unwrap();
        prop_assert_eq!(stats.concrete, picks.len());
        prop_assert!(stats.uniques <= 8, "uniques = {}", stats.uniques);
        prop_assert!(stats.representatives <= stats.uniques);

        for &(x, y) in &events {
            let event = Point::new(vec![x, y]).unwrap();
            let a = covered.publish(&event).unwrap();
            let b = interned.publish(&event).unwrap();
            scan.check(&covered, &event, &a)?;
            assert_outcomes_eq(&a, &b)?;
        }
        prop_assert_eq!(covered.report(), interned.report());
    }
}

/// A builder without `.covering` still compiles the covering layer into
/// the compact index: one representative per distinct rectangle at most,
/// every subscription accounted for, and matches equal to a linear scan
/// over the clamped rectangles.
#[test]
fn default_broker_compiles_the_compact_index() {
    let topo = TransitStubConfig::tiny().generate(7).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    // Distinct rectangles, some reaching past the space to exercise the
    // clamp, none repeated or nested, so nothing aggregates.
    let subs: Vec<(NodeId, Rect)> = (0..60u32)
        .map(|i| {
            let (x, y) = (f64::from(i % 10), f64::from(i / 10) * 1.7);
            let node = nodes[i as usize % nodes.len()];
            (
                node,
                Rect::from_corners(&[x - 0.5, y], &[x + 1.5, y + 2.5]).unwrap(),
            )
        })
        .collect();
    let mut broker = Broker::builder(topo, space_2d())
        .subscriptions(subs.clone())
        .build()
        .unwrap();
    let stats = *broker.covering_stats().expect("every broker is covered");
    assert_eq!(stats.concrete, subs.len());
    assert_eq!(stats.representatives, subs.len());
    assert_eq!(broker.matcher().covering_stats(), &stats);

    let scan = ScanOracle::of(&broker);
    let events: Vec<Point> = (0..80)
        .map(|i| Point::new(vec![f64::from(i) * 1.37 % 10.0, f64::from(i) * 2.11 % 10.0]).unwrap())
        .collect();
    for event in &events {
        let outcome = broker.publish(event).unwrap();
        scan.check(&broker, event, &outcome).unwrap();
        // Before any churn, subscription ids are registry positions.
        let (ids, nodes) = broker.matcher().match_event(event);
        assert_eq!(&outcome.matched_subscriptions[..], &ids[..]);
        assert_eq!(outcome.interested, nodes);
    }
    for (outcome, event) in broker
        .publish_batch(&events, Some(2))
        .unwrap()
        .iter()
        .zip(&events)
    {
        scan.check(&broker, event, outcome).unwrap();
    }
}
