//! Count-level delivery parity: a covered broker carries *runs* —
//! whole covering groups and their precomputed node sets — from match
//! to outcome and writes subscription ids out only when somebody reads
//! them. Whatever the entry point, it must match what a flat linear scan
//! over the live subscriptions' clamped rectangles matches, and agree
//! with an interning-only broker (one representative per distinct
//! rectangle, no covers) over the same Zipf population: equal outcomes,
//! ids ascending and duplicate-free, `len()` equal to the written-out
//! length, and a bit-identical `CostReport` — through `publish` and
//! `publish_batch` at
//! 1–3 threads, with a tombstone inside a hit run and an overlay hit
//! between batches, past a `recompile()` that retires the table old
//! outcomes still reference, and under an installed fault plan.

mod common;

use std::sync::{Arc, OnceLock};

use common::ScanOracle;
use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, CoveringConfig, PublishOutcome};
use pubsub::geom::{Point, Rect};
use pubsub::netsim::{FaultEvent, FaultPlan, NodeId, Topology, TransitStubConfig};
use pubsub::parallel::WorkerPool;
use pubsub::workload::{stock_space, Modes, ScaleConfig, SubscriptionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The paper's 600-node network, generated once.
fn topology() -> &'static Topology {
    static TOPOLOGY: OnceLock<Topology> = OnceLock::new();
    TOPOLOGY.get_or_init(|| TransitStubConfig::riabov().generate(1903).unwrap())
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    count: usize,
    pool_size: usize,
    threshold: f64,
    events: usize,
    /// Extra churn: `(kind, live index)`; an even kind subscribes a
    /// duplicate of the live subscription, an odd one unsubscribes it.
    ops: Vec<(u8, usize)>,
    /// `(step, kind, node pick, node pick)` of the fault plan.
    faults: Vec<(u64, u32, usize, usize)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        0u64..1_000,
        300usize..1_200,
        6usize..40,
        0.0f64..=0.6,
        70usize..150,
        prop::collection::vec((0u8..2, 0usize..10_000), 0..12),
        prop::collection::vec((0u64..120, 0u32..3, 0usize..600, 0usize..600), 1..5),
    )
        .prop_map(
            |(seed, count, pool_size, threshold, events, ops, faults)| Scenario {
                seed,
                count,
                pool_size,
                threshold,
                events,
                ops,
                faults,
            },
        )
}

/// An interning-only and a default covered broker over the same
/// Zipf-skewed population, each with a 3-thread pool so multi-worker
/// batches really fan out.
fn brokers(s: &Scenario) -> (Broker, Broker) {
    let population = ScaleConfig {
        count: s.count,
        pool_size: s.pool_size,
        zipf_theta: 1.0,
        base: SubscriptionConfig::riabov(),
    }
    .generate(topology(), s.seed, Some(1))
    .unwrap()
    .to_vec();
    let build = |covering: CoveringConfig| {
        Broker::builder(topology().clone(), stock_space())
            .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 6))
            .threshold(s.threshold)
            .worker_pool(Arc::new(WorkerPool::new(3)))
            .subscriptions(population.iter().cloned())
            .covering(covering)
            .build()
            .unwrap()
    };
    let interning_only = CoveringConfig {
        max_covers: 0,
        ..CoveringConfig::default()
    };
    (build(interning_only), build(CoveringConfig::default()))
}

/// What a reader of the lazy set may rely on.
fn check_set(outcome: &PublishOutcome) -> Result<(), String> {
    let set = &outcome.matched_subscriptions;
    let len = set.len();
    prop_assert_eq!(len, set.iter().count(), "len() vs written-out length");
    prop_assert_eq!(set.is_empty(), len == 0);
    prop_assert!(set.windows(2).all(|w| w[0] < w[1]), "ascending, no dups");
    Ok(())
}

fn check_all(covered: &[PublishOutcome], interned: &[PublishOutcome]) -> Result<(), String> {
    prop_assert_eq!(covered.len(), interned.len());
    for (c, f) in covered.iter().zip(interned) {
        prop_assert_eq!(c, f);
        check_set(c)?;
    }
    Ok(())
}

fn check_reports(covered: &Broker, interned: &Broker) -> Result<(), String> {
    let (c, f) = (covered.report(), interned.report());
    prop_assert_eq!(c, f);
    prop_assert_eq!(c.scheme_cost.to_bits(), f.scheme_cost.to_bits());
    prop_assert_eq!(c.unicast_cost.to_bits(), f.unicast_cost.to_bits());
    prop_assert_eq!(c.ideal_cost.to_bits(), f.ideal_cost.to_bits());
    Ok(())
}

/// Every synchronous entry point over `events`, covered against the
/// scan of its live subscriptions and against the interning-only
/// broker.
fn check_publishing(
    covered: &mut Broker,
    interned: &mut Broker,
    events: &[Point],
) -> Result<(), String> {
    let scan = ScanOracle::of(covered);
    for event in &events[..16] {
        let (c, f) = (
            covered.publish(event).unwrap(),
            interned.publish(event).unwrap(),
        );
        scan.check(covered, event, &c)?;
        check_all(&[c], &[f])?;
    }
    for threads in 1..=3 {
        let c = covered.publish_batch(events, Some(threads)).unwrap();
        let f = interned.publish_batch(events, Some(threads)).unwrap();
        for (outcome, event) in c.iter().zip(events) {
            scan.check(covered, event, outcome)?;
        }
        check_all(&c, &f)?;
    }
    check_reports(covered, interned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn covered_runs_agree_with_flat_ids(s in scenario()) {
        let (mut interned, mut covered) = brokers(&s);
        let model = Modes::Nine.model();
        let mut rng = ChaCha8Rng::seed_from_u64(s.seed);
        let events: Vec<Point> = (0..s.events).map(|_| model.sample(&mut rng)).collect();

        check_publishing(&mut covered, &mut interned, &events)?;

        // Churn between batches. First, deliberately: a tombstone inside
        // a run some event hits, and an overlay subscription (a duplicate
        // of the removed one) the same event hits.
        let probe = covered.publish_batch(&events, Some(1)).unwrap();
        interned.publish_batch(&events, Some(1)).unwrap();
        if let Some(id) = probe.iter().find_map(|o| o.matched_subscriptions.first().copied()) {
            let handle = covered.handle_of(id).unwrap();
            prop_assert_eq!(interned.handle_of(id), Some(handle));
            let (node, rect) = covered
                .registry()
                .live()
                .find(|(h, _, _)| *h == handle)
                .map(|(_, node, rect)| (node, Rect::new(rect.to_vec()).unwrap()))
                .unwrap();
            covered.unsubscribe(handle).unwrap();
            interned.unsubscribe(handle).unwrap();
            prop_assert_eq!(
                covered.subscribe(node, rect.clone()).unwrap(),
                interned.subscribe(node, rect).unwrap()
            );
        }
        // Then whatever the scenario drew; handles stay in lockstep.
        for &(kind, pick) in &s.ops {
            let live: Vec<_> = covered
                .registry()
                .live()
                .map(|(h, node, rect)| (h, node, Rect::new(rect.to_vec()).unwrap()))
                .collect();
            let (handle, node, rect) = live[pick % live.len()].clone();
            if kind % 2 == 0 {
                prop_assert_eq!(
                    covered.subscribe(node, rect.clone()).unwrap(),
                    interned.subscribe(node, rect).unwrap()
                );
            } else {
                covered.unsubscribe(handle).unwrap();
                interned.unsubscribe(handle).unwrap();
            }
        }
        check_publishing(&mut covered, &mut interned, &events)?;

        // Outcomes taken before a recompile keep the old table alive:
        // they are read (written out) only after it has been replaced.
        let held = covered.publish_batch(&events, Some(2)).unwrap();
        let want = interned.publish_batch(&events, Some(2)).unwrap();
        covered.recompile().unwrap();
        interned.recompile().unwrap();
        check_publishing(&mut covered, &mut interned, &events)?;
        // Ids are renumbered by the recompile on both sides alike, but
        // `held` and `want` both predate it.
        check_all(&held, &want)?;

        // Under a fault plan: segmented batches, reachability masks.
        let nodes: Vec<NodeId> = topology().stub_nodes().to_vec();
        let mut plan = FaultPlan::new();
        let mut faults = s.faults.clone();
        faults.sort_unstable();
        for &(at, kind, a, b) in &faults {
            let (a, b) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
            plan.push(at, match kind {
                0 => FaultEvent::LinkCut { a, b },
                1 => FaultEvent::NodeDown { node: a },
                _ => FaultEvent::NodeUp { node: a },
            });
        }
        covered.install_fault_plan(plan.clone()).unwrap();
        interned.install_fault_plan(plan).unwrap();
        let scan = ScanOracle::of(&covered);
        for threads in [2, 1] {
            let c = covered.publish_batch(&events, Some(threads)).unwrap();
            let f = interned.publish_batch(&events, Some(threads)).unwrap();
            for (outcome, event) in c.iter().zip(&events) {
                scan.check(&covered, event, outcome)?;
            }
            check_all(&c, &f)?;
        }
        for event in &events[..16] {
            let (c, f) = (covered.publish(event).unwrap(), interned.publish(event).unwrap());
            scan.check(&covered, event, &c)?;
            check_all(&[c], &[f])?;
        }
        check_reports(&covered, &interned)?;
    }
}
