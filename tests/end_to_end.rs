//! Cross-crate integration tests: the full pipeline (topology →
//! subscriptions → clustering → broker → costs) on the paper's testbed,
//! asserting the headline *shapes* of the evaluation at fixed seeds.

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, CostReport, DistributionPolicy};
use pubsub::geom::Point;
use pubsub::netsim::TransitStubConfig;
use pubsub::workload::{stock_space, Modes, SubscriptionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn build_broker(algorithm: ClusteringAlgorithm, groups: usize, threshold: f64) -> Broker {
    let topology = TransitStubConfig::riabov().generate(1903).unwrap();
    let placed = SubscriptionConfig::riabov()
        .generate(&topology, 2003)
        .unwrap();
    let model = Modes::Nine.model();
    Broker::builder(topology, stock_space())
        .subscriptions(placed.into_iter().map(|p| (p.node, p.rect)))
        .clustering(ClusteringConfig::new(algorithm, groups))
        .threshold(threshold)
        .density(move |r| model.mass(r))
        .build()
        .unwrap()
}

fn events(n: usize, seed: u64) -> Vec<Point> {
    let model = Modes::Nine.model();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| model.sample(&mut rng)).collect()
}

fn run(broker: &mut Broker, events: &[Point]) -> CostReport {
    broker.reset_report();
    for e in events {
        broker.publish(e).unwrap();
    }
    *broker.report()
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let evs = events(500, 7);
    let r1 = run(
        &mut build_broker(ClusteringAlgorithm::ForgyKMeans, 11, 0.15),
        &evs,
    );
    let r2 = run(
        &mut build_broker(ClusteringAlgorithm::ForgyKMeans, 11, 0.15),
        &evs,
    );
    assert_eq!(r1, r2);
}

#[test]
fn dynamic_threshold_beats_static_on_the_paper_workload() {
    // The paper's core claim (Figure 6): some interior threshold beats the
    // static scheme (t = 0). The peak's exact location shifts with the
    // sampled workload, so scan the interior instead of pinning one value.
    let evs = events(2000, 7);
    let mut broker = build_broker(ClusteringAlgorithm::ForgyKMeans, 11, 0.0);
    let static_report = run(&mut broker, &evs);
    let mut best = f64::NEG_INFINITY;
    for threshold in [0.05, 0.08, 0.1, 0.12, 0.15, 0.2] {
        *broker.policy_mut() = DistributionPolicy::new(threshold).unwrap();
        best = best.max(run(&mut broker, &evs).improvement_percent());
    }
    assert!(
        best > static_report.improvement_percent(),
        "best dynamic {:.1}% must beat static {:.1}%",
        best,
        static_report.improvement_percent()
    );
    // And the improvement is substantial and within the metric's range.
    assert!(best > 10.0);
    assert!(best <= 100.0);
}

#[test]
fn high_threshold_degrades_to_pure_unicast() {
    let evs = events(1000, 7);
    let mut broker = build_broker(ClusteringAlgorithm::ForgyKMeans, 11, 1.0);
    let report = run(&mut broker, &evs);
    // With t = 1 essentially everything is unicast, so the scheme pays
    // (almost exactly) the unicast cost.
    assert!(report.improvement_percent().abs() < 2.0);
    assert_eq!(report.wasted_deliveries, 0);
}

#[test]
fn more_groups_improve_the_static_scheme() {
    // Figure 6's other axis: 61 groups outperform 11 at the peak.
    let evs = events(2000, 7);
    let r11 = run(
        &mut build_broker(ClusteringAlgorithm::ForgyKMeans, 11, 0.1),
        &evs,
    );
    let r61 = run(
        &mut build_broker(ClusteringAlgorithm::ForgyKMeans, 61, 0.1),
        &evs,
    );
    assert!(
        r61.improvement_percent() > r11.improvement_percent(),
        "61 groups {:.1}% must beat 11 groups {:.1}%",
        r61.improvement_percent(),
        r11.improvement_percent()
    );
}

#[test]
fn all_clustering_algorithms_produce_positive_improvement_at_the_peak() {
    let evs = events(2000, 7);
    for alg in ClusteringAlgorithm::ALL {
        let report = run(&mut build_broker(alg, 11, 0.12), &evs);
        assert!(
            report.improvement_percent() > 0.0,
            "{alg}: {:.1}%",
            report.improvement_percent()
        );
    }
}

#[test]
fn delivery_counts_are_consistent() {
    let evs = events(1000, 9);
    let mut broker = build_broker(ClusteringAlgorithm::MinimumSpanningTree, 11, 0.15);
    let report = run(&mut broker, &evs);
    assert_eq!(
        report.messages,
        report.dropped + report.unicasts + report.multicasts
    );
    assert_eq!(report.messages, 1000);
    // The stream hits all three outcomes on this workload.
    assert!(report.dropped > 0);
    assert!(report.unicasts > 0);
    assert!(report.multicasts > 0);
    // Costs are ordered.
    assert!(report.ideal_cost <= report.scheme_cost + 1e-6);
    assert!(report.ideal_cost <= report.unicast_cost);
}
