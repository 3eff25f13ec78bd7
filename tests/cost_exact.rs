//! The exact cost rule (`DistributionPolicy::cost_exact`) on the paper
//! testbed: event by event it pays `min(unicast, m_q)`, so it never pays
//! more than the ratio rule at any Figure 6 threshold or the count rule,
//! never changes who is interested, and under faults still delivers
//! exactly the reachable interested set.

#[path = "common/reach.rs"]
mod reach;

use pubsub::clustering::ClusteringAlgorithm;
use pubsub::core::{Broker, DeliveryMode, DistributionPolicy, PublishOutcome};
use pubsub::geom::Point;
use pubsub::netsim::{FaultPlan, FaultPlanConfig, NodeId};
use pubsub::workload::{Modes, PublicationModel};
use pubsub_bench::{
    build_broker, build_testbed, drive, sample_events, scenario, threshold_sweep, Seeds, Testbed,
    FIG6_THRESHOLDS,
};

const ALGORITHMS: [ClusteringAlgorithm; 3] = [
    ClusteringAlgorithm::ForgyKMeans,
    ClusteringAlgorithm::PairwiseGrouping,
    ClusteringAlgorithm::MinimumSpanningTree,
];

fn broker(
    testbed: &Testbed,
    model: &PublicationModel,
    alg: ClusteringAlgorithm,
    groups: usize,
) -> Broker {
    build_broker(testbed, model, alg, groups, 0.15, DeliveryMode::DenseMode)
}

fn publish_under(
    broker: &mut Broker,
    policy: DistributionPolicy,
    events: &[Point],
) -> Vec<PublishOutcome> {
    *broker.policy_mut() = policy;
    broker.reset_report();
    broker.publish_batch(events, None).unwrap()
}

#[test]
fn cost_exact_never_pays_more_than_a_grid_threshold_or_the_count_rule() {
    let testbed = build_testbed(Seeds::default());
    let mut rules: Vec<DistributionPolicy> = FIG6_THRESHOLDS
        .iter()
        .map(|&t| DistributionPolicy::new(t).unwrap())
        .collect();
    rules.extend([1, 2, 4, 8, 16].map(DistributionPolicy::by_count));
    for (modes, groups, alg, seed) in [
        (Modes::Nine, 11, ClusteringAlgorithm::ForgyKMeans, 5),
        (Modes::Four, 61, ClusteringAlgorithm::PairwiseGrouping, 6),
    ] {
        let model = scenario(modes);
        let mut broker = broker(&testbed, &model, alg, groups);
        let events = sample_events(&model, 400, seed);
        let exact = publish_under(&mut broker, DistributionPolicy::cost_exact(), &events);
        for rule in &rules {
            let other = publish_under(&mut broker, rule.clone(), &events);
            for (i, (e, o)) in exact.iter().zip(&other).enumerate() {
                assert_eq!(e.interested, o.interested, "event {i} under {rule:?}");
                assert_eq!(e.matched_subscriptions, o.matched_subscriptions);
                assert_eq!(e.group_region, o.group_region);
                assert!(
                    e.costs.scheme <= o.costs.scheme,
                    "event {i}: cost-exact {} > {} under {rule:?}",
                    e.costs.scheme,
                    o.costs.scheme
                );
            }
        }
        // The rule does pick multicast where it is cheaper.
        assert!(exact.iter().any(|e| e.costs.scheme < e.costs.unicast));
    }
}

#[test]
fn cost_exact_matches_or_beats_the_best_threshold_on_every_fig6_configuration() {
    let testbed = build_testbed(Seeds::default());
    for modes in Modes::ALL {
        let model = scenario(modes);
        let events = sample_events(&model, 300, Seeds::default().publications);
        for groups in [11, 61] {
            for alg in ALGORITHMS {
                let mut broker = broker(&testbed, &model, alg, groups);
                let best = threshold_sweep(&mut broker, &events, &FIG6_THRESHOLDS)
                    .iter()
                    .map(|p| p.improvement_percent)
                    .fold(f64::NEG_INFINITY, f64::max);
                *broker.policy_mut() = DistributionPolicy::cost_exact();
                let exact = drive(&mut broker, &events).improvement_percent();
                assert!(
                    exact >= best,
                    "{modes}, {groups} groups, {alg}: cost-exact {exact:.2}% < best grid {best:.2}%"
                );
            }
        }
    }
}

#[test]
fn cost_exact_delivers_exactly_the_reachable_interested_set_under_faults() {
    let testbed = build_testbed(Seeds::default());
    let model = scenario(Modes::Nine);
    let events = sample_events(&model, 300, 8);
    let config = FaultPlanConfig {
        link_failure_fraction: 0.05,
        node_failure_fraction: 0.0,
        horizon: 150,
        repair_after: Some(100),
    };
    let plan = FaultPlan::seeded(testbed.topology.graph(), 3, &config).unwrap();
    let alg = ClusteringAlgorithm::ForgyKMeans;

    let mut exact = broker(&testbed, &model, alg, 11);
    *exact.policy_mut() = DistributionPolicy::cost_exact();
    exact.install_fault_plan(plan.clone()).unwrap();
    let mut fixed = broker(&testbed, &model, alg, 11);
    fixed.install_fault_plan(plan.clone()).unwrap();

    let publisher = exact.publisher();
    for (step, event) in events.iter().enumerate() {
        let (_, matched) = exact.match_only(event).unwrap();
        let e = exact.publish(event).unwrap();
        let f = fixed.publish(event).unwrap();
        let due = plan.events().iter().take_while(|s| s.at <= step as u64);
        let reach = reach::reachable(testbed.topology.graph(), due.map(|s| &s.event), publisher);
        let want: Vec<NodeId> = matched
            .iter()
            .copied()
            .filter(|n| reach.contains(n))
            .collect();
        assert_eq!(e.interested, want, "step {step}");
        assert_eq!(e.unreachable.len(), matched.len() - want.len());
        assert_eq!(
            (&e.interested, &e.unreachable),
            (&f.interested, &f.unreachable)
        );
        assert!(e.costs.scheme.is_finite() && e.costs.scheme <= f.costs.scheme);
    }
    let r = exact.report();
    assert!(r.unreachable_skipped > 0, "the plan must cut someone off");
    assert!(
        r.partial_multicasts > 0,
        "degraded groups must still multicast"
    );
    assert!(r.scheme_cost <= fixed.report().scheme_cost);
}
