//! A living system: subscriptions churn, groups are maintained
//! incrementally, and each event is sent the cheaper way.
//!
//! Demonstrates two extensions beyond the paper's static setting: live
//! churn through `Broker::subscribe` / `Broker::unsubscribe` (groups kept
//! exact under the compiled partition, a recompile once drift passes the
//! threshold) and `DistributionPolicy::cost_exact` (the §6 question of
//! where to draw the line, answered per event: multicast iff the group
//! send costs less than unicasting the interested set).
//!
//! Run with: `cargo run --release --example churn_and_adapt`

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, DistributionPolicy};
use pubsub::netsim::TransitStubConfig;
use pubsub::workload::{stock_space, Modes, SubscriptionConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = TransitStubConfig::riabov().generate(1903)?;
    let space = stock_space();
    let model = Modes::Nine.model();
    let placed = SubscriptionConfig::riabov().generate(&topology, 2003)?;
    let mut rng = ChaCha8Rng::seed_from_u64(77);

    let density_model = model.clone();
    let mut broker = Broker::builder(topology.clone(), space)
        .subscriptions(placed.iter().map(|p| (p.node, p.rect.clone())))
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .threshold(0.15)
        .density(move |r| density_model.mass(r))
        .recluster_fraction(0.3) // recompile after 30% churn
        .build()?;
    println!(
        "initial clustering: {} groups over {} working cells",
        broker.partition().group_count(),
        broker.partition().assigned_cell_count()
    );

    // --- Churn 10% of the subscriptions live. ---
    let mut handles: Vec<_> = broker.registry().live().map(|(h, _, _)| h).collect();
    for _ in 0..100 {
        let k = rng.gen_range(0..handles.len());
        broker.unsubscribe(handles.swap_remove(k))?;
    }
    let refresh = SubscriptionConfig::riabov().generate(&topology, 2077)?;
    for p in refresh.into_iter().take(100) {
        handles.push(broker.subscribe(p.node, p.rect)?);
    }
    let churn = broker.metrics_snapshot().churn;
    println!(
        "after 10% churn: {} groups, {} cells; {} subscribes, {} unsubscribes, \
         {} recompiles",
        broker.partition().group_count(),
        broker.partition().assigned_cell_count(),
        churn.subscribes,
        churn.unsubscribes,
        churn.recompiles
    );

    // --- The exact cost rule on the churned broker. ---
    let events: Vec<_> = (0..4000).map(|_| model.sample(&mut rng)).collect();
    broker.reset_report();
    broker.publish_batch(&events, None)?;
    let fixed = *broker.report();

    *broker.policy_mut() = DistributionPolicy::cost_exact();
    broker.reset_report();
    broker.publish_batch(&events, None)?;
    let exact = *broker.report();

    println!(
        "\nglobal threshold t=0.15: {:>5.1}% improvement, {} multicasts",
        fixed.improvement_percent(),
        fixed.multicasts
    );
    println!(
        "exact cost rule:         {:>5.1}% improvement, {} multicasts",
        exact.improvement_percent(),
        exact.multicasts
    );
    assert!(exact.scheme_cost <= fixed.scheme_cost);
    Ok(())
}
