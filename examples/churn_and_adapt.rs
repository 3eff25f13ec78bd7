//! A living system: subscriptions churn, groups are maintained
//! incrementally, and the distribution thresholds adapt per group.
//!
//! Demonstrates two extensions beyond the paper's static setting: live
//! churn through `Broker::subscribe` / `Broker::unsubscribe` (groups kept
//! exact under the compiled partition, a recompile once drift passes the
//! threshold) and `AdaptiveController` (the §6 future-work per-group
//! thresholds).
//!
//! Run with: `cargo run --release --example churn_and_adapt`

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{AdaptiveConfig, AdaptiveController, Broker};
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

    // --- Adaptive thresholds on the churned broker. ---
    let train: Vec<_> = (0..4000).map(|_| model.sample(&mut rng)).collect();
    let eval: Vec<_> = (0..4000).map(|_| model.sample(&mut rng)).collect();

    let mut controller = AdaptiveController::for_broker(&broker, AdaptiveConfig::default());
    for e in &train {
        let out = broker.publish(e)?;
        controller.observe(&out);
    }
    broker.reset_report();
    for e in &eval {
        broker.publish(e)?;
    }
    let fixed = broker.report().improvement_percent();

    let adapted = controller.apply(&mut broker)?;
    broker.reset_report();
    for e in &eval {
        broker.publish(e)?;
    }
    let adaptive = broker.report().improvement_percent();

    println!("\nglobal threshold t=0.15:   {fixed:>5.1}% improvement");
    println!("adaptive ({adapted} groups tuned): {adaptive:>5.1}% improvement");
    for g in controller.tracker().summarize(&broker).iter().take(4) {
        println!(
            "  group {}: {} members, observed interest {:.1}%, break-even threshold {:.1}%",
            g.group,
            g.size,
            g.avg_interest_ratio * 100.0,
            g.break_even_ratio * 100.0
        );
    }
    Ok(())
}
