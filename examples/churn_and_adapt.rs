//! A living system: subscriptions churn, groups are maintained
//! incrementally, and the distribution thresholds adapt per group.
//!
//! Demonstrates two extensions beyond the paper's static setting:
//! `IncrementalClusterer` (group maintenance without full re-clustering)
//! and `AdaptiveController` (the §6 future-work per-group thresholds).
//! Matching under churn is `Broker::subscribe` / `Broker::unsubscribe`.
//!
//! Run with: `cargo run --release --example churn_and_adapt`

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig, IncrementalClusterer};
use pubsub::core::{AdaptiveConfig, AdaptiveController, Broker};
use pubsub::geom::Grid;
use pubsub::netsim::TransitStubConfig;
use pubsub::workload::{stock_space, Modes, SubscriptionConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = TransitStubConfig::riabov().generate(1903)?;
    let space = stock_space();
    let model = Modes::Nine.model();
    let mut placed = SubscriptionConfig::riabov().generate(&topology, 2003)?;
    let mut rng = ChaCha8Rng::seed_from_u64(77);

    // --- Incremental clustering over a churning subscription set. ---
    let mut nodes: Vec<_> = topology.stub_nodes().to_vec();
    nodes.sort_unstable();
    let index_of = |n: pubsub::netsim::NodeId| nodes.binary_search(&n).unwrap();
    let grid = Grid::uniform(space.bounds().clone(), 10)?;
    let density_model = model.clone();
    let mut inc = IncrementalClusterer::new(
        grid,
        nodes.len(),
        move |r| density_model.mass(r),
        ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11),
        0.3, // full re-cluster after 30% churn
    )?;
    let mut handles = Vec::new();
    for p in &placed {
        handles.push(inc.insert(index_of(p.node), space.clamp(&p.rect))?);
    }
    let p0 = inc.partition()?;
    println!(
        "initial clustering: {} groups over {} working cells (full re-clusters: {})",
        p0.group_count(),
        p0.assigned_cell_count(),
        inc.stats().full_reclusters
    );

    // Churn 10% of the subscriptions, refresh locally.
    for _ in 0..100 {
        let k = rng.gen_range(0..handles.len());
        inc.remove(handles.swap_remove(k))?;
    }
    let refresh = SubscriptionConfig::riabov().generate(&topology, 2077)?;
    for p in refresh.iter().take(100) {
        handles.push(inc.insert(index_of(p.node), space.clamp(&p.rect))?);
        placed.push(p.clone());
    }
    let p1 = inc.partition()?;
    println!(
        "after 10% churn: {} groups, {} cells; maintenance = {:?}",
        p1.group_count(),
        p1.assigned_cell_count(),
        inc.stats()
    );

    // --- Adaptive thresholds on a broker built from the churned set. ---
    let density_model = model.clone();
    let mut broker = Broker::builder(topology, space)
        .subscriptions(placed.iter().map(|p| (p.node, p.rect.clone())))
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .threshold(0.15)
        .density(move |r| density_model.mass(r))
        .build()?;

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
