//! Topology ablation (extension): hierarchical transit-stub vs flat
//! Waxman random graphs.
//!
//! The paper evaluates on a GT-ITM transit-stub network. Hierarchy is
//! what gives multicast its leverage — stub trunks and backbone links are
//! shared by many receivers. On a flat Waxman graph of the same size the
//! shortest-path trees share far less, so the achievable improvement
//! shrinks. This ablation quantifies that dependence.
//!
//! Writes `results/ablation_topology.json`. Override the event count with
//! `PUBSUB_EVENTS` (default 5000).

use pubsub_bench::{drive, event_count, sample_events, scenario, write_json};
use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub_core::{Broker, DeliveryMode, DistributionPolicy};
use pubsub_netsim::{Topology, TransitStubConfig, WaxmanConfig};
use pubsub_workload::{stock_space, Modes, SubscriptionConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    topology: String,
    nodes: usize,
    edges: usize,
    static_improvement: f64,
    dynamic_improvement: f64,
    cost_exact_improvement: f64,
}

/// A single-block subscription config usable on flat topologies.
fn flat_subscription_config() -> SubscriptionConfig {
    SubscriptionConfig {
        block_shares: vec![1.0],
        name_means: vec![10.0],
        ..SubscriptionConfig::riabov()
    }
}

fn run(label: &str, topo: Topology, subs_cfg: &SubscriptionConfig, rows: &mut Vec<Row>, n: usize) {
    let model = scenario(Modes::Nine);
    let placed = subs_cfg.generate(&topo, 2003).expect("valid config");
    let stats = topo.stats();
    let density = model.clone();
    let mut broker = Broker::builder(topo, stock_space())
        .subscriptions(placed.into_iter().map(|p| (p.node, p.rect)))
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .threshold(0.0)
        .delivery_mode(DeliveryMode::DenseMode)
        .density(move |r| density.mass(r))
        .build()
        .expect("valid broker");
    let events = sample_events(&model, n, 23);
    let static_report = drive(&mut broker, &events);
    *broker.policy_mut() = DistributionPolicy::new(0.12).expect("valid");
    let dynamic_report = drive(&mut broker, &events);

    // The exact cost rule compares each event's unicast cost with the
    // group send — on flat graphs the break-even points sit far above
    // any fixed global `t`.
    *broker.policy_mut() = DistributionPolicy::cost_exact();
    let exact_report = drive(&mut broker, &events);

    println!(
        "{label:>24}: {:>4} nodes {:>5} edges | static {:>8.1}% | dynamic t=.12 {:>8.1}% | cost-exact {:>6.1}%",
        stats.nodes,
        stats.edges,
        static_report.improvement_percent(),
        dynamic_report.improvement_percent(),
        exact_report.improvement_percent()
    );
    rows.push(Row {
        topology: label.to_string(),
        nodes: stats.nodes,
        edges: stats.edges,
        static_improvement: static_report.improvement_percent(),
        dynamic_improvement: dynamic_report.improvement_percent(),
        cost_exact_improvement: exact_report.improvement_percent(),
    });
}

fn main() {
    let n = event_count(5000);
    println!("== Topology ablation: transit-stub hierarchy vs flat Waxman (9 modes, 11 groups, {n} events) ==\n");
    let mut rows = Vec::new();

    run(
        "transit-stub (paper)",
        TransitStubConfig::riabov().generate(1903).expect("preset"),
        &SubscriptionConfig::riabov(),
        &mut rows,
        n,
    );
    run(
        "waxman flat (sparse)",
        WaxmanConfig::riabov_sized().generate(1903).expect("preset"),
        &flat_subscription_config(),
        &mut rows,
        n,
    );
    run(
        "waxman flat (dense)",
        WaxmanConfig {
            alpha: 0.15,
            ..WaxmanConfig::riabov_sized()
        }
        .generate(1903)
        .expect("preset"),
        &flat_subscription_config(),
        &mut rows,
        n,
    );

    println!("\nexpected shape: multicast's leverage comes from the hierarchy — on flat Waxman");
    println!("graphs any fixed low threshold multicasts itself far below unicast, and only the");
    println!("exact cost rule (multicast iff the group send is cheaper than unicast) recovers");
    println!("to unicast. The transit-stub testbed is not incidental to the paper's results.");
    write_json("ablation_topology", &rows);
    println!("wrote results/ablation_topology.json");
}
