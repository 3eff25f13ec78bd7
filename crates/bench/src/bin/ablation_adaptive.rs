//! The exact cost rule (the paper's §6 "where to draw the line") vs the
//! best single global threshold.
//!
//! The rule `|s|/|M_q| ≥ t` approximates a cost comparison: one
//! multicast to `M_q` costs `m_q`, unicasting the interested set costs
//! about `|s| · ū_q`. `DistributionPolicy::cost_exact` makes the
//! comparison itself, event by event, from the costs the broker already
//! computes. This ablation sweeps Figure 6's 11-point threshold grid and
//! runs the exact rule on the same event stream.
//!
//! Writes `results/ablation_adaptive.json`. Override the event count
//! with `PUBSUB_EVENTS` (default 6000).

use pubsub_bench::{
    build_broker, build_testbed, drive, event_count, sample_events, scenario, threshold_sweep,
    write_json, Seeds, FIG6_THRESHOLDS,
};
use pubsub_clustering::ClusteringAlgorithm;
use pubsub_core::{DeliveryMode, DistributionPolicy};
use pubsub_workload::Modes;
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    global_sweep: Vec<(f64, f64)>,
    best_global: (f64, f64),
    cost_exact_improvement: f64,
    cost_exact_multicast_fraction: f64,
}

fn main() {
    let n = event_count(6000);
    let testbed = build_testbed(Seeds::default());
    let model = scenario(Modes::Nine);
    let events = sample_events(&model, n, 202);
    let groups = 11usize;

    println!("== Exact cost rule vs global thresholds (9 modes, {groups} groups, {n} events) ==\n");

    let mut broker = build_broker(
        &testbed,
        &model,
        ClusteringAlgorithm::ForgyKMeans,
        groups,
        0.15,
        DeliveryMode::DenseMode,
    );
    println!("global threshold sweep:");
    let global_sweep: Vec<(f64, f64)> = threshold_sweep(&mut broker, &events, &FIG6_THRESHOLDS)
        .into_iter()
        .map(|p| (p.threshold, p.improvement_percent))
        .collect();
    for (t, improvement) in &global_sweep {
        println!("  t = {:>4.1}%: {improvement:>6.1}%", t * 100.0);
    }
    let best_global = global_sweep
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");

    *broker.policy_mut() = DistributionPolicy::cost_exact();
    let exact = drive(&mut broker, &events);
    let sent = (exact.unicasts + exact.multicasts).max(1);
    let multicast_fraction = exact.multicasts as f64 / sent as f64;
    println!(
        "\nbest global threshold: t = {:.1}% -> {:.1}% improvement",
        best_global.0 * 100.0,
        best_global.1
    );
    println!(
        "exact cost rule min(unicast, m_q) -> {:.1}% improvement ({:.1}% of sends multicast)",
        exact.improvement_percent(),
        multicast_fraction * 100.0
    );

    write_json(
        "ablation_adaptive",
        &Out {
            global_sweep,
            best_global,
            cost_exact_improvement: exact.improvement_percent(),
            cost_exact_multicast_fraction: multicast_fraction,
        },
    );
    println!("\nwrote results/ablation_adaptive.json");
}
