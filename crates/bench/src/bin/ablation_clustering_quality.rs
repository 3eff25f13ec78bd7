//! Clustering quality ablation: the expected-waste objective vs the
//! realized network improvement, per algorithm.
//!
//! The clustering algorithms greedily minimize expected wasted
//! deliveries; the simulation measures the realized cost improvement.
//! This ablation reports the *exact* expected-waste objective (see
//! `pubsub_clustering::expected_waste`) next to the realized static and
//! dynamic (`t = 0.15`) improvements and the best threshold of Figure 6's
//! grid. Waste counts deliveries while the improvement
//! metric weighs link costs, so the rankings correlate only loosely —
//! which is itself a finding: the EW distance optimizes a proxy.
//!
//! A second table prints each algorithm's running time on the same grid
//! model (T = 200 cells): the median wall time of 21 `cluster()` calls,
//! to stdout only, so the JSON stays a deterministic result.
//!
//! Writes `results/ablation_clustering_quality.json`. Override the event
//! count with `PUBSUB_EVENTS` (default 4000).

use pubsub_bench::{
    build_broker, build_testbed, drive, event_count, sample_events, scenario, threshold_sweep,
    write_json, Seeds, FIG6_THRESHOLDS,
};
use pubsub_clustering::{
    cluster, expected_waste, ClusteringAlgorithm, ClusteringConfig, GridModel,
};
use pubsub_core::{DeliveryMode, DistributionPolicy};
use pubsub_geom::Grid;
use pubsub_workload::{stock_space, Modes};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Timed `cluster()` calls per algorithm and group count.
const RUNS: usize = 21;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    groups: usize,
    expected_waste: f64,
    static_improvement: f64,
    dynamic_improvement: f64,
    best_threshold: f64,
    best_improvement: f64,
}

fn main() {
    let n = event_count(4000);
    let testbed = build_testbed(Seeds::default());
    let model = scenario(Modes::Nine);
    let events = sample_events(&model, n, Seeds::default().publications);

    // The same grid model the broker builds internally.
    let space = stock_space();
    let mut nodes: Vec<_> = testbed.subscriptions.iter().map(|&(n, _)| n).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let subs: Vec<(usize, pubsub_geom::Rect)> = testbed
        .subscriptions
        .iter()
        .map(|(nd, r)| (nodes.binary_search(nd).expect("collected"), space.clamp(r)))
        .collect();
    let grid = Grid::uniform(space.bounds().clone(), 10).expect("finite bounds");
    let density = model.clone();
    let grid_model =
        GridModel::build(grid, nodes.len(), &subs, move |r| density.mass(r)).expect("valid");

    println!(
        "== Clustering quality: EW objective vs realized improvement (9 modes, {n} events) ==\n"
    );
    println!(
        "{:>22} {:>7} {:>14} {:>12} {:>12} {:>14}",
        "algorithm", "groups", "EW objective", "static t=0", "dynamic .15", "best t"
    );
    let mut rows = Vec::new();
    for groups in [11usize, 61] {
        for alg in ClusteringAlgorithm::ALL {
            let partition =
                cluster(&grid_model, &ClusteringConfig::new(alg, groups)).expect("valid config");
            let objective = expected_waste(&grid_model, &partition);
            let mut broker =
                build_broker(&testbed, &model, alg, groups, 0.0, DeliveryMode::DenseMode);
            let static_report = drive(&mut broker, &events);
            *broker.policy_mut() = DistributionPolicy::new(0.15).expect("valid");
            let dynamic_report = drive(&mut broker, &events);
            let best = threshold_sweep(&mut broker, &events, &FIG6_THRESHOLDS)
                .into_iter()
                .max_by(|a, b| a.improvement_percent.total_cmp(&b.improvement_percent))
                .expect("non-empty grid");
            println!(
                "{:>22} {:>7} {:>14.3} {:>11.1}% {:>11.1}% {:>5.1}%: {:>5.1}%",
                alg.to_string(),
                groups,
                objective,
                static_report.improvement_percent(),
                dynamic_report.improvement_percent(),
                best.threshold * 100.0,
                best.improvement_percent,
            );
            rows.push(Row {
                algorithm: alg.to_string(),
                groups,
                expected_waste: objective,
                static_improvement: static_report.improvement_percent(),
                dynamic_improvement: dynamic_report.improvement_percent(),
                best_threshold: best.threshold,
                best_improvement: best.improvement_percent,
            });
        }
    }
    println!("\nexpected shape: 61 groups dominate 11 on both columns; the waste objective");
    println!("(deliveries) and the improvement metric (link costs) correlate loosely.");

    println!("\n== Clustering running time: median of {RUNS} cluster() calls, T = 200 ==\n");
    println!("{:>22} {:>12} {:>12}", "algorithm", "n=11", "n=61");
    for alg in ClusteringAlgorithm::ALL {
        let [few, many] = [11usize, 61].map(|groups| {
            let config = ClusteringConfig::new(alg, groups);
            let mut times: Vec<Duration> = (0..RUNS)
                .map(|_| {
                    let start = Instant::now();
                    cluster(&grid_model, &config).expect("valid config");
                    start.elapsed()
                })
                .collect();
            times.sort_unstable();
            times[RUNS / 2].as_secs_f64() * 1e3
        });
        println!("{:>22} {few:>9.2} ms {many:>9.2} ms", alg.to_string());
    }
    write_json("ablation_clustering_quality", &rows);
    println!("wrote results/ablation_clustering_quality.json");
}
