//! Figure 6 (the headline experiment): the effect of dynamically switching
//! to unicast based on the proportion of interested subscribers.
//!
//! For each publication scenario (1/4/9 modes), group count (11 and 61)
//! and clustering algorithm (Forgy k-means, pairwise grouping, minimum
//! spanning tree), sweep the distribution threshold `t` and report the
//! communication-cost improvement over pure unicast (0% = unicast each
//! message, 100% = a dedicated multicast group per message).
//!
//! Expected shape, per the paper: improvement peaks at an interior
//! threshold around 15%; `t = 0` (the static scheme) is worse than the
//! peak; high thresholds degrade to unicast (0%); 61 groups beat 11.
//!
//! Writes `results/fig6_threshold.json`. Override the publication count
//! with `PUBSUB_EVENTS` (default 10000).

use pubsub_bench::{
    build_broker, build_testbed, event_count, sample_events, scenario, threshold_sweep, write_json,
    Seeds, SweepPoint, FIG6_THRESHOLDS,
};
use pubsub_clustering::ClusteringAlgorithm;
use pubsub_core::DeliveryMode;
use pubsub_workload::Modes;
use serde::Serialize;

const ALGORITHMS: [ClusteringAlgorithm; 3] = [
    ClusteringAlgorithm::ForgyKMeans,
    ClusteringAlgorithm::PairwiseGrouping,
    ClusteringAlgorithm::MinimumSpanningTree,
];

#[derive(Serialize)]
struct Cell {
    modes: usize,
    groups: usize,
    algorithm: String,
    sweep: Vec<SweepPoint>,
}

fn main() {
    let events_per_cell = event_count(10_000);
    let testbed = build_testbed(Seeds::default());
    println!("== Figure 6: dynamic unicast/multicast switching vs threshold ==");
    println!(
        "testbed: {} nodes, {} subscriptions, {} publications per cell\n",
        testbed.topology.stats().nodes,
        testbed.subscriptions.len(),
        events_per_cell
    );

    let mut results: Vec<Cell> = Vec::new();
    for modes in Modes::ALL {
        let model = scenario(modes);
        let events = sample_events(&model, events_per_cell, Seeds::default().publications);
        for groups in [11usize, 61] {
            println!("-- {modes}, {groups} multicast groups --");
            print!("{:>10}", "threshold");
            for alg in ALGORITHMS {
                print!(" {:>22}", alg.to_string());
            }
            println!();
            let mut sweeps = Vec::new();
            for alg in ALGORITHMS {
                let mut broker =
                    build_broker(&testbed, &model, alg, groups, 0.0, DeliveryMode::DenseMode);
                sweeps.push(threshold_sweep(&mut broker, &events, &FIG6_THRESHOLDS));
            }
            for (ti, &t) in FIG6_THRESHOLDS.iter().enumerate() {
                print!("{:>9.1}%", t * 100.0);
                for sweep in &sweeps {
                    print!(" {:>21.1}%", sweep[ti].improvement_percent);
                }
                println!();
            }
            println!();
            for (alg, sweep) in ALGORITHMS.iter().zip(sweeps) {
                results.push(Cell {
                    modes: modes.mode_count(),
                    groups,
                    algorithm: alg.to_string(),
                    sweep,
                });
            }
        }
    }

    // Headline summary: best threshold per cell.
    println!("== summary: best threshold per configuration ==");
    println!(
        "{:>6} {:>7} {:>22} {:>10} {:>12} {:>12}",
        "modes", "groups", "algorithm", "best t", "improve %", "at t=0 %"
    );
    for cell in &results {
        let best = cell
            .sweep
            .iter()
            .max_by(|a, b| a.improvement_percent.total_cmp(&b.improvement_percent))
            .expect("non-empty sweep");
        let at_zero = cell.sweep[0].improvement_percent;
        println!(
            "{:>6} {:>7} {:>22} {:>9.1}% {:>11.1}% {:>11.1}%",
            cell.modes,
            cell.groups,
            cell.algorithm,
            best.threshold * 100.0,
            best.improvement_percent,
            at_zero
        );
    }

    write_json("fig6_threshold", &results);
    println!("\nwrote results/fig6_threshold.json");
}
