//! Ratio rule vs absolute-count rule (§1 names both: "the number (or the
//! ratio of the number to the group size) of subscriptions relevant to
//! each publication event").
//!
//! Sweeps the fraction threshold over Figure 6's grid and the
//! absolute-count threshold on the same broker and event stream. With similarly-sized groups the two
//! rules coincide around `count ≈ t·|M|`; the ratio rule adapts to group
//! size, the count rule is cheaper to evaluate and needs no group-size
//! bookkeeping.
//!
//! Writes `results/ablation_count_rule.json`. Override the event count
//! with `PUBSUB_EVENTS` (default 6000).

use pubsub_bench::{
    build_broker, build_testbed, drive, event_count, sample_events, scenario, write_json, Seeds,
    FIG6_THRESHOLDS,
};
use pubsub_clustering::ClusteringAlgorithm;
use pubsub_core::{DeliveryMode, DistributionPolicy};
use pubsub_workload::Modes;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    rule: String,
    parameter: f64,
    improvement: f64,
    multicasts: u64,
}

fn main() {
    let n = event_count(6000);
    let testbed = build_testbed(Seeds::default());
    let model = scenario(Modes::Nine);
    let events = sample_events(&model, n, Seeds::default().publications);
    let mut broker = build_broker(
        &testbed,
        &model,
        ClusteringAlgorithm::ForgyKMeans,
        11,
        0.0,
        DeliveryMode::DenseMode,
    );
    let avg_group =
        broker.groups().sizes().iter().sum::<usize>() as f64 / broker.groups().len().max(1) as f64;

    println!("== Ratio vs absolute-count distribution rules (9 modes, 11 groups, {n} events) ==");
    println!("mean group size: {avg_group:.0} members\n");
    println!(
        "{:>10} {:>12} {:>12} {:>11}",
        "rule", "parameter", "improvement", "multicasts"
    );

    let mut rows = Vec::new();
    for t in FIG6_THRESHOLDS {
        *broker.policy_mut() = DistributionPolicy::new(t).expect("valid threshold");
        let r = drive(&mut broker, &events);
        println!(
            "{:>10} {:>11.1}% {:>11.1}% {:>11}",
            "ratio",
            t * 100.0,
            r.improvement_percent(),
            r.multicasts
        );
        rows.push(Row {
            rule: "ratio".into(),
            parameter: t,
            improvement: r.improvement_percent(),
            multicasts: r.multicasts,
        });
    }
    println!();
    for count in [0usize, 4, 8, 16, 24, 32, 48] {
        *broker.policy_mut() = DistributionPolicy::by_count(count);
        let r = drive(&mut broker, &events);
        println!(
            "{:>10} {:>12} {:>11.1}% {:>11}",
            "count",
            count,
            r.improvement_percent(),
            r.multicasts
        );
        rows.push(Row {
            rule: "count".into(),
            parameter: count as f64,
            improvement: r.improvement_percent(),
            multicasts: r.multicasts,
        });
    }
    println!("\nexpected shape: both rules show the interior optimum; the count rule's best");
    println!("parameter sits near t*·(mean group size).");
    write_json("ablation_count_rule", &rows);
    println!("wrote results/ablation_count_rule.json");
}
