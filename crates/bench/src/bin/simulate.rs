//! `simulate` — the configurable end-to-end simulator CLI.
//!
//! Runs one experimental cell of the paper's evaluation with every knob
//! on the command line, printing a human-readable report and (optionally)
//! machine-readable JSON. This is the "drive it yourself" entry point the
//! figure binaries are specializations of.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin simulate -- \
//!     --modes 9 --groups 11 --algorithm forgy --threshold 0.15 \
//!     --events 10000 --delivery dense --seed 1903 --json
//! ```

use pubsub_bench::{build_broker, build_testbed, drive, sample_events, scenario, Seeds};
use pubsub_clustering::ClusteringAlgorithm;
use pubsub_core::{CostReport, DeliveryMode};
use pubsub_workload::Modes;
use serde::Serialize;

/// The `--json` copy of [`CostReport`], field for field.
#[derive(Serialize)]
struct Report {
    messages: u64,
    dropped: u64,
    unicasts: u64,
    multicasts: u64,
    partial_multicasts: u64,
    scheme_cost: f64,
    unicast_cost: f64,
    ideal_cost: f64,
    wasted_deliveries: u64,
    unreachable_skipped: u64,
}

impl From<CostReport> for Report {
    fn from(r: CostReport) -> Self {
        Report {
            messages: r.messages,
            dropped: r.dropped,
            unicasts: r.unicasts,
            multicasts: r.multicasts,
            partial_multicasts: r.partial_multicasts,
            scheme_cost: r.scheme_cost,
            unicast_cost: r.unicast_cost,
            ideal_cost: r.ideal_cost,
            wasted_deliveries: r.wasted_deliveries,
            unreachable_skipped: r.unreachable_skipped,
        }
    }
}

#[derive(Debug)]
struct Args {
    modes: Modes,
    groups: usize,
    algorithm: ClusteringAlgorithm,
    threshold: f64,
    events: usize,
    delivery: String,
    seed: u64,
    json: bool,
}

const USAGE: &str = "\
usage: simulate [options]
  --modes <1|4|9>          publication hot spots (default 9)
  --groups <n>             multicast groups (default 11)
  --algorithm <forgy|batch|pairwise|mst>   clustering (default forgy)
  --threshold <t>          distribution threshold in [0,1] (default 0.15)
  --events <n>             publications to simulate (default 10000)
  --delivery <dense|sparse|alm>            multicast flavor (default dense)
  --seed <n>               master seed (default 1903)
  --json                   also print the report as JSON
  --help                   show this message";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        modes: Modes::Nine,
        groups: 11,
        algorithm: ClusteringAlgorithm::ForgyKMeans,
        threshold: 0.15,
        events: 10_000,
        delivery: "dense".into(),
        seed: 1903,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--modes" => {
                args.modes = match value("--modes")?.as_str() {
                    "1" => Modes::One,
                    "4" => Modes::Four,
                    "9" => Modes::Nine,
                    other => return Err(format!("unknown mode count {other}")),
                }
            }
            "--groups" => {
                args.groups = value("--groups")?
                    .parse()
                    .map_err(|e| format!("bad --groups: {e}"))?
            }
            "--algorithm" => {
                args.algorithm = match value("--algorithm")?.as_str() {
                    "forgy" => ClusteringAlgorithm::ForgyKMeans,
                    "batch" => ClusteringAlgorithm::BatchKMeans,
                    "pairwise" => ClusteringAlgorithm::PairwiseGrouping,
                    "mst" => ClusteringAlgorithm::MinimumSpanningTree,
                    other => return Err(format!("unknown algorithm {other}")),
                }
            }
            "--threshold" => {
                args.threshold = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("bad --threshold: {e}"))?
            }
            "--events" => {
                args.events = value("--events")?
                    .parse()
                    .map_err(|e| format!("bad --events: {e}"))?
            }
            "--delivery" => args.delivery = value("--delivery")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--json" => args.json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let seeds = Seeds {
        topology: args.seed,
        subscriptions: args.seed.wrapping_add(100),
        publications: args.seed.wrapping_add(200),
    };
    let testbed = build_testbed(seeds);
    let model = scenario(args.modes);
    let delivery = match args.delivery.as_str() {
        "dense" => DeliveryMode::DenseMode,
        "sparse" => DeliveryMode::SparseMode {
            rendezvous: testbed.topology.transit_nodes()[0],
        },
        "alm" => DeliveryMode::ApplicationLevel,
        other => {
            eprintln!("error: unknown delivery mode {other}");
            std::process::exit(2);
        }
    };
    let mut broker = build_broker(
        &testbed,
        &model,
        args.algorithm,
        args.groups,
        args.threshold,
        delivery,
    );
    let events = sample_events(&model, args.events, seeds.publications);
    let report = drive(&mut broker, &events);

    println!(
        "== simulate: {} | {} groups | {} | t={} | {} ==",
        args.modes, args.groups, args.algorithm, args.threshold, args.delivery
    );
    println!(
        "topology: {} nodes; subscriptions: {}; groups sized {:?}",
        testbed.topology.stats().nodes,
        testbed.subscriptions.len(),
        broker.groups().sizes()
    );
    println!("messages    {:>8}", report.messages);
    println!("  dropped   {:>8}", report.dropped);
    println!("  unicast   {:>8}", report.unicasts);
    println!("  multicast {:>8}", report.multicasts);
    println!("wasted deliveries {:>8}", report.wasted_deliveries);
    println!("scheme cost  {:>14.0}", report.scheme_cost);
    println!("unicast cost {:>14.0}", report.unicast_cost);
    println!("ideal cost   {:>14.0}", report.ideal_cost);
    println!(
        "improvement over unicast: {:.1}%",
        report.improvement_percent()
    );
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&Report::from(report)).expect("report serializes")
        );
    }
}
