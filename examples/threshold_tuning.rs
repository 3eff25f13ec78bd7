//! Tuning the distribution threshold: a miniature Figure 6.
//!
//! Sweeps the threshold `t` on one broker and prints the improvement
//! curve, showing the interior optimum the paper reports around 15%.
//!
//! Run with: `cargo run --release --example threshold_tuning`

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, DistributionPolicy};
use pubsub::netsim::TransitStubConfig;
use pubsub::workload::{stock_space, Modes, SubscriptionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topology = TransitStubConfig::riabov().generate(1903)?;
    let placed = SubscriptionConfig::riabov().generate(&topology, 2003)?;
    let model = Modes::Nine.model();
    let density_model = model.clone();
    let mut broker = Broker::builder(topology, stock_space())
        .subscriptions(placed.into_iter().map(|p| (p.node, p.rect)))
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .density(move |r| density_model.mass(r))
        .build()?;

    // One fixed event stream, republished at every threshold.
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let events: Vec<_> = (0..5000).map(|_| model.sample(&mut rng)).collect();

    println!("threshold  improvement  multicast share");
    let mut best = (0.0, f64::NEG_INFINITY);
    for t in [0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50] {
        *broker.policy_mut() = DistributionPolicy::new(t)?;
        broker.reset_report();
        for e in &events {
            broker.publish(e)?;
        }
        let r = broker.report();
        let sent = (r.unicasts + r.multicasts).max(1);
        let improvement = r.improvement_percent();
        let bar = "#".repeat((improvement.max(0.0) / 2.0) as usize);
        println!(
            "{:>8.0}% {:>11.1}% {:>15.2}  {bar}",
            t * 100.0,
            improvement,
            r.multicasts as f64 / sent as f64
        );
        if improvement > best.1 {
            best = (t, improvement);
        }
    }
    println!(
        "\nbest threshold: {:.0}% ({:.1}% improvement) — the paper recommends ~15%",
        best.0 * 100.0,
        best.1
    );
    println!("t=0 is the static scheme (always multicast on a group hit); high t degrades to pure unicast.");
    Ok(())
}
