//! The paper's full evaluation scenario, end to end: the ~600-node
//! transit-stub network, 1000 stock subscriptions, a 9-hot-spot
//! publication stream, Forgy k-means multicast groups and the dynamic
//! distribution scheme.
//!
//! Run with: `cargo run --release --example stock_market`

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, Decision};
use pubsub::netsim::TransitStubConfig;
use pubsub::workload::{stock_space, Modes, SubscriptionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The testbed of §5: topology and subscriptions.
    let topology = TransitStubConfig::riabov().generate(1903)?;
    let stats = topology.stats();
    println!(
        "topology: {} nodes ({} transit, {} stub) in {} blocks",
        stats.nodes, stats.transit_nodes, stats.stub_nodes, stats.blocks
    );
    let placed = SubscriptionConfig::riabov().generate(&topology, 2003)?;
    println!("subscriptions: {} placed on stub nodes", placed.len());

    // Publications: the 9-mode mixture ("multiple hot spots").
    let model = Modes::Nine.model();
    let density_model = model.clone();

    let mut broker = Broker::builder(topology, stock_space())
        .subscriptions(placed.into_iter().map(|p| (p.node, p.rect)))
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .threshold(0.15)
        .density(move |r| density_model.mass(r))
        .build()?;

    println!(
        "broker: {} multicast groups, sizes {:?}",
        broker.groups().len(),
        broker.groups().sizes()
    );
    let covering = broker.matcher().covering_stats();
    println!(
        "matcher: {} subscriptions as {} representatives ({} distinct, {} subsumed), \
         {:.1} KiB of slab bitmaps and covering table",
        covering.concrete,
        covering.representatives,
        covering.uniques,
        covering.subsumed,
        broker.matcher().heap_bytes() as f64 / 1024.0
    );

    // A trading session.
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let mut sample_lines = 0;
    for i in 0..20_000 {
        let event = model.sample(&mut rng);
        let outcome = broker.publish(&event)?;
        // Print a few interesting deliveries as they happen.
        if sample_lines < 5 {
            if let Decision::Multicast { group } = outcome.decision {
                println!(
                    "  event #{i}: multicast to group {group} — {} interested of {} members",
                    outcome.interested.len(),
                    broker.groups().members(group).len()
                );
                sample_lines += 1;
            }
        }
    }

    let r = broker.report();
    println!("\n=== session report ===");
    println!("messages        {:>8}", r.messages);
    println!("  dropped       {:>8}", r.dropped);
    println!("  unicast       {:>8}", r.unicasts);
    println!("  multicast     {:>8}", r.multicasts);
    println!("scheme cost     {:>12.0}", r.scheme_cost);
    println!("unicast cost    {:>12.0}  (0% reference)", r.unicast_cost);
    println!("ideal cost      {:>12.0}  (100% reference)", r.ideal_cost);
    println!("wasted deliveries {:>6}", r.wasted_deliveries);
    println!(
        "improvement over unicast: {:.1}% (the paper's Figure 6 metric)",
        r.improvement_percent()
    );
    Ok(())
}
