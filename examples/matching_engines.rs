//! Comparing the matching indexes: S-tree vs Hilbert/Morton packed
//! R-trees vs linear scan, on the paper's subscription workload.
//!
//! Every index answers the same point queries identically; they differ in
//! how much of the structure a query touches. Churn is the broker's job:
//! see `examples/churn_and_adapt.rs`.
//!
//! Run with: `cargo run --release --example matching_engines`

use std::time::Instant;

use pubsub::geom::Point;
use pubsub::netsim::TransitStubConfig;
use pubsub::stree::{
    CountingIndex, CurveKind, Entry, EntryId, LinearScan, PackedConfig, PackedRTree, STree,
    STreeConfig, SpatialIndex,
};
use pubsub::workload::{stock_space, Modes, SubscriptionConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's 1000 stock subscriptions, clamped to the event space.
    let topology = TransitStubConfig::riabov().generate(1903)?;
    let placed = SubscriptionConfig::riabov().generate(&topology, 2003)?;
    let space = stock_space();
    let entries: Vec<Entry> = placed
        .iter()
        .enumerate()
        .map(|(i, p)| Entry::new(space.clamp(&p.rect), EntryId(i as u32)))
        .collect();

    let model = Modes::Nine.model();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let events: Vec<Point> = (0..20_000).map(|_| model.sample(&mut rng)).collect();

    let stree = STree::build(entries.clone(), STreeConfig::default())?;
    let hilbert = PackedRTree::build(entries.clone(), PackedConfig::hilbert())?;
    let morton = PackedRTree::build(
        entries.clone(),
        PackedConfig::new(40, CurveKind::Morton, 10)?,
    )?;
    let counting = CountingIndex::new(entries.clone())?;
    let linear = LinearScan::new(entries)?;

    println!("index        | total matches | elapsed");
    let indexes: [(&str, &dyn SpatialIndex); 5] = [
        ("s-tree", &stree),
        ("hilbert", &hilbert),
        ("morton", &morton),
        ("counting", &counting),
        ("linear", &linear),
    ];
    let mut reference = None;
    for (name, index) in indexes {
        let start = Instant::now();
        let mut matches = 0usize;
        let mut out = Vec::new();
        for e in &events {
            out.clear();
            index.query_point_into(e, &mut out);
            matches += out.len();
        }
        let elapsed = start.elapsed();
        println!("{name:<12} | {matches:>13} | {elapsed:>9.2?}");
        // All indexes must agree exactly.
        match reference {
            None => reference = Some(matches),
            Some(r) => assert_eq!(r, matches, "{name} disagrees with the s-tree"),
        }
    }
    Ok(())
}
