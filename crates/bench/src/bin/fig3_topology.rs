//! Figure 3: the generated network topology.
//!
//! The paper shows the GT-ITM-generated 600-node transit-stub network as a
//! picture; this binary reports the same structure as numbers — block /
//! transit / stub composition, connectivity, degree distribution — and
//! writes `results/fig3_topology.json`.

use pubsub_bench::{build_testbed, write_json, Seeds};
use pubsub_netsim::TopologyStats;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3 {
    stats: Stats,
    per_block: Vec<BlockRow>,
    degree_histogram: Vec<(usize, usize)>,
}

/// The JSON copy of [`TopologyStats`], field for field.
#[derive(Serialize)]
struct Stats {
    nodes: usize,
    edges: usize,
    transit_nodes: usize,
    stub_nodes: usize,
    stubs: usize,
    blocks: usize,
    avg_degree: f64,
    avg_stub_size: f64,
    connected: bool,
}

impl From<TopologyStats> for Stats {
    fn from(s: TopologyStats) -> Self {
        Stats {
            nodes: s.nodes,
            edges: s.edges,
            transit_nodes: s.transit_nodes,
            stub_nodes: s.stub_nodes,
            stubs: s.stubs,
            blocks: s.blocks,
            avg_degree: s.avg_degree,
            avg_stub_size: s.avg_stub_size,
            connected: s.connected,
        }
    }
}

#[derive(Serialize)]
struct BlockRow {
    block: usize,
    transit_nodes: usize,
    stubs: usize,
    stub_nodes: usize,
}

fn main() {
    let seeds = Seeds::default();
    let testbed = build_testbed(seeds);
    let topo = &testbed.topology;
    let stats = topo.stats();

    println!("== Figure 3: generated transit-stub topology ==");
    println!(
        "(GT-ITM model: 3 transit blocks x ~5 transit nodes, 2 stubs/transit, ~20 nodes/stub)"
    );
    println!();
    println!("nodes            {:>6}", stats.nodes);
    println!("edges            {:>6}", stats.edges);
    println!("transit blocks   {:>6}", stats.blocks);
    println!("transit nodes    {:>6}", stats.transit_nodes);
    println!("stub networks    {:>6}", stats.stubs);
    println!("stub nodes       {:>6}", stats.stub_nodes);
    println!("avg stub size    {:>9.2}", stats.avg_stub_size);
    println!("avg degree       {:>9.2}", stats.avg_degree);
    println!("connected        {:>6}", stats.connected);
    println!();

    let mut per_block = Vec::new();
    println!(
        "{:>6} {:>14} {:>6} {:>11}",
        "block", "transit nodes", "stubs", "stub nodes"
    );
    for b in 0..stats.blocks {
        let transit = topo.transit_nodes_of_block(b).len();
        let stubs = topo.stubs_of_block(b);
        let stub_nodes: usize = stubs.iter().map(|&i| topo.stubs()[i].nodes.len()).sum();
        println!("{b:>6} {transit:>14} {:>6} {stub_nodes:>11}", stubs.len());
        per_block.push(BlockRow {
            block: b,
            transit_nodes: transit,
            stubs: stubs.len(),
            stub_nodes,
        });
    }

    // Degree histogram.
    let mut degrees = std::collections::BTreeMap::new();
    for n in topo.graph().node_ids() {
        *degrees.entry(topo.graph().degree(n)).or_insert(0usize) += 1;
    }
    println!();
    println!("degree histogram:");
    let max = degrees.values().copied().max().unwrap_or(1);
    for (&d, &count) in &degrees {
        println!("{d:>4} | {:<50} {count}", "#".repeat(count * 50 / max));
    }

    write_json(
        "fig3_topology",
        &Fig3 {
            stats: stats.into(),
            per_block,
            degree_histogram: degrees.into_iter().collect(),
        },
    );
    // The picture itself: render with `dot -Tsvg -Kneato`.
    if std::fs::create_dir_all("results").is_ok() {
        match std::fs::write("results/fig3_topology.dot", topo.to_dot()) {
            Ok(()) => {
                println!("\nwrote results/fig3_topology.json and .dot (render with graphviz)")
            }
            Err(e) => eprintln!("warning: could not write fig3_topology.dot: {e}"),
        }
    }
}
