//! Network-cost engine throughput: the legacy node-based
//! `ShortestPaths` walks (with the old per-publisher `HashMap` cache)
//! vs the compiled [`FlatNet`] engine vs the batched [`cost_events`]
//! pipeline, on the paper's ~600-node transit-stub testbed.
//!
//! Each engine evaluates, per published event, the three walks of the
//! broker's hot path: the unicast bill, the ideal (interested-set) tree
//! cost, and one group-send tree cost. All three engines are verified to
//! produce bit-identical totals before timing starts.
//!
//! Prints a throughput table and writes the machine-readable result to
//! `BENCH_netsim.json` in the current directory. Event count is
//! overridable with `PUBSUB_EVENTS`; pass `--quick` for a smoke-sized
//! run (used by CI).

use std::collections::HashMap;

use serde::Serialize;

use pubsub_bench::{build_testbed, event_count, measure, sample_events, scenario, Seeds};
use pubsub_core::{CoveringConfig, MatchScratch, Matcher};
use pubsub_netsim::{
    cost_events, dijkstra, multicast_tree_cost, multicast_tree_cost_flat, unicast_and_tree_cost,
    unicast_cost, CostScratch, FlatNet, NodeId, ShortestPaths, SptTable,
};
use pubsub_workload::{stock_space, Modes};

#[derive(Debug, Serialize)]
struct Row {
    name: &'static str,
    events_per_sec: f64,
    speedup_vs_node: f64,
}

#[derive(Debug, Serialize)]
struct Output {
    nodes: usize,
    edges: usize,
    subscriptions: usize,
    events: usize,
    groups: usize,
    samples: usize,
    /// Host core count and SIMD level, uniform across every
    /// `BENCH_*.json` header.
    host: pubsub_bench::HostInfo,
    rows: Vec<Row>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = event_count(if quick { 2_000 } else { 20_000 });
    let samples = if quick { 3 } else { 7 };

    let seeds = Seeds::default();
    let testbed = build_testbed(seeds);
    let graph = testbed.topology.graph();
    let publisher = testbed.topology.transit_nodes()[0];
    let matcher = Matcher::build(
        &stock_space(),
        &testbed.subscriptions,
        CoveringConfig::default(),
    )
    .expect("testbed is valid");

    // The receiver sets the engines will cost: the matched interested
    // nodes of each event, computed once up front (matching throughput is
    // bench_matching's subject, not this binary's).
    let events = sample_events(&scenario(Modes::Nine), n, seeds.publications);
    let mut scratch = MatchScratch::new();
    let mut subs = Vec::new();
    let interested: Vec<Vec<NodeId>> = events
        .iter()
        .map(|event| {
            let mut nodes = Vec::new();
            matcher.match_event_into(event, &mut scratch, &mut subs, &mut nodes);
            nodes
        })
        .collect();

    // Round-robin multicast groups over the distinct subscriber nodes —
    // the group-send walk needs realistic member sets, not a clustering.
    let mut distinct: Vec<NodeId> = testbed
        .subscriptions
        .iter()
        .map(|&(node, _)| node)
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let group_count = 11usize;
    let groups: Vec<Vec<NodeId>> = (0..group_count)
        .map(|g| {
            distinct
                .iter()
                .copied()
                .skip(g)
                .step_by(group_count)
                .collect()
        })
        .collect();

    // Engine 1: the node-based walks behind the old broker's lazy
    // per-publisher HashMap<NodeId, ShortestPaths> cache.
    let mut cache: HashMap<NodeId, ShortestPaths> = HashMap::new();
    cache.insert(publisher, dijkstra(graph, publisher));
    let mut node_pass = || {
        let mut total = 0.0;
        for (i, set) in interested.iter().enumerate() {
            let spt = &cache[&publisher];
            total += unicast_cost(spt, set);
            total += multicast_tree_cost(spt, set);
            total += multicast_tree_cost(spt, &groups[i % group_count]);
        }
        total
    };

    // Engine 2: the compiled flat engine — one dense SPT row, reusable
    // epoch-stamped scratch, combined unicast+tree pass, and (like the
    // broker) a per-group send-cost memo: the group-send walk is
    // event-independent, so each group is walked once per pass, not once
    // per event. The memoized value is the walk's own f64, so totals stay
    // bit-identical to the recompute-every-event baseline.
    let net = FlatNet::compile(graph);
    let table = SptTable::build(&net, &[publisher], None);
    let mut scratch = CostScratch::new();
    let mut memo: Vec<Option<f64>> = vec![None; group_count];
    let mut flat_pass = || {
        let view = table.view(publisher).expect("built above");
        memo.fill(None);
        let mut total = 0.0;
        for (i, set) in interested.iter().enumerate() {
            let pair = unicast_and_tree_cost(view, set, &mut scratch);
            total += pair.unicast;
            total += pair.tree;
            let q = i % group_count;
            total += *memo[q]
                .get_or_insert_with(|| multicast_tree_cost_flat(view, &groups[q], &mut scratch));
        }
        total
    };

    // Engine 3: the batched pipeline the broker's publish_batch uses —
    // cost_events for every unicast/ideal pair, then the memoized group
    // sends.
    let mut batch_scratch = CostScratch::new();
    let mut batch_memo: Vec<Option<f64>> = vec![None; group_count];
    let mut batched_pass = || {
        let view = table.view(publisher).expect("built above");
        batch_memo.fill(None);
        let pairs = cost_events(
            view,
            interested.iter().map(Vec::as_slice),
            &mut batch_scratch,
        );
        let mut total = 0.0;
        for (i, pair) in pairs.iter().enumerate() {
            total += pair.unicast;
            total += pair.tree;
            let q = i % group_count;
            total += *batch_memo[q].get_or_insert_with(|| {
                multicast_tree_cost_flat(view, &groups[q], &mut batch_scratch)
            });
        }
        total
    };

    // The engines must agree bit for bit before their speed matters.
    let expected = node_pass();
    assert_eq!(expected.to_bits(), flat_pass().to_bits(), "flat != node");
    assert_eq!(
        expected.to_bits(),
        batched_pass().to_bits(),
        "batch != node"
    );

    let node = measure(n, samples, &mut node_pass);
    let flat = measure(n, samples, &mut flat_pass);
    let batched = measure(n, samples, &mut batched_pass);

    let rows = vec![
        Row {
            name: "node_spt_walk",
            events_per_sec: node,
            speedup_vs_node: 1.0,
        },
        Row {
            name: "flat",
            events_per_sec: flat,
            speedup_vs_node: flat / node,
        },
        Row {
            name: "flat_batched",
            events_per_sec: batched,
            speedup_vs_node: batched / node,
        },
    ];

    println!(
        "cost-evaluation throughput (unicast + ideal tree + group send per event),\n\
         {} nodes / {} edges, {} subscriptions, {} events, {} groups (totals bit-identical):",
        graph.node_count(),
        graph.edge_count(),
        testbed.subscriptions.len(),
        n,
        group_count
    );
    println!("{:<16} {:>14} {:>10}", "engine", "events/s", "speedup");
    for r in &rows {
        println!(
            "{:<16} {:>14.0} {:>9.2}x",
            r.name, r.events_per_sec, r.speedup_vs_node
        );
    }

    let out = Output {
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        subscriptions: testbed.subscriptions.len(),
        events: n,
        groups: group_count,
        samples,
        host: pubsub_bench::host_info(),
        rows,
    };
    let json = serde_json::to_string_pretty(&out).expect("serializable");
    if let Err(e) = std::fs::write("BENCH_netsim.json", &json) {
        eprintln!("warning: could not write BENCH_netsim.json: {e}");
    }
}
