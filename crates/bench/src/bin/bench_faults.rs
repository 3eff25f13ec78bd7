//! Fault-tolerance benchmark: what do link failures cost the publish
//! path, and does degraded-mode delivery still cover every reachable
//! subscriber?
//!
//! On the paper's ~600-node testbed (1000 stock subscriptions, nine-mode
//! publications), three cells cut 0% / 1% / 5% of the network's links up
//! front via a seeded [`FaultPlan`] and then:
//!
//! 1. **verify** — publish the stream sequentially and check every
//!    outcome against an independent BFS reachability oracle built from
//!    the same plan: `interested ∪ unreachable` must equal the matched
//!    set, no delivery may target an oracle-unreachable node, and no
//!    oracle-reachable match may be skipped. Delivered coverage of the
//!    reachable matched set must be exactly 1.0 — that is the acceptance
//!    gate.
//! 2. **measure** — throughput of the same stream through
//!    `publish_batch` (a faulted broker runs batches as fault-clock
//!    segments, so this prices the whole degraded pipeline), plus
//!    the fallback decision mix (multicast / partial multicast / unicast
//!    / dropped) from the cost report.
//!
//! A no-plan baseline broker is measured first so the 0% cell isolates
//! the overhead of the fault machinery itself (empty plan, segment
//! bookkeeping) from the cost of actual damage.
//!
//! Prints a table and writes `results/BENCH_faults.json`. Event count is
//! overridable with `PUBSUB_EVENTS`; pass `--quick` for a smoke-sized
//! run (used by CI).

use std::collections::HashSet;

use serde::Serialize;

use pubsub_bench::{
    build_broker, build_testbed, event_count, measure, sample_events, scenario, write_json, Seeds,
};
use pubsub_clustering::ClusteringAlgorithm;
use pubsub_core::{Broker, DeliveryMode};
use pubsub_geom::Point;
use pubsub_netsim::{FaultEvent, FaultPlan, FaultPlanConfig, NodeId, Topology};
use pubsub_workload::Modes;

/// Seed for the fault plans; fixed so every run cuts the same links.
const PLAN_SEED: u64 = 4099;

/// Link-failure fractions for the three experimental cells.
const RATES: [f64; 3] = [0.0, 0.01, 0.05];

#[derive(Debug, Serialize)]
struct RateCell {
    link_failure_rate: f64,
    links_cut: usize,
    /// Nodes the oracle says the publisher cannot reach once the plan
    /// has fired (out of `nodes` total).
    unreachable_nodes: usize,
    events_per_sec: f64,
    /// Slowdown vs the no-plan pooled baseline, percent.
    overhead_pct: f64,
    /// Delivered coverage of the *reachable* matched set — the gate;
    /// must be exactly 1.0.
    coverage_reachable: f64,
    /// Fraction of all matched subscriber deliveries that still landed
    /// (the rest were provably unreachable).
    delivered_fraction: f64,
    dropped: u64,
    unicasts: u64,
    multicasts: u64,
    partial_multicasts: u64,
    unreachable_skipped: u64,
    wasted_deliveries: u64,
    improvement_percent: f64,
}

#[derive(Debug, Serialize)]
struct Output {
    nodes: usize,
    edges: usize,
    subscriptions: usize,
    events: usize,
    samples: usize,
    /// Host core count and SIMD level, uniform across every
    /// `BENCH_*.json` header.
    host: pubsub_bench::HostInfo,
    plan_seed: u64,
    baseline_events_per_sec: f64,
    cells: Vec<RateCell>,
}

/// From-scratch reachability: BFS over the pristine graph minus the
/// plan's cut links (link-cut plans never down a node).
fn oracle_reachable(topo: &Topology, plan: &FaultPlan, source: NodeId) -> HashSet<u32> {
    let mut cut: HashSet<(u32, u32)> = HashSet::new();
    for scheduled in plan.events() {
        match scheduled.event {
            FaultEvent::LinkCut { a, b } => {
                cut.insert((a.0.min(b.0), a.0.max(b.0)));
            }
            other => panic!("link-cut plan produced {other:?}"),
        }
    }
    let mut seen = HashSet::new();
    let mut stack = vec![source];
    seen.insert(source.0);
    while let Some(n) = stack.pop() {
        for (m, _) in topo.graph().neighbors(n) {
            let key = (n.0.min(m.0), n.0.max(m.0));
            if cut.contains(&key) || seen.contains(&m.0) {
                continue;
            }
            seen.insert(m.0);
            stack.push(m);
        }
    }
    seen
}

/// Publishes the stream sequentially, checking every outcome against the
/// oracle. Returns `(delivered_reachable, matched_reachable,
/// delivered_total, matched_total)`.
fn verify_coverage(
    broker: &mut Broker,
    events: &[Point],
    reachable: &HashSet<u32>,
) -> (u64, u64, u64, u64) {
    broker.reset_report();
    let mut delivered_reachable = 0u64;
    let mut matched_reachable = 0u64;
    let mut delivered_total = 0u64;
    let mut matched_total = 0u64;
    for event in events {
        let (_, matched) = broker
            .match_only(event)
            .expect("events come from the model");
        let out = broker.publish(event).expect("publisher is never downed");
        assert_eq!(
            out.interested.len() + out.unreachable.len(),
            matched.len(),
            "interested/unreachable must partition the matched set"
        );
        for n in &out.interested {
            assert!(
                reachable.contains(&n.0),
                "delivered to oracle-unreachable node {}",
                n.0
            );
        }
        for n in &out.unreachable {
            assert!(
                !reachable.contains(&n.0),
                "skipped oracle-reachable node {}",
                n.0
            );
        }
        assert!(out.costs.scheme.is_finite(), "degraded cost must be finite");
        delivered_total += out.interested.len() as u64;
        matched_total += matched.len() as u64;
        let in_reach = matched.iter().filter(|n| reachable.contains(&n.0)).count() as u64;
        matched_reachable += in_reach;
        delivered_reachable += out.interested.len() as u64;
        assert_eq!(
            out.interested.len() as u64,
            in_reach,
            "delivery must cover exactly the reachable matched set"
        );
    }
    (
        delivered_reachable,
        matched_reachable,
        delivered_total,
        matched_total,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = event_count(if quick { 1_000 } else { 10_000 });
    let samples = if quick { 3 } else { 5 };

    let seeds = Seeds::default();
    let testbed = build_testbed(seeds);
    let model = scenario(Modes::Nine);
    let events = sample_events(&model, n, seeds.publications);

    let build = || {
        build_broker(
            &testbed,
            &model,
            ClusteringAlgorithm::ForgyKMeans,
            11,
            0.15,
            DeliveryMode::DenseMode,
        )
    };

    // No-plan baseline: the pooled batch path, no fault machinery at all.
    let mut baseline = build();
    let baseline_eps = measure(n, samples, || {
        baseline.reset_report();
        baseline
            .publish_batch(&events, None)
            .expect("events come from the model")
            .len()
    });

    println!(
        "fault-tolerance benchmark, {} nodes / {} edges, {} subscriptions, {} events",
        testbed.topology.graph().node_count(),
        testbed.topology.graph().edge_count(),
        testbed.subscriptions.len(),
        n,
    );
    println!(
        "{:<10} {:>6} {:>8} {:>12} {:>9} {:>9} {:>6} {:>6} {:>8} {:>8} {:>9}",
        "link fail",
        "cuts",
        "unreach",
        "events/s",
        "overhead",
        "coverage",
        "drop",
        "uni",
        "multi",
        "partial",
        "delivered",
    );

    let mut cells = Vec::new();
    for rate in RATES {
        let mut broker = build();
        let plan = FaultPlan::seeded(
            testbed.topology.graph(),
            PLAN_SEED,
            &FaultPlanConfig::link_cuts(rate),
        )
        .expect("fraction is in [0, 1]");
        let links_cut = plan.len();
        let reachable = oracle_reachable(&testbed.topology, &plan, broker.publisher());
        let unreachable_nodes = testbed.topology.graph().node_count() - reachable.len();
        broker
            .install_fault_plan(plan)
            .expect("dense-mode broker accepts fault plans");

        // Verification pass: every outcome checked against the oracle.
        let (delivered_reachable, matched_reachable, delivered_total, matched_total) =
            verify_coverage(&mut broker, &events, &reachable);
        let coverage_reachable = if matched_reachable == 0 {
            1.0
        } else {
            delivered_reachable as f64 / matched_reachable as f64
        };
        let delivered_fraction = if matched_total == 0 {
            1.0
        } else {
            delivered_total as f64 / matched_total as f64
        };

        // Throughput of the degraded pipeline (batches reroute through
        // the sequential publish path once a plan is installed).
        let eps = measure(n, samples, || {
            broker.reset_report();
            broker
                .publish_batch(&events, None)
                .expect("events come from the model")
                .len()
        });
        let report = *broker.report();
        let overhead_pct = 100.0 * (1.0 - eps / baseline_eps);

        println!(
            "{:<10} {:>6} {:>8} {:>12.0} {:>8.1}% {:>9.4} {:>6} {:>6} {:>8} {:>8} {:>8.1}%",
            format!("{:.0}%", rate * 100.0),
            links_cut,
            unreachable_nodes,
            eps,
            overhead_pct,
            coverage_reachable,
            report.dropped,
            report.unicasts,
            report.multicasts,
            report.partial_multicasts,
            100.0 * delivered_fraction,
        );

        cells.push(RateCell {
            link_failure_rate: rate,
            links_cut,
            unreachable_nodes,
            events_per_sec: eps,
            overhead_pct,
            coverage_reachable,
            delivered_fraction,
            dropped: report.dropped,
            unicasts: report.unicasts,
            multicasts: report.multicasts,
            partial_multicasts: report.partial_multicasts,
            unreachable_skipped: report.unreachable_skipped,
            wasted_deliveries: report.wasted_deliveries,
            improvement_percent: report.improvement_percent(),
        });
    }

    let out = Output {
        nodes: testbed.topology.graph().node_count(),
        edges: testbed.topology.graph().edge_count(),
        subscriptions: testbed.subscriptions.len(),
        events: n,
        samples,
        host: pubsub_bench::host_info(),
        plan_seed: PLAN_SEED,
        baseline_events_per_sec: baseline_eps,
        cells,
    };
    write_json("BENCH_faults", &out);

    // The acceptance gate: under every failure rate, delivery covered
    // exactly the reachable matched set (the per-event asserts above make
    // this airtight; the aggregate is what CI greps for).
    for cell in &out.cells {
        assert!(
            (cell.coverage_reachable - 1.0).abs() < f64::EPSILON,
            "delivered coverage of reachable subscribers was {} at {}% link failure",
            cell.coverage_reachable,
            cell.link_failure_rate * 100.0
        );
    }
    println!("delivered coverage of reachable subscribers: 1.0 at every failure rate");
}
