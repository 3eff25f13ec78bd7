//! Fault plans through the staged serving front-end: the fold publishes
//! event by event (fault state is per-event), so records — outcomes,
//! aborts-as-errors, epochs — must be bit-identical to a synchronous
//! `publish` loop over the same plan, and every accepted event must
//! produce exactly one record even when the engine aborts mid-stream.

use std::time::Duration;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::Broker;
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{FaultEvent, FaultPlan, TransitStubConfig};
use pubsub::server::{CollectorSink, ServingConfig, StagedServer};

/// (node pick, (x origin, width), (y origin, height)).
type SubSpec = (usize, (f64, f64), (f64, f64));

fn build(topo_seed: u64, threshold: f64, subs: &[SubSpec]) -> Broker {
    let topo = TransitStubConfig::tiny().generate(topo_seed).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let mut b = Broker::builder(topo, space)
        .threshold(threshold)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5);
    for (n, (x, w), (y, h)) in subs {
        let node = nodes[n % nodes.len()];
        let rect = Rect::from_corners(&[*x, *y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap();
        b = b.subscription(node, rect);
    }
    b.build().unwrap()
}

/// One scheduled fault: (step, event selector, node pick a, node pick b,
/// degrade factor).
type FaultSpec = (u64, u32, usize, usize, f64);

fn plan_from(topo_seed: u64, schedule: &[FaultSpec]) -> FaultPlan {
    let topo_nodes = TransitStubConfig::tiny()
        .generate(topo_seed)
        .unwrap()
        .stub_nodes()
        .to_vec();
    let mut plan = FaultPlan::new();
    let mut ats: Vec<u64> = schedule.iter().map(|s| s.0).collect();
    ats.sort_unstable();
    for (&at, &(_, sel, ai, bi, factor)) in ats.iter().zip(schedule) {
        let a = topo_nodes[ai % topo_nodes.len()];
        let b = topo_nodes[bi % topo_nodes.len()];
        let event = match sel % 5 {
            0 => FaultEvent::LinkCut { a, b },
            1 => FaultEvent::LinkRestore { a, b },
            2 => FaultEvent::LinkDegrade { a, b, factor },
            3 => FaultEvent::NodeDown { node: a },
            _ => FaultEvent::NodeUp { node: a },
        };
        plan.push(at, event);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Staged serving under an active fault plan is bit-identical —
    /// outcomes, abort errors, epochs, and the cumulative report — to a
    /// synchronous publish loop.
    #[test]
    fn staged_faults_match_the_synchronous_loop(
        topo_seed in 0u64..20,
        threshold in 0.0f64..=1.0,
        subs in prop::collection::vec(
            (0usize..100, (0.0f64..9.0, 0.5f64..8.0), (0.0f64..9.0, 0.5f64..8.0)),
            2..12,
        ),
        events in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..40),
        schedule in prop::collection::vec(
            (0u64..30, 0u32..5, 0usize..100, 0usize..100, 1.0f64..8.0),
            1..8,
        ),
    ) {
        let mut broker = build(topo_seed, threshold, &subs);
        broker.install_fault_plan(plan_from(topo_seed, &schedule)).unwrap();
        let mut reference = build(topo_seed, threshold, &subs);
        reference.install_fault_plan(plan_from(topo_seed, &schedule)).unwrap();

        let sink = CollectorSink::new();
        let server = StagedServer::start(
            broker,
            // One shard keeps the submission order total; the fault path
            // degrades to per-event processing on the fold.
            ServingConfig {
                ingest_capacity: 256,
                max_batch: 4,
                flush_interval: Duration::from_micros(500),
                shards: 1,
            },
            Box::new(sink.clone()),
        );
        let handle = server.handle();

        let points: Vec<Point> = events
            .iter()
            .map(|&(x, y)| Point::new(vec![x, y]).unwrap())
            .collect();
        for (seq, p) in points.iter().enumerate() {
            handle
                .submit_now(0, seq as u64, p.clone())
                .map_err(|r| format!("submit rejected: {r}"))?;
        }
        let (folded, stats) = server.stop();
        prop_assert_eq!(stats.accepted, points.len() as u64);
        prop_assert_eq!(
            stats.delivered + stats.failed,
            stats.accepted,
            "every accepted event needs a record, aborts included"
        );

        // The synchronous reference: one publish per event, continuing
        // past aborts exactly like the staged per-event fault path.
        let expected: Vec<(u64, Result<_, String>)> = points
            .iter()
            .map(|p| {
                let epoch = reference.epoch();
                (epoch, reference.publish(p).map_err(|e| e.to_string()))
            })
            .collect();

        let mut records = sink.take();
        records.sort_by_key(|r| r.seq);
        prop_assert_eq!(records.len(), expected.len());
        for (r, (epoch, want)) in records.iter().zip(&expected) {
            prop_assert_eq!(
                r.epoch, *epoch,
                "seq {}: epoch diverges", r.seq
            );
            match (&r.outcome, want) {
                (Ok(out), Ok(exp)) => prop_assert_eq!(
                    out, exp,
                    "seq {}: outcome diverges", r.seq
                ),
                (Err(got), Err(exp)) => prop_assert_eq!(
                    got, exp,
                    "seq {}: abort message diverges", r.seq
                ),
                (got, want) => return Err(format!(
                    "seq {}: fate diverges: staged {got:?} vs reference {want:?}",
                    r.seq
                )),
            }
        }
        // The fault clock advanced identically: same fault epoch, same
        // cumulative cost report, bit for bit.
        prop_assert_eq!(folded.fault_epoch(), reference.fault_epoch());
        prop_assert_eq!(folded.report(), reference.report());
    }
}
