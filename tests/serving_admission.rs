//! Admission-control property tests for the staged serving front-end.
//!
//! The backpressure contract under overload: every submission gets
//! exactly one fate. An accepted event (`Ok` from `submit`) produces
//! exactly one sink record whose outcome is bit-identical to a
//! synchronous reference broker publishing the same event; a rejected
//! submission (`Err(Shed { .. })`) produces nothing at the sink. No event
//! is silently dropped, double-delivered, or invented — even with
//! capacity-1 queues and a sink slow enough to stall the whole pipeline
//! back to the ingest edge.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::Broker;
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::TransitStubConfig;
use pubsub::server::{CollectorSink, DeliverySink, RejectReason, ServingConfig, StagedServer};

/// (node pick, (x origin, width), (y origin, height)).
type SubSpec = (usize, (f64, f64), (f64, f64));

#[derive(Debug, Clone)]
struct Scenario {
    topo_seed: u64,
    threshold: f64,
    subs: Vec<SubSpec>,
    events: Vec<(f64, f64)>,
    ingest_capacity: usize,
    max_batch: usize,
    shards: usize,
    /// Sink stall per record, microseconds — drives the backpressure.
    sink_delay_us: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let sub = (
        0usize..100,
        (0.0f64..9.0, 0.5f64..8.0),
        (0.0f64..9.0, 0.5f64..8.0),
    );
    (
        0u64..20,
        0.0f64..=1.0,
        prop::collection::vec(sub, 2..12),
        prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 8..80),
        (
            1usize..4,
            1usize..6,
            1usize..4,
            prop::collection::vec(0u64..2_000, 1..2),
        ),
    )
        .prop_map(|(topo_seed, threshold, subs, events, knobs)| {
            let (ingest_capacity, max_batch, shards, delay) = knobs;
            Scenario {
                topo_seed,
                threshold,
                subs,
                events,
                ingest_capacity,
                max_batch,
                shards,
                sink_delay_us: delay[0],
            }
        })
}

fn build(s: &Scenario) -> Broker {
    let topo = TransitStubConfig::tiny().generate(s.topo_seed).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let mut b = Broker::builder(topo, space)
        .threshold(s.threshold)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5);
    for (n, (x, w), (y, h)) in &s.subs {
        let node = nodes[n % nodes.len()];
        let rect = Rect::from_corners(&[*x, *y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap();
        b = b.subscription(node, rect);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under overload, acks partition submissions exactly: accepted ⇒
    /// exactly one record with the reference outcome, rejected ⇒ no
    /// record, and the server's own counters agree with the client's.
    #[test]
    fn overload_acks_partition_submissions_exactly(s in scenario_strategy()) {
        let broker = build(&s);
        let mut reference = build(&s);

        let collector = CollectorSink::new();
        let mut tap = collector.clone();
        let delay = Duration::from_micros(s.sink_delay_us);
        let sink = move |record| {
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            tap.on_record(record);
        };
        let server = StagedServer::start(
            broker,
            ServingConfig {
                ingest_capacity: s.ingest_capacity,
                max_batch: s.max_batch,
                flush_interval: Duration::from_micros(500),
                shards: s.shards,
            },
            Box::new(sink),
        );
        let handle = server.handle();

        let mut accepted: HashSet<u64> = HashSet::new();
        let mut rejected = 0u64;
        for (seq, &(x, y)) in s.events.iter().enumerate() {
            let event = Point::new(vec![x, y]).unwrap();
            match handle.submit_now((seq % 7) as u32, seq as u64, event) {
                Ok(()) => {
                    accepted.insert(seq as u64);
                }
                Err(RejectReason::Shed { retry_after_ms }) => {
                    prop_assert!(retry_after_ms >= 1, "shed hint must be positive");
                    rejected += 1;
                }
                Err(r) => return Err(format!("unexpected reject reason: {r}")),
            }
        }
        let (_broker, stats) = server.stop();
        let records = collector.take();

        // The server's counters agree with the acks the client saw.
        prop_assert_eq!(stats.accepted, accepted.len() as u64);
        prop_assert_eq!(stats.rejected, rejected);
        prop_assert_eq!(stats.accepted + stats.rejected, s.events.len() as u64);
        // Every accepted event reached the sink with some fate; nothing
        // else did.
        prop_assert_eq!(stats.delivered + stats.failed, stats.accepted);
        prop_assert_eq!(records.len() as u64, stats.accepted);
        prop_assert_eq!(stats.failed, 0, "no faults are installed");

        let mut seen: HashMap<u64, ()> = HashMap::new();
        for r in &records {
            prop_assert!(
                accepted.contains(&r.seq),
                "sink record for seq {} which was never accepted", r.seq
            );
            prop_assert!(
                seen.insert(r.seq, ()).is_none(),
                "duplicate sink record for seq {}", r.seq
            );
            let (x, y) = s.events[r.seq as usize];
            let event = Point::new(vec![x, y]).unwrap();
            let expect = reference.publish(&event).unwrap();
            match &r.outcome {
                Ok(out) => prop_assert_eq!(
                    out, &expect,
                    "staged outcome diverges from the synchronous broker at seq {}", r.seq
                ),
                Err(e) => return Err(format!("outcome failed without faults: {e}")),
            }
        }
        prop_assert_eq!(seen.len(), accepted.len());
    }
}
