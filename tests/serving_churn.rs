//! Epoch-handoff regression tests for the staged serving front-end:
//! churn and recompiles interleaved with in-flight async batches.
//!
//! Control operations (subscribe / unsubscribe / recompile) travel
//! through the *same ordered queue* as event batches — `control()`
//! flushes every ingest shard before enqueueing the op — so a batch
//! submitted before a recompile is matched against the pre-recompile
//! engine and stamped with the pre-recompile epoch, even if the
//! recompile lands while the batch is still buffered in a shard
//! batcher. These tests pin that ordering: every record's outcome and
//! epoch must be bit-identical to a synchronous reference broker
//! applying the same operation sequence.

use std::time::Duration;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::Broker;
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::TransitStubConfig;
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

fn rect(x: f64, w: f64, y: f64, h: f64) -> Rect {
    Rect::from_corners(&[x, y], &[(x + w).min(10.0), (y + h).min(10.0)]).unwrap()
}

const BASE_SUBS: &[SubSpec] = &[
    (0, (0.0, 5.0), (0.0, 5.0)),
    (3, (2.0, 6.0), (1.0, 7.0)),
    (7, (5.0, 4.0), (4.0, 5.0)),
];

/// A recompile landing while a batch is still buffered in a shard
/// batcher must not see it: the flush-before-control ordering processes
/// the in-flight events against the pre-recompile engine, and their
/// records carry the pre-recompile epoch.
#[test]
fn in_flight_batch_processes_before_the_recompile() {
    let broker = build(11, 0.3, BASE_SUBS);
    let sink = CollectorSink::new();
    let server = StagedServer::start(
        broker,
        // A huge batch size and a long flush interval take the size
        // trigger and the deadline out of play: submitted events leave
        // the shard batcher on an idle or drained pipeline, or at the
        // latest with the control op's shard flush.
        ServingConfig {
            ingest_capacity: 64,
            max_batch: 1 << 20,
            flush_interval: Duration::from_secs(3600),
            shards: 1,
        },
        Box::new(sink.clone()),
    );
    let handle = server.handle();

    let events: Vec<Point> = (0..10)
        .map(|i| Point::new(vec![0.5 + 0.9 * i as f64, 0.4 + 0.9 * i as f64]).unwrap())
        .collect();

    let epoch_before = handle.metrics().unwrap().broker.epoch;
    // Some of these five may still sit in the batcher when the subscribe
    // arrives; its shard flush puts them ahead of it either way.
    for (i, e) in events[..5].iter().enumerate() {
        handle.submit_now(0, i as u64, e.clone()).unwrap();
    }
    // Subscribe (into the overlay) then fold it down with a recompile.
    // Both are ordered AFTER the five buffered events.
    let added = handle
        .subscribe(pubsub::netsim::NodeId(2), rect(1.0, 3.0, 1.0, 3.0))
        .unwrap();
    handle.recompile().unwrap();
    let epoch_after = handle.metrics().unwrap().broker.epoch;
    assert!(epoch_after > epoch_before, "recompile must bump the epoch");
    for (i, e) in events[5..].iter().enumerate() {
        handle.submit_now(0, (5 + i) as u64, e.clone()).unwrap();
    }
    let (_broker, stats) = server.stop();
    assert_eq!(stats.accepted, 10);
    assert_eq!(stats.delivered, 10);

    // The synchronous reference applies the identical sequence.
    let mut reference = build(11, 0.3, BASE_SUBS);
    let mut expected = Vec::new();
    for e in &events[..5] {
        expected.push((reference.epoch(), reference.publish(e).unwrap()));
    }
    let ref_added = reference
        .subscribe(pubsub::netsim::NodeId(2), rect(1.0, 3.0, 1.0, 3.0))
        .unwrap();
    assert_eq!(ref_added, added, "handles must allocate identically");
    reference.recompile().unwrap();
    for e in &events[5..] {
        expected.push((reference.epoch(), reference.publish(e).unwrap()));
    }

    let mut records = sink.take();
    records.sort_by_key(|r| r.seq);
    assert_eq!(records.len(), 10);
    for (r, (epoch, outcome)) in records.iter().zip(&expected) {
        assert_eq!(
            r.epoch, *epoch,
            "seq {}: epoch {} but the reference was at {}",
            r.seq, r.epoch, epoch
        );
        assert_eq!(
            r.outcome.as_ref().unwrap(),
            outcome,
            "seq {} diverges",
            r.seq
        );
    }
    // The first five carry the pre-recompile epoch, the rest the bumped
    // one — the in-flight batch did not see the new engine.
    for r in &records[..5] {
        assert_eq!(r.epoch, epoch_before);
    }
    for r in &records[5..] {
        assert_eq!(r.epoch, epoch_after);
    }
}

/// One raw op: kind picks publish / subscribe / unsubscribe / recompile.
type OpSpec = (u8, usize, (f64, f64), (f64, f64));

#[derive(Debug, Clone)]
struct Scenario {
    topo_seed: u64,
    threshold: f64,
    ops: Vec<OpSpec>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u64..20,
        0.0f64..=1.0,
        prop::collection::vec(
            (
                0u8..8,
                0usize..100,
                (0.0f64..9.0, 0.5f64..8.0),
                (0.0f64..9.0, 0.5f64..8.0),
            ),
            5..40,
        ),
    )
        .prop_map(|(topo_seed, threshold, ops)| Scenario {
            topo_seed,
            threshold,
            ops,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of publishes, churn and recompiles through
    /// the async front-end stay bit-identical (outcomes AND epochs) to a
    /// synchronous broker applying the same sequence.
    #[test]
    fn interleaved_churn_matches_the_synchronous_reference(s in scenario_strategy()) {
        let broker = build(s.topo_seed, s.threshold, BASE_SUBS);
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            broker,
            // One shard keeps the submission order total; roomy queues
            // keep this a semantics test, not a backpressure test.
            ServingConfig {
                ingest_capacity: 256,
                max_batch: 4,
                flush_interval: Duration::from_micros(500),
                shards: 1,
            },
            Box::new(sink.clone()),
        );
        let handle = server.handle();
        let mut reference = build(s.topo_seed, s.threshold, BASE_SUBS);

        let topo_nodes = TransitStubConfig::tiny()
            .generate(s.topo_seed)
            .unwrap()
            .stub_nodes()
            .to_vec();
        let mut expected = Vec::new();
        let mut live = Vec::new();
        let mut seq = 0u64;
        for (kind, pick, (x, w), (y, h)) in &s.ops {
            match kind % 8 {
                // Publishes dominate the mix.
                0..=4 => {
                    let event = Point::new(vec![*x, *y]).unwrap();
                    match handle.submit_now((*pick % 5) as u32, seq, event.clone()) {
                        Ok(()) => {
                            expected.push((seq, reference.epoch(), reference.publish(&event).unwrap()));
                        }
                        Err(r) => return Err(format!("submit rejected: {r}")),
                    }
                    seq += 1;
                }
                5 => {
                    let node = topo_nodes[pick % topo_nodes.len()];
                    let r = rect(*x, *w, *y, *h);
                    let staged = handle.subscribe(node, r.clone()).unwrap();
                    let referenced = reference.subscribe(node, r).unwrap();
                    prop_assert_eq!(staged, referenced, "handle allocation diverges");
                    live.push(staged);
                }
                6 if !live.is_empty() => {
                    let h = live.remove(pick % live.len());
                    handle.unsubscribe(h).unwrap();
                    reference.unsubscribe(h).unwrap();
                }
                _ => {
                    handle.recompile().unwrap();
                    reference.recompile().unwrap();
                }
            }
        }
        let (_broker, stats) = server.stop();
        prop_assert_eq!(stats.accepted, expected.len() as u64);
        prop_assert_eq!(stats.delivered, expected.len() as u64);

        let mut records = sink.take();
        records.sort_by_key(|r| r.seq);
        prop_assert_eq!(records.len(), expected.len());
        for (r, (seq, epoch, outcome)) in records.iter().zip(&expected) {
            prop_assert_eq!(r.seq, *seq);
            prop_assert_eq!(
                r.epoch, *epoch,
                "seq {}: record epoch {} vs reference {}", r.seq, r.epoch, epoch
            );
            match &r.outcome {
                Ok(out) => prop_assert_eq!(
                    out, outcome,
                    "staged outcome diverges from the synchronous broker at seq {}", r.seq
                ),
                Err(e) => return Err(format!("outcome failed without faults: {e}")),
            }
        }
    }
}
