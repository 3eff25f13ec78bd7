//! Fault plans must not change what a batch computes, only how: an
//! *empty* plan — or one whose faults all undo themselves before the
//! first publish, which still sends every segment down the degraded
//! fold — is a perfect no-op against a plan-free broker, and any
//! *non-empty* plan publishing through the segmented batch pipeline
//! (pooled or inline) is bit-identical — outcomes, costs, hysteresis
//! state and the cumulative report — to a sequential loop of
//! `publish` calls over the same plan. The publisher is a parameter of
//! that one path: `publish_from(p, ..)` equals `publish` on a broker
//! built with publisher `p`, fault for fault.

use std::sync::Arc;

use proptest::prelude::*;
use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, BrokerError, PublishOutcome};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{FaultEvent, FaultPlan, NetError, NodeId, TransitStubConfig};
use pubsub::parallel::WorkerPool;

/// (node pick, (x origin, width), (y origin, height)).
type SubSpec = (usize, (f64, f64), (f64, f64));

fn build(topo_seed: u64, threshold: f64, subs: &[SubSpec]) -> Broker {
    build_from(topo_seed, threshold, subs, None, None)
}

/// [`build`] with an explicit publisher and worker pool (`None` = the
/// builder's default).
fn build_from(
    topo_seed: u64,
    threshold: f64,
    subs: &[SubSpec],
    publisher: Option<NodeId>,
    pool: Option<Arc<WorkerPool>>,
) -> Broker {
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
    if let Some(p) = publisher {
        b = b.publisher(p);
    }
    if let Some(pool) = pool {
        b = b.worker_pool(pool);
    }
    b.build().unwrap()
}

fn assert_bit_identical(a: &PublishOutcome, b: &PublishOutcome) -> Result<(), String> {
    prop_assert_eq!(&a.decision, &b.decision);
    prop_assert_eq!(&a.group_region, &b.group_region);
    prop_assert_eq!(&a.matched_subscriptions, &b.matched_subscriptions);
    prop_assert_eq!(&a.interested, &b.interested);
    prop_assert_eq!(&a.unreachable, &b.unreachable);
    prop_assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
    prop_assert_eq!(a.costs.unicast.to_bits(), b.costs.unicast.to_bits());
    prop_assert_eq!(a.costs.ideal.to_bits(), b.costs.ideal.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn empty_plan_is_bitwise_invisible(
        topo_seed in 0u64..30,
        threshold in 0.0f64..=1.0,
        subs in prop::collection::vec(
            (0usize..100, (0.0f64..9.0, 0.5f64..8.0), (0.0f64..9.0, 0.5f64..8.0)),
            2..20,
        ),
        events in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..20),
        threads in 1usize..4,
        self_healing in prop::bool::ANY,
        edge in (0usize..1000, 0usize..1000),
    ) {
        let mut plain = build(topo_seed, threshold, &subs);
        let mut faulty = build(topo_seed, threshold, &subs);
        // Shape one: the empty plan. Shape two: at step 0, cut a real
        // link (a, b), take b down, restore the link and bring b back
        // up — nothing stays broken, yet a fault has applied, so every
        // segment folds in degraded mode.
        let mut plan = FaultPlan::new();
        if self_healing {
            let topo = TransitStubConfig::tiny().generate(topo_seed).unwrap();
            let a = NodeId((edge.0 % topo.graph().node_count()) as u32);
            let degree = topo.graph().neighbors(a).count();
            let (b, _) = topo.graph().neighbors(a).nth(edge.1 % degree).expect("a has a link");
            plan.push(0, FaultEvent::LinkCut { a, b });
            plan.push(0, FaultEvent::NodeDown { node: b });
            plan.push(0, FaultEvent::LinkRestore { a, b });
            plan.push(0, FaultEvent::NodeUp { node: b });
        }
        faulty.install_fault_plan(plan).unwrap();
        prop_assert!(faulty.faults_active());
        prop_assert_eq!(faulty.fault_epoch(), 0);

        let points: Vec<Point> = events
            .iter()
            .map(|&(x, y)| Point::new(vec![x, y]).unwrap())
            .collect();

        // Sequential parity, bit for bit.
        for p in &points {
            let a = plain.publish(p).unwrap();
            let b = faulty.publish(p).unwrap();
            assert_bit_identical(&a, &b)?;
        }

        // Batch parity: the faulted broker cuts batches into fault-clock
        // segments; outcomes and reports must not notice.
        let a = plain.publish_batch(&points, Some(threads)).unwrap();
        let b = faulty.publish_batch(&points, Some(threads)).unwrap();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_bit_identical(x, y)?;
        }

        let ra = plain.publish_batch_stats(&points, Some(threads)).unwrap();
        let rb = faulty.publish_batch_stats(&points, Some(threads)).unwrap();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(plain.report(), faulty.report());
        if self_healing {
            prop_assert!(faulty.metrics_snapshot().pipeline.degraded_segments > 0);
        }
    }

    /// A *non-empty* plan publishing through the segmented batch
    /// pipeline is bit-identical to the sequential `publish` loop over
    /// the same plan — including mid-batch publisher-down aborts — and
    /// the batch really does run through the pipeline (no sequential
    /// reroute).
    #[test]
    fn faulted_batch_is_bitwise_identical_to_sequential_loop(
        topo_seed in 0u64..30,
        threshold in 0.0f64..=1.0,
        subs in prop::collection::vec(
            (0usize..100, (0.0f64..9.0, 0.5f64..8.0), (0.0f64..9.0, 0.5f64..8.0)),
            2..20,
        ),
        events in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..40),
        schedule in prop::collection::vec(
            (0u64..30, 0u32..5, 0usize..100, 0usize..100, 1.0f64..8.0),
            1..8,
        ),
        threads in 1usize..4,
    ) {
        // A real pool, so degraded segments exercise pooled dispatch
        // even on single-core hosts.
        let pool = Arc::new(WorkerPool::new(2));
        let mut seq = build(topo_seed, threshold, &subs);
        let mut batch = build_from(topo_seed, threshold, &subs, None, Some(Arc::clone(&pool)));
        let mut stats = build_from(topo_seed, threshold, &subs, None, Some(pool));

        let topo_nodes = TransitStubConfig::tiny()
            .generate(topo_seed)
            .unwrap()
            .stub_nodes()
            .to_vec();
        let mut plan = FaultPlan::new();
        let mut ats: Vec<u64> = schedule.iter().map(|s| s.0).collect();
        ats.sort_unstable();
        for (&at, &(_, sel, ai, bi, factor)) in ats.iter().zip(&schedule) {
            let a = topo_nodes[ai % topo_nodes.len()];
            let b = topo_nodes[bi % topo_nodes.len()];
            let event = match sel {
                0 => FaultEvent::LinkCut { a, b },
                1 => FaultEvent::LinkRestore { a, b },
                2 => FaultEvent::LinkDegrade { a, b, factor },
                3 => FaultEvent::NodeDown { node: a },
                _ => FaultEvent::NodeUp { node: a },
            };
            plan.push(at, event);
        }
        seq.install_fault_plan(plan.clone()).unwrap();
        batch.install_fault_plan(plan.clone()).unwrap();
        stats.install_fault_plan(plan).unwrap();

        let points: Vec<Point> = events
            .iter()
            .map(|&(x, y)| Point::new(vec![x, y]).unwrap())
            .collect();

        let mut seq_outs = Vec::new();
        let mut seq_err = None;
        for p in &points {
            match seq.publish(p) {
                Ok(out) => seq_outs.push(out),
                Err(e) => {
                    seq_err = Some(format!("{e:?}"));
                    break;
                }
            }
        }

        match batch.publish_batch(&points, Some(threads)) {
            Ok(outs) => {
                prop_assert!(seq_err.is_none(), "batch succeeded, loop failed");
                prop_assert_eq!(outs.len(), seq_outs.len());
                for (a, b) in seq_outs.iter().zip(&outs) {
                    assert_bit_identical(a, b)?;
                }
            }
            Err(e) => {
                let se = seq_err.clone().expect("loop must fail when the batch does");
                prop_assert_eq!(format!("{e:?}"), se);
            }
        }
        prop_assert_eq!(seq.report(), batch.report());
        // The faulted batch must have gone through the pipeline, not a
        // per-event sequential reroute.
        let counters = batch.metrics_snapshot().pipeline;
        prop_assert!(counters.fault_segments >= 1);
        prop_assert_eq!(counters.batches, counters.fault_segments);

        match stats.publish_batch_stats(&points, Some(threads)) {
            Ok(report) => {
                prop_assert!(seq_err.is_none());
                prop_assert_eq!(&report, seq.report());
            }
            Err(e) => {
                let se = seq_err.expect("loop must fail when the stats batch does");
                prop_assert_eq!(format!("{e:?}"), se);
            }
        }
        prop_assert_eq!(stats.report(), seq.report());
    }
}

/// The publisher is an argument of the one publish core, not a second
/// path: under one fault plan, `publish_from(p, e)` on a broker built
/// with the default publisher equals `publish(e)` on a broker built
/// with `.publisher(p)` — outcome by outcome and report bit for bit —
/// through the pristine steps, the degraded ones (matched subscribers
/// down, a link of `p` cut and restored) and the `Unreachable` aborts
/// while `p` itself is down.
#[test]
fn publish_from_equals_a_broker_built_with_that_publisher() {
    let subs: Vec<SubSpec> = (0..16)
        .map(|i| {
            (
                i % 4,
                ((i % 5) as f64 * 1.5, 3.0),
                ((i % 3) as f64 * 2.5, 4.0),
            )
        })
        .collect();
    for topo_seed in [3u64, 11, 19] {
        let topo = TransitStubConfig::tiny().generate(topo_seed).unwrap();
        let stubs = topo.stub_nodes();
        let hosts: Vec<NodeId> = subs.iter().map(|s| stubs[s.0 % stubs.len()]).collect();
        let p = *stubs
            .iter()
            .find(|n| !hosts.contains(n))
            .expect("a stub node without subscriptions");
        let (next_hop, _) = topo.graph().neighbors(p).next().expect("p has a link");

        let mut plan = FaultPlan::new();
        plan.push(6, FaultEvent::NodeDown { node: hosts[0] });
        plan.push(10, FaultEvent::NodeDown { node: hosts[1] });
        plan.push(14, FaultEvent::LinkCut { a: p, b: next_hop });
        plan.push(18, FaultEvent::LinkRestore { a: p, b: next_hop });
        plan.push(22, FaultEvent::NodeDown { node: p });
        plan.push(28, FaultEvent::NodeUp { node: p });
        plan.push(32, FaultEvent::NodeUp { node: hosts[0] });

        let mut a = build(topo_seed, 0.1, &subs);
        let mut b = build_from(topo_seed, 0.1, &subs, Some(p), None);
        assert_ne!(a.publisher(), p);
        assert_eq!(b.publisher(), p);
        a.install_fault_plan(plan.clone()).unwrap();
        b.install_fault_plan(plan).unwrap();

        let (mut masked, mut aborted) = (0, 0);
        for i in 0..40u32 {
            let e = Point::new(vec![f64::from(i % 8) + 0.5, f64::from(i % 6) + 0.5]).unwrap();
            match (a.publish_from(p, &e), b.publish(&e)) {
                (Ok(x), Ok(y)) => {
                    assert_bit_identical(&x, &y).unwrap();
                    masked += usize::from(!x.unreachable.is_empty());
                }
                (Err(x), Err(y)) => {
                    assert!(matches!(
                        x,
                        BrokerError::Net(NetError::Unreachable { node }) if node == p.0
                    ));
                    assert_eq!(format!("{x:?}"), format!("{y:?}"));
                    aborted += 1;
                }
                (x, y) => panic!("step {i}: {x:?} vs {y:?}"),
            }
        }
        assert_eq!(aborted, 6, "steps 22..28 publish from a downed node");
        assert!(masked > 0, "the plan must mask some matched subscriber");
        assert_eq!(a.report(), b.report());
        assert_eq!(a.report().messages, 34);
    }
}
