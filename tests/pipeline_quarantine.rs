//! Worker-panic containment in the batch pipeline: a worker that dies
//! mid-batch is quarantined, its blocks are recomputed inline, and the
//! batch output stays bit-identical to an undisturbed run.

use std::sync::Arc;

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::{Broker, DeliveryMode};
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::TransitStubConfig;
use pubsub::parallel::WorkerPool;

/// A two-camp broker on a real 2-thread pool: the broker never spawns
/// its own pool on a single-core host, and these batches must fan out.
fn build(mode: DeliveryMode) -> Broker {
    let topo = TransitStubConfig::tiny().generate(7).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let mut b = Broker::builder(topo, space)
        .threshold(0.15)
        .delivery_mode(mode)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
        .grid_cells(4)
        .worker_pool(Arc::new(WorkerPool::new(2)));
    for (i, &n) in nodes.iter().enumerate().take(8) {
        let r = if i % 2 == 0 {
            Rect::from_corners(&[0.0, 0.0], &[5.0, 10.0]).unwrap()
        } else {
            Rect::from_corners(&[5.0, 0.0], &[10.0, 10.0]).unwrap()
        };
        b = b.subscription(n, r);
    }
    b.build().unwrap()
}

fn events(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let x = (i * 37 % 100) as f64 / 10.0;
            let y = (i * 61 % 100) as f64 / 10.0;
            Point::new(vec![x, y]).unwrap()
        })
        .collect()
}

#[test]
fn quarantined_worker_output_is_bit_identical() {
    for mode in [DeliveryMode::DenseMode, DeliveryMode::ApplicationLevel] {
        let mut clean = build(mode);
        let mut trapped = build(mode);
        // Long enough that a 2-worker batch takes the pooled path.
        let batch = events(200);

        trapped.arm_worker_panic(1);
        let clean_out = clean.publish_batch(&batch, Some(2)).unwrap();
        let trapped_out = trapped.publish_batch(&batch, Some(2)).unwrap();

        assert_eq!(trapped.metrics_snapshot().pipeline.pooled_batches, 1);
        assert_eq!(trapped.metrics_snapshot().pipeline.quarantined_workers, 1);
        assert_eq!(trapped.metrics_snapshot().pipeline.retried_batches, 1);
        assert_eq!(clean.metrics_snapshot().pipeline.quarantined_workers, 0);

        assert_eq!(clean_out.len(), trapped_out.len());
        for (a, b) in clean_out.iter().zip(&trapped_out) {
            assert_eq!(a.decision, b.decision);
            assert_eq!(a.matched_subscriptions, b.matched_subscriptions);
            assert_eq!(a.interested, b.interested);
            assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
            assert_eq!(a.costs.unicast.to_bits(), b.costs.unicast.to_bits());
            assert_eq!(a.costs.ideal.to_bits(), b.costs.ideal.to_bits());
        }
        assert_eq!(clean.report(), trapped.report());

        // The pool survives the quarantine: a follow-up batch is clean
        // and still bit-identical.
        let clean_again = clean.publish_batch(&batch, Some(2)).unwrap();
        let trapped_again = trapped.publish_batch(&batch, Some(2)).unwrap();
        for (a, b) in clean_again.iter().zip(&trapped_again) {
            assert_eq!(a.costs.scheme.to_bits(), b.costs.scheme.to_bits());
        }
        assert_eq!(trapped.metrics_snapshot().pipeline.quarantined_workers, 1);
        assert_eq!(trapped.metrics_snapshot().pipeline.retried_batches, 1);
    }
}
