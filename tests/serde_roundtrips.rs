//! Serde round-trip tests: every serializable artifact of an experiment
//! must survive JSON encoding unchanged, so `results/*.json` and archived
//! topologies are trustworthy.

use pubsub::clustering::{cluster, ClusteringAlgorithm, ClusteringConfig, GridModel};
use pubsub::core::CostReport;
use pubsub::geom::{Grid, Interval, Point, Rect, Space};
use pubsub::netsim::{FlatNet, SptTable, TransitStubConfig};
use pubsub::prelude::*;
use pubsub::workload::{IntervalDistribution, Modes, SubscriptionConfig};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn geometry_roundtrips() {
    let rect = Rect::new(vec![
        Interval::new(0.0, 5.0).unwrap(),
        Interval::at_least(3.0),
        Interval::unbounded(),
    ])
    .unwrap();
    assert_eq!(roundtrip(&rect), rect);

    let p = Point::new(vec![1.5, -2.5, 0.0]).unwrap();
    assert_eq!(roundtrip(&p), p);

    let space = Space::new(
        vec!["a".into(), "b".into()],
        Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
    )
    .unwrap();
    assert_eq!(roundtrip(&space), space);

    let grid = Grid::uniform(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(), 4).unwrap();
    let back = roundtrip(&grid);
    assert_eq!(back, grid);
    // Behaviour, not just equality: lookups agree after the round trip.
    let probe = Point::new(vec![3.3, 7.7]).unwrap();
    assert_eq!(back.cell_of_point(&probe), grid.cell_of_point(&probe));
}

#[test]
fn unbounded_interval_survives_json() {
    // serde_json maps f64::INFINITY to null by default — confirm our
    // types keep semantics through the round trip.
    let iv = Interval::unbounded();
    let back = roundtrip(&iv);
    assert_eq!(back.lo(), f64::NEG_INFINITY);
    assert_eq!(back.hi(), f64::INFINITY);
    assert!(back.contains(1e300));
}

#[test]
fn topology_roundtrips_with_behaviour() {
    let topo = TransitStubConfig::tiny().generate(9).unwrap();
    let back: pubsub::netsim::Topology = roundtrip(&topo);
    assert_eq!(back.stats(), topo.stats());
    assert_eq!(back.graph().total_cost(), topo.graph().total_cost());
    // Shortest paths agree.
    let spt = |t: &pubsub::netsim::Topology| {
        SptTable::build(&FlatNet::compile(t.graph()), &[NodeId(0)], Some(1))
    };
    let (a, b) = (spt(&topo), spt(&back));
    let (a, b) = (a.view(NodeId(0)).unwrap(), b.view(NodeId(0)).unwrap());
    for n in topo.graph().node_ids() {
        assert_eq!(a.dist(n), b.dist(n));
    }
}

#[test]
fn partition_roundtrips_with_lookup() {
    let grid = Grid::uniform(Rect::from_corners(&[0.0], &[8.0]).unwrap(), 8).unwrap();
    let subs = vec![
        (0usize, Rect::from_corners(&[0.0], &[4.0]).unwrap()),
        (1usize, Rect::from_corners(&[4.0], &[8.0]).unwrap()),
    ];
    let model = GridModel::build(grid, 2, &subs, |_| 0.125).unwrap();
    let part = cluster(
        &model,
        &ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2),
    )
    .unwrap();
    let back: pubsub::clustering::SpacePartition = roundtrip(&part);
    assert_eq!(back, part);
    for x in [0.5f64, 3.5, 4.5, 7.5] {
        let p = Point::new(vec![x]).unwrap();
        assert_eq!(back.group_of_point(&p), part.group_of_point(&p));
    }
}

#[test]
fn configs_and_reports_roundtrip() {
    let sc = SubscriptionConfig::riabov();
    assert_eq!(roundtrip(&sc), sc);
    let id = IntervalDistribution::volume();
    assert_eq!(roundtrip(&id), id);
    let cc = ClusteringConfig::new(ClusteringAlgorithm::PairwiseGrouping, 7)
        .with_max_cells(50)
        .with_max_iterations(10);
    assert_eq!(roundtrip(&cc), cc);
    let tc = TransitStubConfig::riabov();
    assert_eq!(roundtrip(&tc), tc);
    let model = Modes::Nine.model();
    assert_eq!(roundtrip(&model), model);

    let mut report = CostReport::default();
    report.record(
        pubsub::core::MessageCosts {
            scheme: 1.0,
            unicast: 2.0,
            ideal: 0.5,
        },
        pubsub::core::Delivery::Multicast,
        3,
        0,
    );
    let back = roundtrip(&report);
    assert_eq!(back, report);
    assert_eq!(back.improvement_percent(), report.improvement_percent());
}
