//! Smoke tests for the experiment harness: miniature versions of every
//! figure pipeline must produce sane, finite results. These guard the
//! reproduction machinery itself — a broken harness would silently
//! invalidate EXPERIMENTS.md.

use pubsub::clustering::ClusteringAlgorithm;
use pubsub::core::DeliveryMode;
use pubsub::netsim::TransitStubConfig;
use pubsub::workload::nyse::{NyseConfig, ReplayConfig};
use pubsub::workload::stats::{fit_loglog_slope, fit_normal, fit_pareto_alpha, rank_frequency};
use pubsub::workload::Modes;
use pubsub_bench::{
    build_broker, build_testbed, drive, sample_events, scenario, threshold_sweep, Seeds,
    FIG6_THRESHOLDS,
};

#[test]
fn fig3_pipeline_topology_shape() {
    let topo = TransitStubConfig::riabov()
        .generate(Seeds::default().topology)
        .unwrap();
    let s = topo.stats();
    assert!(s.connected);
    assert_eq!(s.blocks, 3);
    assert!(s.nodes > 300);
    let dot = topo.to_dot();
    assert!(dot.contains("cluster_block2"));
}

#[test]
fn fig4_fig5_pipeline_distribution_fits() {
    let day = NyseConfig::tiny().generate(1999).unwrap();
    let prices: Vec<f64> = day.all_prices().collect();
    let (mean, sd) = fit_normal(&prices).unwrap();
    assert!((mean - 1.0).abs() < 0.05 && sd > 0.0);
    let rf = rank_frequency(&day.trades_per_stock());
    let pts: Vec<(f64, f64)> = rf
        .iter()
        .take(20)
        .map(|&(r, c)| (r as f64, c as f64))
        .collect();
    let slope = fit_loglog_slope(&pts).unwrap();
    assert!(
        slope < -0.4,
        "popularity must be heavy-headed, slope {slope}"
    );
    let amounts: Vec<f64> = day.all_amounts().collect();
    assert!(fit_pareto_alpha(&amounts).unwrap() > 0.5);
    // Figure 5: the top stock's own trades show a bell too.
    let top = day.top_stocks(1)[0];
    let (m2, s2) = fit_normal(&day.prices_of(top)).unwrap();
    assert!((m2 - 1.0).abs() < 0.1 && s2 > 0.0);
}

#[test]
fn fig6_pipeline_miniature_sweep() {
    let testbed = build_testbed(Seeds::default());
    let model = scenario(Modes::Nine);
    let events = sample_events(&model, 400, 7);
    let mut broker = build_broker(
        &testbed,
        &model,
        ClusteringAlgorithm::ForgyKMeans,
        11,
        0.0,
        DeliveryMode::DenseMode,
    );
    let sweep = threshold_sweep(&mut broker, &events, &[0.0, 0.1, 0.5]);
    assert_eq!(sweep.len(), 3);
    for p in &sweep {
        assert!(p.improvement_percent.is_finite());
        assert!(p.improvement_percent <= 100.0 + 1e-9);
        assert!((0.0..=1.0).contains(&p.multicast_fraction));
    }
    // Multicast usage decays with the threshold; t=0.5 is near-unicast.
    assert!(sweep[0].multicast_fraction >= sweep[2].multicast_fraction);
    assert!(sweep[2].improvement_percent.abs() < 10.0);
}

#[test]
fn fig6_headline_interior_threshold_wins() {
    // Figure 6's claim: the best threshold is interior — above the static
    // scheme (t = 0) and far above near-unicast (t = 50%).
    let testbed = build_testbed(Seeds::default());
    for modes in [Modes::Four, Modes::Nine] {
        let model = scenario(modes);
        let events = sample_events(&model, 2000, Seeds::default().publications);
        let mut broker = build_broker(
            &testbed,
            &model,
            ClusteringAlgorithm::ForgyKMeans,
            11,
            0.0,
            DeliveryMode::DenseMode,
        );
        let sweep = threshold_sweep(&mut broker, &events, &FIG6_THRESHOLDS);
        let best = sweep
            .iter()
            .max_by(|a, b| a.improvement_percent.total_cmp(&b.improvement_percent))
            .unwrap();
        let (at_zero, at_half) = (sweep[0], sweep[sweep.len() - 1]);
        assert!(
            [0.075, 0.10].contains(&best.threshold),
            "{modes}: best t = {}",
            best.threshold
        );
        assert!(best.improvement_percent >= at_zero.improvement_percent + 2.0);
        assert!(best.improvement_percent >= at_half.improvement_percent + 10.0);
    }
}

#[test]
fn replay_pipeline_produces_usable_events() {
    let day = NyseConfig::tiny().generate(1999).unwrap();
    let events = day.replay_events(&ReplayConfig::default(), 5);
    let testbed = build_testbed(Seeds::default());
    let model = scenario(Modes::Nine);
    let mut broker = build_broker(
        &testbed,
        &model,
        ClusteringAlgorithm::ForgyKMeans,
        11,
        0.15,
        DeliveryMode::DenseMode,
    );
    let report = drive(&mut broker, &events[..events.len().min(500)]);
    assert_eq!(report.messages as usize, events.len().min(500));
    assert!(report.scheme_cost.is_finite());
    // The replayed feed must actually reach subscribers.
    assert!(report.dropped < report.messages);
}

#[test]
fn harness_is_seed_stable() {
    // The exact invariant EXPERIMENTS.md relies on: identical seeds give
    // identical improvement numbers.
    let testbed = build_testbed(Seeds::default());
    let model = scenario(Modes::Four);
    let events = sample_events(&model, 300, 9);
    let run = || {
        let mut b = build_broker(
            &testbed,
            &model,
            ClusteringAlgorithm::MinimumSpanningTree,
            11,
            0.15,
            DeliveryMode::DenseMode,
        );
        drive(&mut b, &events).improvement_percent()
    };
    assert_eq!(run(), run());
}
