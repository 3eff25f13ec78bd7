//! Matching throughput: point queries per second on the paper's
//! subscription workload, S-tree vs the packed R-tree baselines vs the
//! linear-scan oracle, sweeping the subscription count `k`.
//!
//! The paper's §3 claim under test: tree indexes answer point queries
//! efficiently and scale with `k`; the comparison trees are the
//! Hilbert-packed R-tree the paper cites and a Morton-packed variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pubsub_bench::{sample_events, scenario};
use pubsub_netsim::TransitStubConfig;
use pubsub_stree::{
    CountingIndex, CurveKind, Entry, EntryId, LinearScan, PackedConfig, PackedRTree, STree,
    STreeConfig, SpatialIndex,
};
use pubsub_workload::{stock_space, Modes, SubscriptionConfig};

fn entries(k: usize) -> Vec<Entry> {
    let topology = TransitStubConfig::riabov().generate(77).expect("preset");
    let mut config = SubscriptionConfig::riabov();
    config.count = k;
    let placed = config.generate(&topology, 78).expect("preset");
    let space = stock_space();
    placed
        .iter()
        .enumerate()
        .map(|(i, p)| Entry::new(space.clamp(&p.rect), EntryId(i as u32)))
        .collect()
}

fn bench_point_queries(c: &mut Criterion) {
    let events = sample_events(&scenario(Modes::Nine), 512, 5);
    let mut group = c.benchmark_group("point_query");
    for &k in &[1_000usize, 10_000, 50_000] {
        let entries = entries(k);
        group.throughput(Throughput::Elements(events.len() as u64));

        let stree = STree::build(entries.clone(), STreeConfig::default()).expect("finite");
        group.bench_with_input(BenchmarkId::new("stree", k), &stree, |b, idx| {
            let mut out = Vec::new();
            b.iter(|| {
                for e in &events {
                    out.clear();
                    idx.query_point_into(e, &mut out);
                }
                out.len()
            })
        });

        let hilbert = PackedRTree::build(entries.clone(), PackedConfig::hilbert()).expect("finite");
        group.bench_with_input(BenchmarkId::new("hilbert", k), &hilbert, |b, idx| {
            let mut out = Vec::new();
            b.iter(|| {
                for e in &events {
                    out.clear();
                    idx.query_point_into(e, &mut out);
                }
                out.len()
            })
        });

        let morton = PackedRTree::build(
            entries.clone(),
            PackedConfig::new(40, CurveKind::Morton, 10).expect("valid"),
        )
        .expect("finite");
        group.bench_with_input(BenchmarkId::new("morton", k), &morton, |b, idx| {
            let mut out = Vec::new();
            b.iter(|| {
                for e in &events {
                    out.clear();
                    idx.query_point_into(e, &mut out);
                }
                out.len()
            })
        });

        let counting = CountingIndex::new(entries.clone()).expect("consistent dims");
        group.bench_with_input(BenchmarkId::new("counting", k), &counting, |b, idx| {
            let mut out = Vec::new();
            b.iter(|| {
                for e in &events {
                    out.clear();
                    idx.query_point_into(e, &mut out);
                }
                out.len()
            })
        });

        // The O(k) baseline only at the smallest sizes (it dominates
        // runtime beyond that without adding information).
        if k <= 10_000 {
            let linear = LinearScan::new(entries).expect("consistent dims");
            group.bench_with_input(BenchmarkId::new("linear", k), &linear, |b, idx| {
                let mut out = Vec::new();
                b.iter(|| {
                    for e in &events {
                        out.clear();
                        idx.query_point_into(e, &mut out);
                    }
                    out.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_point_queries
}
criterion_main!(benches);
