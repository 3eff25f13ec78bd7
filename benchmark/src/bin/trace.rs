//! The per-layer half of the benchmark: one workload, run untraced and
//! then with spans recorded by the benchmark around its calls into the
//! product (the difference is `trace.overhead_pct`), followed by probes
//! that call each layer's public functions on the workload's inputs.
//!
//! Only this binary reaches below the end-to-end API footprint
//! (`Matcher`, cost walks, `EventBatcher`, `WorkerPool`). A metric whose
//! layer the workload bypasses prints 0.

use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pubsub_benchmark::alloc;
use pubsub_benchmark::args;
use pubsub_benchmark::contract::Contract;
use pubsub_benchmark::inputs::{self, Inputs, Workload};
use pubsub_benchmark::report::{self, Metric, Row, StealClock};
use pubsub_benchmark::serve::{BenchSink, Stack};
use pubsub_benchmark::spans::{Off, Recorder, Spans, ROOT};
use pubsub_benchmark::stats::{median, quantile};
use pubsub_benchmark::workloads::{self, Measured, Plan, OUT_DIR};
use pubsub_clustering::{cluster, ClusteringAlgorithm, ClusteringConfig};
use pubsub_core::{Broker, CoveringConfig, JournalConfig, MatchScratch, Matcher};
use pubsub_geom::Point;
use pubsub_netsim::{unicast_and_tree_cost, CostScratch, FlatNet, NodeId, SptTable};
use pubsub_parallel::{effective_threads, WorkerPool};
use pubsub_server::batcher::{EventBatcher, SubmitMeta};
use pubsub_server::wire::{read_frame, write_frame, Frame};
use pubsub_workload::stock_space;

/// Collects the per-layer metrics in reporting order.
struct Layers(Vec<Metric>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.0.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }
}

fn secs_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn p50_us(samples: &[u64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    quantile(&s, 0.5) / 1e3
}

/// Events the publish-path probes replay: enough to time, few enough
/// that a million-subscription expansion per event stays in budget.
fn probe_events(inputs: &Inputs) -> &[Point] {
    let n = match inputs.workload {
        Workload::ScaleBatch => 512,
        _ => 16_384,
    };
    &inputs.events[..n]
}

/// Build-time layers: index, clustering, shortest-path tables.
fn probe_build(inputs: &Inputs, broker: &Broker, out: &mut Layers) -> io::Result<()> {
    let space = stock_space();
    let subs = inputs.subscriptions.as_slice();
    let (matcher, stree_s) = secs_of(|| {
        if inputs.workload == Workload::ScaleBatch {
            Matcher::build_covered(&space, &subs, &CoveringConfig::default())
        } else {
            Matcher::build(&space, subs, Default::default())
        }
    });
    drop(matcher.map_err(io::Error::other)?);
    out.put("stree.build_s", stree_s, "s", 1);

    let config = ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11);
    let (partition, clustering_s) = secs_of(|| cluster(broker.grid_model(), &config));
    drop(partition.map_err(io::Error::other)?);
    out.put("clustering.build_s", clustering_s, "s", 1);

    let (_, spt_s) = secs_of(|| {
        let net = FlatNet::compile(broker.topology().graph());
        SptTable::build(&net, &[broker.publisher()], None)
    });
    out.put("netsim.spt_build_s", spt_s, "s", 1);

    let stats = broker.covering_stats();
    out.put(
        "covering.representatives",
        stats.map_or(0.0, |s| s.representatives as f64),
        "count",
        1,
    );
    out.put(
        "covering.aggregation_ratio",
        stats.map_or(0.0, |s| s.aggregation_ratio()),
        "ratio",
        1,
    );
    Ok(())
}

/// The publish path, layer by layer, single-threaded over the probe
/// events: match, cost, decide, then the whole `publish_batch` on one
/// worker. (The parts are the per-event entry points; the fused pass
/// matches events eight to a block, so the whole can cost less than
/// their sum and no "self time" is derived from them.)
fn probe_publish(inputs: &Inputs, broker: &mut Broker, spans: &mut Recorder, out: &mut Layers) {
    let events = probe_events(inputs);
    let n = events.len();
    let origin = Instant::now();
    let ns = || origin.elapsed().as_nanos() as u64;
    let root = spans.span("probe.publish_path", 0, 0, ROOT, 0);

    // matcher: hits kept as one flat node list with per-event ends.
    let matcher = broker.matcher();
    let mut scratch = MatchScratch::new();
    let (mut subs, mut nodes) = (Vec::new(), Vec::new());
    let mut all_nodes: Vec<NodeId> = Vec::new();
    let mut ends = Vec::with_capacity(n);
    let mut hits = 0usize;
    let t0 = ns();
    for e in events {
        matcher.match_event_into(e, &mut scratch, &mut subs, &mut nodes);
        hits += subs.len();
        all_nodes.extend_from_slice(&nodes);
        ends.push(all_nodes.len());
    }
    let t1 = ns();
    spans.span("matcher.match_event_into", t0, t1, root, n as u64);
    out.put(
        "matcher.match_ns_per_event",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    );
    out.put("matcher.hits_per_event", hits as f64 / n as f64, "count", n);

    // netsim: unicast and multicast-tree cost of every matched node set.
    let net = FlatNet::compile(broker.topology().graph());
    let table = SptTable::build(&net, &[broker.publisher()], Some(1));
    let view = table.view(broker.publisher()).expect("row just built");
    let mut cost_scratch = CostScratch::new();
    let t0 = ns();
    let mut start = 0;
    for &end in &ends {
        black_box(unicast_and_tree_cost(
            view,
            &all_nodes[start..end],
            &mut cost_scratch,
        ));
        start = end;
    }
    let t1 = ns();
    spans.span("netsim.unicast_and_tree_cost", t0, t1, root, n as u64);
    out.put(
        "netsim.cost_ns_per_event",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    );
    out.put(
        "netsim.nodes_per_event",
        all_nodes.len() as f64 / n as f64,
        "count",
        n,
    );

    // distribution: the threshold rule on (|s|, |M_q|).
    let (policy, partition, groups) = (broker.policy(), broker.partition(), broker.groups());
    let t0 = ns();
    let mut start = 0;
    for (e, &end) in events.iter().zip(&ends) {
        let group = partition.group_of_point(e);
        let size = group.map_or(0, |q| groups.members(q).len());
        black_box(policy.decide_counts(group, end - start, size));
        start = end;
    }
    let t1 = ns();
    spans.span("distribution.decide_counts", t0, t1, root, n as u64);
    out.put(
        "distribution.decide_ns_per_event",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    );

    // broker: the same events through publish_batch on one worker, so
    // the parts above subtract meaningfully; allocations counted.
    let batch = inputs.workload.batch();
    let before = *broker.report();
    for chunk in events.chunks(batch) {
        let _ = black_box(broker.publish_batch(chunk, Some(1))); // warm
    }
    let warm = *broker.report();
    alloc::count_allocs(true);
    let allocs0 = alloc::allocs();
    let t0 = ns();
    for (i, chunk) in events.chunks(batch).enumerate() {
        let c0 = ns();
        let _ = black_box(broker.publish_batch(chunk, Some(1)));
        spans.span("broker.publish_batch", c0, ns(), root, i as u64);
    }
    let t1 = ns();
    let allocs = alloc::allocs() - allocs0;
    alloc::count_allocs(false);
    let publish_ns = (t1 - t0) as f64 / n as f64;
    out.put("broker.publish_ns_per_event", publish_ns, "ns", n);
    out.put(
        "broker.allocs_per_event",
        allocs as f64 / n as f64,
        "count",
        n,
    );
    let messages = (warm.messages - before.messages).max(1) as f64;
    out.put(
        "distribution.multicast_share",
        (warm.multicasts - before.multicasts) as f64 / messages,
        "ratio",
        messages as usize,
    );

    // parallel: what handing a batch to the pool costs by itself.
    let workers = effective_threads(None);
    let pool = WorkerPool::new(workers);
    const ROUNDS: usize = 2_000;
    let t0 = ns();
    for _ in 0..ROUNDS {
        pool.run(workers, |w| {
            black_box(w);
        });
    }
    let t1 = ns();
    spans.span("parallel.pool_run", t0, t1, root, ROUNDS as u64);
    out.put("parallel.workers", workers as f64, "count", 1);
    out.put(
        "parallel.dispatch_ns_per_batch",
        (t1 - t0) as f64 / ROUNDS as f64,
        "ns",
        ROUNDS,
    );
    spans.spans[root as usize].end_ns = ns();
}

/// The transport layers on memory buffers: frame encode and decode, and
/// the batcher's push/take.
fn probe_transport(inputs: &Inputs, spans: &mut Recorder, out: &mut Layers) -> io::Result<()> {
    let events = probe_events(inputs);
    let n = events.len();
    let origin = Instant::now();
    let ns = || origin.elapsed().as_nanos() as u64;
    let frames: Vec<Frame> = events
        .iter()
        .enumerate()
        .map(|(i, e)| Frame::Publish {
            seq: i as u64 + 1,
            coords: e.as_slice().to_vec(),
        })
        .collect();
    let mut buf = Vec::with_capacity(n * 64);
    let t0 = ns();
    for f in &frames {
        write_frame(&mut buf, f)?;
    }
    let t1 = ns();
    spans.span("wire.write_frame", t0, t1, ROOT, n as u64);
    out.put(
        "wire.encode_ns_per_frame",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    );
    out.put(
        "wire.bytes_per_publish",
        buf.len() as f64 / n as f64,
        "bytes",
        n,
    );
    let mut cursor = buf.as_slice();
    let t0 = ns();
    while let Some(f) = read_frame(&mut cursor)? {
        black_box(f);
    }
    let t1 = ns();
    spans.span("wire.read_frame", t0, t1, ROOT, n as u64);
    out.put(
        "wire.decode_ns_per_frame",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    );

    let max = 256;
    let mut batcher = EventBatcher::new(max, stock_space().dims());
    let now = Instant::now();
    let meta = SubmitMeta {
        client: 0,
        seq: 0,
        scheduled: now,
        submitted: now,
    };
    let owned: Vec<Point> = events.to_vec();
    let t0 = ns();
    for e in owned {
        batcher.push(meta, e, now);
        if batcher.is_full() {
            black_box(batcher.take(now));
        }
    }
    black_box(batcher.take(now));
    let t1 = ns();
    spans.span("batcher.push_take", t0, t1, ROOT, n as u64);
    out.put(
        "batcher.push_take_ns_per_event",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    );
    Ok(())
}

/// One publish at a time over the wire: frame flushed → its ack read.
fn probe_ack_rtt(inputs: &Inputs, spans: &mut Recorder, out: &mut Layers) -> io::Result<()> {
    const ROUNDS: u64 = 2_000;
    if !inputs.workload.is_serving() {
        out.put("tcp.ack_rtt_p50_us", 0.0, "us", 0);
        return Ok(());
    }
    let origin = Instant::now();
    let broker = inputs.builder().build().map_err(io::Error::other)?;
    let (sink, _) = BenchSink::timing(origin);
    let mut stack = Stack::start(broker, sink)?;
    let mut rtt = Vec::with_capacity(ROUNDS as usize);
    for seq in 1..=ROUNDS {
        stack.conn.queue(&Frame::Publish {
            seq,
            coords: inputs.event(seq - 1).as_slice().to_vec(),
        })?;
        let t0 = origin.elapsed().as_nanos() as u64;
        stack.conn.flush()?;
        let mut acked = false;
        while !acked {
            stack
                .conn
                .read_frames(|f| acked |= matches!(f, Frame::Ack { .. }))?;
        }
        let t1 = origin.elapsed().as_nanos() as u64;
        spans.span("tcp.ack_rtt", t0, t1, ROOT, seq);
        rtt.push(t1 - t0);
    }
    stack.stop();
    out.put("tcp.ack_rtt_p50_us", p50_us(&rtt), "us", rtt.len());
    Ok(())
}

/// Finds `"key":` in `json` and parses the number after it. Lenient on
/// purpose: a key the server stops exporting reads as `None` (printed
/// as 0 with a note), never as a compile error.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// p50 (ns) of the log₂ `LatencyHisto` exported under `key`: bucket `i`
/// covers `[2^i, 2^(i+1))` ns; linear interpolation inside the bucket.
fn json_histo_p50_ns(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))?;
    let rest = &json[at..];
    let open = rest.find("\"buckets\":[")? + "\"buckets\":[".len();
    let close = open + rest[open..].find(']')?;
    let buckets: Vec<f64> = rest[open..close]
        .split(',')
        .filter_map(|b| b.trim().parse().ok())
        .collect();
    let total: f64 = buckets.iter().sum();
    if total == 0.0 {
        return Some(0.0);
    }
    let mut below = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        if below + count >= total / 2.0 && count > 0.0 {
            let lo = (1u64 << i) as f64;
            return Some(lo + lo * (total / 2.0 - below) / count);
        }
        below += count;
    }
    None
}

/// What the traced serving run says about the server's stages: the
/// public `EventRecord` fields, the metrics reply, and the tails.
fn server_layers(traced: &mut Measured, out: &mut Layers) {
    let stage = |i: usize| -> Vec<u64> {
        traced
            .layers
            .delivered
            .iter()
            .map(|d| d.stages[i])
            .collect()
    };
    let n = traced.layers.delivered.len();
    out.put("server.ingest_p50_us", p50_us(&stage(0)), "us", n);
    out.put("server.pipeline_p50_us", p50_us(&stage(1)), "us", n);
    out.put("server.egress_p50_us", p50_us(&stage(2)), "us", n);
    let json = traced.layers.metrics_json.as_str();
    let mut from_json = |name: &'static str, value: Option<f64>, unit: &'static str| {
        if value.is_none() && n > 0 {
            eprintln!("note: {name} is not in the server's metrics reply; printed as 0");
        }
        out.put(
            name,
            value.unwrap_or(0.0),
            unit,
            usize::from(value.is_some()),
        );
    };
    from_json(
        "server.batcher_p50_us",
        json_histo_p50_ns(json, "stage_batcher").map(|v| v / 1e3),
        "us",
    );
    from_json(
        "server.queue_wait_p50_us",
        json_histo_p50_ns(json, "stage_queue_wait").map(|v| v / 1e3),
        "us",
    );
    from_json(
        "server.ingest_queue_max_depth",
        json_number(json, "ingest_queue_max_depth"),
        "count",
    );
    let stats = traced.layers.server;
    out.put(
        "server.events_per_batch",
        stats.delivered as f64 / stats.batches.max(1) as f64,
        "count",
        stats.batches as usize,
    );
    let samples = traced.window.count();
    out.put(
        "tail.deliver_p99_us",
        traced.window.quantile_ns(0.99) / 1e3,
        "us",
        samples,
    );
    out.put(
        "tail.deliver_p999_us",
        traced.window.quantile_ns(0.999) / 1e3,
        "us",
        samples,
    );
    out.put(
        "tail.deliver_p99_whole_run_us",
        traced.window.whole_quantile_ns(0.99) / 1e3,
        "us",
        samples,
    );
    out.put(
        "server.shed_share",
        traced.layers.refused as f64 / traced.layers.published.max(1) as f64,
        "ratio",
        traced.layers.published as usize,
    );
    out.put(
        "gen.lag_p99_us",
        report::lag_p99_us(traced),
        "us",
        traced.lag_ns.len(),
    );
}

/// The control plane, on `serve_churn`: the synchronous ops with and
/// without a journal, and what the traced run and its recovery saw.
fn control_layers(inputs: &Inputs, traced: &Measured, out: &mut Layers) -> io::Result<()> {
    const OPS: usize = 200;
    let names: [(&'static str, &'static str); 9] = [
        ("broker.subscribe_us", "us"),
        ("broker.unsubscribe_us", "us"),
        ("broker.recompile_ms", "ms"),
        ("journal.append_p50_us", "us"),
        ("journal.dir_bytes", "bytes"),
        ("journal.replayed_ops", "count"),
        ("journal.recover_s", "s"),
        ("server.ctl_op_p50_us", "us"),
        ("server.ctl_queue_p50_us", "us"),
    ];
    if inputs.workload != Workload::ServeChurn {
        for (name, unit) in names {
            out.put(name, 0.0, unit, 0);
        }
        return Ok(());
    }
    // (subscribe ns, unsubscribe ns) per op on a synchronous broker.
    let time_ops = |broker: &mut Broker| -> io::Result<(Vec<u64>, Vec<u64>)> {
        let (mut sub, mut unsub) = (Vec::new(), Vec::new());
        for (node, rect) in &inputs.churn[..OPS] {
            let t0 = Instant::now();
            let h = broker
                .subscribe(*node, rect.clone())
                .map_err(io::Error::other)?;
            sub.push(t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            broker.unsubscribe(h).map_err(io::Error::other)?;
            unsub.push(t0.elapsed().as_nanos() as u64);
        }
        Ok((sub, unsub))
    };
    let mut plain = inputs.builder().build().map_err(io::Error::other)?;
    let (sub, unsub) = time_ops(&mut plain)?;
    let recompile_ms: Vec<f64> = (0..3)
        .map(|_| secs_of(|| plain.recompile()).1 * 1e3)
        .collect();
    let dir: PathBuf = Path::new(OUT_DIR).join(format!("journal-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut journaled = inputs
        .builder()
        .journal(JournalConfig::new(&dir))
        .build()
        .map_err(io::Error::other)?;
    let (jsub, junsub) = time_ops(&mut journaled)?;
    drop(journaled);
    std::fs::remove_dir_all(&dir)?;
    let sync_plain = (p50_us(&sub) + p50_us(&unsub)) / 2.0;
    let sync_journaled = (p50_us(&jsub) + p50_us(&junsub)) / 2.0;
    let ctl_p50 = p50_us(&traced.ctl_ops_ns);
    let recovered = traced.layers.recovered_metrics_json.as_str();
    let values = [
        (p50_us(&sub), OPS),
        (p50_us(&unsub), OPS),
        (median(&recompile_ms), recompile_ms.len()),
        (sync_journaled - sync_plain, 2 * OPS),
        (traced.layers.journal_bytes as f64, 1),
        (json_number(recovered, "replayed_ops").unwrap_or(0.0), 1),
        (median(&traced.broker_s), traced.broker_s.len()),
        (ctl_p50, traced.ctl_ops_ns.len()),
        (ctl_p50 - sync_journaled, traced.ctl_ops_ns.len()),
    ];
    for ((name, unit), (value, n)) in names.into_iter().zip(values) {
        out.put(name, value, unit, n);
    }
    Ok(())
}

fn run() -> io::Result<bool> {
    let args = args::parse().map_err(io::Error::other)?;
    let Some(workload) = args.workload else {
        return Err(io::Error::other("trace needs --workload <name>"));
    };
    let contract = Contract::load().map_err(io::Error::other)?;
    let steal = StealClock::start();
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let inputs = inputs::generate(workload, args.seed);
    println!(
        "# {} input digest: {:#018x}",
        workload.name(),
        inputs.digest
    );

    // The same workload untraced and traced, half the time each.
    let plan = Plan {
        segments: if workload == Workload::ScaleBatch {
            1
        } else {
            2
        },
        setups: 1,
        verify: false,
        measure: Duration::from_secs_f64(seconds as f64 / 2.0),
    };
    let untraced = workloads::run(&inputs, plan, &mut Off)?;
    let mut spans = Recorder::new(300_000);
    let mut traced = workloads::run(&inputs, plan, &mut spans)?;
    let mut wrong = std::mem::take(&mut traced.wrong);
    wrong.extend(untraced.wrong.iter().cloned());
    report::check_digest(&contract, &inputs, args.seed, &mut wrong);

    spans.limit += 10_000; // room for the probes' spans
    let mut out = Layers(Vec::new());
    let mut probe_broker = match traced.layers.broker.take() {
        Some(b) => b,
        None => inputs.builder().build().map_err(io::Error::other)?,
    };
    out.put(
        "broker.build_s",
        median(&traced.broker_s),
        "s",
        traced.broker_s.len(),
    );
    out.put(
        "server.start_s",
        median(&traced.setup_s) - median(&traced.broker_s),
        "s",
        traced.setup_s.len(),
    );
    probe_build(&inputs, &probe_broker, &mut out)?;
    probe_publish(&inputs, &mut probe_broker, &mut spans, &mut out);
    drop(probe_broker);
    probe_transport(&inputs, &mut spans, &mut out)?;
    probe_ack_rtt(&inputs, &mut spans, &mut out)?;
    server_layers(&mut traced, &mut out);
    control_layers(&inputs, &traced, &mut out)?;
    let (off, on) = (untraced.window.rate_per_s(), traced.window.rate_per_s());
    out.put("trace.overhead_pct", 100.0 * (1.0 - on / off), "%", 2);

    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
    spans.write_jsonl(&path)?;
    println!(
        "# {} spans in {} ({} over the cap not kept); self time by span name:",
        spans.spans.len(),
        path.display(),
        spans.dropped
    );
    for (name, count, self_ns) in spans.self_times() {
        println!(
            "#   {name}: {count} spans, self {:.3} ms",
            self_ns as f64 / 1e6
        );
    }
    wrong.extend(Contract::mismatches(&contract.per_layer, &out.0));
    for w in &wrong {
        eprintln!("{}: WRONG: {w}", workload.name());
    }
    report::print_metrics(workload, &out.0);
    let lag = report::lag_p99_us(&traced).max(report::lag_p99_us(&untraced));
    let header = report::host_header(args.seed, seconds, lag, steal.steal_pct());
    report::print_header(&header);
    let row = Row {
        workload,
        correct: wrong.is_empty(),
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: out.0,
    };
    println!("{}", report::driver_line(&row));
    Ok(row.correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("trace could not run: {e}");
            ExitCode::FAILURE
        }
    }
}
