//! One workload, start to finish: the output check, then a run cut into
//! segments, each on a freshly set-up system — set-up (timed), warm-up,
//! measured window. Both binaries call [`run`]; the end-to-end one with
//! tracing [`crate::spans::Off`].
//!
//! Segments exist because on a shared two-core host a server keeps the
//! speed its threads happened to start with: two `serve_closed` starts
//! in one process gave 92k and 107k events/s, and `serve_paced` starts
//! settle near either 150 or 280 us. Pooling the slices of many fresh
//! starts puts that spread inside the run, where the midmean over slices
//! averages it. Every segment also sets the system up several times
//! over (all but the last torn down again at once), which is where
//! `setup_s` gets its repeats.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pubsub_core::{Broker, BrokerBuilder, JournalConfig, PublishOutcome, SubscriptionHandle};
use pubsub_geom::Rect;
use pubsub_netsim::NodeId;
use pubsub_server::{IngestHandle, ServerStats};

use crate::alloc;
use crate::batch;
use crate::inputs::{Inputs, Oracle, Workload, CHURN_OPS_PER_S};
use crate::serve::{self, BenchSink, Delivered, Generated, Load, SinkLog, Stack, PACED_RATE};
use crate::spans::{Off, Spans};
use crate::stats::Sliced;

/// Unmeasured time at the head of every segment: caches fill, the
/// worker pool spawns, the scheme-cost memo warms.
pub const WARM_UP: Duration = Duration::from_millis(300);

/// Churn subscriptions `serve_churn` keeps live before it starts
/// removing the oldest.
const CHURN_LIVE: usize = 50;

/// `serve_churn` asks for a `recompile` after every this many
/// subscribe/unsubscribe operations.
const RECOMPILE_EVERY: u64 = 500;

/// Where the benchmark writes (journals, span files, `result.json`),
/// relative to the repository root it is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// How much of a workload to run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Fresh starts the measured time is split over.
    pub segments: u32,
    /// Set-ups timed at the head of every segment (`setup_s` is the
    /// median over all of them); the last one is the segment's system.
    pub setups: u32,
    /// Whether to run the output check before timing.
    pub verify: bool,
    /// Measured time in total, warm-ups not counted.
    pub measure: Duration,
}

impl Plan {
    /// The end-to-end plan, with the check: three segments of one
    /// set-up each on `scale_batch` (a build takes seconds), ten segments
    /// of five set-ups elsewhere (a set-up takes 20 to 40 ms, and on a
    /// shared host ten of them give a median that moves by a fifth from
    /// run to run).
    pub fn full(workload: Workload, seconds: u64) -> Plan {
        let (segments, setups) = if workload == Workload::ScaleBatch {
            (3, 1)
        } else {
            (10, 5)
        };
        Plan {
            segments,
            setups,
            verify: true,
            measure: Duration::from_secs(seconds),
        }
    }

    fn segment_ns(&self) -> u64 {
        (self.measure / self.segments).as_nanos() as u64
    }
}

/// Everything one run of one workload observed.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds from "inputs ready" to "first event servable", one per
    /// set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of `build()` alone (`recover()` on `serve_churn`'s
    /// restarts), one per set-up; the rest of `setup_s` is starting the
    /// server.
    pub broker_s: Vec<f64>,
    /// Live-heap growth across each set-up ÷ subscriptions.
    pub bytes_per_sub: Vec<f64>,
    /// `100 · (1 − scheme_cost / unicast_cost)` over the cost prefix, on
    /// a fresh synchronous broker.
    pub cost_saving_pct: f64,
    /// Publish → deliver latencies of the measured windows, sliced by
    /// delivery time; work is events delivered.
    pub window: Sliced,
    /// Operations attempted (publishes, plus control ops on churn).
    pub attempted: u64,
    /// Operations refused, shed, errored, lost, duplicated or wrong.
    pub failed: u64,
    /// What the output checks found wrong; empty means correct.
    pub wrong: Vec<String>,
    /// Paced runs: how late each publish was written, ns.
    pub lag_ns: Vec<u64>,
    /// `serve_churn`: ns each subscribe or unsubscribe through
    /// `IngestHandle` took (call → durable ack), measured windows only.
    pub ctl_ops_ns: Vec<u64>,
    /// What only the per-layer metrics read; filled when tracing is on.
    pub layers: LayerData,
}

/// The part of a run only the trace binary reads. The end-to-end run
/// does none of the work behind these fields.
#[derive(Debug, Default)]
pub struct LayerData {
    /// Serving runs: what the sinks logged inside the measured windows.
    pub delivered: Vec<Delivered>,
    /// Serving runs: publishes written, and how many were refused.
    pub published: u64,
    /// See [`LayerData::published`].
    pub refused: u64,
    /// Serving runs: the servers' own totals at stop, summed.
    pub server: ServerStats,
    /// Serving runs: the last segment's `Frame::MetricsRequest` reply,
    /// taken just before stopping.
    pub metrics_json: String,
    /// `serve_churn`: bytes under the journal directory after the run.
    pub journal_bytes: u64,
    /// `serve_churn`: the metrics reply of the last recovered server
    /// (recovery counters).
    pub recovered_metrics_json: String,
    /// The broker of the last segment, for the probes (not on
    /// `serve_churn`, whose broker holds its journal open).
    pub broker: Option<Broker>,
}

/// A started server and the log its sink fills.
type Served = (Stack, Arc<Mutex<SinkLog>>);

/// Sets the system up `repeats` times, tearing all but the last down
/// again, and records each time and the heap each set-up left behind.
/// `ready` takes a fresh builder to "first event servable" and says how
/// long the broker alone took. Building the builder (copying the
/// inputs) is not timed; its heap is counted.
fn set_up<T>(
    inputs: &Inputs,
    m: &mut Measured,
    repeats: u32,
    builder: impl Fn() -> BrokerBuilder,
    ready: impl Fn(BrokerBuilder) -> io::Result<(T, f64)>,
    tear_down: impl Fn(T),
) -> io::Result<T> {
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = kept.take() {
            tear_down(previous);
        }
        let before_bytes = alloc::live_bytes();
        let builder = builder();
        let t0 = Instant::now();
        let (out, broker_s) = ready(builder)?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        m.broker_s.push(broker_s);
        let grown = alloc::live_bytes().saturating_sub(before_bytes);
        m.bytes_per_sub
            .push(grown as f64 / inputs.subscriptions.len() as f64);
        kept = Some(out);
    }
    Ok(kept.expect("at least one set-up"))
}

fn build(builder: BrokerBuilder) -> io::Result<(Broker, f64)> {
    let t0 = Instant::now();
    let broker = builder.build().map_err(io::Error::other)?;
    Ok((broker, t0.elapsed().as_secs_f64()))
}

/// `build()`, then the server, its front and the connection, with a
/// sink stamping from `origin`.
fn serve(builder: BrokerBuilder, origin: Instant) -> io::Result<(Served, f64)> {
    let (broker, broker_s) = build(builder)?;
    let (sink, log) = BenchSink::timing(origin);
    Ok(((Stack::start(broker, sink)?, log), broker_s))
}

fn stop((stack, _): Served) {
    stack.stop();
}

/// Makes room in a fresh server's log for the records of one segment,
/// so the egress thread never reallocates mid-run. Done after set-up:
/// neither its time nor its heap belongs to the product.
fn reserve_log(log: &Mutex<SinkLog>, plan: &Plan) {
    let records = (plan.segment_ns() + WARM_UP.as_nanos() as u64) as usize / 2_500;
    log.lock()
        .expect("nothing delivered yet")
        .delivered
        .reserve(records);
}

/// Publishes the cost prefix on a fresh synchronous `broker`, compares
/// the leading sample with the linear scan, and returns the sample's
/// outcomes (the reference the serving check compares records with).
fn check_sync(
    inputs: &Inputs,
    oracle: &Oracle,
    broker: &mut Broker,
    m: &mut Measured,
) -> Vec<PublishOutcome> {
    let w = inputs.workload;
    let mut sample = Vec::new();
    for chunk in inputs.events[..w.cost_prefix()].chunks(w.batch()) {
        match broker.publish_batch(chunk, None) {
            Ok(outcomes) => {
                let room = w.checked_sample() - sample.len();
                sample.extend(outcomes.into_iter().take(room));
            }
            Err(e) => {
                m.wrong.push(format!("publish_batch failed: {e}"));
                return sample;
            }
        }
    }
    let disagree = sample
        .iter()
        .zip(&inputs.events)
        .filter(|(o, e)| !oracle.agrees(e, o))
        .count();
    if disagree > 0 || sample.len() != w.checked_sample() {
        m.wrong.push(format!(
            "{disagree} of {} synchronous outcomes differ from the linear scan",
            sample.len()
        ));
    }
    let report = broker.report();
    m.cost_saving_pct = 100.0 * (1.0 - report.scheme_cost / report.unicast_cost);
    sample
}

/// The checked sample through the wire: every acked seq must yield
/// exactly one record, equal to the synchronous outcome.
fn check_served(inputs: &Inputs, want: &[PublishOutcome], m: &mut Measured) -> io::Result<()> {
    let origin = Instant::now();
    let (broker, _) = build(inputs.builder())?;
    let (sink, log) = BenchSink::collecting(origin);
    let mut stack = Stack::start(broker, sink)?;
    let sent = serve::generate(
        &mut stack.conn,
        inputs,
        Load::Closed,
        origin,
        u64::MAX,
        want.len() as u64,
        &mut Off,
    )?;
    stack.stop();
    let log = std::mem::take(&mut *log.lock().expect("server stopped"));
    let mut matched = vec![0u32; want.len()];
    for r in &log.records {
        let i = (r.seq - 1) as usize;
        if want.get(i).is_some_and(|w| r.outcome.as_ref() == Ok(w)) {
            matched[i] += 1;
        }
    }
    let good = matched.iter().filter(|&&n| n == 1).count();
    if good != want.len() || sent.refused > 0 || log.records.len() != want.len() {
        m.wrong.push(format!(
            "{good} of {} served outcomes equal the synchronous broker's ({} records, {} refused)",
            want.len(),
            log.records.len(),
            sent.refused
        ));
    }
    Ok(())
}

/// Runs `inputs.workload` according to `plan`.
///
/// # Errors
///
/// Only what stops the run altogether: a broker that does not build, a
/// socket that does not open. Wrong outputs and refused operations are
/// reported in [`Measured`], not as errors.
pub fn run<S: Spans>(inputs: &Inputs, plan: Plan, spans: &mut S) -> io::Result<Measured> {
    let oracle = Oracle::new(&inputs.subscriptions);
    let expected: Vec<u32> = inputs.events[..inputs.workload.counted()]
        .iter()
        .map(|e| oracle.count(e))
        .collect();
    let mut m = Measured::default();
    let origin = Instant::now();
    match inputs.workload {
        Workload::PaperBatch | Workload::ScaleBatch => {
            for segment in 0..plan.segments {
                let builder = || inputs.builder();
                let mut broker = set_up(inputs, &mut m, plan.setups, builder, build, drop)?;
                if segment == 0 && plan.verify {
                    check_sync(inputs, &oracle, &mut broker, &mut m);
                }
                let start_ns = (origin.elapsed() + WARM_UP).as_nanos() as u64;
                m.window.open(start_ns, plan.segment_ns());
                let end_ns = start_ns + plan.segment_ns();
                let (attempted, failed) = batch::run(
                    &mut broker,
                    inputs,
                    &expected,
                    origin,
                    end_ns,
                    &mut m.window,
                    spans,
                );
                m.attempted += attempted;
                m.failed += failed;
                if S::ON {
                    m.layers.broker = Some(broker);
                }
            }
        }
        Workload::ServeClosed | Workload::ServePaced => {
            if plan.verify {
                let (mut reference, _) = build(inputs.builder())?;
                let want = check_sync(inputs, &oracle, &mut reference, &mut m);
                drop(reference);
                check_served(inputs, &want, &mut m)?;
            }
            let load = match inputs.workload {
                Workload::ServeClosed => Load::Closed,
                _ => Load::Paced(PACED_RATE),
            };
            for _ in 0..plan.segments {
                let builder = || inputs.builder();
                let ready = |b| serve(b, origin);
                let (mut stack, log) = set_up(inputs, &mut m, plan.setups, builder, ready, stop)?;
                reserve_log(&log, &plan);
                let start_ns = (origin.elapsed() + WARM_UP).as_nanos() as u64;
                m.window.open(start_ns, plan.segment_ns());
                let generated = serve::generate(
                    &mut stack.conn,
                    inputs,
                    load,
                    origin,
                    start_ns + plan.segment_ns(),
                    u64::MAX,
                    spans,
                )?;
                if S::ON {
                    m.layers.metrics_json = stack.conn.metrics_json()?;
                }
                let (broker, stats) = stack.stop();
                let log = std::mem::take(&mut *log.lock().expect("server stopped"));
                let expected = Some(expected.as_slice());
                settle::<S>(
                    inputs,
                    expected,
                    generated,
                    log.delivered,
                    stats,
                    start_ns,
                    &mut m,
                );
                if S::ON {
                    m.layers.broker = Some(broker);
                }
            }
        }
        Workload::ServeChurn => run_churn(inputs, plan, &oracle, origin, &mut m, spans)?,
    }
    Ok(m)
}

/// Files what a segment's sink logged against what its generator sent:
/// latency per delivered record, and every way an operation can have
/// failed.
fn settle<S: Spans>(
    inputs: &Inputs,
    expected: Option<&[u32]>,
    generated: Generated,
    mut delivered: Vec<Delivered>,
    stats: ServerStats,
    start_ns: u64,
    m: &mut Measured,
) {
    let sent = generated.due_ns.len();
    let mut seen = vec![false; sent];
    let mut wrong = 0u64;
    for d in &delivered {
        let i = (d.seq - 1) as usize;
        if i >= sent || seen[i] || !generated.accepted[i] {
            wrong += 1; // never sent, delivered twice, or refused yet delivered
            continue;
        }
        seen[i] = true;
        let pool_index = i % inputs.events.len();
        let want = expected.and_then(|e| e.get(pool_index));
        if d.matched == u32::MAX || want.is_some_and(|&w| w != d.matched) {
            wrong += 1;
        }
        m.window
            .add(d.at_ns, d.at_ns.saturating_sub(generated.due_ns[i]), 1);
    }
    let lost = generated
        .accepted
        .iter()
        .zip(&seen)
        .filter(|(&accepted, &seen)| accepted && !seen)
        .count() as u64;
    m.attempted += sent as u64;
    m.failed += generated.refused + generated.unacked() + lost + wrong;
    if wrong + lost > 0 {
        m.wrong.push(format!(
            "{wrong} records wrong or duplicated, {lost} accepted publishes never delivered"
        ));
    }
    m.lag_ns.extend(generated.lag_ns);
    if S::ON {
        let layers = &mut m.layers;
        delivered.retain(|d| d.at_ns >= start_ns);
        layers.delivered.extend(delivered);
        layers.published += sent as u64;
        layers.refused += generated.refused;
        layers.server.accepted += stats.accepted;
        layers.server.rejected += stats.rejected;
        layers.server.delivered += stats.delivered;
        layers.server.failed += stats.failed;
        layers.server.batches += stats.batches;
        layers.server.ingest_queue_max_depth = layers
            .server
            .ingest_queue_max_depth
            .max(stats.ingest_queue_max_depth);
    }
}

/// The control thread of `serve_churn`, whose state outlives the
/// server restarts between segments.
#[derive(Debug, Default)]
struct Churn {
    /// Churn subscriptions acked as added and not yet acked as removed,
    /// oldest first, with their index into `Inputs::churn`.
    live: VecDeque<(SubscriptionHandle, usize)>,
    next_sub: usize,
    /// Subscribes and unsubscribes issued.
    ops: u64,
    /// `recompile`s issued.
    recompiles: u64,
    failed: u64,
    /// `(completed at ns, took ns)` per subscribe/unsubscribe.
    op_ns: Vec<(u64, u64)>,
}

impl Churn {
    /// Issues subscribe/unsubscribe pairs at [`CHURN_OPS_PER_S`] on a
    /// fixed schedule from `origin + from_ns` until `origin + end_ns`,
    /// and a `recompile` after every [`RECOMPILE_EVERY`] of them. The
    /// ledger only ever records what the server acked.
    fn drive(
        &mut self,
        handle: &IngestHandle,
        inputs: &Inputs,
        origin: Instant,
        from_ns: u64,
        end_ns: u64,
    ) {
        let interval = 1_000_000_000 / CHURN_OPS_PER_S;
        for due_ns in (from_ns..end_ns).step_by(interval as usize) {
            std::thread::sleep(Duration::from_nanos(due_ns).saturating_sub(origin.elapsed()));
            let t0 = origin.elapsed();
            let ok = if self.ops % 2 == 1 && self.live.len() > CHURN_LIVE {
                let (h, _) = self.live.pop_front().expect("longer than CHURN_LIVE");
                handle.unsubscribe(h).is_ok()
            } else if let Some((node, rect)) = inputs.churn.get(self.next_sub) {
                self.next_sub += 1;
                match handle.subscribe(*node, rect.clone()) {
                    Ok(h) => {
                        self.live.push_back((h, self.next_sub - 1));
                        true
                    }
                    Err(_) => false,
                }
            } else {
                false // schedule exhausted: cannot happen within 60 s
            };
            let t1 = origin.elapsed();
            self.ops += 1;
            self.failed += u64::from(!ok);
            self.op_ns
                .push((t1.as_nanos() as u64, (t1 - t0).as_nanos() as u64));
            if self.ops.is_multiple_of(RECOMPILE_EVERY) {
                self.recompiles += 1;
                self.failed += u64::from(handle.recompile().is_err());
            }
        }
    }

    fn ledger(&self, inputs: &Inputs) -> Vec<(NodeId, Rect)> {
        let churned = self.live.iter().map(|&(_, i)| inputs.churn[i].clone());
        inputs
            .subscriptions
            .iter()
            .cloned()
            .chain(churned)
            .collect()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `serve_churn`: a closed loop of publishes beside a control thread, on
/// a broker journaling with the shipped `JournalConfig` (every append
/// synced before its ack). The first segment builds the journaled
/// broker; every later one is a restart — `recover()` from the journal
/// the previous segment left, then start the server — so `setup_s` here
/// is recovery time. After the last segment one more restart is checked
/// against the ledger of acked ops.
///
/// The publishes are a closed loop because beside these writes an open
/// one cannot promise that no operation fails: every control op drains
/// the executors and syncs the journal, a `recompile` holds the fold
/// for ~20 ms, the default ingest queue (64 batches) covers 35 to 64 ms
/// of a fixed 40 000 events/s, and when the host adds a stall of its own
/// the server sheds — 0.1 to 2% of a run, in seven runs of ten. A caller
/// that waits for delivery pauses instead, and the stall shows as lost
/// throughput.
fn run_churn<S: Spans>(
    inputs: &Inputs,
    plan: Plan,
    oracle: &Oracle,
    origin: Instant,
    m: &mut Measured,
    spans: &mut S,
) -> io::Result<()> {
    if plan.verify {
        let (mut reference, _) = build(inputs.builder())?;
        check_sync(inputs, oracle, &mut reference, m);
    }
    let dir = PathBuf::from(OUT_DIR).join(format!("journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let journal = JournalConfig::new(&dir);
    let recover = |b: BrokerBuilder| -> io::Result<(Served, f64)> {
        let t0 = Instant::now();
        let broker = b.recover().map_err(io::Error::other)?;
        let recover_s = t0.elapsed().as_secs_f64();
        let (sink, log) = BenchSink::timing(origin);
        Ok(((Stack::start(broker, sink)?, log), recover_s))
    };
    let recovery_builder = || inputs.recovery_builder().journal(journal.clone());

    let mut churn = Churn::default();
    let mut windows = Vec::new();
    for segment in 0..plan.segments {
        let (mut stack, log) = if segment == 0 {
            // Not a set-up sample: all the others are restarts.
            serve(inputs.builder().journal(journal.clone()), origin)?.0
        } else {
            set_up(inputs, m, plan.setups, recovery_builder, recover, stop)?
        };
        reserve_log(&log, &plan);
        let from_ns = origin.elapsed().as_nanos() as u64;
        let start_ns = from_ns + WARM_UP.as_nanos() as u64;
        let end_ns = start_ns + plan.segment_ns();
        m.window.open(start_ns, plan.segment_ns());
        windows.push(start_ns..end_ns);
        let handle = stack.handle.clone();
        let generated = std::thread::scope(|scope| {
            let control = scope.spawn(|| churn.drive(&handle, inputs, origin, from_ns, end_ns));
            let generated = serve::generate(
                &mut stack.conn,
                inputs,
                Load::Closed,
                origin,
                end_ns,
                u64::MAX,
                spans,
            );
            control.join().expect("control thread panicked");
            generated
        })?;
        drop(handle);
        if S::ON {
            m.layers.metrics_json = stack.conn.metrics_json()?;
        }
        let (broker, stats) = stack.stop();
        drop(broker); // closes the journal, as a crash would not
        let log = std::mem::take(&mut *log.lock().expect("server stopped"));
        settle::<S>(inputs, None, generated, log.delivered, stats, start_ns, m);
    }
    m.attempted += churn.ops + churn.recompiles;
    m.failed += churn.failed;
    m.ctl_ops_ns = churn
        .op_ns
        .iter()
        .filter(|(at, _)| windows.iter().any(|w| w.contains(at)))
        .map(|&(_, took)| took)
        .collect();
    if S::ON {
        m.layers.journal_bytes = dir_bytes(&dir);
    }

    // The last restart: the recovered broker must hold exactly the
    // ledger of acked ops.
    let (mut stack, _) = set_up(inputs, m, plan.setups, recovery_builder, recover, stop)?;
    if S::ON {
        m.layers.recovered_metrics_json = stack.conn.metrics_json()?;
    }
    let (mut recovered, _) = stack.stop();
    if plan.verify {
        let ledger = Oracle::new(&churn.ledger(inputs));
        let probes = &inputs.events[..inputs.workload.checked_sample()];
        let disagree = match recovered.publish_batch(probes, None) {
            Ok(outcomes) => outcomes
                .iter()
                .zip(probes)
                .filter(|(o, e)| !ledger.agrees_unnumbered(e, o))
                .count(),
            Err(_) => probes.len(),
        };
        if disagree > 0 {
            m.wrong.push(format!(
                "recovered broker disagrees with the ledger of acked ops on {disagree} of {} probes",
                probes.len()
            ));
        }
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir)
}
