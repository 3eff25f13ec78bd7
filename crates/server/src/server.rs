//! The staged server: ingest shards → bounded ingest queue → the fold
//! thread, which owns the broker and the sink.
//!
//! See the crate docs for the stage architecture and the backpressure
//! contract. The implementation notes that matter:
//!
//! * **One publish path.** The fold pops the ingest queue itself and
//!   runs each batch through `Broker::publish_batch`, the call a
//!   synchronous caller makes, so the outcomes, the scheme-cost memo and
//!   the cumulative f64 report are bit-identical to a synchronous broker
//!   processing the same batches in the same order. A batch of at least
//!   two [`pubsub_parallel::BLOCK`]s of events splits across the broker's
//!   own worker pool ([`pubsub_parallel::shares`]).
//! * **Queue order is the only order.** Control operations (subscribe /
//!   unsubscribe / recompile / metrics) travel through the same queue,
//!   behind every event accepted before them, and the fold applies them
//!   between batches. A batch enqueued before a recompile is therefore
//!   processed under the pre-recompile epoch, and its records say so.
//! * **Delivery stays deterministic.** The fold hands each batch's
//!   records to the sink before it takes the next item, so the sink sees
//!   the queue order, and a control op's reply follows the records of
//!   every batch before it.
//! * **Accepted means delivered-or-reported.** Once `submit` returns
//!   `Ok`, the event sits in a shard batcher or the queue; shutdown
//!   flushes every shard with a *blocking* push before closing the
//!   queue, so exactly one [`EventRecord`] per accepted event reaches
//!   the sink — even records for events the broker itself rejected
//!   (fault-plan aborts) carry the error instead of vanishing.
//! * **Under a fault plan** the fold publishes event by event: the fault
//!   clock and a mid-batch abort are per-event state, and this way every
//!   event gets an attributable record, bit-identical to a synchronous
//!   `publish` loop.
//! * **The fold is supervised.** It keeps whatever must survive a crash
//!   in a `FoldState` held outside the `catch_unwind` it runs in (see
//!   [`crate::supervise`]): a panic loses the loop's locals and nothing
//!   else, and the fold restarts in place from that state. An empty
//!   [`CrashPlan`] and no [`RecoverFn`](crate::RecoverFn) — what
//!   [`StagedServer::start`] means — is the same runtime with nothing
//!   scheduled to die.
//! * **Batching earns its wait.** A submit into an idle pipeline flushes
//!   at once, and the fold flushes every waiting shard when its last item
//!   in flight finishes; events wait only while a pass is in flight to
//!   amortise against, at most [`ServingConfig::flush_interval`].

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pubsub_core::{Broker, BrokerError, PublishOutcome, SubscriptionHandle};
use pubsub_geom::{Point, Rect};
use pubsub_netsim::NodeId;
use pubsub_parallel::{PushError, StageQueue};

use crate::batcher::{EventBatch, EventBatcher, SubmitMeta};
use crate::metrics::{ServerStats, ServingMetrics};
use crate::supervise::{
    install_chaos_hook, supervise_fold, CrashKind, CrashPlan, SuperviseOptions,
};

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Configuration of a [`StagedServer`]. Passive data: public fields.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// Bounded ingest-queue capacity in work items (batches + control
    /// operations). This is the admission-control knob: when the
    /// pipeline falls behind by this many batches, submissions reject.
    /// A slow sink stalls the fold that calls it, and so fills this
    /// queue: pressure reaches the edge instead of growing memory.
    pub ingest_capacity: usize,
    /// Size trigger: a shard batch flushes when it reaches this many
    /// events.
    pub max_batch: usize,
    /// Deadline ceiling only: a non-empty shard flushes when its oldest
    /// event has waited this long. An idle pipeline never makes events
    /// wait for it — a submit into it flushes at once, and the fold
    /// flushes every waiting shard when the pipeline drains — so it binds
    /// only for a sparse shard while other connections keep the pipeline
    /// busy.
    pub flush_interval: Duration,
    /// Connection shards (batchers). Clients map to shards by
    /// `client % shards`; more shards mean less submit-lock contention
    /// but smaller, more frequent batches.
    pub shards: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            ingest_capacity: 64,
            max_batch: 256,
            flush_interval: Duration::from_millis(1),
            shards: 8,
        }
    }
}

/// Why a submission was not accepted. The explicit reject ack of the
/// backpressure contract — the caller knows synchronously and nothing
/// was enqueued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// Load shedding: the bounded ingest queue is full and the shard's
    /// batch could not be handed off. Control
    /// operations (subscribe/unsubscribe/recompile/metrics) are always
    /// admitted — only publishes shed. The hint says how long to back
    /// off before retrying, scaled to the current backlog.
    Shed {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// The event has the wrong dimensionality for the broker's space.
    Malformed,
    /// The server is shutting down (or already stopped).
    Closed,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Shed { retry_after_ms } => {
                write!(f, "overloaded, retry after {retry_after_ms}ms")
            }
            RejectReason::Malformed => write!(f, "malformed event"),
            RejectReason::Closed => write!(f, "server closed"),
        }
    }
}

/// Errors from the control-plane calls on [`IngestHandle`].
#[derive(Debug)]
pub enum ServingError {
    /// The server has shut down; the operation was not applied.
    Closed,
    /// The broker rejected the operation.
    Broker(BrokerError),
    /// The fold died while applying an item and had no recovery path (or
    /// recovery itself failed); the serving state is lost.
    Crashed(String),
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Closed => write!(f, "server closed"),
            ServingError::Broker(e) => write!(f, "broker: {e}"),
            ServingError::Crashed(why) => write!(f, "unrecoverable stage crash: {why}"),
        }
    }
}

impl std::error::Error for ServingError {}

/// What the fold hands the sink for every accepted event: the outcome (or
/// the broker's error, so fault-plan rejects are visible rather than
/// silent), the epoch the event was processed under, and the per-stage
/// timings.
#[derive(Clone, PartialEq, Debug)]
pub struct EventRecord {
    /// The submitting client.
    pub client: u32,
    /// The client's sequence number for the event.
    pub seq: u64,
    /// Engine-snapshot epoch the event was matched and costed under.
    pub epoch: u64,
    /// The publish outcome, or the broker's error message when the event
    /// was accepted into the queue but the engine refused it (e.g. the
    /// publisher was down under a fault plan).
    pub outcome: Result<PublishOutcome, String>,
    /// End-to-end latency: scheduled arrival → record stamped. Under
    /// open-loop load the scheduled instant is the generator's arrival
    /// time, so queueing delay shows up here when the system falls
    /// behind.
    pub latency_ns: u64,
    /// Ingest-stage residence: submission → fold dequeue.
    pub ingest_ns: u64,
    /// Pipeline-stage residence of the event's batch: fold dequeue →
    /// publish pass complete.
    pub pipeline_ns: u64,
    /// Egress residence: fold complete → this record stamped.
    pub egress_ns: u64,
}

/// Consumer of [`EventRecord`]s, owned and called by the fold thread: a
/// slow sink stalls the fold.
pub trait DeliverySink: Send {
    /// Called exactly once per accepted event, in processing order.
    fn on_record(&mut self, record: EventRecord);
}

impl<F: FnMut(EventRecord) + Send> DeliverySink for F {
    fn on_record(&mut self, record: EventRecord) {
        self(record)
    }
}

/// A sink that keeps every record — what the correctness tests use.
/// Clones share the same buffer, so keep one clone outside the server to
/// read results after [`StagedServer::stop`].
#[derive(Clone, Debug, Default)]
pub struct CollectorSink {
    records: Arc<Mutex<Vec<EventRecord>>>,
}

impl CollectorSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes everything collected so far.
    pub fn take(&self) -> Vec<EventRecord> {
        std::mem::take(&mut lock(&self.records))
    }

    /// Records collected so far.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl DeliverySink for CollectorSink {
    fn on_record(&mut self, record: EventRecord) {
        lock(&self.records).push(record);
    }
}

/// A sink that keeps only end-to-end latencies (plus a failure count) —
/// cheap enough for million-event benchmark runs.
#[derive(Clone, Debug, Default)]
pub struct LatencySink {
    latencies: Arc<Mutex<Vec<u64>>>,
    failed: Arc<AtomicU64>,
}

impl LatencySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the latencies (ns) of every delivered event so far.
    pub fn take(&self) -> Vec<u64> {
        std::mem::take(&mut lock(&self.latencies))
    }

    /// Events whose record carried a broker error.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

impl DeliverySink for LatencySink {
    fn on_record(&mut self, record: EventRecord) {
        if record.outcome.is_ok() {
            lock(&self.latencies).push(record.latency_ns);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

pub(crate) enum ControlOp {
    Subscribe(
        NodeId,
        Rect,
        mpsc::Sender<Result<SubscriptionHandle, BrokerError>>,
    ),
    Unsubscribe(SubscriptionHandle, mpsc::Sender<Result<(), BrokerError>>),
    Recompile(mpsc::Sender<Result<(), BrokerError>>),
    Metrics(mpsc::Sender<ServingMetrics>),
}

pub(crate) enum WorkItem {
    Batch(EventBatch),
    Control(ControlOp),
}

/// A folded batch on its way to the sink.
pub(crate) struct EgressBatch {
    meta: Vec<SubmitMeta>,
    /// One outcome per `meta` entry; the emit step moves them out front
    /// to back, so what is left is what the sink has not been handed.
    results: std::vec::IntoIter<Result<PublishOutcome, String>>,
    epoch: u64,
    dequeued: Instant,
    folded: Instant,
}

pub(crate) struct IngestShared {
    pub(crate) queue: StageQueue<WorkItem>,
    pub(crate) shards: Vec<Mutex<EventBatcher>>,
    pub(crate) accepting: AtomicBool,
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    /// Work items pushed into `queue` and not yet finished by the fold:
    /// a batch until its emit step ends, a control op until it leaves the
    /// apply slot. Zero means the pipeline is idle.
    pub(crate) in_flight: AtomicU64,
    pub(crate) dims: usize,
    pub(crate) flush_interval: Duration,
}

impl IngestShared {
    /// Pushes `item` (blocking or not), counted in `in_flight` from
    /// before the push so the fold never finishes an uncounted item; a
    /// failed push is uncounted again. An undo that reaches zero drains
    /// nothing, but it follows a full queue, and the ceiling bounds that.
    fn push(&self, item: WorkItem, block: bool) -> Result<(), WorkItem> {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let pushed = if block {
            self.queue.push(item)
        } else {
            self.queue.try_push(item).map_err(PushError::into_inner)
        };
        if pushed.is_err() {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        pushed
    }

    /// Flushes `batcher`'s events (if any) as one batch; whether they
    /// left. A failed push puts them back.
    fn flush(&self, batcher: &mut EventBatcher, now: Instant, block: bool) -> bool {
        if batcher.is_empty() {
            return true;
        }
        let Err(WorkItem::Batch(batch)) = self.push(WorkItem::Batch(batcher.take(now)), block)
        else {
            return true;
        };
        batcher.restore(batch, now);
        false
    }

    /// The fold finished one work item; the one that leaves nothing in
    /// flight flushes every shard that buffered events meanwhile.
    ///
    /// No wake-up is lost: `submit` reads `in_flight` under its shard
    /// lock after buffering, and this decrement precedes every shard lock
    /// below, so either that submit saw zero or this drain sees its
    /// event. The fold is the queue's consumer, so it neither pushes
    /// blocking nor waits on a shard lock, whose holder may be pushing
    /// blocking: that holder waits on a full queue, which is work in
    /// flight, so a contended shard is skipped once anything is in flight
    /// — the drain that work ends in comes back to it.
    pub(crate) fn finish(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        let now = Instant::now();
        for shard in &self.shards {
            let mut batcher = loop {
                match shard.try_lock() {
                    Ok(batcher) => break batcher,
                    Err(TryLockError::Poisoned(poisoned)) => break poisoned.into_inner(),
                    Err(_) if self.in_flight.load(Ordering::SeqCst) > 0 => return,
                    Err(_) => std::thread::yield_now(),
                }
            };
            self.flush(&mut batcher, now, false);
        }
    }

    /// `stats` with the counts the ingest side keeps filled in:
    /// admissions and the ingest queue's high-water mark.
    pub(crate) fn stats(&self, stats: ServerStats) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            ingest_queue_max_depth: self.queue.max_depth() as u64,
            ..stats
        }
    }
}

impl fmt::Debug for IngestShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestShared")
            .field("queue", &self.queue)
            .field("shards", &self.shards.len())
            .field("accepting", &self.accepting)
            .field("accepted", &self.accepted)
            .field("rejected", &self.rejected)
            .field("in_flight", &self.in_flight)
            .finish_non_exhaustive()
    }
}

/// The transport-in handle: submit events, run control operations, poll
/// metrics. Cheap to clone; every connection thread (or simulated
/// client) holds one.
#[derive(Clone, Debug)]
pub struct IngestHandle {
    pub(crate) shared: Arc<IngestShared>,
}

impl IngestHandle {
    /// Submits one event on behalf of `client`, with an explicit
    /// open-loop `scheduled` arrival instant (end-to-end latency is
    /// measured from it, so queueing delay is visible when submission
    /// lags the schedule).
    ///
    /// `Ok` is the accept ack: the event will produce exactly one sink
    /// record. `Err` is the reject ack: nothing was enqueued.
    ///
    /// # Errors
    ///
    /// [`RejectReason::Shed`] under backpressure (with a retry-after
    /// hint scaled to the backlog),
    /// [`RejectReason::Malformed`] for a wrong-dimensional event,
    /// [`RejectReason::Closed`] during/after shutdown.
    pub fn submit(
        &self,
        client: u32,
        seq: u64,
        event: Point,
        scheduled: Instant,
    ) -> Result<(), RejectReason> {
        let sh = &*self.shared;
        if event.dims() != sh.dims {
            return Err(RejectReason::Malformed);
        }
        let now = Instant::now();
        let shard = &sh.shards[client as usize % sh.shards.len()];
        let mut batcher = lock(shard);
        // Re-check under the shard lock: shutdown sets the flag before
        // flushing the shards, so a submit that lands after the final
        // flush sees it here and cannot strand an accepted event.
        if !sh.accepting.load(Ordering::SeqCst) {
            return Err(RejectReason::Closed);
        }
        // Mandatory flush before accepting more: if the queue will not
        // take the shard's batch, the *new* event is rejected and
        // everything already accepted stays buffered.
        if batcher.is_full() && !sh.flush(&mut batcher, now, false) {
            sh.rejected.fetch_add(1, Ordering::Relaxed);
            if sh.queue.is_closed() {
                return Err(RejectReason::Closed);
            }
            // Publishes shed with a retry hint; control ops keep their
            // blocking-push lane and are always admitted.
            return Err(RejectReason::Shed {
                retry_after_ms: shed_hint(sh),
            });
        }
        batcher.push(
            SubmitMeta {
                client,
                seq,
                scheduled,
                submitted: now,
            },
            event,
            now,
        );
        sh.accepted.fetch_add(1, Ordering::Relaxed);
        // Size trigger, or flush on idle: with nothing in flight there is
        // no pass to amortise against. Read under the shard lock after
        // buffering, while the fold's drain decrements before it locks a
        // shard: either this read sees zero or that drain sees the event
        // (see `IngestShared::finish`). A full queue leaves the batch for
        // the next submit, the next drain or the deadline flusher.
        if batcher.is_full() || sh.in_flight.load(Ordering::SeqCst) == 0 {
            sh.flush(&mut batcher, now, false);
        }
        Ok(())
    }

    /// [`IngestHandle::submit`] with `scheduled = now` — for closed-loop
    /// callers (the TCP front) where submission *is* the arrival.
    ///
    /// # Errors
    ///
    /// As [`IngestHandle::submit`].
    pub fn submit_now(&self, client: u32, seq: u64, event: Point) -> Result<(), RejectReason> {
        self.submit(client, seq, event, Instant::now())
    }

    /// Adds a subscription through the ordered pipeline: every event
    /// accepted before this call is matched under the old subscription
    /// set, everything after under the new one.
    ///
    /// # Errors
    ///
    /// [`ServingError::Closed`] after shutdown, or the broker's own
    /// rejection.
    pub fn subscribe(&self, node: NodeId, rect: Rect) -> Result<SubscriptionHandle, ServingError> {
        let (tx, rx) = mpsc::channel();
        self.control(ControlOp::Subscribe(node, rect, tx))?;
        rx.recv()
            .map_err(|_| ServingError::Closed)?
            .map_err(ServingError::Broker)
    }

    /// Removes a subscription through the ordered pipeline.
    ///
    /// # Errors
    ///
    /// As [`IngestHandle::subscribe`].
    pub fn unsubscribe(&self, handle: SubscriptionHandle) -> Result<(), ServingError> {
        let (tx, rx) = mpsc::channel();
        self.control(ControlOp::Unsubscribe(handle, tx))?;
        rx.recv()
            .map_err(|_| ServingError::Closed)?
            .map_err(ServingError::Broker)
    }

    /// Forces a full engine recompile through the ordered pipeline. The
    /// epoch bump lands *between* queued batches, never inside one —
    /// batches accepted earlier keep their pre-recompile epoch (see
    /// [`EventRecord::epoch`]).
    ///
    /// # Errors
    ///
    /// As [`IngestHandle::subscribe`].
    pub fn recompile(&self) -> Result<(), ServingError> {
        let (tx, rx) = mpsc::channel();
        self.control(ControlOp::Recompile(tx))?;
        rx.recv()
            .map_err(|_| ServingError::Closed)?
            .map_err(ServingError::Broker)
    }

    /// Polls the fold thread, in queue order, for the broker's counters
    /// and the server's own. The fold has handed every earlier batch to
    /// the sink before it answers, so the delivery counts are exact.
    ///
    /// # Errors
    ///
    /// [`ServingError::Closed`] after shutdown.
    pub fn metrics(&self) -> Result<ServingMetrics, ServingError> {
        let (tx, rx) = mpsc::channel();
        self.control(ControlOp::Metrics(tx))?;
        rx.recv().map_err(|_| ServingError::Closed)
    }

    /// Submissions accepted so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Submissions rejected by admission control so far.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Enqueues a control operation behind everything already accepted:
    /// flushes every shard (blocking — accepted events are never
    /// dropped), then pushes the op through the same ordered queue.
    fn control(&self, op: ControlOp) -> Result<(), ServingError> {
        let sh = &*self.shared;
        for shard in &sh.shards {
            // A closed queue (mid-shutdown) puts the events back for the
            // final flush.
            if !sh.flush(&mut lock(shard), Instant::now(), true) {
                return Err(ServingError::Closed);
            }
        }
        sh.push(WorkItem::Control(op), true)
            .map_err(|_| ServingError::Closed)
    }
}

/// The running staged server. Owns the deadline flusher and the fold
/// thread; [`StagedServer::stop`] (or drop) shuts down cleanly,
/// returning the broker and the aggregate stats.
#[derive(Debug)]
pub struct StagedServer {
    handle: IngestHandle,
    flusher_stop: Arc<AtomicBool>,
    flusher: Option<JoinHandle<()>>,
    fold: Option<JoinHandle<Result<(Broker, ServerStats), String>>>,
}

impl StagedServer {
    /// [`StagedServer::start_with`] the default [`SuperviseOptions`]:
    /// nothing scheduled to crash, and no way to rebuild the broker if
    /// the fold dies anyway.
    pub fn start(broker: Broker, config: ServingConfig, sink: Box<dyn DeliverySink>) -> Self {
        Self::start_with(broker, config, sink, SuperviseOptions::default())
    }

    /// Starts the staged server around `broker`: spawns the deadline
    /// flusher and the fold thread, which takes ownership of the broker
    /// and `sink` and runs under its own supervision.
    /// `options.recover` enables fold-crash recovery; `options.chaos`
    /// injects the scheduled panics.
    pub fn start_with(
        broker: Broker,
        config: ServingConfig,
        sink: Box<dyn DeliverySink>,
        options: SuperviseOptions,
    ) -> Self {
        let dims = broker.space().dims();
        let ingest = Arc::new(IngestShared {
            queue: StageQueue::new(config.ingest_capacity),
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::new(EventBatcher::new(config.max_batch, dims)))
                .collect(),
            accepting: AtomicBool::new(true),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            dims,
            flush_interval: config.flush_interval,
        });
        let flusher_stop = Arc::new(AtomicBool::new(false));
        let flusher = {
            let ingest = Arc::clone(&ingest);
            let stop = Arc::clone(&flusher_stop);
            std::thread::Builder::new()
                .name("pubsub-flusher".into())
                .spawn(move || flusher_loop(&ingest, &stop))
                .expect("spawn flusher thread")
        };
        // Only a plan that can fire replaces the process-wide panic hook;
        // a default server leaves the host's hook alone.
        if !options.chaos.is_empty() {
            install_chaos_hook();
        }
        let state = FoldState::new(broker, sink, options.chaos);
        let recover = options.recover;
        let fold = {
            let ingest = Arc::clone(&ingest);
            std::thread::Builder::new()
                .name("pubsub-fold".into())
                .spawn(move || supervise_fold(&ingest, state, recover))
                .expect("spawn fold thread")
        };

        StagedServer {
            handle: IngestHandle { shared: ingest },
            flusher_stop,
            flusher: Some(flusher),
            fold: Some(fold),
        }
    }

    /// A transport-in handle for submitting events and control ops.
    pub fn handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// [`StagedServer::try_stop`] for callers with no recovery story.
    ///
    /// # Panics
    ///
    /// Panics if the serving state was lost to a fold crash.
    pub fn stop(self) -> (Broker, ServerStats) {
        self.try_stop().expect("fold healthy")
    }

    /// Stops accepting, flushes every shard, lets the fold drain the
    /// closed ingest queue, joins it, and returns the broker plus the
    /// final aggregate stats.
    ///
    /// # Errors
    ///
    /// [`ServingError::Crashed`] if the fold died without a recovery
    /// path, or recovery itself failed; accepted-but-undelivered events
    /// are reported lost rather than silently dropped.
    pub fn try_stop(mut self) -> Result<(Broker, ServerStats), ServingError> {
        self.shutdown().expect("try_stop consumes the only handle")
    }

    fn shutdown(&mut self) -> Option<Result<(Broker, ServerStats), ServingError>> {
        let fold = self.fold.take()?;
        let sh = &*self.handle.shared;
        sh.accepting.store(false, Ordering::SeqCst);
        // Final flush: every accepted event must reach the pipeline, so
        // this push blocks rather than rejects.
        for shard in &sh.shards {
            sh.flush(&mut lock(shard), Instant::now(), true);
        }
        sh.queue.close();
        self.flusher_stop.store(true, Ordering::SeqCst);
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        let outcome = fold
            .join()
            .unwrap_or_else(|_| Err("fold thread panicked".into()));
        Some(outcome.map_err(ServingError::Crashed))
    }
}

impl Drop for StagedServer {
    fn drop(&mut self) {
        // Explicit `stop` already ran if the fold handle is gone;
        // otherwise shut down so no thread outlives the server.
        let _ = self.shutdown();
    }
}

/// The shed tier's retry hint: roughly how long the current backlog
/// takes to drain (queue depth × the flush interval each entry
/// represents), clamped to a sane client-side backoff band. A deeper
/// backlog tells clients to stay away longer instead of hammering the
/// admission edge.
pub(crate) fn shed_hint(shared: &IngestShared) -> u32 {
    let depth = shared.queue.depth().max(1) as u128;
    let per_batch_ms = shared.flush_interval.as_millis().max(1);
    (depth * per_batch_ms).clamp(1, 10_000) as u32
}

/// The deadline ceiling, for a sparse shard while other connections keep
/// the pipeline from ever draining.
pub(crate) fn flusher_loop(shared: &IngestShared, stop: &AtomicBool) {
    // The tick is capped so shutdown never waits on a sleeping flusher:
    // `stop` joins this thread, and an arbitrarily long flush interval
    // must not translate into an arbitrarily long join.
    let deadline = shared.flush_interval;
    let tick = (deadline / 2).clamp(Duration::from_micros(50), Duration::from_millis(20));
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        let now = Instant::now();
        for shard in &shared.shards {
            let mut batcher = lock(shard);
            if batcher.due(now, deadline) {
                shared.flush(&mut batcher, now, false);
            }
        }
    }
}

/// Per-event transport-in latencies, recorded by the fold as the batch
/// leaves its crash window: batcher residency, queue wait, and their
/// sum kept as the whole-stage histogram.
fn record_ingest(stats: &mut ServerStats, batch: &EventBatch, dequeued: Instant) {
    for m in &batch.meta {
        let flushed = batch.enqueued.saturating_duration_since(m.submitted);
        stats.stage_batcher.record(nanos(flushed));
        let queued = dequeued.saturating_duration_since(batch.enqueued);
        stats.stage_queue_wait.record(nanos(queued));
        let ingest = dequeued.saturating_duration_since(m.submitted);
        stats.stage_ingest.record(nanos(ingest));
    }
}

/// What must survive a crash of the fold: the broker (replaced through
/// the [`RecoverFn`](crate::RecoverFn) after a crash mid-apply — it died
/// with the pass), the sink, the apply and emit slots, the chaos plan
/// and the fold's place in it, and the stats it records.
pub(crate) struct FoldState {
    pub(crate) broker: Broker,
    sink: Box<dyn DeliverySink>,
    /// The item being applied right now, with the instant it left the
    /// queue (replayed by the restarted fold if this pass dies
    /// mid-apply).
    pub(crate) slot: Option<(WorkItem, Instant)>,
    /// The folded batch whose records are being handed to the sink; the
    /// outcomes still in it are where a restart resumes.
    pub(crate) emit: Option<EgressBatch>,
    chaos: CrashPlan,
    items: u64,
    records: u64,
    /// The stage histograms, delivery counts and restarts, recorded once
    /// per batch as it leaves the apply slot and the emit slot.
    pub(crate) stats: ServerStats,
}

impl FoldState {
    pub(crate) fn new(broker: Broker, sink: Box<dyn DeliverySink>, chaos: CrashPlan) -> Self {
        FoldState {
            broker,
            sink,
            slot: None,
            emit: None,
            chaos,
            items: 0,
            records: 0,
            stats: ServerStats::default(),
        }
    }
}

/// The fold: the single broker and sink owner. Pops the ingest queue in
/// order — running each batch through [`process`] and applying each
/// control operation between batches — and hands each batch's records
/// to the sink before taking the next item, which is what keeps sink
/// output deterministic.
pub(crate) fn fold_loop(ingest: &IngestShared, st: &mut FoldState) {
    loop {
        // A crashed pass's unfinished emit, then its salvaged item,
        // replay first; only then does the fold pop (and tick the chaos
        // clock) again.
        emit(ingest, st);
        if st.slot.is_none() {
            let Some(item) = ingest.queue.pop() else {
                break;
            };
            st.slot = Some((item, Instant::now()));
            st.chaos.tick(CrashKind::KillFold, &mut st.items);
        }
        let broker = &mut st.broker;
        let Some((WorkItem::Batch(batch), _)) = &st.slot else {
            // A control op leaves the slot, and is finished, before it is
            // applied: at most once, and a caller whose op died sees its
            // channel drop.
            if let Some((WorkItem::Control(op), _)) = st.slot.take() {
                ingest.finish();
                match op {
                    ControlOp::Subscribe(node, rect, tx) => {
                        let _ = tx.send(broker.subscribe(node, rect));
                    }
                    ControlOp::Unsubscribe(handle, tx) => {
                        let _ = tx.send(broker.unsubscribe(handle));
                    }
                    ControlOp::Recompile(tx) => {
                        let _ = tx.send(broker.recompile());
                    }
                    ControlOp::Metrics(tx) => {
                        let _ = tx.send(ServingMetrics {
                            broker: broker.metrics_snapshot(),
                            server: ingest.stats(st.stats),
                        });
                    }
                }
            }
            continue;
        };
        let (results, epoch) = process(broker, &batch.points);
        let folded = Instant::now();
        // Effects are fully in the broker: the item leaves the apply
        // slot, is counted once, and its batch moves to the emit slot.
        let Some((WorkItem::Batch(batch), dequeued)) = st.slot.take() else {
            unreachable!("matched above");
        };
        record_ingest(&mut st.stats, &batch, dequeued);
        let pipeline = folded.saturating_duration_since(dequeued);
        st.stats.stage_pipeline.record(nanos(pipeline));
        st.emit = Some(EgressBatch {
            meta: batch.meta,
            results: results.into_iter(),
            epoch,
            dequeued,
            folded,
        });
    }
}

/// Runs one batch through the broker: one `publish_batch`, which splits
/// a batch of at least two blocks across the broker's worker pool. Under
/// an active fault plan each event is published on its own, so a
/// mid-batch abort (publisher down) cannot leave recorded events without
/// records — see the module docs.
#[allow(clippy::type_complexity)]
fn process(broker: &mut Broker, points: &[Point]) -> (Vec<Result<PublishOutcome, String>>, u64) {
    // Publishing never swaps the snapshot, so the epoch read afterwards
    // is the one the whole batch was matched and costed under.
    let results = if broker.faults_active() {
        points
            .iter()
            .map(|p| broker.publish(p).map_err(|e| e.to_string()))
            .collect()
    } else {
        match broker.publish_batch(points, None) {
            Ok(outcomes) => outcomes.into_iter().map(Ok).collect(),
            // Whole-batch validation failure: nothing recorded, every
            // event gets the error (submit-side dimension checks make
            // this rare).
            Err(err) => {
                let msg = err.to_string();
                points.iter().map(|_| Err(msg.clone())).collect()
            }
        }
    };
    (results, broker.epoch())
}

/// The fold's emit step: hands the batch in the emit slot to the sink,
/// record by record, in order. A crashed pass's batch resumes where it
/// stopped.
fn emit(ingest: &IngestShared, st: &mut FoldState) {
    let Some(batch) = st.emit.as_mut() else {
        return;
    };
    let started = Instant::now();
    debug_assert!(batch.results.len() <= batch.meta.len());
    while !batch.results.as_slice().is_empty() {
        st.chaos.tick(CrashKind::KillEgress, &mut st.records);
        let event = batch.meta[batch.meta.len() - batch.results.len()];
        // Moved out before the sink runs: a record the sink panics on
        // was handed over once and is not offered again.
        let outcome = batch.results.next().expect("checked non-empty");
        let now = Instant::now();
        if outcome.is_ok() {
            st.stats.delivered += 1;
        } else {
            st.stats.failed += 1;
        }
        st.sink.on_record(EventRecord {
            client: event.client,
            seq: event.seq,
            epoch: batch.epoch,
            outcome,
            latency_ns: nanos(now.saturating_duration_since(event.scheduled)),
            ingest_ns: nanos(batch.dequeued.saturating_duration_since(event.submitted)),
            pipeline_ns: nanos(batch.folded.saturating_duration_since(batch.dequeued)),
            egress_ns: nanos(now.saturating_duration_since(batch.folded)),
        });
    }
    st.stats.stage_egress.record(nanos(started.elapsed()));
    st.stats.batches += 1;
    // Finished as it leaves the emit slot; a death before resumes it.
    st.emit = None;
    ingest.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::CrashPlan;
    use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
    use pubsub_netsim::TransitStubConfig;

    type Starter = fn(Broker, ServingConfig, Box<dyn DeliverySink>) -> StagedServer;

    /// Both constructors: plain `start` is `start_with` the default
    /// options, and an empty plan must change nothing observable.
    const STARTERS: [Starter; 2] = [StagedServer::start, |broker, config, sink| {
        StagedServer::start_with(broker, config, sink, SuperviseOptions::default())
    }];

    fn tiny_broker() -> Broker {
        let topo = TransitStubConfig::tiny().generate(11).expect("tiny topo");
        let space = pubsub_geom::Space::anonymous(
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).expect("rect"),
        )
        .expect("space");
        let nodes = topo.stub_nodes().to_vec();
        Broker::builder(topo, space)
            .subscription(
                nodes[0],
                Rect::from_corners(&[0.0, 0.0], &[6.0, 6.0]).expect("rect"),
            )
            .subscription(
                nodes[1 % nodes.len()],
                Rect::from_corners(&[3.0, 3.0], &[9.0, 9.0]).expect("rect"),
            )
            .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
            .threshold(0.15)
            .build()
            .expect("broker")
    }

    fn events(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                Point::new(vec![x, 9.5 - x]).expect("point")
            })
            .collect()
    }

    #[test]
    fn staged_results_match_synchronous_batch() {
        for start in STARTERS {
            let sink = CollectorSink::new();
            let server = start(
                tiny_broker(),
                ServingConfig {
                    shards: 1, // one shard keeps submission order end to end
                    max_batch: 16,
                    ..ServingConfig::default()
                },
                Box::new(sink.clone()),
            );
            let handle = server.handle();
            let stream = events(50);
            for (i, e) in stream.iter().enumerate() {
                handle
                    .submit_now(0, i as u64, e.clone())
                    .expect("no backpressure at this rate");
            }
            let (broker, stats) = server.try_stop().expect("nothing crashed");
            assert_eq!(stats.accepted, 50);
            assert_eq!(stats.rejected, 0);
            assert_eq!(stats.delivered, 50);
            assert_eq!(stats.failed, 0);
            assert_eq!((stats.restarts, stats.replayed_batches), (0, 0));

            let mut records = sink.take();
            assert_eq!(records.len(), 50);
            records.sort_by_key(|r| r.seq);
            let mut reference = tiny_broker();
            let expected = reference.publish_batch(&stream, Some(1)).expect("batch");
            for (record, want) in records.iter().zip(&expected) {
                assert_eq!(record.outcome.as_ref().expect("delivered"), want);
                assert_eq!(record.epoch, reference.epoch());
            }
            // The cumulative cost report is bit-identical too.
            assert_eq!(broker.report(), reference.report());
        }
    }

    #[test]
    fn concurrent_executors_keep_sink_order_and_identity() {
        for start in STARTERS {
            let sink = CollectorSink::new();
            let server = start(
                tiny_broker(),
                ServingConfig {
                    shards: 1,
                    max_batch: 4, // many small batches
                    ..ServingConfig::default()
                },
                Box::new(sink.clone()),
            );
            let handle = server.handle();
            let stream = events(60);
            for (i, e) in stream.iter().enumerate() {
                handle
                    .submit_now(0, i as u64, e.clone())
                    .expect("no backpressure at this rate");
            }
            let (broker, stats) = server.try_stop().expect("nothing crashed");
            assert_eq!(stats.delivered, 60);
            assert_eq!((stats.restarts, stats.replayed_batches), (0, 0));

            // No sort: the fold must deliver records to the sink in exact
            // submission order across every small batch.
            let records = sink.take();
            let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, (0..60).collect::<Vec<u64>>());
            let mut reference = tiny_broker();
            let expected = reference.publish_batch(&stream, Some(1)).expect("batch");
            for (record, want) in records.iter().zip(&expected) {
                assert_eq!(record.outcome.as_ref().expect("delivered"), want);
            }
            assert_eq!(broker.report(), reference.report());
        }
    }

    /// What `start` promises when the fold dies anyway: no recovery, but
    /// no hang either. The kill is scheduled on the fold's first item —
    /// the subscribe — so its caller is parked on the reply when the
    /// fold thread abandons the server.
    #[test]
    fn unrecoverable_fold_crash_fails_stop_and_wakes_blocked_callers() {
        let sink = CollectorSink::new();
        let server = StagedServer::start_with(
            tiny_broker(),
            ServingConfig::default(),
            Box::new(sink.clone()),
            SuperviseOptions {
                recover: None,
                chaos: CrashPlan::new().kill(CrashKind::KillFold, 1),
            },
        );
        let handle = server.handle();
        let (done_tx, done) = mpsc::channel();
        let caller = handle.clone();
        std::thread::spawn(move || {
            let rect = Rect::from_corners(&[1.0, 1.0], &[2.0, 2.0]).expect("rect");
            let subscribed = caller.subscribe(NodeId(0), rect).map(|_| ());
            drop(caller);
            let stopped = server.try_stop().map(|_| ());
            let _ = done_tx.send((subscribed, stopped));
        });
        let (subscribed, stopped) = done
            .recv_timeout(Duration::from_secs(60))
            .expect("a dead fold hung its callers");
        assert!(matches!(subscribed, Err(ServingError::Closed)));
        assert!(matches!(stopped, Err(ServingError::Crashed(_))));
        assert_eq!(
            handle.submit_now(0, 0, Point::new(vec![1.0, 2.0]).expect("point")),
            Err(RejectReason::Closed)
        );
        // Neither the fold thread nor the flusher outlived the stop: they
        // held the other references to the ingest state and the sink.
        assert_eq!(Arc::strong_count(&handle.shared), 1);
        assert_eq!(Arc::strong_count(&sink.records), 1);
    }

    #[test]
    fn panicking_sink_restarts_egress_and_costs_only_its_record() {
        let sink = CollectorSink::new();
        let flaky = {
            let mut sink = sink.clone();
            move |record: EventRecord| {
                assert_ne!(record.seq, 5, "sink bug");
                sink.on_record(record);
            }
        };
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                shards: 1,
                max_batch: 4,
                ..ServingConfig::default()
            },
            Box::new(flaky),
        );
        let handle = server.handle();
        let stream = events(30);
        for (i, e) in stream.iter().enumerate() {
            handle.submit_now(0, i as u64, e.clone()).expect("accepted");
        }
        let (broker, stats) = server.try_stop().expect("egress restarts need no broker");
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.replayed_batches, 1, "the batch seq 5 was in");
        assert_eq!(stats.accepted, 30);
        assert_eq!(stats.delivered, 30, "handed to the sink, seq 5 included");
        let seqs: Vec<u64> = sink.take().iter().map(|r| r.seq).collect();
        let expected: Vec<u64> = (0..30).filter(|&seq| seq != 5).collect();
        assert_eq!(seqs, expected, "every other record exactly once, in order");
        // The fold restarted on its own broker: the batch seq 5 was in
        // was folded once, and nothing was rebuilt.
        let mut reference = tiny_broker();
        reference.publish_batch(&stream, Some(1)).expect("batch");
        assert_eq!(broker.report(), reference.report());
    }

    /// Polls `done` for up to `limit`.
    fn wait_until(limit: Duration, done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        done()
    }

    /// A collector that blocks the fold in the sink on the first record
    /// `hold` picks: the returned receiver hears when it is held, the
    /// sender releases it (so does a 10 s timeout, so a failing test
    /// cannot hang its server's shutdown).
    fn holding_sink(
        sink: &CollectorSink,
        hold: fn(&EventRecord) -> bool,
    ) -> (Box<dyn DeliverySink>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (held_tx, held) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let mut sink = sink.clone();
        let mut holding = true;
        let gate = move |record: EventRecord| {
            if holding && hold(&record) {
                holding = false;
                let _ = held_tx.send(());
                let _ = release_rx.recv_timeout(Duration::from_secs(10));
            }
            sink.on_record(record);
        };
        (Box::new(gate), held, release)
    }

    /// An hour-long interval takes the deadline out of play: with
    /// nothing in flight the submit itself flushes.
    #[test]
    fn idle_pipeline_flushes_at_submit() {
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                flush_interval: Duration::from_secs(3600),
                ..ServingConfig::default()
            },
            Box::new(sink.clone()),
        );
        server
            .handle()
            .submit_now(3, 77, Point::new(vec![1.0, 1.0]).expect("point"))
            .expect("accepted");
        let flushed = wait_until(Duration::from_secs(5), || sink.len() == 1);
        assert!(flushed, "an idle pipeline kept the event waiting");
        let (_, stats) = server.stop();
        assert_eq!((stats.delivered, stats.batches), (1, 1));
    }

    /// Seq 0 flushes on idle and holds the pipeline busy in the sink, so
    /// seqs 1–4 wait; the fold's drain, not the hour-long deadline,
    /// flushes them as one batch once seq 0 is delivered.
    #[test]
    fn drained_pipeline_flushes_what_waited() {
        let sink = CollectorSink::new();
        let (gate, held, release) = holding_sink(&sink, |_| true);
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                flush_interval: Duration::from_secs(3600),
                ..ServingConfig::default()
            },
            gate,
        );
        let handle = server.handle();
        let stream = events(5);
        handle
            .submit_now(0, 0, stream[0].clone())
            .expect("accepted");
        held.recv_timeout(Duration::from_secs(5))
            .expect("an idle pipeline kept seq 0 waiting");
        for (i, e) in stream.iter().enumerate().skip(1) {
            handle.submit_now(0, i as u64, e.clone()).expect("accepted");
        }
        release.send(()).expect("the sink holds seq 0");
        let drained = wait_until(Duration::from_secs(5), || sink.len() == 5);
        assert!(drained, "the drain left events waiting");
        let seqs: Vec<u64> = sink.take().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        let (_, stats) = server.stop();
        assert_eq!(stats.batches, 2, "one flush on idle, one on drain");
    }

    /// Seq 0 holds the pipeline busy in the sink while the next
    /// `max_batch` events fill the shard to its size trigger: one full
    /// batch of several blocks, which the fold publishes across the
    /// broker's own worker pool.
    #[test]
    fn full_batches_split_across_the_broker_pool() {
        if pubsub_parallel::effective_threads(None) < 2 {
            return; // a one-core host never creates a pool
        }
        let sink = CollectorSink::new();
        let (gate, held, release) = holding_sink(&sink, |r| r.seq == 0);
        let config = ServingConfig {
            flush_interval: Duration::from_secs(3600),
            ..ServingConfig::default()
        };
        let server = StagedServer::start(tiny_broker(), config, gate);
        let handle = server.handle();
        let stream = events(config.max_batch + 1);
        handle
            .submit_now(0, 0, stream[0].clone())
            .expect("accepted");
        held.recv_timeout(Duration::from_secs(5))
            .expect("an idle pipeline kept seq 0 waiting");
        for (i, e) in stream.iter().enumerate().skip(1) {
            handle.submit_now(0, i as u64, e.clone()).expect("accepted");
        }
        release.send(()).expect("the sink holds seq 0");
        let pipeline = handle.metrics().expect("metrics").broker.pipeline;
        assert!(
            pipeline.pooled_batches >= 1,
            "the full batch ran inline: {pipeline:?}"
        );
        let (_, stats) = server.stop();
        assert_eq!(stats.delivered, stream.len() as u64);
        assert_eq!(stats.batches, 2, "one flush on idle, one full batch");
    }

    /// The ceiling: client 0's record holds the pipeline busy in the
    /// sink, so neither a flush on idle nor a drain can move client 1's
    /// event on the other shard — only the deadline flusher can.
    #[test]
    fn deadline_flush_delivers_sparse_traffic() {
        let sink = CollectorSink::new();
        let (gate, held, release) = holding_sink(&sink, |r| r.client == 0);
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                max_batch: 1_000_000, // size trigger unreachable
                flush_interval: Duration::from_millis(2),
                shards: 2,
                ..ServingConfig::default()
            },
            gate,
        );
        let handle = server.handle();
        let point = Point::new(vec![1.0, 1.0]).expect("point");
        handle.submit_now(0, 0, point.clone()).expect("accepted");
        held.recv_timeout(Duration::from_secs(5))
            .expect("client 0's record reached the sink");
        handle.submit_now(1, 0, point).expect("accepted");
        let flushed = wait_until(Duration::from_secs(1), || {
            lock(&handle.shared.shards[1]).is_empty()
        });
        assert!(flushed, "deadline flusher never fired");
        assert!(sink.is_empty(), "the sink was still held");
        release.send(()).expect("the sink holds client 0's record");
        let (_, stats) = server.stop();
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn overload_rejects_explicitly_and_loses_nothing() {
        let sink = CollectorSink::new();
        // A sink this slow stalls the fold; a capacity-1 ingest queue
        // propagates the pressure back to submissions within a few
        // batches.
        let slow = {
            let sink = sink.clone();
            move |record: EventRecord| {
                std::thread::sleep(Duration::from_millis(20));
                let mut sink = sink.clone();
                sink.on_record(record);
            }
        };
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                ingest_capacity: 1,
                max_batch: 1,
                shards: 1,
                flush_interval: Duration::from_millis(1),
            },
            Box::new(slow),
        );
        let handle = server.handle();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for (i, e) in events(60).into_iter().enumerate() {
            match handle.submit_now(0, i as u64, e) {
                Ok(()) => accepted += 1,
                Err(RejectReason::Shed { retry_after_ms }) => {
                    assert!(retry_after_ms >= 1, "shed hint must be actionable");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected reject: {other}"),
            }
        }
        assert!(rejected > 0, "no backpressure despite stalled egress");
        let (_, stats) = server.stop();
        assert_eq!(stats.accepted, accepted);
        assert_eq!(stats.rejected, rejected);
        // Every accepted event got exactly one record; rejected ones none.
        assert_eq!(stats.delivered + stats.failed, accepted);
        assert_eq!(sink.len() as u64, accepted);
        assert!(stats.ingest_queue_max_depth >= 1);
    }

    #[test]
    fn malformed_and_closed_submissions_reject() {
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig::default(),
            Box::new(CollectorSink::new()),
        );
        let handle = server.handle();
        assert_eq!(
            handle.submit_now(0, 0, Point::new(vec![1.0]).expect("point")),
            Err(RejectReason::Malformed)
        );
        let (_, stats) = server.stop();
        assert_eq!(stats.accepted, 0);
        assert_eq!(
            handle.submit_now(0, 1, Point::new(vec![1.0, 2.0]).expect("point")),
            Err(RejectReason::Closed)
        );
        assert!(matches!(handle.recompile(), Err(ServingError::Closed)));
    }

    #[test]
    fn metrics_poll_and_stop_report_stage_latencies() {
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                shards: 1,
                max_batch: 4,
                ..ServingConfig::default()
            },
            Box::new(LatencySink::new()),
        );
        let handle = server.handle();
        for (i, e) in events(12).into_iter().enumerate() {
            handle.submit_now(0, i as u64, e).expect("accepted");
        }
        let polled = handle.metrics().expect("metrics");
        assert!(polled.broker.pipeline.events >= 1);
        assert!(!polled.server.stage_ingest.is_empty());
        assert!(!polled.server.stage_pipeline.is_empty());
        let (_, stats) = server.stop();
        // The whole-stage histogram and its two splits see every event.
        assert_eq!(stats.stage_ingest.count(), 12);
        assert_eq!(stats.stage_batcher.count(), 12);
        assert_eq!(stats.stage_queue_wait.count(), 12);
        assert!(!stats.stage_egress.is_empty());
    }

    /// The poll rides the ticket order behind every batch, and the fold
    /// finishes handing a batch to the sink before it applies the next
    /// item, so the delivery counts a poll reads are exact.
    #[test]
    fn metrics_poll_counts_every_earlier_delivery() {
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                shards: 1,
                max_batch: 4,
                ..ServingConfig::default()
            },
            Box::new(LatencySink::new()),
        );
        let handle = server.handle();
        for (i, e) in events(12).into_iter().enumerate() {
            handle.submit_now(0, i as u64, e).expect("accepted");
        }
        let polled = handle.metrics().expect("metrics").server;
        assert_eq!(polled.delivered, 12);
        assert!(polled.batches >= 1);
        assert_eq!(polled.stage_egress.count(), polled.batches);
        server.stop();
    }
}
