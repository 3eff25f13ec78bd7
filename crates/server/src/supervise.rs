//! Supervision of the stage threads: every [`StagedServer`](crate::StagedServer)
//! runs its executors and fold under one supervisor thread that
//! restarts a dead stage without losing accepted work.
//!
//! # Failure model and guarantees
//!
//! Each stage thread's *state* — its salvage slot, its progress count
//! and, for the fold, the broker and the sink — is owned by
//! the thread's wrapper, outside the `catch_unwind` its loop runs in. A
//! stage parks its in-flight work item in the slot before entering the
//! region where it can die and removes it only once the item's effects
//! are fully handed to the next stage. A panic therefore unwinds the
//! loop's locals and nothing else: the wrapper reports the exit (stage,
//! clean or crashed, state) on a channel the supervisor blocks on, and
//! the supervisor hands the state to a replacement thread:
//!
//! * **Executor death** — the replacement's first act is to push the
//!   salvaged `(ticket, batch)` into the sequence window *raw*, so the
//!   window never has a permanent gap and the fold processes the batch
//!   itself. Result: the batch's events are delivered exactly once.
//! * **Fold death while applying an item** — the broker died with the
//!   thread. The supervisor rebuilds it through the configured
//!   [`RecoverFn`] (typically
//!   [`BrokerBuilder::recover`](pubsub_core::BrokerBuilder::recover)
//!   over the durable journal), republishes the rebuilt
//!   [`PublishView`](pubsub_core::PublishView) *at the same view
//!   version* (no reader is lied to about ordering), and the new fold
//!   first re-applies the salvaged item and then continues consuming
//!   the *same* sequence window. Batches the executors processed against
//!   the pre-crash view carry a stale engine epoch; the fold detects the
//!   mismatch and reprocesses them itself. Acked control operations were
//!   journaled before their ack was sent, so recovery replays them
//!   exactly once; an un-acked operation in flight is applied at most
//!   once and its caller observes a clean channel drop. Without a
//!   `RecoverFn` (or when it fails) the server is *abandoned*: every
//!   stage thread is woken and retired, blocked control callers get
//!   [`ServingError::Closed`](crate::ServingError::Closed), and
//!   [`StagedServer::try_stop`](crate::StagedServer::try_stop) reports
//!   [`ServingError::Crashed`](crate::ServingError::Crashed).
//! * **Fold death in the emit step** — the state's emit slot holds the
//!   folded batch whose records were being handed to the sink, so its
//!   effects are all in the broker: the fold restarts on that broker,
//!   with no `RecoverFn` call and no view republish. The batch's outcomes
//!   are *moved* out one record at a time; the replacement resumes at
//!   the first outcome still there, so the sink sees each record exactly
//!   once. A record is handed over before the sink runs: if the sink
//!   itself panics while consuming one, that record is not offered again
//!   and every other record still arrives exactly once.
//!
//! # Chaos injection
//!
//! A [`CrashPlan`] schedules deterministic, single-shot panics at
//! stage-progress counts: kill executor `n` after its `k`-th pop, kill
//! the fold after its `k`-th item, or after its `k`-th record handed to
//! the sink. Plans are plain data and can be derived from a seed
//! ([`CrashPlan::seeded`]), which is what the recovery property tests
//! drive. An empty plan (the default) never fires and leaves the
//! process-wide panic hook alone.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::thread::Scope;

use pubsub_core::{Broker, BrokerError};

use crate::metrics::ServerStats;
use crate::server::{executor_loop, fold_loop, DeliverySink, ExecState, FoldState, StageShared};

/// Rebuilds a broker after the fold stage died with it — typically a
/// closure around [`BrokerBuilder::recover`](pubsub_core::BrokerBuilder::recover)
/// pointed at the durable journal the dead broker was writing.
pub type RecoverFn = Box<dyn FnMut() -> Result<Broker, BrokerError> + Send>;

/// Which stage thread a chaos event kills.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashKind {
    /// Kill pipeline executor `n` (0-based) after it has popped the
    /// configured number of work items off the dispatcher.
    KillExecutor(usize),
    /// Kill the fold thread (taking the broker with it) after it has
    /// consumed the configured number of sequence-window items.
    KillFold,
    /// Kill the fold thread in its emit step, after it has handed the
    /// configured number of records to the sink.
    KillEgress,
}

/// One scheduled kill: fire `kind` once the matching stage-progress
/// counter reaches `after` (1-based — `after == 1` dies on the first
/// item). Each event fires at most once per server lifetime.
#[derive(Clone, Copy, Debug)]
pub struct CrashEvent {
    /// What dies.
    pub kind: CrashKind,
    /// The stage-local progress count at which it dies.
    pub after: u64,
}

/// A deterministic process-level chaos schedule: a set of single-shot
/// [`CrashEvent`]s the supervised server injects as real panics at
/// stage-progress points. Plain data — build one explicitly with
/// [`CrashPlan::kill`] or derive one from a seed with
/// [`CrashPlan::seeded`].
#[derive(Clone, Debug, Default)]
pub struct CrashPlan {
    events: Vec<CrashEvent>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CrashPlan {
    /// An empty plan: nothing crashes.
    pub fn new() -> Self {
        CrashPlan::default()
    }

    /// Adds one kill to the schedule.
    #[must_use]
    pub fn kill(mut self, kind: CrashKind, after: u64) -> Self {
        self.events.push(CrashEvent {
            kind,
            after: after.max(1),
        });
        self
    }

    /// A seeded random plan: `crashes` kills spread over the three
    /// crash kinds (`executors` is the executor count to draw targets
    /// from), with progress counts in `1..=32`. The same seed always
    /// yields the same plan.
    pub fn seeded(seed: u64, crashes: usize, executors: usize) -> Self {
        let mut state = seed;
        let mut plan = CrashPlan::new();
        for _ in 0..crashes {
            let roll = splitmix64(&mut state);
            let kind = match roll % 3 {
                0 => CrashKind::KillExecutor(
                    (splitmix64(&mut state) % executors.max(1) as u64) as usize,
                ),
                1 => CrashKind::KillFold,
                _ => CrashKind::KillEgress,
            };
            let after = splitmix64(&mut state) % 32 + 1;
            plan = plan.kill(kind, after);
        }
        plan
    }

    /// The scheduled kills.
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The chaos panic payload — recognized by the process-wide panic hook
/// so injected crashes do not spam stderr while still unwinding like
/// any real panic.
struct ChaosPanic;

fn install_chaos_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The armed plan: a fired flag per scheduled event. The progress
/// counts it is compared against live in each stage's state, so they
/// carry over from a dead thread to its replacement.
pub(crate) struct ChaosSwitch {
    events: Vec<(CrashEvent, AtomicBool)>,
}

impl ChaosSwitch {
    /// Arms `plan`. Only a plan that can fire replaces the process-wide
    /// panic hook; a default server leaves the host's hook alone.
    pub(crate) fn new(plan: &CrashPlan) -> Self {
        if !plan.is_empty() {
            install_chaos_hook();
        }
        ChaosSwitch {
            events: plan
                .events
                .iter()
                .map(|e| (*e, AtomicBool::new(false)))
                .collect(),
        }
    }

    /// The stage `kind` names made one more step (`count` is its
    /// progress so far); it dies here if the plan says so.
    pub(crate) fn tick(&self, kind: CrashKind, count: &mut u64) {
        *count += 1;
        for (event, fired) in &self.events {
            if event.kind == kind && event.after == *count && !fired.swap(true, Ordering::SeqCst) {
                std::panic::panic_any(ChaosPanic);
            }
        }
    }
}

/// Options for [`StagedServer::start_with`](crate::StagedServer::start_with).
#[derive(Default)]
pub struct SuperviseOptions {
    /// How to rebuild the broker when the fold stage dies. Without one,
    /// a fold crash is unrecoverable and
    /// [`StagedServer::try_stop`](crate::StagedServer::try_stop) reports
    /// [`ServingError::Crashed`](crate::ServingError::Crashed).
    pub recover: Option<RecoverFn>,
    /// Deterministic crash schedule (empty = no injected chaos).
    pub chaos: CrashPlan,
}

impl fmt::Debug for SuperviseOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuperviseOptions")
            .field("recover", &self.recover.is_some())
            .field("chaos", &self.chaos)
            .finish()
    }
}

/// A stage thread's exit report: whether its loop returned (`true`) or
/// panicked, and the state to hand to a replacement.
// The fold's state carries the stage histograms; a report is sent once
// per thread lifetime, so boxing it would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Exit {
    Executor(bool, ExecState),
    Fold(bool, FoldState),
}

/// Spawns one stage thread in the supervisor's scope. `state` stays
/// outside the `catch_unwind` the loop runs in, so a panic unwinds the
/// loop's locals and the state still reaches the supervisor.
fn spawn_stage<'scope, S: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    shared: &'scope StageShared,
    exits: &mpsc::Sender<Exit>,
    name: String,
    mut state: S,
    body: fn(&StageShared, &mut S),
    exit: fn(bool, S) -> Exit,
) {
    let exits = exits.clone();
    std::thread::Builder::new()
        .name(name)
        .spawn_scoped(scope, move || {
            let clean = catch_unwind(AssertUnwindSafe(|| body(shared, &mut state))).is_ok();
            let _ = exits.send(exit(clean, state));
        })
        .expect("spawn stage thread");
}

/// Runs the stage threads to completion: spawns them, blocks on their
/// exit reports, restarts a crashed stage from its salvaged state, and
/// returns the broker and the aggregate stats once the closed ingest
/// queue has drained through every stage.
pub(crate) fn supervisor_loop(
    shared: &StageShared,
    broker: Box<Broker>,
    sink: Box<dyn DeliverySink>,
    mut recover: Option<RecoverFn>,
    executors: usize,
) -> Result<(Broker, ServerStats), String> {
    let (tx, exits) = mpsc::channel();
    let mut finished = None;
    let mut failure = None;
    std::thread::scope(|scope| {
        let spawn_executor = |state: ExecState| {
            let name = format!("pubsub-exec-{}", state.index);
            spawn_stage(
                scope,
                shared,
                &tx,
                name,
                state,
                executor_loop,
                Exit::Executor,
            );
        };
        let spawn_fold = |state: FoldState| {
            let name = "pubsub-fold".to_owned();
            spawn_stage(scope, shared, &tx, name, state, fold_loop, Exit::Fold);
        };
        (0..executors).for_each(|index| spawn_executor(ExecState::new(index)));
        spawn_fold(FoldState::new(broker, sink));
        let mut live_executors = executors;
        let mut running = executors + 1;
        while running > 0 {
            running -= 1;
            match exits.recv().expect("the supervisor holds a sender") {
                Exit::Executor(false, state) if failure.is_none() => {
                    // The *replacement* pushes the salvaged ticket (its
                    // first act), so the supervisor itself never blocks
                    // on a window the fold might currently not drain.
                    shared.note_restart(state.slot.is_some());
                    spawn_executor(state);
                    running += 1;
                }
                Exit::Executor(..) => {
                    // Executors exit cleanly only once the ingest queue
                    // is closed and drained; the window may close only
                    // after the last of them is gone (a straggler's push
                    // would be dropped behind a gap).
                    live_executors -= 1;
                    if live_executors == 0 {
                        shared.window.close();
                    }
                }
                Exit::Fold(true, state) => finished = Some(state),
                // (No fold exit follows a failure: only a fold that was
                // not replaced sets one.)
                Exit::Fold(false, mut state) => {
                    shared.note_restart(state.slot.is_some() || state.emit.is_some());
                    if state.emit.is_some() {
                        // Died in the emit step: every effect of the
                        // batch is in the broker, which it keeps.
                        spawn_fold(state);
                        running += 1;
                        continue;
                    }
                    let rebuilt = match recover.as_mut() {
                        Some(recover) => {
                            recover().map_err(|e| format!("fold recovery failed: {e}"))
                        }
                        None => Err("fold stage died and no RecoverFn was configured".to_owned()),
                    };
                    match rebuilt {
                        Ok(broker) => {
                            *state.broker = broker;
                            // Swap the rebuilt view in under the *same*
                            // version: executors stamped with it must
                            // neither hang nor observe a version they
                            // were not promised.
                            let view = Arc::new(state.broker.publish_view());
                            shared.cell.republish(state.version, view);
                            spawn_fold(state);
                            running += 1;
                        }
                        Err(why) => {
                            abandon(shared);
                            failure = Some(why);
                        }
                    }
                }
            }
        }
    });
    if let Some(why) = failure {
        // Every stage thread is gone and the queue is closed: whatever
        // is left in it (a control op whose caller is still waiting for
        // the reply, say) goes with the server.
        while shared.ingest.queue.try_pop().is_some() {}
        return Err(why);
    }
    let fold = finished.expect("the fold's clean exit hands the broker back");
    // Every push was finished exactly once, across every restart.
    debug_assert_eq!(shared.ingest.in_flight.load(Ordering::SeqCst), 0);
    Ok((*fold.broker, shared.stats(fold.stats)))
}

/// Last-resort teardown when the fold cannot be rebuilt: wake and
/// retire every blocked stage thread so nothing leaks. Submitters and
/// producers parked on the queues or the window see them closed;
/// executors parked on the version cell see a version nobody stamped
/// and return; items stranded in the window are dropped, which is how a
/// control caller waiting for its reply learns the server is gone.
fn abandon(shared: &StageShared) {
    shared.ingest.accepting.store(false, Ordering::SeqCst);
    shared.ingest.queue.close();
    let (_, view) = shared.cell.current();
    shared.cell.publish(u64::MAX, view);
    shared.window.close();
    drop(shared.window.drain_pending());
}
