//! Supervision of the fold: every [`StagedServer`](crate::StagedServer)
//! runs its fold under `catch_unwind` on the fold thread, which restarts
//! a crashed fold in place without losing accepted work.
//!
//! # Failure model and guarantees
//!
//! The fold's *state* — the broker, the sink, its apply and emit slots,
//! its progress counts and its stats — lives outside the `catch_unwind`
//! the fold loop runs in. The fold parks its in-flight work item in the
//! apply slot before entering the region where it can die and removes it
//! only once the item's effects are fully in the broker. A panic
//! therefore unwinds the loop's locals and nothing else, and the same
//! thread runs the loop again from that state:
//!
//! * **Death while applying an item** — the broker died with the pass.
//!   The fold thread rebuilds it through the configured [`RecoverFn`]
//!   (typically
//!   [`BrokerBuilder::recover`](pubsub_core::BrokerBuilder::recover)
//!   over the durable journal), and the restarted fold first re-applies
//!   the salvaged item and then continues popping the *same* queue.
//!   Acked control operations were journaled before their ack was sent,
//!   so recovery replays them exactly once; an un-acked operation in
//!   flight is applied at most once and its caller observes a clean
//!   channel drop. Without a `RecoverFn` (or when it fails) the server is
//!   *abandoned*: admission stops, the ingest queue closes and is
//!   emptied, blocked control callers get
//!   [`ServingError::Closed`](crate::ServingError::Closed), and
//!   [`StagedServer::try_stop`](crate::StagedServer::try_stop) reports
//!   [`ServingError::Crashed`](crate::ServingError::Crashed).
//! * **Death in the emit step** — the emit slot holds the folded batch
//!   whose records were being handed to the sink, so its effects are all
//!   in the broker: the fold restarts on that broker, with no `RecoverFn`
//!   call. The batch's outcomes are *moved* out one record at a time;
//!   the restarted fold resumes at the first outcome still there, so the
//!   sink sees each record exactly once. A record is handed over before
//!   the sink runs: if the sink itself panics while consuming one, that
//!   record is not offered again and every other record still arrives
//!   exactly once.
//!
//! # Chaos injection
//!
//! A [`CrashPlan`] schedules deterministic, single-shot panics at fold
//! progress counts: kill the fold after its `k`-th item, or after its
//! `k`-th record handed to the sink. Plans are plain data and can be
//! derived from a seed ([`CrashPlan::seeded`]), which is what the
//! recovery property tests drive. An empty plan (the default) never
//! fires and leaves the process-wide panic hook alone.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Once;

use pubsub_core::{Broker, BrokerError};

use crate::metrics::ServerStats;
use crate::server::{fold_loop, FoldState, IngestShared};

/// Rebuilds a broker after the fold died with it — typically a closure
/// around [`BrokerBuilder::recover`](pubsub_core::BrokerBuilder::recover)
/// pointed at the durable journal the dead broker was writing.
pub type RecoverFn = Box<dyn FnMut() -> Result<Broker, BrokerError> + Send>;

/// Where in the fold a chaos event strikes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashKind {
    /// Kill the fold (taking the broker with it) after it has popped the
    /// configured number of work items off the ingest queue.
    KillFold,
    /// Kill the fold in its emit step, after it has handed the
    /// configured number of records to the sink.
    KillEgress,
}

/// One scheduled kill: fire `kind` once the matching progress counter
/// reaches `after` (1-based — `after == 1` dies on the first item). Each
/// event fires at most once per server lifetime.
#[derive(Clone, Copy, Debug)]
pub struct CrashEvent {
    /// Where the fold dies.
    pub kind: CrashKind,
    /// The progress count at which it dies.
    pub after: u64,
}

/// A deterministic chaos schedule: a set of single-shot [`CrashEvent`]s
/// the supervised server injects as real panics at fold progress points.
/// Plain data — build one explicitly with [`CrashPlan::kill`] or derive
/// one from a seed with [`CrashPlan::seeded`].
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

    /// A seeded random plan: `crashes` kills spread over the two crash
    /// kinds, with progress counts in `1..=32`. The same seed always
    /// yields the same plan.
    pub fn seeded(seed: u64, crashes: usize) -> Self {
        let mut state = seed;
        let mut plan = CrashPlan::new();
        for _ in 0..crashes {
            let kind = match splitmix64(&mut state) % 2 {
                0 => CrashKind::KillFold,
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

    /// The fold made one more step of `kind` (`count` is its progress so
    /// far, kept in the fold's state so it carries across restarts); it
    /// dies here if the plan says so. A fired event leaves the plan.
    pub(crate) fn tick(&mut self, kind: CrashKind, count: &mut u64) {
        *count += 1;
        let due = |e: &CrashEvent| e.kind == kind && e.after == *count;
        if let Some(i) = self.events.iter().position(due) {
            self.events.swap_remove(i);
            std::panic::panic_any(ChaosPanic);
        }
    }
}

/// The chaos panic payload — recognized by the process-wide panic hook
/// so injected crashes do not spam stderr while still unwinding like
/// any real panic.
struct ChaosPanic;

/// Installs (once per process) a panic hook that stays silent for
/// [`ChaosPanic`] payloads and defers to the previous hook otherwise.
pub(crate) fn install_chaos_hook() {
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

/// Options for [`StagedServer::start_with`](crate::StagedServer::start_with).
#[derive(Default)]
pub struct SuperviseOptions {
    /// How to rebuild the broker when the fold dies while applying an
    /// item. Without one, such a crash is unrecoverable and
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

/// The fold thread's body: runs the fold until the closed ingest queue
/// has drained through it, restarting it in place from the state a
/// crash left behind, and returns the broker and the aggregate stats.
pub(crate) fn supervise_fold(
    ingest: &IngestShared,
    mut state: FoldState,
    mut recover: Option<RecoverFn>,
) -> Result<(Broker, ServerStats), String> {
    while catch_unwind(AssertUnwindSafe(|| fold_loop(ingest, &mut state))).is_err() {
        let replayed = state.slot.is_some() || state.emit.is_some();
        state.stats.restarts += 1;
        state.stats.replayed_batches += u64::from(replayed);
        if state.emit.is_some() {
            // Died in the emit step: every effect of the batch is in the
            // broker, which it keeps.
            continue;
        }
        let rebuilt = match recover.as_mut() {
            Some(recover) => recover().map_err(|e| format!("fold recovery failed: {e}")),
            None => Err("fold died and no RecoverFn was configured".to_owned()),
        };
        match rebuilt {
            Ok(broker) => state.broker = broker,
            Err(why) => {
                abandon(ingest);
                return Err(why);
            }
        }
    }
    // Every push was finished exactly once, across every restart.
    debug_assert_eq!(ingest.in_flight.load(Ordering::SeqCst), 0);
    Ok((state.broker, ingest.stats(state.stats)))
}

/// Last-resort teardown when the fold cannot be rebuilt: stop admission
/// and close the ingest queue, so submitters see `Closed` and blocked
/// producers wake, then drop whatever the queue still holds — which is
/// how a control caller waiting for its reply learns the server is gone.
fn abandon(ingest: &IngestShared) {
    ingest.accepting.store(false, Ordering::SeqCst);
    ingest.queue.close();
    while ingest.queue.try_pop().is_some() {}
}
