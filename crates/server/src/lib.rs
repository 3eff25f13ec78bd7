//! The staged serving front-end: transport-in → pipeline → transport-out.
//!
//! The core broker's `publish_batch` is a closed-loop API — the caller
//! blocks until delivery decisions return, which hides queueing delay,
//! the quantity the paper's multicast-vs-unicast cost tradeoff actually
//! shapes for end users. This crate splits serving into two stages joined
//! by one bounded, lock-protected ingest queue, plus the delivery step
//! that ends the second:
//!
//! * **transport-in** ([`IngestHandle`]) — submissions from every
//!   connection join one open [`batcher`] batch, which the fold takes
//!   whole whenever it is free (natural batching: a batch is what
//!   arrived during the previous pass), and which is cut into the queue
//!   early only at its size cap or behind a control op; admission
//!   control is the bounded ingest queue: a full open batch with no room
//!   to cut it into is an *explicit, synchronous reject* (the
//!   accept/reject ack of the wire protocol), never a silent drop and
//!   never a blocked transport thread;
//! * **pipeline** — the **fold thread**, the sole [`pubsub_core::Broker`]
//!   owner, pops the ingest queue and runs every batch through
//!   [`pubsub_core::Broker::publish_batch`], so outcomes, the
//!   scheme-cost memo and the cumulative cost report are bit-identical
//!   to a synchronous broker. A batch of at least two
//!   [`pubsub_parallel::BLOCK`]s of events splits across the broker's own
//!   worker pool ([`pubsub_parallel::shares`]). Control operations
//!   (subscribe / unsubscribe / recompile) travel through the *same*
//!   queue and are applied between batches, so an in-flight batch is
//!   always processed under the epoch that was current when it entered
//!   the queue — the epoch-keyed
//!   scheme-cost memo can never serve a batch across a recompile
//!   boundary;
//! * **transport-out** — the fold thread itself, once a batch is
//!   processed and before it takes the next item, stamps per-event
//!   ingest/match/deliver timings into [`EventRecord`]s and hands them
//!   in queue order (deterministic sink sequence) to a caller-supplied
//!   [`DeliverySink`]. A slow sink stalls the fold, and through it the
//!   ingest queue.
//!
//! [`tcp`] adds a small length-prefixed TCP front (thread per
//! connection) speaking the [`wire`] protocol, for real clients; the
//! reference benchmark drives the server through it.
//!
//! # Backpressure contract
//!
//! Every submission gets exactly one of three fates, and the producer
//! learns which synchronously:
//!
//! 1. **Accepted** — `submit` returned `Ok`; the event will be matched
//!    and a record will reach the sink exactly once (even if the broker
//!    later rejects it, the record says so — no silent drops).
//! 2. **Rejected** — `submit` returned [`RejectReason::Shed`] (load
//!    shedding, with a retry-after hint scaled to the backlog) or
//!    [`RejectReason::Malformed`]; nothing was enqueued. Control
//!    operations never shed — they take a blocking lane and are always
//!    admitted.
//! 3. **Closed** — the server is shutting down.
//!
//! # Crash safety
//!
//! Every [`StagedServer`] runs its fold under supervision: the fold
//! thread catches the fold's death, restarts it in place from the state
//! the crashed pass left behind and replays the salvaged in-flight work,
//! so accepted events survive fold crashes.
//! [`StagedServer::start`] is the bare case; [`StagedServer::start_with`]
//! takes [`SuperviseOptions`]: a [`RecoverFn`] that rebuilds the broker
//! from its durable journal when the fold — the broker's owner — dies
//! while applying an item, and a [`CrashPlan`] that injects
//! deterministic, seeded panics for the chaos tests. A fold that dies
//! while handing records to the sink restarts on its own broker. Without
//! a `RecoverFn` a fold that dies while applying is the one crash the
//! server cannot survive: [`StagedServer::try_stop`] then reports
//! [`ServingError::Crashed`] (and [`StagedServer::stop`] panics) instead
//! of hanging. See the [`supervise`] module docs for the exact
//! guarantees.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod batcher;
mod metrics;
mod server;
pub mod supervise;
pub mod tcp;
pub mod wire;

pub use metrics::{LatencyHisto, ServerStats, ServingMetrics, HISTO_BUCKETS};
pub use server::{
    CollectorSink, DeliverySink, EventRecord, IngestHandle, LatencySink, RejectReason,
    ServingConfig, ServingError, StagedServer,
};
pub use supervise::{CrashEvent, CrashKind, CrashPlan, RecoverFn, SuperviseOptions};
