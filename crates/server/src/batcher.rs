//! Natural batching for the transport-in stage.
//!
//! The server's ingest queue keeps one open [`EventBatcher`]: every
//! accepted event joins it, and it is cut into a batch when the fold
//! takes it whole (the fold is free), when it reaches its size cap, or
//! when a control op must queue behind it. A batch therefore holds what
//! arrived while the previous pass ran — the wait is the pass in flight,
//! and the size is capped.

use std::time::Instant;

use pubsub_geom::Point;

/// Per-event submission bookkeeping carried alongside the payload from
/// ingest to egress: who sent it and when, so the egress record can
/// stamp end-to-end and per-stage latencies.
#[derive(Clone, Copy, Debug)]
pub struct SubmitMeta {
    /// The submitting client.
    pub client: u32,
    /// The client's sequence number for the event.
    pub seq: u64,
    /// Open-loop scheduled arrival — the end-to-end latency origin.
    pub scheduled: Instant,
    /// When `submit` accepted the event.
    pub submitted: Instant,
}

/// One cut batch in flight through the pipeline: submission metadata
/// and the owned events.
#[derive(Debug)]
pub struct EventBatch {
    /// Per-event submission bookkeeping, in submission order.
    pub meta: Vec<SubmitMeta>,
    /// The events, parallel to `meta`.
    pub points: Vec<Point>,
    /// When the batch was cut (queue-wait latency basis). Meaningless
    /// until [`EventBatcher::take`] stamps it.
    pub enqueued: Instant,
}

/// The staged server's open batch: a bounded buffer that reports when
/// it is full.
#[derive(Debug)]
pub struct EventBatcher {
    meta: Vec<SubmitMeta>,
    points: Vec<Point>,
    max: usize,
    dims: usize,
}

impl EventBatcher {
    /// A batcher capped at `max` events (minimum 1) in a `dims`-
    /// dimensional event space.
    pub fn new(max: usize, dims: usize) -> Self {
        EventBatcher {
            meta: Vec::new(),
            points: Vec::new(),
            max: max.max(1),
            dims,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Whether the buffer is at its size cap — the caller must cut it
    /// (or reject the submission) before pushing more.
    pub fn is_full(&self) -> bool {
        self.meta.len() >= self.max
    }

    /// Buffers one event.
    ///
    /// `now` is unused: no trigger depends on how long an event has
    /// waited. The parameter stays so the reference benchmark, which
    /// times this call, builds unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the batcher [`EventBatcher::is_full`] (the caller owns
    /// the cut-or-reject decision) or the event's dimensionality does
    /// not match the batcher's (the server validates at submit).
    pub fn push(&mut self, meta: SubmitMeta, event: Point, _now: Instant) {
        assert!(!self.is_full(), "push into a full batcher");
        assert_eq!(event.dims(), self.dims, "event dimensionality");
        self.points.push(event);
        self.meta.push(meta);
    }

    /// Takes the buffered batch, stamped as cut at `now`, leaving the
    /// batcher empty. The backing allocations move out with the batch
    /// (the pipeline consumes them), so a fresh buffer starts small and
    /// regrows only under load.
    pub fn take(&mut self, now: Instant) -> EventBatch {
        EventBatch {
            meta: std::mem::take(&mut self.meta),
            points: std::mem::take(&mut self.points),
            enqueued: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One buffered event whose only distinguishing mark is `seq`.
    fn push(b: &mut EventBatcher, seq: u64, now: Instant) {
        b.push(meta(seq), Point::new(vec![0.0, 0.0]).expect("point"), now);
    }

    fn seqs(batch: &EventBatch) -> Vec<u64> {
        batch.meta.iter().map(|m| m.seq).collect()
    }

    #[test]
    fn size_trigger_fires_at_max() {
        let mut b = EventBatcher::new(3, 2);
        let now = Instant::now();
        assert!(b.is_empty());
        push(&mut b, 1, now);
        push(&mut b, 2, now);
        assert!(!b.is_full());
        push(&mut b, 3, now);
        assert!(b.is_full());
        assert_eq!(seqs(&b.take(now)), vec![1, 2, 3]);
        assert!(b.is_empty() && !b.is_full());
    }

    #[test]
    #[should_panic(expected = "push into a full batcher")]
    fn push_into_full_panics() {
        let mut b = EventBatcher::new(1, 2);
        let now = Instant::now();
        push(&mut b, 1, now);
        push(&mut b, 2, now);
    }

    fn meta(seq: u64) -> SubmitMeta {
        let now = Instant::now();
        SubmitMeta {
            client: 0,
            seq,
            scheduled: now,
            submitted: now,
        }
    }
}
