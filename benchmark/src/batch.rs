//! The closed-loop driver of the batch workloads: one thread calling
//! `Broker::publish_batch` back to back.

use std::time::Instant;

use pubsub_core::Broker;

use crate::inputs::Inputs;
use crate::spans::{Spans, ROOT};
use crate::stats::Sliced;

/// Publishes the event pool cyclically in batches until
/// `origin + end_ns`, with the product's default worker count, filing
/// each call's duration into the open window of `calls`. `expected[i]`
/// is the oracle's match count of pool event `i`. Returns events
/// attempted and events failed: their batch errored or came back short,
/// or their match count differed from the oracle's.
pub fn run<S: Spans>(
    broker: &mut Broker,
    inputs: &Inputs,
    expected: &[u32],
    origin: Instant,
    end_ns: u64,
    calls: &mut Sliced,
    spans: &mut S,
) -> (u64, u64) {
    let batch = inputs.workload.batch();
    let ns = || origin.elapsed().as_nanos() as u64;
    let (mut attempted, mut failed) = (0, 0);
    loop {
        for (chunk_idx, chunk) in inputs.events.chunks(batch).enumerate() {
            let t0 = ns();
            if t0 >= end_ns {
                return (attempted, failed);
            }
            let result = broker.publish_batch(chunk, None);
            let t1 = ns();
            spans.span(
                "broker.publish_batch",
                t0,
                t1,
                ROOT,
                attempted / batch as u64,
            );
            attempted += chunk.len() as u64;
            match result {
                Ok(outcomes) if outcomes.len() == chunk.len() => {
                    failed += outcomes
                        .iter()
                        .zip(expected.iter().skip(chunk_idx * batch))
                        .filter(|(o, &want)| o.matched_subscriptions.len() != want as usize)
                        .count() as u64;
                    calls.add(t1, t1 - t0, chunk.len() as u64);
                }
                _ => failed += chunk.len() as u64,
            }
        }
    }
}
