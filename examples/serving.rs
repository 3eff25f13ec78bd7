//! Serving quickstart: the staged front-end, end to end.
//!
//! Starts a [`StagedServer`] (transport-in → pipeline → transport-out)
//! over a small broker, publishes a few events through the TCP wire
//! protocol with a real [`ServingClient`], then replays an open-loop
//! bursty schedule in-process through the [`IngestHandle`] — the same
//! path `bench_serving` drives with 100k simulated clients — and prints
//! publish→deliver latency percentiles.
//!
//! Run with: `cargo run --release --example serving`

use std::time::{Duration, Instant};

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::Broker;
use pubsub::geom::{Interval, Point, Rect, Space};
use pubsub::netsim::TransitStubConfig;
use pubsub::server::tcp::{ClientConfig, ServingClient, TcpFront};
use pubsub::server::{LatencySink, RejectReason, ServingConfig, StagedServer};
use pubsub::workload::OpenLoopConfig;

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1e6
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A broker, exactly as in examples/quickstart.rs.
    let topology = TransitStubConfig::tiny().generate(7)?;
    let subscribers: Vec<_> = topology.stub_nodes().to_vec();
    let space = Space::new(
        vec!["price".into(), "volume".into()],
        Rect::from_corners(&[0.0, 0.0], &[100.0, 10_000.0])?,
    )?;
    let broker = Broker::builder(topology, space)
        .subscription(
            subscribers[0],
            Rect::new(vec![Interval::new(75.0, 80.0)?, Interval::at_least(999.0)])?,
        )
        .subscription(
            subscribers[1],
            Rect::new(vec![Interval::at_most(20.0), Interval::unbounded()])?,
        )
        .subscription(
            subscribers[2],
            Rect::new(vec![Interval::unbounded(), Interval::at_least(5000.0)])?,
        )
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
        .threshold(0.4)
        .build()?;

    // 2. Start the staged server. The sink runs on the fold thread and
    //    sees one EventRecord per accepted event; LatencySink just keeps
    //    the publish→deliver nanoseconds.
    let sink = LatencySink::new();
    let server = StagedServer::start(broker, ServingConfig::default(), Box::new(sink.clone()));
    let handle = server.handle();

    // 3. Real clients speak the length-prefixed wire protocol over TCP.
    //    Every publish gets a synchronous accept/reject ack — that ack IS
    //    the admission control of the backpressure contract. The session
    //    token gives the client a stable id and server-side dedup, so
    //    publish_retry can reconnect and retry through timeouts and shed
    //    responses without ever duplicating an event.
    let front = TcpFront::start("127.0.0.1:0", handle.clone())?;
    let mut client = ServingClient::with_config(
        front.local_addr(),
        ClientConfig {
            session_token: Some(42),
            ..ClientConfig::default()
        },
    )?;
    for (seq, (price, volume)) in [(78.0, 2000.0), (15.0, 100.0), (50.0, 9000.0)]
        .into_iter()
        .enumerate()
    {
        client.publish_retry(seq as u64 + 1, &[price, volume])?;
        println!("tcp publish (price={price:>5}, volume={volume:>6}): accepted");
    }
    front.stop();

    // 4. An open-loop burst: 2,000 simulated clients offering 20k
    //    events/s for two seconds, bursty on/off arrivals. Latency is
    //    measured from each event's *scheduled* instant, so queueing
    //    during bursts is visible (no coordinated omission).
    let schedule = OpenLoopConfig::bursty(2_000, 20_000.0, 2.0);
    let arrivals = schedule.generate(42)?;
    println!(
        "\nopen-loop replay: {} arrivals over {:.0} s (burst ratio {:.0}x)",
        arrivals.len(),
        schedule.duration_s,
        schedule.burst_ratio
    );
    let start = Instant::now() + Duration::from_millis(10);
    let mut rejected = 0u64;
    for (i, a) in arrivals.iter().enumerate() {
        let scheduled = start + Duration::from_nanos(a.at_ns);
        while Instant::now() < scheduled {
            std::hint::spin_loop();
        }
        let event = Point::new(vec![(i % 100) as f64, (i % 10_000) as f64])?;
        match handle.submit(a.client, i as u64, event, scheduled) {
            Ok(()) => {}
            Err(RejectReason::Shed { .. }) => rejected += 1,
            Err(e) => return Err(format!("submit failed: {e}").into()),
        }
    }
    let (_broker, stats) = server.stop();

    let mut lat = sink.take();
    lat.sort_unstable();
    println!(
        "accepted {} / rejected {} (admission control), delivered {}",
        stats.accepted,
        rejected + stats.rejected,
        stats.delivered
    );
    println!(
        "publish→deliver latency: p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms",
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
        percentile(&lat, 0.999)
    );
    Ok(())
}
