//! The serving workloads' harness: a `StagedServer` behind a `TcpFront`
//! on loopback, the benchmark's own `DeliverySink`, and the load
//! generator — one thread, one connection, writing `Frame::Publish` on
//! schedule and draining `Frame::Ack` inline. (A separate ack-reader
//! thread tripled p50 on two cores: it measured the scheduler.)

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pubsub_core::Broker;
use pubsub_server::tcp::TcpFront;
use pubsub_server::wire::{read_frame, write_frame, Frame};
use pubsub_server::{
    DeliverySink, EventRecord, IngestHandle, ServerStats, ServingConfig, StagedServer,
};

use crate::inputs::Inputs;
use crate::spans::{Spans, ROOT};

/// Publishes `serve_closed` keeps in flight: written and not yet seen
/// by the sink.
pub const WINDOW: u64 = 64;

/// Events per second `serve_paced` offers: about 30% of what
/// `serve_closed` sustains on the two-core reference host, and a
/// constant, never calibrated from the code under test.
pub const PACED_RATE: u64 = 40_000;

/// Publishes `serve_paced` lets wait in the server (written and not yet
/// seen by the sink) before it holds the next one back on its own side:
/// 3.2 ms of the schedule, against the ~8 in flight when nothing stalls.
/// The server sheds a publish only when its connection's batch (256
/// events by default) is full and the ingest queue will not take it; a
/// batch holds only undelivered publishes, so below 256 in flight no
/// publish is ever refused, however long the host stalls.
pub const PACED_WINDOW: u64 = 128;

/// How long the generator waits for the acks still outstanding when
/// its schedule ends, before counting them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What the sink keeps of one record.
#[derive(Clone, Copy, Debug)]
pub struct Delivered {
    /// The publish's sequence number.
    pub seq: u64,
    /// When the sink saw the record, ns since the run's origin.
    pub at_ns: u64,
    /// `matched_subscriptions.len()`, or `u32::MAX` when the record
    /// carries a broker error.
    pub matched: u32,
    /// The record's `ingest_ns`, `pipeline_ns` and `egress_ns`.
    pub stages: [u64; 3],
}

/// Everything the sink saw, shared with the thread that started it.
#[derive(Debug, Default)]
pub struct SinkLog {
    /// One entry per record, in delivery order.
    pub delivered: Vec<Delivered>,
    /// The full records, kept only by [`BenchSink::collecting`].
    pub records: Vec<EventRecord>,
}

/// The benchmark's `DeliverySink`: stamps each record with its own
/// clock the moment the egress thread hands it over.
#[derive(Debug)]
pub struct BenchSink {
    origin: Instant,
    collect: bool,
    log: Arc<Mutex<SinkLog>>,
    seen: Arc<AtomicU64>,
}

impl BenchSink {
    /// A sink for a timed run, and its log; lock the log only before the
    /// first publish or once the server has stopped.
    pub fn timing(origin: Instant) -> (Self, Arc<Mutex<SinkLog>>) {
        let log = Arc::new(Mutex::new(SinkLog::default()));
        let sink = BenchSink {
            origin,
            collect: false,
            log: Arc::clone(&log),
            seen: Arc::new(AtomicU64::new(0)),
        };
        (sink, log)
    }

    /// A sink that also keeps every full record, for the output check.
    pub fn collecting(origin: Instant) -> (Self, Arc<Mutex<SinkLog>>) {
        let (mut sink, log) = Self::timing(origin);
        sink.collect = true;
        (sink, log)
    }
}

impl DeliverySink for BenchSink {
    fn on_record(&mut self, record: EventRecord) {
        let at_ns = self.origin.elapsed().as_nanos() as u64;
        // Only this thread takes the lock until the server has stopped.
        let mut log = self.log.lock().expect("the sink log is only locked here");
        log.delivered.push(Delivered {
            seq: record.seq,
            at_ns,
            matched: record
                .outcome
                .as_ref()
                .map_or(u32::MAX, |o| o.matched_subscriptions.len() as u32),
            stages: [record.ingest_ns, record.pipeline_ns, record.egress_ns],
        });
        if self.collect {
            log.records.push(record);
        }
        // A count only: the log itself is read after the server's
        // threads are joined.
        self.seen.fetch_add(1, Ordering::Relaxed);
    }
}

/// The client side of the one loopback connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Records the server's sink has seen: the closed loop's window.
    seen: Arc<AtomicU64>,
}

impl Conn {
    fn connect(addr: SocketAddr, seen: Arc<AtomicU64>) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            wbuf: Vec::with_capacity(1 << 16),
            rbuf: Vec::with_capacity(1 << 16),
            seen,
        };
        // A session, so the server dedups by seq; seqs start at 1.
        conn.queue(&Frame::Hello { token: 0xBE7C })?;
        conn.flush()?;
        let mut hello_acked = false;
        while !hello_acked {
            conn.read_frames(|f| hello_acked |= matches!(f, Frame::HelloAck { .. }))?;
        }
        Ok(conn)
    }

    /// Encodes `frame` into the write buffer.
    ///
    /// # Errors
    ///
    /// As `wire::write_frame`.
    pub fn queue(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.wbuf, frame)
    }

    /// Writes everything queued; on a non-blocking socket, spins through
    /// `WouldBlock`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn flush(&mut self) -> io::Result<()> {
        let mut sent = 0;
        while sent < self.wbuf.len() {
            match self.stream.write(&self.wbuf[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        Ok(())
    }

    /// One `read` (blocking or not, as the socket is set), then `f` on
    /// every complete frame buffered. Returns the number of frames, or
    /// `None` when the socket had nothing (would block, or timed out).
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed frames.
    pub fn read_frames(&mut self, mut f: impl FnMut(Frame)) -> io::Result<Option<usize>> {
        let mut chunk = [0u8; 1 << 14];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(Some(0)),
            Err(e) => return Err(e),
        }
        let mut pos = 0;
        let mut frames = 0;
        while let Some(len) = self.rbuf.get(pos..pos + 4) {
            let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
            let Some(mut frame) = self.rbuf.get(pos..pos + 4 + len) else {
                break;
            };
            if let Some(frame) = read_frame(&mut frame)? {
                f(frame);
                frames += 1;
            }
            pos += 4 + len;
        }
        self.rbuf.drain(..pos);
        Ok(Some(frames))
    }

    /// Asks the server for its metrics JSON over the wire.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. The socket must be in blocking mode.
    pub fn metrics_json(&mut self) -> io::Result<String> {
        self.queue(&Frame::MetricsRequest)?;
        self.flush()?;
        let mut json = None;
        while json.is_none() {
            self.read_frames(|f| {
                if let Frame::Metrics { json: j } = f {
                    json = Some(j);
                }
            })?;
        }
        Ok(json.expect("loop exits when set"))
    }
}

/// A running server with its front and the connected generator socket.
#[derive(Debug)]
pub struct Stack {
    server: StagedServer,
    front: TcpFront,
    /// For the control thread of `serve_churn`.
    pub handle: IngestHandle,
    /// The generator's connection.
    pub conn: Conn,
}

impl Stack {
    /// Starts `StagedServer` with the shipped defaults around `broker`,
    /// a `TcpFront` on an ephemeral loopback port, and connects. After
    /// this returns the first event is servable.
    ///
    /// # Errors
    ///
    /// Propagates bind and connect failures.
    pub fn start(broker: Broker, sink: BenchSink) -> io::Result<Stack> {
        let seen = Arc::clone(&sink.seen);
        let server = StagedServer::start(broker, ServingConfig::default(), Box::new(sink));
        let handle = server.handle();
        let front = TcpFront::start("127.0.0.1:0", handle.clone())?;
        let conn = Conn::connect(front.local_addr(), seen)?;
        Ok(Stack {
            server,
            front,
            handle,
            conn,
        })
    }

    /// Hangs up, stops the front, then stops the server, which drains
    /// every accepted event to the sink first.
    pub fn stop(self) -> (Broker, ServerStats) {
        drop(self.conn);
        self.front.stop();
        drop(self.handle);
        self.server.stop()
    }
}

/// How the generator schedules publishes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Load {
    /// Closed loop: [`WINDOW`] publishes in flight, the next one written
    /// when the sink has seen an earlier one — a caller that waits for
    /// delivery. An event is due when it is written. (A window on acks
    /// alone does not close the loop: an ack only says "admitted", so
    /// the generator outruns the pipeline until the server sheds.)
    Closed,
    /// Open loop: evenly spaced at this many events per second whatever
    /// the server does. An event is due at its scheduled instant, also
    /// when it is written later than that — because the generator was
    /// late, or because [`PACED_WINDOW`] earlier ones were still in the
    /// server — so a stall shows as latency, never as a refusal.
    Paced(u64),
}

/// What the generator saw.
#[derive(Debug, Default)]
pub struct Generated {
    /// `due_ns[seq - 1]`: when publish `seq` was due, ns since origin.
    pub due_ns: Vec<u64>,
    /// `accepted[seq - 1]`: whether its ack said accepted.
    pub accepted: Vec<bool>,
    /// Acks read.
    pub acked: usize,
    /// Acks that said rejected or shed.
    pub refused: u64,
    /// How late each paced publish was written (ns; empty when closed).
    pub lag_ns: Vec<u64>,
    /// `flushed_ns[seq - 1]`: when the frame reached the socket (kept
    /// only while tracing, for the `tcp.ack` spans).
    flushed_ns: Vec<u64>,
}

impl Generated {
    /// Publishes written whose ack never came.
    pub fn unacked(&self) -> u64 {
        (self.due_ns.len() - self.acked) as u64
    }

    fn queue_next(&mut self, conn: &mut Conn, inputs: &Inputs, due: u64) -> io::Result<()> {
        let seq = self.due_ns.len() as u64 + 1;
        self.due_ns.push(due);
        self.accepted.push(false);
        conn.queue(&Frame::Publish {
            seq,
            coords: inputs.event(seq - 1).as_slice().to_vec(),
        })
    }

    /// Flushes what is queued, then takes whatever acks one `read`
    /// yields. Returns whether the socket had anything.
    fn flush_and_read<S: Spans>(
        &mut self,
        conn: &mut Conn,
        origin: Instant,
        spans: &mut S,
    ) -> io::Result<bool> {
        if !conn.wbuf.is_empty() {
            let before = origin.elapsed().as_nanos() as u64;
            conn.flush()?;
            if S::ON {
                let flushed = origin.elapsed().as_nanos() as u64;
                self.flushed_ns.resize(self.due_ns.len(), flushed);
                spans.span("gen.write", before, flushed, ROOT, self.due_ns.len() as u64);
            }
        }
        let read = conn.read_frames(|frame| {
            if let Frame::Ack { seq, accepted, .. } = frame {
                let i = (seq - 1) as usize;
                self.acked += 1;
                self.accepted[i] = accepted;
                self.refused += u64::from(!accepted);
                if S::ON {
                    let now = origin.elapsed().as_nanos() as u64;
                    spans.span("tcp.ack", self.flushed_ns[i], now, ROOT, seq);
                }
            }
        })?;
        Ok(read.is_some())
    }
}

/// Drives `conn` until `origin + end_ns` or until `max_events` are
/// written, then waits for the outstanding acks. Publish `seq` carries
/// pool event `seq - 1`. The connection must be fresh: seqs and the
/// sink's record count both start at zero.
///
/// # Errors
///
/// Propagates socket errors; a refused or missing ack is counted, not
/// an error.
pub fn generate<S: Spans>(
    conn: &mut Conn,
    inputs: &Inputs,
    load: Load,
    origin: Instant,
    end_ns: u64,
    max_events: u64,
    spans: &mut S,
) -> io::Result<Generated> {
    let ns = || origin.elapsed().as_nanos() as u64;
    let mut out = Generated::default();
    let done = |out: &Generated| out.due_ns.len() as u64 >= max_events;
    // A refused publish yields no record: it has left the window as
    // surely as a delivered one.
    let in_flight = |conn: &Conn, out: &Generated| {
        let left = conn.seen.load(Ordering::Relaxed) + out.refused;
        (out.due_ns.len() as u64).saturating_sub(left)
    };
    match load {
        Load::Closed => {
            conn.stream.set_nonblocking(true)?;
            loop {
                let now = ns();
                let in_flight = in_flight(conn, &out);
                if now >= end_ns || (done(&out) && in_flight == 0) {
                    break;
                }
                for _ in in_flight..WINDOW {
                    if !done(&out) {
                        out.queue_next(conn, inputs, now)?;
                    }
                }
                if conn.wbuf.is_empty() {
                    // Window full: let the server's threads run. (Parking
                    // until the sink sees a record cut throughput from
                    // 100k to 15k-80k events/s on the two-core host, and
                    // spinning instead to 40k-90k.)
                    std::thread::yield_now();
                }
                out.flush_and_read(conn, origin, spans)?;
            }
            conn.stream.set_nonblocking(false)?;
        }
        Load::Paced(rate) => {
            conn.stream.set_nonblocking(true)?;
            let interval = 1_000_000_000 / rate;
            let mut next_due = ns() + interval;
            loop {
                let now = ns();
                if now >= end_ns || done(&out) {
                    break;
                }
                let room = PACED_WINDOW.saturating_sub(in_flight(conn, &out));
                for _ in 0..room {
                    if next_due > now || done(&out) {
                        break;
                    }
                    out.queue_next(conn, inputs, next_due)?;
                    out.lag_ns.push(now - next_due);
                    next_due += interval;
                }
                if conn.wbuf.is_empty() {
                    // Nothing due, or no room: let the server's threads
                    // run. (Spinning here instead doubled p50 and
                    // quadrupled its spread on two cores; lateness is
                    // reported either way.)
                    std::thread::yield_now();
                } else {
                    out.flush_and_read(conn, origin, spans)?;
                }
            }
            conn.stream.set_nonblocking(false)?;
        }
    }
    conn.stream.set_read_timeout(Some(DRAIN_TIMEOUT))?;
    while out.acked < out.due_ns.len() && out.flush_and_read(conn, origin, spans)? {}
    conn.stream.set_read_timeout(None)?;
    Ok(out)
}
