//! A small TCP transport for the staged server: thread per connection,
//! speaking the [`crate::wire`] length-prefixed protocol.
//!
//! Each accepted connection gets a client id and a thread that reads
//! `Publish` frames, submits them through the shared [`IngestHandle`],
//! and answers every publish with an explicit `Ack` frame — accepted or
//! rejected, the backpressure contract on the wire. `MetricsRequest`
//! frames answer with a [`ServingMetrics`](crate::ServingMetrics) poll
//! as JSON: the broker's counters beside the server's own.
//!
//! # Sessions and exactly-once publishes
//!
//! A connection may open with a `Hello` frame carrying a stable session
//! token. The server binds a client id to the token (the *same* id on
//! every reconnect) and tracks the highest publish seq it has accepted
//! for the session; the `HelloAck` reports both, and an incoming
//! publish at or below that watermark is acknowledged as accepted
//! *without resubmitting* — so a client that lost the ack to a dropped
//! connection can retry safely, and an accepted event is matched
//! exactly once no matter how many times the TCP connection dies.
//! The watermark check, the submit, and the watermark update run under
//! a per-session lock, so two live connections presenting the same
//! token (a reconnect racing its half-dead predecessor) can never
//! submit one seq twice.
//!
//! Session seqs must start at 1 (`last_seq == 0` means "nothing
//! accepted yet") and be **strictly increasing**: deduplication is by
//! seq alone, so a publish at or below the watermark is assumed to be a
//! retransmission of the already-accepted event and is re-acked without
//! inspecting the payload. A client that reuses or reorders seqs gets
//! its new payload silently dropped — never do that. Connections that
//! skip the handshake behave like before: accept-order ids, no
//! cross-reconnect deduplication.
//!
//! Session state is bounded: the table holds at most 65,536 entries,
//! recycling the oldest-bound session beyond the cap (a recycled token
//! that reconnects gets a fresh id and an empty watermark — bounded
//! memory is bought with that session's cross-reconnect dedup).
//!
//! Acks are written back in publish order and flushed as soon as the
//! connection thread would otherwise block on the socket: a client that
//! waits for each ack gets it at once, a client that pipelines a burst
//! of publishes gets the burst's acks in one write.
//!
//! This front is deliberately simple — one thread per connection. The
//! reference benchmark (`benchmark/`) drives its serving workloads
//! through it over loopback; `bench_serving` submits through
//! [`IngestHandle`] in-process instead, to stand in for ~10⁵–10⁶
//! clients without as many sockets.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pubsub_geom::Point;

use crate::server::{lock, IngestHandle, RejectReason};
use crate::wire::{
    frame_buffered, read_frame, write_frame, Frame, REASON_CLOSED, REASON_MALFORMED, REASON_NONE,
    REASON_SHED,
};

/// The most session entries the server retains; beyond this the
/// oldest-bound session is recycled (see the module docs).
const MAX_SESSIONS: usize = 64 * 1024;

/// One session's durable state: its stable client id and the highest
/// publish seq the server has accepted for it. The `last_seq` guard is
/// held across the duplicate check, the submit, and the watermark
/// update, serializing publishes per session.
#[derive(Debug)]
struct SessionEntry {
    client: u32,
    last_seq: Mutex<u64>,
}

/// Token → session map with FIFO recycling beyond its cap, shared by
/// every connection thread.
#[derive(Debug, Default)]
struct SessionTable {
    map: HashMap<u64, Arc<SessionEntry>>,
    order: VecDeque<u64>,
}

impl SessionTable {
    /// Returns the session bound to `token`, creating it (and evicting
    /// the oldest entries down to `cap`) when unknown.
    fn bind(&mut self, token: u64, next_client: &AtomicU32, cap: usize) -> Arc<SessionEntry> {
        if let Some(entry) = self.map.get(&token) {
            return Arc::clone(entry);
        }
        while self.map.len() >= cap.max(1) {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        let entry = Arc::new(SessionEntry {
            client: next_client.fetch_add(1, Ordering::Relaxed),
            last_seq: Mutex::new(0),
        });
        self.map.insert(token, Arc::clone(&entry));
        self.order.push_back(token);
        entry
    }
}

type Sessions = Mutex<SessionTable>;

/// The listening TCP front. Stop with [`TcpFront::stop`] (or drop).
#[derive(Debug)]
pub struct TcpFront {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpFront {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections that publish through `handle`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start<A: ToSocketAddrs>(addr: A, handle: IngestHandle) -> io::Result<TcpFront> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("pubsub-accept".into())
                .spawn(move || accept_loop(&listener, &handle, &shutdown))
                .expect("spawn accept thread")
        };
        Ok(TcpFront {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the connection threads. Connections
    /// finish their in-flight frame and close.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            // The accept thread blocks in `accept`: a connection of our own
            // wakes it to see the flag. If none can be made, the thread has
            // already left its loop (the listener failed) or cannot be
            // woken; joining would then hang, so it is left to finish.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect(wake).is_ok() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for TcpFront {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, handle: &IngestHandle, shutdown: &AtomicBool) {
    let mut connections: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    // Session ids and legacy accept-order ids draw from one counter, so
    // the two populations never collide.
    let next_client = Arc::new(AtomicU32::new(0));
    let sessions: Arc<Sessions> = Arc::new(Mutex::new(SessionTable::default()));
    // A blocking accept: a new connection is served the moment it
    // arrives, and `TcpFront::stop` wakes the loop with one of its own.
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Join the threads whose clients hung up and drop the
                // loop's copies of their sockets, which would otherwise
                // sit in CLOSE_WAIT until stop().
                for (_stream, conn) in connections.extract_if(.., |(_, conn)| conn.is_finished()) {
                    let _ = conn.join();
                }
                let fallback = next_client.fetch_add(1, Ordering::Relaxed);
                let handle = handle.clone();
                let sessions = Arc::clone(&sessions);
                let next_client = Arc::clone(&next_client);
                let conn = {
                    let stream = match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    std::thread::Builder::new()
                        .name(format!("pubsub-conn-{fallback}"))
                        .spawn(move || {
                            let _ = serve_connection(
                                stream,
                                fallback,
                                &handle,
                                &sessions,
                                &next_client,
                            );
                        })
                        .expect("spawn connection thread")
                };
                connections.push((stream, conn));
            }
            Err(_) => break,
        }
    }
    // Unblock connection threads parked in a read: without this, stop()
    // would wait for every client to hang up on its own.
    for (stream, conn) in connections {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        let _ = conn.join();
    }
}

fn serve_connection(
    stream: TcpStream,
    fallback_client: u32,
    handle: &IngestHandle,
    sessions: &Sessions,
    next_client: &AtomicU32,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut client = fallback_client;
    let mut session: Option<Arc<SessionEntry>> = None;
    let mut first_frame = true;
    while let Some(frame) = read_frame(&mut reader)? {
        match frame {
            Frame::Hello { token } => {
                if !first_frame {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "hello must be the first frame",
                    ));
                }
                let entry = lock(sessions).bind(token, next_client, MAX_SESSIONS);
                client = entry.client;
                let last_seq = *lock(&entry.last_seq);
                session = Some(entry);
                write_frame(&mut writer, &Frame::HelloAck { client, last_seq })?;
                writer.flush()?;
            }
            Frame::Publish { seq, coords } => {
                let (accepted, reason, retry_after_ms) = match &session {
                    // The session guard spans duplicate check, submit
                    // and watermark update: a reconnect racing its
                    // half-dead predecessor serializes here instead of
                    // double-submitting one seq.
                    Some(entry) => {
                        let mut last_seq = lock(&entry.last_seq);
                        if seq > 0 && *last_seq >= seq {
                            // An earlier accept whose ack the client
                            // lost: re-ack, do not resubmit.
                            (true, REASON_NONE, 0)
                        } else {
                            let outcome = submit_publish(handle, client, seq, coords);
                            if outcome.0 {
                                *last_seq = (*last_seq).max(seq);
                            }
                            outcome
                        }
                    }
                    None => submit_publish(handle, client, seq, coords),
                };
                write_frame(
                    &mut writer,
                    &Frame::Ack {
                        seq,
                        accepted,
                        reason,
                        retry_after_ms,
                    },
                )?;
                // One write per burst, not per ack: while the next frame
                // is already here whole, reading it cannot block, and
                // whatever it turns out to be — a publish, a frame that
                // flushes its own reply, or garbage that ends the
                // connection and drops the writer — this ack goes out
                // with it.
                if !frame_buffered(reader.buffer()) {
                    writer.flush()?;
                }
            }
            Frame::MetricsRequest => {
                let json = match handle.metrics() {
                    Ok(snapshot) => snapshot.to_json(),
                    Err(e) => format!("{{\"error\":\"{e}\"}}"),
                };
                write_frame(&mut writer, &Frame::Metrics { json })?;
                writer.flush()?;
            }
            // Server-to-client frames arriving here are protocol abuse;
            // hang up.
            Frame::Ack { .. } | Frame::Metrics { .. } | Frame::HelloAck { .. } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "client sent a server frame",
                ));
            }
        }
        first_frame = false;
    }
    Ok(())
}

/// Submits one publish, mapping the outcome onto the wire ack triple
/// `(accepted, reason, retry_after_ms)`.
fn submit_publish(
    handle: &IngestHandle,
    client: u32,
    seq: u64,
    coords: Vec<f64>,
) -> (bool, u8, u32) {
    let submit = Point::new(coords)
        .map_err(|_| RejectReason::Malformed)
        .and_then(|point| handle.submit_now(client, seq, point));
    match submit {
        Ok(()) => (true, REASON_NONE, 0),
        Err(RejectReason::Shed { retry_after_ms }) => (false, REASON_SHED, retry_after_ms),
        Err(RejectReason::Malformed) => (false, REASON_MALFORMED, 0),
        Err(RejectReason::Closed) => (false, REASON_CLOSED, 0),
    }
}

/// Timeouts and retry policy for [`ServingClient`]. Passive data:
/// public fields.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout: how long to wait for an ack / metrics /
    /// hello-ack frame before [`ClientError::Timeout`]. This is what
    /// frees the client from a hung or half-closed server socket.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// First retry backoff; doubles per attempt (with jitter).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Retry budget for [`ServingClient::publish_retry`]: attempts
    /// beyond the first.
    pub max_retries: u32,
    /// Stable session token. `Some` makes the client open every
    /// connection with a `Hello` handshake, giving it a stable id and
    /// server-side publish dedup across reconnects (required by
    /// [`ServingClient::publish_retry`]).
    pub session_token: Option<u64>,
    /// Seed for the backoff jitter.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            max_retries: 5,
            session_token: None,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// Errors from [`ServingClient`] calls.
#[derive(Debug)]
pub enum ClientError {
    /// The server did not answer within the configured timeout (hung,
    /// half-closed or overwhelmed socket). The connection is dropped;
    /// the next call reconnects.
    Timeout,
    /// Any other transport failure.
    Io(io::Error),
    /// The server answered with something other than the expected
    /// frame, or violated the protocol.
    Protocol(String),
    /// The server reported it is shutting down.
    Closed,
    /// The publish was rejected for a non-retryable reason (one of the
    /// `REASON_*` constants, e.g. malformed).
    Rejected {
        /// The wire reason byte.
        reason: u8,
        /// The server's retry hint, if it sent one.
        retry_after_ms: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout => write!(f, "timed out waiting for the server"),
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Closed => write!(f, "server closed"),
            ClientError::Rejected {
                reason,
                retry_after_ms,
            } => write!(
                f,
                "rejected (reason {reason}, retry after {retry_after_ms}ms)"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout,
            _ => ClientError::Io(e),
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A blocking client for the TCP front: publish events, read acks, poll
/// metrics. One socket, lock-step request/response — but with real
/// socket timeouts (a hung server yields [`ClientError::Timeout`], not
/// a stuck thread) and, when configured with a session token,
/// transparent reconnect + bounded exponential backoff + server-side
/// publish deduplication (see [`ServingClient::publish_retry`]).
#[derive(Debug)]
pub struct ServingClient {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Conn>,
    /// The id the server bound to our session (hello connections only).
    client_id: Option<u32>,
    /// Highest seq the server has confirmed accepted for our session —
    /// the dedup watermark from the latest `HelloAck`, advanced by
    /// every accepted publish.
    acked_seq: u64,
    rng: u64,
}

impl ServingClient {
    /// Connects to a [`TcpFront`] with default timeouts and no session
    /// (legacy behavior: accept-order id, no reconnect dedup).
    ///
    /// # Errors
    ///
    /// Connection failures, as [`ClientError`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServingClient, ClientError> {
        Self::with_config(addr, ClientConfig::default())
    }

    /// Connects with explicit timeouts / retry policy; a
    /// `session_token` in the config opens the session handshake.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures, as [`ClientError`].
    pub fn with_config<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> Result<ServingClient, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(ClientError::Io)?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let mut client = ServingClient {
            addr,
            config,
            conn: None,
            client_id: None,
            acked_seq: 0,
            rng: config.seed,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// The id the server bound to this session (`None` before the first
    /// handshake or without a session token).
    pub fn client_id(&self) -> Option<u32> {
        self.client_id
    }

    /// Highest publish seq the server has confirmed for this session.
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq
    }

    /// Publishes one event and waits for the ack — a single attempt on
    /// the current connection. Returns `(accepted, reason)`; `reason`
    /// is one of the `REASON_*` constants in [`crate::wire`].
    ///
    /// Any failure drops the connection (the request/response stream
    /// can no longer be trusted); the next call reconnects.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the server goes quiet,
    /// [`ClientError::Io`] / [`ClientError::Protocol`] otherwise.
    pub fn publish(&mut self, seq: u64, coords: Vec<f64>) -> Result<(bool, u8), ClientError> {
        self.publish_hinted(seq, coords).map(|(a, r, _)| (a, r))
    }

    /// [`ServingClient::publish`] including the server's retry-after
    /// hint (milliseconds; meaningful when shed).
    ///
    /// # Errors
    ///
    /// As [`ServingClient::publish`].
    pub fn publish_hinted(
        &mut self,
        seq: u64,
        coords: Vec<f64>,
    ) -> Result<(bool, u8, u32), ClientError> {
        self.ensure_connected()?;
        // Session dedup: the server already accepted this seq on an
        // earlier connection whose ack we lost.
        if self.config.session_token.is_some() && seq > 0 && self.acked_seq >= seq {
            return Ok((true, REASON_NONE, 0));
        }
        let result = self.publish_attempt(seq, coords);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn publish_attempt(
        &mut self,
        seq: u64,
        coords: Vec<f64>,
    ) -> Result<(bool, u8, u32), ClientError> {
        let conn = self.conn.as_mut().expect("ensured above");
        write_frame(&mut conn.writer, &Frame::Publish { seq, coords })?;
        conn.writer.flush()?;
        match read_frame(&mut conn.reader)? {
            Some(Frame::Ack {
                seq: ack_seq,
                accepted,
                reason,
                retry_after_ms,
            }) => {
                if ack_seq != seq {
                    return Err(ClientError::Protocol("ack for a different seq".into()));
                }
                if accepted {
                    self.acked_seq = self.acked_seq.max(seq);
                }
                Ok((accepted, reason, retry_after_ms))
            }
            Some(_) => Err(ClientError::Protocol("expected an ack".into())),
            None => Err(ClientError::Protocol(
                "server hung up before the ack".into(),
            )),
        }
    }

    /// Publishes with retries: reconnects on transport failures, backs
    /// off (bounded exponential with jitter, honoring the server's
    /// shed retry-after hint) and relies on the session handshake to
    /// deduplicate — an event whose ack was lost is *not* resubmitted,
    /// so a successful return means the server accepted `seq` exactly
    /// once.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] without a session token (retrying
    /// unsessioned publishes could duplicate events);
    /// [`ClientError::Rejected`] for non-retryable rejects (e.g.
    /// malformed); [`ClientError::Closed`] when the server is shutting
    /// down; the last transport error once the retry budget is spent.
    pub fn publish_retry(&mut self, seq: u64, coords: &[f64]) -> Result<(), ClientError> {
        if self.config.session_token.is_none() {
            return Err(ClientError::Protocol(
                "publish_retry requires a session token".into(),
            ));
        }
        let mut attempt: u32 = 0;
        loop {
            match self.publish_hinted(seq, coords.to_vec()) {
                Ok((true, _, _)) => return Ok(()),
                Ok((false, reason, retry_after_ms)) => match reason {
                    REASON_SHED => {
                        if attempt >= self.config.max_retries {
                            return Err(ClientError::Rejected {
                                reason,
                                retry_after_ms,
                            });
                        }
                        let delay = self.backoff(attempt, retry_after_ms);
                        std::thread::sleep(delay);
                        attempt += 1;
                    }
                    REASON_CLOSED => return Err(ClientError::Closed),
                    _ => {
                        return Err(ClientError::Rejected {
                            reason,
                            retry_after_ms,
                        })
                    }
                },
                Err(ClientError::Timeout) | Err(ClientError::Io(_))
                    if attempt < self.config.max_retries =>
                {
                    let delay = self.backoff(attempt, 0);
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Requests a metrics snapshot; returns the server's JSON. Subject
    /// to the same read/write timeouts as publishes.
    ///
    /// # Errors
    ///
    /// As [`ServingClient::publish`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.ensure_connected()?;
        let result = (|| {
            let conn = self.conn.as_mut().expect("ensured above");
            write_frame(&mut conn.writer, &Frame::MetricsRequest)?;
            conn.writer.flush()?;
            match read_frame(&mut conn.reader)? {
                Some(Frame::Metrics { json }) => Ok(json),
                Some(_) => Err(ClientError::Protocol("expected a metrics frame".into())),
                None => Err(ClientError::Protocol("server hung up".into())),
            }
        })();
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Bounded exponential backoff with jitter, floored at the server's
    /// retry-after hint when one was given.
    fn backoff(&mut self, attempt: u32, floor_ms: u32) -> Duration {
        let base = self.config.backoff_base.as_millis().max(1) as u64;
        let cap = self.config.backoff_max.as_millis().max(1) as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16)).min(cap);
        let jittered = exp / 2 + splitmix64(&mut self.rng) % (exp / 2 + 1);
        Duration::from_millis(jittered.max(u64::from(floor_ms)))
    }

    /// (Re)establishes the connection, applying the configured socket
    /// timeouts and replaying the session handshake when a token is
    /// set. Refreshes the dedup watermark from the server's `HelloAck`.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(self.config.read_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(self.config.write_timeout))
            .map_err(ClientError::Io)?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone().map_err(ClientError::Io)?),
            writer: BufWriter::new(stream),
        };
        if let Some(token) = self.config.session_token {
            write_frame(&mut conn.writer, &Frame::Hello { token })?;
            conn.writer.flush()?;
            match read_frame(&mut conn.reader)? {
                Some(Frame::HelloAck { client, last_seq }) => {
                    self.client_id = Some(client);
                    self.acked_seq = self.acked_seq.max(last_seq);
                }
                Some(_) => return Err(ClientError::Protocol("expected a hello ack".into())),
                None => {
                    return Err(ClientError::Protocol(
                        "server hung up during the handshake".into(),
                    ))
                }
            }
        }
        self.conn = Some(conn);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CollectorSink, ServingConfig, StagedServer};
    use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
    use pubsub_core::Broker;
    use pubsub_geom::{Rect, Space};
    use pubsub_netsim::TransitStubConfig;

    fn tiny_broker() -> Broker {
        let topo = TransitStubConfig::tiny().generate(17).expect("tiny topo");
        let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).expect("rect"))
            .expect("space");
        let node = topo.stub_nodes()[0];
        Broker::builder(topo, space)
            .subscription(
                node,
                Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).expect("rect"),
            )
            .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
            .threshold(0.15)
            .build()
            .expect("broker")
    }

    #[test]
    fn tcp_roundtrip_publish_ack_metrics() {
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                max_batch: 1,
                ..ServingConfig::default()
            },
            Box::new(sink.clone()),
        );
        let front = TcpFront::start("127.0.0.1:0", server.handle()).expect("bind");
        let mut client = ServingClient::connect(front.local_addr()).expect("connect");

        let (accepted, reason) = client.publish(1, vec![2.0, 2.0]).expect("publish");
        assert!(accepted);
        assert_eq!(reason, REASON_NONE);

        // Wrong dimensionality rejects explicitly on the wire.
        let (accepted, reason) = client.publish(2, vec![1.0]).expect("publish");
        assert!(!accepted);
        assert_eq!(reason, REASON_MALFORMED);

        let json = client.metrics().expect("metrics");
        let accepted = json
            .split_once("\"accepted\":")
            .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
            .expect("accepted in metrics JSON");
        assert_eq!(accepted, "1", "{json}");
        // The keys the reference benchmark finds by string search: a
        // rename would silently zero its per-layer numbers.
        for key in [
            "stage_batcher",
            "stage_queue_wait",
            "ingest_queue_max_depth",
            "replayed_ops",
        ] {
            let found = json.matches(&format!("\"{key}\":")).count();
            assert_eq!(found, 1, "{key} in metrics JSON: {json}");
        }

        drop(client);
        front.stop();
        let (_, stats) = server.stop();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(sink.len(), 1);
        let record = &sink.take()[0];
        assert_eq!(record.seq, 1);
        assert_eq!(record.client, 0);
    }

    #[test]
    fn dropped_socket_mid_frame_leaves_server_serving() {
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                max_batch: 1,
                ..ServingConfig::default()
            },
            Box::new(sink.clone()),
        );
        let front = TcpFront::start("127.0.0.1:0", server.handle()).expect("bind");

        // A rude client: announce a 100-byte frame, send 3 bytes, die.
        let mut rude = TcpStream::connect(front.local_addr()).expect("connect");
        rude.write_all(&100u32.to_le_bytes()).expect("len prefix");
        rude.write_all(&[1, 2, 3]).expect("partial body");
        drop(rude);

        // The torn connection must not poison the front: a well-behaved
        // client connects and publishes normally afterwards.
        let mut client = ServingClient::connect(front.local_addr()).expect("connect");
        let (accepted, _) = client.publish(1, vec![2.0, 2.0]).expect("publish");
        assert!(accepted);

        drop(client);
        front.stop();
        let (_, stats) = server.stop();
        assert_eq!(stats.accepted, 1, "only the whole frame was admitted");
        assert_eq!(sink.len(), 1);
    }

    /// A pipelining client: 64 publishes in one write, then half of a
    /// 65th. Every whole publish is acked, in order — the last of them
    /// although the frame after it never completes — and the 65th is
    /// acked once its second half arrives.
    #[test]
    fn pipelined_publishes_are_all_acked_in_order() {
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig::default(),
            Box::new(CollectorSink::new()),
        );
        let front = TcpFront::start("127.0.0.1:0", server.handle()).expect("bind");
        let mut stream = TcpStream::connect(front.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(ClientConfig::default().read_timeout))
            .expect("read timeout");

        let mut burst = Vec::new();
        for seq in 1..=64u64 {
            let coords = vec![2.0, 2.0];
            write_frame(&mut burst, &Frame::Publish { seq, coords }).expect("encode");
        }
        let mut torn = Vec::new();
        let coords = vec![3.0, 3.0];
        write_frame(&mut torn, &Frame::Publish { seq: 65, coords }).expect("encode");
        let (head, tail) = torn.split_at(torn.len() / 2);
        burst.extend_from_slice(head);
        stream.write_all(&burst).expect("burst");

        let mut acks = BufReader::new(stream.try_clone().expect("clone"));
        let mut expect_ack = |want: u64| match read_frame(&mut acks).expect("ack in time") {
            Some(Frame::Ack { seq, accepted, .. }) => {
                assert_eq!(seq, want);
                assert!(accepted);
            }
            other => panic!("expected ack {want}, got {other:?}"),
        };
        // The server is now blocked mid-frame 65; nothing may be held
        // back behind it.
        (1..=64).for_each(&mut expect_ack);
        stream.write_all(tail).expect("rest of frame 65");
        expect_ack(65);

        drop((stream, acks));
        front.stop();
        let (_, stats) = server.stop();
        assert_eq!(stats.accepted, 65);
    }

    #[test]
    fn client_times_out_on_unresponsive_server() {
        // A listener that accepts but never speaks: the old client hung
        // forever here; the new one reports a typed timeout.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Never accept: the kernel completes the handshake into the
        // backlog, then the socket just sits there.
        let mut client = ServingClient::with_config(
            addr,
            ClientConfig {
                read_timeout: Duration::from_millis(100),
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let err = client.publish(1, vec![1.0, 2.0]).expect_err("no ack ever");
        assert!(matches!(err, ClientError::Timeout), "got: {err}");
        // Metrics takes the same timeout path.
        let err = client.metrics().expect_err("no metrics ever");
        assert!(matches!(err, ClientError::Timeout), "got: {err}");
        drop(listener);
    }

    /// Sockets on local `port` in `CLOSE_WAIT` (state `08`): the peer
    /// hung up and this process still holds the descriptor.
    #[cfg(target_os = "linux")]
    fn close_wait_sockets(port: u16) -> usize {
        let port = format!(":{port:04X}");
        let mut held = 0;
        for path in ["/proc/net/tcp", "/proc/net/tcp6"] {
            let table = std::fs::read_to_string(path).unwrap_or_default();
            for row in table.lines().skip(1) {
                let cols: Vec<&str> = row.split_whitespace().collect();
                if cols.len() > 3 && cols[1].ends_with(&port) && cols[3] == "08" {
                    held += 1;
                }
            }
        }
        held
    }

    /// Clients that connect and hang up leave no socket behind: the
    /// front reaps finished connections as it accepts new ones, instead
    /// of holding every socket it ever accepted until `stop()`.
    #[cfg(target_os = "linux")]
    #[test]
    fn hung_up_connections_are_released() {
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig::default(),
            Box::new(CollectorSink::new()),
        );
        let front = TcpFront::start("127.0.0.1:0", server.handle()).expect("bind");
        let addr = front.local_addr();
        for _ in 0..64 {
            drop(TcpStream::connect(addr).expect("connect"));
        }
        // Each accept reaps what has finished by then, so poll with one
        // more connection until the stragglers are gone.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut held = close_wait_sockets(addr.port());
        while held > 4 && std::time::Instant::now() < deadline {
            drop(TcpStream::connect(addr).expect("connect"));
            std::thread::sleep(Duration::from_millis(20));
            held = close_wait_sockets(addr.port());
        }
        assert!(held <= 4, "{held} hung-up connections still held open");

        front.stop();
        server.stop();
    }

    #[test]
    fn session_table_caps_and_recycles_oldest() {
        let next_client = AtomicU32::new(0);
        let mut table = SessionTable::default();
        let a = table.bind(1, &next_client, 2);
        let b = table.bind(2, &next_client, 2);
        assert_eq!((a.client, b.client), (0, 1));
        *lock(&a.last_seq) = 9;

        // Rebinding a live token returns the same entry, no eviction.
        let a2 = table.bind(1, &next_client, 2);
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(table.map.len(), 2);

        // A third token evicts the oldest (token 1)...
        let c = table.bind(3, &next_client, 2);
        assert_eq!(c.client, 2);
        assert_eq!(table.map.len(), 2);
        assert!(!table.map.contains_key(&1));

        // ...and a recycled token comes back with a fresh id and an
        // empty watermark.
        let a3 = table.bind(1, &next_client, 2);
        assert_eq!(a3.client, 3);
        assert_eq!(*lock(&a3.last_seq), 0);
    }

    /// Two live connections presenting the same token race the same seq
    /// range; the per-session lock must ensure every seq is submitted at
    /// most once (the old check-then-submit could double-submit).
    #[test]
    fn concurrent_same_token_connections_never_double_submit() {
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                max_batch: 1,
                ..ServingConfig::default()
            },
            Box::new(sink.clone()),
        );
        let front = TcpFront::start("127.0.0.1:0", server.handle()).expect("bind");
        let addr = front.local_addr();
        let config = ClientConfig {
            session_token: Some(0xdead_beef),
            ..ClientConfig::default()
        };

        const SEQS: u64 = 16;
        let workers: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = ServingClient::with_config(addr, config).expect("connect");
                    for seq in 1..=SEQS {
                        let (accepted, reason) =
                            client.publish(seq, vec![2.0, 2.0]).expect("publish");
                        assert!(accepted, "seq {seq} nacked with reason {reason}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }

        front.stop();
        let (_, stats) = server.stop();
        let mut seqs: Vec<u64> = sink.take().iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            (1..=SEQS).collect::<Vec<_>>(),
            "each seq exactly once"
        );
        assert_eq!(stats.accepted, SEQS, "no seq was submitted twice");
    }

    #[test]
    fn session_reconnect_deduplicates_publishes() {
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                max_batch: 1,
                ..ServingConfig::default()
            },
            Box::new(sink.clone()),
        );
        let front = TcpFront::start("127.0.0.1:0", server.handle()).expect("bind");
        let config = ClientConfig {
            session_token: Some(0xfeed_f00d),
            ..ClientConfig::default()
        };

        let mut client = ServingClient::with_config(front.local_addr(), config).expect("connect");
        let first_id = client.client_id().expect("session id");
        client.publish_retry(1, &[2.0, 2.0]).expect("seq 1");
        client.publish_retry(2, &[3.0, 3.0]).expect("seq 2");
        drop(client); // connection dies; the ack for seq 2 could have been lost

        // Reconnect with the same token: same id, watermark restored.
        let mut client = ServingClient::with_config(front.local_addr(), config).expect("reconnect");
        assert_eq!(client.client_id(), Some(first_id));
        assert_eq!(client.acked_seq(), 2);
        // Retrying both publishes must not duplicate them...
        client.publish_retry(1, &[2.0, 2.0]).expect("seq 1 again");
        client.publish_retry(2, &[3.0, 3.0]).expect("seq 2 again");
        // ...while new work still flows.
        client.publish_retry(3, &[4.0, 4.0]).expect("seq 3");

        drop(client);
        front.stop();
        let (_, stats) = server.stop();
        assert_eq!(stats.accepted, 3, "exactly one accept per unique seq");
        let mut seqs: Vec<u64> = sink.take().iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3]);
    }
}
