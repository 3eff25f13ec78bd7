//! The length-prefixed wire protocol of the TCP front.
//!
//! Every frame is `[u32 LE payload length][u8 opcode][payload]`. The
//! payload length covers the opcode byte and everything after it, and is
//! capped at [`MAX_FRAME`] so a corrupt prefix cannot make the reader
//! allocate unboundedly. All integers are little-endian; event
//! coordinates travel as raw `f64` bits.
//!
//! | opcode | frame | payload |
//! |---|---|---|
//! | 1 | [`Frame::Publish`] | `u64` seq, `u16` dims, `dims × f64` coords |
//! | 2 | [`Frame::Ack`] | `u64` seq, `u8` accepted, `u8` reason, `u32` retry-after ms |
//! | 3 | [`Frame::MetricsRequest`] | empty |
//! | 4 | [`Frame::Metrics`] | UTF-8 JSON ([`ServingMetrics`](crate::ServingMetrics)) |
//! | 5 | [`Frame::Hello`] | `u64` session token |
//! | 6 | [`Frame::HelloAck`] | `u32` client id, `u64` last acked seq |
//!
//! The ack `reason` byte is one of the `REASON_*` constants; it is 0
//! (`REASON_NONE`) on accepted publishes. The trailing `u32` retry-after
//! field is meaningful with [`REASON_SHED`] and 0 otherwise; an ack body
//! is exactly 14 bytes.
//!
//! `Hello` opens a *session*: the client presents a stable token, the
//! server answers with the client id bound to that token and the highest
//! publish seq it has already accepted for it. A reconnecting client
//! (same token) gets the same id back and can skip everything at or
//! below `last_seq` — publish deduplication across reconnects.
//!
//! Session publish seqs start at 1 and must be **strictly increasing**:
//! the server dedups by seq alone, treating any publish at or below
//! `last_seq` as a retransmission of the event it already accepted — it
//! re-acks as accepted without comparing payloads. Reusing or reordering
//! seqs therefore silently drops the new payload; a session client must
//! never assign the same seq to two different events.

use std::io::{self, Read, Write};

/// Largest accepted payload (opcode + body): fits a 4096-dimensional
/// event or a generously sized metrics JSON.
pub const MAX_FRAME: u32 = 1 << 20;

/// Ack reason: accepted, nothing to report.
pub const REASON_NONE: u8 = 0;
/// Ack reason: the server is shutting down.
pub const REASON_CLOSED: u8 = 2;
/// Ack reason: the event was malformed (wrong dimensionality or
/// non-finite coordinate).
pub const REASON_MALFORMED: u8 = 3;
/// Ack reason: load shedding — the publish tier is over capacity; the
/// ack's retry-after field says how long to back off.
pub const REASON_SHED: u8 = 4;

const OP_PUBLISH: u8 = 1;
const OP_ACK: u8 = 2;
const OP_METRICS_REQUEST: u8 = 3;
const OP_METRICS: u8 = 4;
const OP_HELLO: u8 = 5;
const OP_HELLO_ACK: u8 = 6;

/// One protocol frame; see the module docs for the encoding.
#[derive(Clone, PartialEq, Debug)]
pub enum Frame {
    /// Client → server: publish one event.
    Publish {
        /// Client-chosen sequence number, echoed in the ack.
        seq: u64,
        /// Event coordinates.
        coords: Vec<f64>,
    },
    /// Server → client: the accept/reject ack for one publish.
    Ack {
        /// The publish's sequence number.
        seq: u64,
        /// Whether the event was admitted.
        accepted: bool,
        /// One of the `REASON_*` constants (`REASON_NONE` if accepted).
        reason: u8,
        /// Suggested backoff before retrying, in milliseconds
        /// (meaningful with [`REASON_SHED`]; 0 otherwise).
        retry_after_ms: u32,
    },
    /// Client → server: ask for a metrics snapshot.
    MetricsRequest,
    /// Server → client: the metrics snapshot as JSON.
    Metrics {
        /// [`ServingMetrics::to_json`](crate::ServingMetrics::to_json).
        json: String,
    },
    /// Client → server: open (or resume) a session identified by a
    /// stable token. Must be the first frame on a connection to take
    /// effect; omitting it falls back to accept-order client ids with
    /// no cross-reconnect deduplication.
    Hello {
        /// Client-chosen stable session token.
        token: u64,
    },
    /// Server → client: the session's identity and resume point.
    HelloAck {
        /// The client id bound to the token (stable across reconnects).
        client: u32,
        /// Highest publish seq already accepted for this session; the
        /// client may skip everything at or below it.
        last_seq: u64,
    },
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects a frame whose encoding would exceed
/// [`MAX_FRAME`] with [`io::ErrorKind::InvalidInput`].
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut payload = Vec::new();
    match frame {
        Frame::Publish { seq, coords } => {
            if coords.len() > u16::MAX as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "too many dimensions",
                ));
            }
            payload.push(OP_PUBLISH);
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.extend_from_slice(&(coords.len() as u16).to_le_bytes());
            for c in coords {
                payload.extend_from_slice(&c.to_le_bytes());
            }
        }
        Frame::Ack {
            seq,
            accepted,
            reason,
            retry_after_ms,
        } => {
            payload.push(OP_ACK);
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.push(u8::from(*accepted));
            payload.push(*reason);
            payload.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Frame::MetricsRequest => payload.push(OP_METRICS_REQUEST),
        Frame::Metrics { json } => {
            payload.push(OP_METRICS);
            payload.extend_from_slice(json.as_bytes());
        }
        Frame::Hello { token } => {
            payload.push(OP_HELLO);
            payload.extend_from_slice(&token.to_le_bytes());
        }
        Frame::HelloAck { client, last_seq } => {
            payload.push(OP_HELLO_ACK);
            payload.extend_from_slice(&client.to_le_bytes());
            payload.extend_from_slice(&last_seq.to_le_bytes());
        }
    }
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (EOF at
/// a frame boundary — how clients hang up).
///
/// # Errors
///
/// Propagates I/O errors; a malformed or oversized frame is
/// [`io::ErrorKind::InvalidData`], EOF mid-frame is
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame length",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode(&payload).map(Some)
}

/// Whether `buffered` — bytes already received and not yet consumed —
/// begins with a whole frame, so that the next [`read_frame`] will not
/// have to wait for the peer.
pub(crate) fn frame_buffered(buffered: &[u8]) -> bool {
    buffered
        .split_first_chunk::<4>()
        .is_some_and(|(len, rest)| rest.len() >= u32::from_le_bytes(*len) as usize)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn decode(payload: &[u8]) -> io::Result<Frame> {
    let (&op, body) = payload.split_first().expect("length checked > 0");
    match op {
        OP_PUBLISH => {
            if body.len() < 10 {
                return Err(bad("short publish frame"));
            }
            let seq = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
            let dims = u16::from_le_bytes(body[8..10].try_into().expect("2 bytes")) as usize;
            let coords_bytes = &body[10..];
            if coords_bytes.len() != dims * 8 {
                return Err(bad("publish frame length does not match dims"));
            }
            let coords = coords_bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            Ok(Frame::Publish { seq, coords })
        }
        OP_ACK => {
            if body.len() != 14 {
                return Err(bad("bad ack frame"));
            }
            Ok(Frame::Ack {
                seq: u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
                accepted: body[8] != 0,
                reason: body[9],
                retry_after_ms: u32::from_le_bytes(body[10..14].try_into().expect("4 bytes")),
            })
        }
        OP_METRICS_REQUEST => {
            if !body.is_empty() {
                return Err(bad("metrics request carries a body"));
            }
            Ok(Frame::MetricsRequest)
        }
        OP_METRICS => {
            let json = std::str::from_utf8(body)
                .map_err(|_| bad("metrics JSON is not UTF-8"))?
                .to_string();
            Ok(Frame::Metrics { json })
        }
        OP_HELLO => {
            if body.len() != 8 {
                return Err(bad("bad hello frame"));
            }
            Ok(Frame::Hello {
                token: u64::from_le_bytes(body.try_into().expect("8 bytes")),
            })
        }
        OP_HELLO_ACK => {
            if body.len() != 12 {
                return Err(bad("bad hello-ack frame"));
            }
            Ok(Frame::HelloAck {
                client: u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")),
                last_seq: u64::from_le_bytes(body[4..12].try_into().expect("8 bytes")),
            })
        }
        _ => Err(bad("unknown opcode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("write");
        let mut cursor = &buf[..];
        let back = read_frame(&mut cursor).expect("read").expect("frame");
        assert_eq!(back, frame);
        assert!(cursor.is_empty(), "reader consumed the whole frame");
    }

    #[test]
    fn frame_buffered_needs_the_whole_frame() {
        let mut buf = Vec::new();
        let coords = vec![1.0, 2.0];
        write_frame(&mut buf, &Frame::Publish { seq: 9, coords }).expect("write");
        for cut in 0..buf.len() {
            assert!(!frame_buffered(&buf[..cut]), "prefix of {cut} bytes");
        }
        assert!(frame_buffered(&buf));
        buf.extend_from_slice(&[7, 7]);
        assert!(
            frame_buffered(&buf),
            "bytes of a further frame do not matter"
        );
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Publish {
            seq: 42,
            coords: vec![1.5, -2.25, 1e300, 0.0],
        });
        roundtrip(Frame::Publish {
            seq: 0,
            coords: vec![],
        });
        roundtrip(Frame::Ack {
            seq: u64::MAX,
            accepted: true,
            reason: REASON_NONE,
            retry_after_ms: 0,
        });
        roundtrip(Frame::Ack {
            seq: 7,
            accepted: false,
            reason: REASON_CLOSED,
            retry_after_ms: 0,
        });
        roundtrip(Frame::Ack {
            seq: 8,
            accepted: false,
            reason: REASON_SHED,
            retry_after_ms: 250,
        });
        roundtrip(Frame::Hello { token: 0xdead_beef });
        roundtrip(Frame::HelloAck {
            client: 3,
            last_seq: 41,
        });
        roundtrip(Frame::MetricsRequest);
        roundtrip(Frame::Metrics {
            json: "{\"epoch\":3}".to_string(),
        });
    }

    #[test]
    fn streamed_frames_read_back_in_order() {
        let frames = vec![
            Frame::Publish {
                seq: 1,
                coords: vec![1.0],
            },
            Frame::Ack {
                seq: 1,
                accepted: true,
                reason: REASON_NONE,
                retry_after_ms: 0,
            },
            Frame::MetricsRequest,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).expect("write");
        }
        let mut cursor = &buf[..];
        for f in &frames {
            assert_eq!(read_frame(&mut cursor).expect("read").as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut cursor).expect("eof"), None);
    }

    #[test]
    fn clean_eof_is_none_midframe_is_error() {
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty).expect("clean eof"), None);
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Publish {
                seq: 9,
                coords: vec![3.0, 4.0],
            },
        )
        .expect("write");
        let mut truncated = &buf[..buf.len() - 3];
        let err = read_frame(&mut truncated).expect_err("mid-frame EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn ten_byte_ack_bodies_are_rejected() {
        // Hand-built pre-retry-field ack: len 11 (opcode + 10B body).
        let mut buf = Vec::new();
        buf.extend_from_slice(&11u32.to_le_bytes());
        buf.push(2); // OP_ACK
        buf.extend_from_slice(&99u64.to_le_bytes());
        buf.push(0); // rejected
        buf.push(REASON_SHED);
        let mut cursor = &buf[..];
        let err = read_frame(&mut cursor).expect_err("short ack body");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        // Oversized length prefix.
        let mut huge: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0];
        assert!(read_frame(&mut huge).is_err());
        // Zero-length payload.
        let mut zero: &[u8] = &[0, 0, 0, 0];
        assert!(read_frame(&mut zero).is_err());
        // Unknown opcode.
        let mut unknown: &[u8] = &[1, 0, 0, 0, 0xee];
        assert!(read_frame(&mut unknown).is_err());
        // Publish whose dims disagree with the payload length.
        let mut bad_pub = Vec::new();
        bad_pub.extend_from_slice(&11u32.to_le_bytes());
        bad_pub.push(1); // OP_PUBLISH
        bad_pub.extend_from_slice(&0u64.to_le_bytes());
        bad_pub.extend_from_slice(&5u16.to_le_bytes()); // claims 5 dims, has 0
        let mut cursor = &bad_pub[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}
