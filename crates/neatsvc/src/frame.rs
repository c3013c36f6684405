//! Wire framing for the network ingestion front end.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────┐
//! │ len: u32LE │ crc: u32LE │ body (len B) │
//! └────────────┴────────────┴──────────────┘
//! ```
//!
//! `crc` is the IEEE CRC-32 of the body, so a flipped bit anywhere in
//! the body (or in the checksum itself) is detected before the body is
//! interpreted; a corrupted length field surfaces as
//! [`FrameError::TooLarge`] or a CRC mismatch over the mis-sliced body.
//! The body begins with a one-byte message kind followed by
//! [`neat_durability::Enc`]-encoded fields, reusing the exact
//! bounds-checked decoder discipline of the checkpoint codec — a
//! truncated or malformed body is an error, never a panic.
//!
//! Requests travel client → server ([`Request`]); replies travel server
//! → client ([`Reply`]). The reply vocabulary makes backpressure and
//! quarantine *visible*: `Ack{epoch}` (applied and journaled),
//! `Defer{retry_after_ms}` (durable in the spool but not applied yet —
//! retry later), `Shed` (dropped under overload — retry later), and
//! `Reject{reason}` (do not retry: invalid request, poison batch, or an
//! open circuit breaker).
//!
//! Reading from a socket uses [`FrameReader`]: a stateful accumulator
//! that survives short reads and read-timeout ticks without losing
//! partial progress, which is what lets the connection handler enforce
//! idle deadlines against a slowloris client.

use neat_core::DriftCounts;
use neat_durability::{crc32, Dec, DurabilityError, Enc};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame header size: length + CRC, both little-endian `u32`.
pub const HEADER_LEN: usize = 8;

/// Default upper bound on a frame body; a corrupted or hostile length
/// prefix can never make the server allocate more than this.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a frame could not be produced from the wire.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix exceeds the configured bound.
    TooLarge {
        /// Claimed body length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The body does not match its checksum.
    Crc {
        /// Checksum carried in the header.
        expected: u32,
        /// Checksum of the received body.
        actual: u32,
    },
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes the header promised.
        need: usize,
    },
    /// The body failed to decode as a known message.
    Malformed(String),
    /// An I/O error below the framing layer.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Crc { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch (header {expected:#010x}, body {actual:#010x})"
                )
            }
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} of {need} bytes")
            }
            FrameError::Malformed(msg) => write!(f, "malformed frame body: {msg}"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<DurabilityError> for FrameError {
    fn from(e: DurabilityError) -> Self {
        FrameError::Malformed(e.to_string())
    }
}

/// Wraps `body` in a frame: header (length + CRC) followed by the body.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Parses exactly one complete frame out of `buf`, verifying the CRC.
/// Trailing bytes after the frame are an error — this is the strict
/// test-and-tooling entry point; sockets use [`FrameReader`].
///
/// # Errors
///
/// [`FrameError::Truncated`] when `buf` ends early, [`FrameError::TooLarge`],
/// [`FrameError::Crc`], or [`FrameError::Malformed`] for trailing bytes.
pub fn unframe(buf: &[u8], max: usize) -> Result<Vec<u8>, FrameError> {
    match split_frame(buf, max)? {
        Some((body, consumed)) => {
            if consumed != buf.len() {
                return Err(FrameError::Malformed(format!(
                    "{} trailing bytes after frame",
                    buf.len() - consumed
                )));
            }
            Ok(body)
        }
        None => Err(FrameError::Truncated {
            have: buf.len(),
            need: frame_need(buf),
        }),
    }
}

/// How many bytes the (possibly partial) frame at the head of `buf`
/// needs in total; `HEADER_LEN` while the header itself is incomplete.
fn frame_need(buf: &[u8]) -> usize {
    if buf.len() < HEADER_LEN {
        return HEADER_LEN;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    HEADER_LEN.saturating_add(len)
}

/// Tries to split one complete frame off the head of `buf`.
///
/// Returns `Ok(Some((body, consumed)))` for a complete, CRC-verified
/// frame, `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// [`FrameError::TooLarge`] or [`FrameError::Crc`].
pub fn split_frame(buf: &[u8], max: usize) -> Result<Option<(Vec<u8>, usize)>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let expected = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let total = HEADER_LEN.saturating_add(len);
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[HEADER_LEN..total];
    let actual = crc32(body);
    if actual != expected {
        return Err(FrameError::Crc { expected, actual });
    }
    Ok(Some((body.to_vec(), total)))
}

/// Writes one framed body to `w` and flushes.
///
/// # Errors
///
/// Propagates the underlying write/flush failure.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), FrameError> {
    w.write_all(&frame(body))?;
    w.flush()?;
    Ok(())
}

/// One observation of a [`FrameReader::poll`] call.
#[derive(Debug)]
pub enum Poll {
    /// A complete, CRC-verified frame body.
    Frame(Vec<u8>),
    /// Bytes arrived but no complete frame yet — poll again.
    Pending,
    /// The read hit the socket timeout with no new bytes; the caller
    /// checks its idle deadline and either polls again or gives up.
    TimedOut,
    /// The peer closed the connection.
    Eof {
        /// `true` when the close cut a frame in half (a torn send).
        mid_frame: bool,
    },
}

/// Incremental frame accumulator for socket reads.
///
/// Keeps partial bytes across short reads and timeout ticks, so a
/// connection handler can bound each *read call* with a socket timeout
/// (the slowloris guard) without ever losing progress on a slowly
/// arriving frame. Pipelined frames are handed out one per poll without
/// touching the socket again.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max: usize,
}

impl FrameReader {
    /// A reader enforcing `max` as the body-size bound.
    pub fn new(max: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            max,
        }
    }

    /// Bytes currently buffered (diagnostics/tests).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Advances the reader by at most one `read` call on `r` and
    /// reports what is available. A buffered complete frame is returned
    /// without reading.
    ///
    /// # Errors
    ///
    /// Corrupt framing ([`FrameError::TooLarge`], [`FrameError::Crc`]) or a
    /// non-timeout I/O failure; after either, the stream is desynchronized
    /// and the caller should close the connection.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<Poll, FrameError> {
        if let Some((body, consumed)) = split_frame(&self.buf, self.max)? {
            self.buf.drain(..consumed);
            return Ok(Poll::Frame(body));
        }
        let mut chunk = [0u8; 4096];
        match r.read(&mut chunk) {
            Ok(0) => Ok(Poll::Eof {
                mid_frame: !self.buf.is_empty(),
            }),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                match split_frame(&self.buf, self.max)? {
                    Some((body, consumed)) => {
                        self.buf.drain(..consumed);
                        Ok(Poll::Frame(body))
                    }
                    None => Ok(Poll::Pending),
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Poll::TimedOut)
            }
            Err(e) => Err(FrameError::Io(e)),
        }
    }
}

// Body kind tags. Requests use the low range, replies the high range,
// so a desynchronized peer can never mistake one for the other.
const KIND_PUSH: u8 = 0x01;
const KIND_STATUS: u8 = 0x02;
const KIND_DRAIN: u8 = 0x03;
const KIND_ACK: u8 = 0x81;
const KIND_DEFER: u8 = 0x82;
const KIND_SHED: u8 = 0x83;
const KIND_REJECT: u8 = 0x84;
const KIND_REPORT: u8 = 0x85;

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit one batch for tenant `tenant` under the idempotency key
    /// `batch_id`; `payload` is the serialized dataset, exactly what a
    /// spool file would contain.
    Push {
        /// Tenant (region) the batch belongs to.
        tenant: String,
        /// Idempotency key — becomes the spool file name and the
        /// journaled dataset name.
        batch_id: String,
        /// Serialized dataset bytes.
        payload: Vec<u8>,
    },
    /// Query one tenant's health counters and breaker state.
    Status {
        /// Tenant to report on.
        tenant: String,
    },
    /// Administrative: stop accepting, flush, checkpoint, close.
    Drain,
}

impl Request {
    /// Encodes the body (no frame header); see [`Request::encode`] for
    /// the full frame.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Request::Push {
                tenant,
                batch_id,
                payload,
            } => {
                e.u8(KIND_PUSH);
                e.str(tenant);
                e.str(batch_id);
                e.bytes(payload);
            }
            Request::Status { tenant } => {
                e.u8(KIND_STATUS);
                e.str(tenant);
            }
            Request::Drain => e.u8(KIND_DRAIN),
        }
        e.into_bytes()
    }

    /// The complete frame for this request.
    pub fn encode(&self) -> Vec<u8> {
        frame(&self.encode_body())
    }

    /// Decodes a verified frame body into a request.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for unknown kinds, reply kinds, short
    /// bodies or trailing bytes.
    pub fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        let mut d = Dec::new(body);
        let req = match d.u8("request kind")? {
            KIND_PUSH => Request::Push {
                tenant: d.str("push tenant")?.to_string(),
                batch_id: d.str("push batch id")?.to_string(),
                payload: d.bytes("push payload")?.to_vec(),
            },
            KIND_STATUS => Request::Status {
                tenant: d.str("status tenant")?.to_string(),
            },
            KIND_DRAIN => Request::Drain,
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown request kind {other:#04x}"
                )))
            }
        };
        d.expect_exhausted("request body")?;
        Ok(req)
    }
}

/// Per-tenant health as carried by a [`Reply::Report`] — the wire
/// projection of the service's `Health` counters plus the breaker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Tenant the report describes.
    pub tenant: String,
    /// Coarse service status name (`running`/`degraded`/`failed`).
    pub status: String,
    /// Circuit breaker state name (`closed`/`open`/`half-open`).
    pub breaker: String,
    /// Times the breaker has tripped open.
    pub breaker_trips: u64,
    /// Batches admitted into the tenant's queue.
    pub accepted: u64,
    /// Admission deferrals.
    pub deferred: u64,
    /// Batches shed under overload.
    pub shed: u64,
    /// Batches quarantined as poison.
    pub poisoned: u64,
    /// Batches applied and journaled.
    pub applied: u64,
    /// Batches folded into the clusterer state. Unlike `applied` (a
    /// session-local counter), this survives restarts — journal replay
    /// restores it — so it is the exactly-once witness across crashes.
    pub batches: u64,
    /// Duplicate sends recognized and skipped.
    pub duplicates: u64,
    /// Supervised worker restarts.
    pub restarts: u64,
    /// Epoch of the tenant's current query view.
    pub last_epoch: u64,
    /// Retention watermark as IEEE-754 bits (`f64::to_bits`), so the
    /// report stays `Eq`; `None` until the first expiry (or when no
    /// window is configured).
    pub watermark_bits: Option<u64>,
    /// T-fragments currently retained across all flows.
    pub live_fragments: u64,
    /// Watermark advances that actually expired state.
    pub expiries: u64,
    /// Cluster-drift lifecycle totals.
    pub drift: DriftCounts,
    /// Journal compactions completed.
    pub compactions: u64,
    /// Journal compactions failed (service keeps serving and retries).
    pub compaction_failures: u64,
}

impl StatusReport {
    /// One-line operator rendering.
    pub fn digest(&self) -> String {
        let watermark = match self.watermark_bits {
            Some(bits) => format!("{}", f64::from_bits(bits)),
            None => "none".to_string(),
        };
        format!(
            "tenant={} status={} breaker={} trips={} applied={} batches={} accepted={} \
             deferred={} shed={} poisoned={} duplicates={} restarts={} epoch={} \
             watermark={} live-fragments={} expiries={} \
             drift=born:{},grew:{},shrank:{},merged:{},died:{} \
             compactions={} compaction-failures={}",
            self.tenant,
            self.status,
            self.breaker,
            self.breaker_trips,
            self.applied,
            self.batches,
            self.accepted,
            self.deferred,
            self.shed,
            self.poisoned,
            self.duplicates,
            self.restarts,
            self.last_epoch,
            watermark,
            self.live_fragments,
            self.expiries,
            self.drift.born,
            self.drift.grew,
            self.drift.shrank,
            self.drift.merged,
            self.drift.died,
            self.compactions,
            self.compaction_failures
        )
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The batch is applied and journaled (or was already — duplicate
    /// sends are acknowledged idempotently). `epoch` is the tenant's
    /// query-view version that includes it.
    Ack {
        /// Query-view epoch covering the batch.
        epoch: u64,
    },
    /// The batch is durable in the spool but not applied yet (queue
    /// full or the service is draining); retry no sooner than the hint.
    Defer {
        /// Suggested wait, drawn from the server's jitter schedule.
        retry_after_ms: u64,
    },
    /// Dropped under overload before becoming durable; retry later.
    Shed,
    /// Not retryable: bad request, poison batch, exhausted worker or an
    /// open circuit breaker.
    Reject {
        /// Human-readable cause.
        reason: String,
    },
    /// Answer to a [`Request::Status`] query (boxed: the report is by
    /// far the widest reply and would otherwise bloat every `Reply`).
    Report(Box<StatusReport>),
}

impl Reply {
    /// Encodes the body (no frame header); see [`Reply::encode`].
    pub fn encode_body(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Reply::Ack { epoch } => {
                e.u8(KIND_ACK);
                e.u64(*epoch);
            }
            Reply::Defer { retry_after_ms } => {
                e.u8(KIND_DEFER);
                e.u64(*retry_after_ms);
            }
            Reply::Shed => e.u8(KIND_SHED),
            Reply::Reject { reason } => {
                e.u8(KIND_REJECT);
                e.str(reason);
            }
            Reply::Report(r) => {
                e.u8(KIND_REPORT);
                e.str(&r.tenant);
                e.str(&r.status);
                e.str(&r.breaker);
                e.u64(r.breaker_trips);
                e.u64(r.accepted);
                e.u64(r.deferred);
                e.u64(r.shed);
                e.u64(r.poisoned);
                e.u64(r.applied);
                e.u64(r.batches);
                e.u64(r.duplicates);
                e.u64(r.restarts);
                e.u64(r.last_epoch);
                match r.watermark_bits {
                    Some(bits) => {
                        e.u8(1);
                        e.u64(bits);
                    }
                    None => e.u8(0),
                }
                e.u64(r.live_fragments);
                e.u64(r.expiries);
                e.u64(r.drift.born);
                e.u64(r.drift.grew);
                e.u64(r.drift.shrank);
                e.u64(r.drift.merged);
                e.u64(r.drift.died);
                e.u64(r.compactions);
                e.u64(r.compaction_failures);
            }
        }
        e.into_bytes()
    }

    /// The complete frame for this reply.
    pub fn encode(&self) -> Vec<u8> {
        frame(&self.encode_body())
    }

    /// Decodes a verified frame body into a reply.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for unknown kinds, request kinds, short
    /// bodies or trailing bytes.
    pub fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        let mut d = Dec::new(body);
        let reply = match d.u8("reply kind")? {
            KIND_ACK => Reply::Ack {
                epoch: d.u64("ack epoch")?,
            },
            KIND_DEFER => Reply::Defer {
                retry_after_ms: d.u64("defer hint")?,
            },
            KIND_SHED => Reply::Shed,
            KIND_REJECT => Reply::Reject {
                reason: d.str("reject reason")?.to_string(),
            },
            KIND_REPORT => Reply::Report(Box::new(StatusReport {
                tenant: d.str("report tenant")?.to_string(),
                status: d.str("report status")?.to_string(),
                breaker: d.str("report breaker")?.to_string(),
                breaker_trips: d.u64("report trips")?,
                accepted: d.u64("report accepted")?,
                deferred: d.u64("report deferred")?,
                shed: d.u64("report shed")?,
                poisoned: d.u64("report poisoned")?,
                applied: d.u64("report applied")?,
                batches: d.u64("report batches")?,
                duplicates: d.u64("report duplicates")?,
                restarts: d.u64("report restarts")?,
                last_epoch: d.u64("report epoch")?,
                watermark_bits: match d.u8("report watermark flag")? {
                    0 => None,
                    1 => Some(d.u64("report watermark bits")?),
                    other => {
                        return Err(FrameError::Malformed(format!(
                            "bad watermark flag {other:#04x}"
                        )))
                    }
                },
                live_fragments: d.u64("report live fragments")?,
                expiries: d.u64("report expiries")?,
                drift: DriftCounts {
                    born: d.u64("report drift born")?,
                    grew: d.u64("report drift grew")?,
                    shrank: d.u64("report drift shrank")?,
                    merged: d.u64("report drift merged")?,
                    died: d.u64("report drift died")?,
                },
                compactions: d.u64("report compactions")?,
                compaction_failures: d.u64("report compaction failures")?,
            })),
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown reply kind {other:#04x}"
                )))
            }
        };
        d.expect_exhausted("reply body")?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn push() -> Request {
        Request::Push {
            tenant: "sj".into(),
            batch_id: "b-001.batch".into(),
            payload: vec![1, 2, 3, 250],
        }
    }

    #[test]
    fn request_frames_round_trip() {
        for req in [
            push(),
            Request::Status {
                tenant: "atl".into(),
            },
            Request::Drain,
        ] {
            let wire = req.encode();
            let body = unframe(&wire, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(Request::decode_body(&body).unwrap(), req);
        }
    }

    #[test]
    fn reply_frames_round_trip() {
        for reply in [
            Reply::Ack { epoch: 9 },
            Reply::Defer {
                retry_after_ms: 120,
            },
            Reply::Shed,
            Reply::Reject {
                reason: "poison".into(),
            },
            Reply::Report(Box::new(StatusReport {
                tenant: "sj".into(),
                status: "running".into(),
                breaker: "closed".into(),
                applied: 4,
                last_epoch: 4,
                ..StatusReport::default()
            })),
            Reply::Report(Box::new(StatusReport {
                tenant: "atl".into(),
                status: "degraded".into(),
                breaker: "closed".into(),
                applied: 12,
                last_epoch: 14,
                watermark_bits: Some(420.5f64.to_bits()),
                live_fragments: 37,
                expiries: 3,
                drift: DriftCounts {
                    born: 2,
                    grew: 5,
                    shrank: 1,
                    merged: 1,
                    died: 2,
                },
                compactions: 4,
                compaction_failures: 1,
                ..StatusReport::default()
            })),
        ] {
            let wire = reply.encode();
            let body = unframe(&wire, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(Reply::decode_body(&body).unwrap(), reply);
        }
    }

    #[test]
    fn corrupted_body_fails_crc() {
        let mut wire = push().encode();
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        assert!(matches!(
            unframe(&wire, DEFAULT_MAX_FRAME),
            Err(FrameError::Crc { .. })
        ));
    }

    #[test]
    fn oversized_length_is_bounded() {
        let mut wire = push().encode();
        wire[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            unframe(&wire, DEFAULT_MAX_FRAME),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let wire = push().encode();
        for cut in 0..wire.len() {
            let err = unframe(&wire[..cut], DEFAULT_MAX_FRAME).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn request_reply_kinds_do_not_cross() {
        let body = Reply::Ack { epoch: 1 }.encode_body();
        assert!(Request::decode_body(&body).is_err());
        let body = Request::Drain.encode_body();
        assert!(Reply::decode_body(&body).is_err());
    }

    #[test]
    fn reader_survives_split_and_pipelined_frames() {
        let a = push().encode();
        let b = Request::Drain.encode();
        let mut wire = Vec::new();
        wire.extend_from_slice(&a);
        wire.extend_from_slice(&b);
        // Feed through a cursor: first poll may need several reads worth
        // of buffering, but both frames must come out in order.
        let mut cur = Cursor::new(wire);
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut bodies = Vec::new();
        for _ in 0..16 {
            match reader.poll(&mut cur).unwrap() {
                Poll::Frame(body) => bodies.push(body),
                Poll::Pending => {}
                Poll::TimedOut => {}
                Poll::Eof { .. } => break,
            }
        }
        assert_eq!(bodies.len(), 2);
        assert_eq!(Request::decode_body(&bodies[0]).unwrap(), push());
        assert_eq!(Request::decode_body(&bodies[1]).unwrap(), Request::Drain);
    }

    #[test]
    fn reader_reports_torn_eof() {
        let wire = push().encode();
        let mut cur = Cursor::new(wire[..wire.len() / 2].to_vec());
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        loop {
            match reader.poll(&mut cur).unwrap() {
                Poll::Eof { mid_frame } => {
                    assert!(mid_frame, "half a frame must be reported as torn");
                    break;
                }
                Poll::Frame(_) => panic!("incomplete frame must not decode"),
                _ => {}
            }
        }
    }
}
