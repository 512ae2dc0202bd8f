//! The memo service wire protocol.
//!
//! `vpoc serve` answers phase-order queries over a Unix domain socket.
//! Each connection carries exactly one [`Request`] frame and receives
//! a stream of [`Response`] frames: zero or more [`Response::Progress`]
//! liveness frames while a cold enumeration runs, then exactly one
//! terminal frame (any other kind). Frames are the length-prefixed,
//! CRC-protected envelopes of [`crate::wire`], and payloads are the
//! versioned encodings below. Function records travel in the store's
//! own serialization (version [`crate::campaign::store::VERSION`]), so
//! a daemon response is bit-compatible with what `ResultStore` holds on
//! disk.
//!
//! Decoding is total: truncated, oversized, or bit-flipped payloads
//! come back as [`ProtocolError`], never a panic — the daemon must
//! survive arbitrary bytes from the socket.

use std::fmt;

use crate::campaign::store::{self, Completeness, FunctionRecord, StoreError};
use crate::wire::{self, Reader, WireError};

/// Version of the request/response payload encodings. Bumped on any
/// incompatible change; a daemon rejects frames from other versions
/// with a clean [`Response::Error`]. Version 2 added streamed
/// [`Response::Progress`] frames during cold runs and a retry-after
/// hint on [`Response::Overloaded`].
pub const PROTOCOL_VERSION: u16 = 2;

/// Why a protocol payload could not be decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// The payload is truncated or structurally invalid.
    Malformed(String),
    /// The peer speaks a different protocol version.
    Version { got: u16 },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Malformed(m) => write!(f, "malformed protocol payload: {m}"),
            ProtocolError::Version { got } => {
                write!(f, "protocol version {got}, this build speaks {PROTOCOL_VERSION}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Malformed(e.to_string())
    }
}

impl From<StoreError> for ProtocolError {
    fn from(e: StoreError) -> Self {
        ProtocolError::Malformed(e.to_string())
    }
}

/// A client-to-daemon message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Ask for a function's memo. Warm entries answer from the store;
    /// cold or partially-explored entries run enumeration under
    /// `budget` (daemon default when `None`) and deepen the stored
    /// frontier.
    Query {
        /// Function name, as stored (qualified `bench::func` or bare).
        function: String,
        /// Per-request expansion budget override.
        budget: Option<u64>,
    },
    /// List every function the daemon tracks with its exploration
    /// state.
    List,
    /// Ask for a telemetry snapshot (JSON).
    Telemetry,
    /// Ask the daemon to checkpoint and exit.
    Shutdown,
}

/// How a [`Response::Memo`] was produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Served {
    /// Straight from the memo store, no enumeration spawned.
    Warm,
    /// An enumeration session ran for this request, expanding this
    /// many merged parents before completing or suspending.
    Cold {
        /// Merged-parent expansions performed by this request.
        expanded: u64,
    },
}

/// One row of a [`Response::List`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ListEntry {
    /// Stored function name.
    pub name: String,
    /// Exploration state: `None` = not yet explored, otherwise the
    /// record's completeness.
    pub state: Option<Completeness>,
}

/// A daemon-to-client message.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// The function's memo entry: best-known ordering and Table-3
    /// counters, plus whether it is final or resumable.
    Memo {
        /// The stored record after this request's work.
        record: Box<FunctionRecord>,
        /// Whether enumeration ran.
        served: Served,
    },
    /// Every tracked function and its state.
    List {
        /// One entry per function, in task order.
        entries: Vec<ListEntry>,
    },
    /// A telemetry snapshot rendered as JSON.
    Telemetry {
        /// Output of [`crate::telemetry::Snapshot::to_json`].
        json: String,
    },
    /// The request was understood but cannot be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Admission control rejected the request: too many enumerations
    /// in flight and the queue is full. Retry later.
    Overloaded {
        /// Daemon's backoff hint: a retry this many milliseconds from
        /// now has a reasonable chance of admission. `0` = no hint.
        retry_after_ms: u64,
    },
    /// The daemon acknowledged a shutdown (or is already draining).
    ShuttingDown,
    /// Liveness report streamed mid-connection while a cold enumeration
    /// runs; never terminal — a [`Response::Memo`] (or error) follows.
    Progress {
        /// Function being enumerated.
        function: String,
        /// Levels fully completed so far this session.
        level: u32,
        /// Merged parents expanded so far this session.
        expanded: u64,
        /// Expansion budget remaining this session. Every cold session
        /// runs under a budget: the request's own, or else the daemon's
        /// `--budget`.
        remaining: u64,
    },
}

impl Response {
    /// Whether this frame ends the response stream (anything but
    /// [`Response::Progress`]).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::Progress { .. })
    }
}

fn header(kind: u8) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_u16(&mut out, PROTOCOL_VERSION);
    out.push(kind);
    out
}

fn open(bytes: &[u8]) -> Result<(Reader<'_>, u8), ProtocolError> {
    let mut r = Reader::new(bytes);
    let got = r.u16()?;
    if got != PROTOCOL_VERSION {
        return Err(ProtocolError::Version { got });
    }
    let kind = r.u8()?;
    Ok((r, kind))
}

fn finish(r: Reader<'_>) -> Result<(), ProtocolError> {
    if r.remaining() != 0 {
        return Err(ProtocolError::Malformed(format!("{} bytes trail the payload", r.remaining())));
    }
    Ok(())
}

impl Request {
    /// Serializes the request payload (version, kind, body).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Request::Query { function, budget } => {
                let mut out = header(0);
                wire::put_str(&mut out, function);
                match budget {
                    Some(b) => {
                        out.push(1);
                        wire::put_u64(&mut out, *b);
                    }
                    None => out.push(0),
                }
                out
            }
            Request::List => header(1),
            Request::Telemetry => header(2),
            Request::Shutdown => header(3),
        }
    }

    /// Parses a request payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Request, ProtocolError> {
        let (mut r, kind) = open(bytes)?;
        let req = match kind {
            0 => {
                let function = r.str()?;
                let budget = if r.bool()? { Some(r.u64()?) } else { None };
                Request::Query { function, budget }
            }
            1 => Request::List,
            2 => Request::Telemetry,
            3 => Request::Shutdown,
            d => return Err(ProtocolError::Malformed(format!("invalid request discriminant {d}"))),
        };
        finish(r)?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response payload (version, kind, body).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Response::Memo { record, served } => {
                let mut out = header(0);
                match served {
                    Served::Warm => out.push(0),
                    Served::Cold { expanded } => {
                        out.push(1);
                        wire::put_u64(&mut out, *expanded);
                    }
                }
                record.encode(&mut out);
                out
            }
            Response::List { entries } => {
                let mut out = header(1);
                wire::put_u32(&mut out, entries.len() as u32);
                for e in entries {
                    wire::put_str(&mut out, &e.name);
                    match e.state {
                        None => out.push(0),
                        Some(Completeness::Complete) => out.push(1),
                        Some(Completeness::Truncated { level }) => {
                            out.push(2);
                            wire::put_u32(&mut out, level);
                        }
                        Some(Completeness::Frontier { level }) => {
                            out.push(3);
                            wire::put_u32(&mut out, level);
                        }
                    }
                }
                out
            }
            Response::Telemetry { json } => {
                let mut out = header(2);
                wire::put_str(&mut out, json);
                out
            }
            Response::Error { message } => {
                let mut out = header(3);
                wire::put_str(&mut out, message);
                out
            }
            Response::Overloaded { retry_after_ms } => {
                let mut out = header(4);
                wire::put_u64(&mut out, *retry_after_ms);
                out
            }
            Response::ShuttingDown => header(5),
            Response::Progress { function, level, expanded, remaining } => {
                let mut out = header(6);
                wire::put_str(&mut out, function);
                wire::put_u32(&mut out, *level);
                wire::put_u64(&mut out, *expanded);
                wire::put_u64(&mut out, *remaining);
                out
            }
        }
    }

    /// Parses a response payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Response, ProtocolError> {
        let (mut r, kind) = open(bytes)?;
        let resp = match kind {
            0 => {
                let served = match r.u8()? {
                    0 => Served::Warm,
                    1 => Served::Cold { expanded: r.u64()? },
                    d => {
                        return Err(ProtocolError::Malformed(format!(
                            "invalid served discriminant {d}"
                        )))
                    }
                };
                let record = Box::new(FunctionRecord::decode(&mut r, store::VERSION)?);
                Response::Memo { record, served }
            }
            1 => {
                let count = r.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let name = r.str()?;
                    let state = match r.u8()? {
                        0 => None,
                        1 => Some(Completeness::Complete),
                        2 => Some(Completeness::Truncated { level: r.u32()? }),
                        3 => Some(Completeness::Frontier { level: r.u32()? }),
                        d => {
                            return Err(ProtocolError::Malformed(format!(
                                "invalid state discriminant {d}"
                            )))
                        }
                    };
                    entries.push(ListEntry { name, state });
                }
                Response::List { entries }
            }
            2 => Response::Telemetry { json: r.str()? },
            3 => Response::Error { message: r.str()? },
            4 => Response::Overloaded { retry_after_ms: r.u64()? },
            5 => Response::ShuttingDown,
            6 => Response::Progress {
                function: r.str()?,
                level: r.u32()?,
                expanded: r.u64()?,
                remaining: r.u64()?,
            },
            d => {
                return Err(ProtocolError::Malformed(format!("invalid response discriminant {d}")))
            }
        };
        finish(r)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, complete: bool) -> Box<FunctionRecord> {
        Box::new(FunctionRecord {
            name: name.into(),
            complete,
            insts: 42,
            fn_instances: 1234,
            leaves: 17,
            ..FunctionRecord::default()
        })
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Query { function: "bitcount::tri".into(), budget: Some(64) },
            Request::Query { function: "main".into(), budget: None },
            Request::List,
            Request::Telemetry,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Memo { record: record("tri", true), served: Served::Warm },
            Response::Memo { record: record("tri", false), served: Served::Cold { expanded: 99 } },
            Response::List {
                entries: vec![
                    ListEntry { name: "a".into(), state: None },
                    ListEntry { name: "b".into(), state: Some(Completeness::Complete) },
                    ListEntry {
                        name: "c".into(),
                        state: Some(Completeness::Truncated { level: 7 }),
                    },
                    ListEntry {
                        name: "d".into(),
                        state: Some(Completeness::Frontier { level: 3 }),
                    },
                ],
            },
            Response::Telemetry { json: "{\"metrics\":[]}".into() },
            Response::Error { message: "no such function".into() },
            Response::Overloaded { retry_after_ms: 150 },
            Response::ShuttingDown,
            Response::Progress {
                function: "sha::sha_transform".into(),
                level: 5,
                expanded: 314,
                remaining: 86,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let bytes = req.to_bytes();
            assert_eq!(Request::from_bytes(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = resp.to_bytes();
            assert_eq!(Response::from_bytes(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn version_mismatch_is_a_clean_error() {
        let mut bytes = Request::List.to_bytes();
        bytes[0] = 0xFF;
        match Request::from_bytes(&bytes) {
            Err(ProtocolError::Version { got }) => assert_ne!(got, PROTOCOL_VERSION),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payloads_never_panic() {
        for req in sample_requests() {
            let good = req.to_bytes();
            for cut in 0..good.len() {
                assert!(Request::from_bytes(&good[..cut]).is_err());
            }
        }
        for resp in sample_responses() {
            let good = resp.to_bytes();
            for cut in 0..good.len() {
                assert!(Response::from_bytes(&good[..cut]).is_err());
            }
        }
    }

    #[test]
    fn corrupt_payloads_decode_to_errors_not_panics() {
        // Deterministic fuzz: flip each byte of every sample message to
        // a handful of values; decode must return (any) Ok or Err, and
        // Ok values must re-encode without panicking.
        for resp in sample_responses() {
            let good = resp.to_bytes();
            for i in 0..good.len() {
                for v in [0x00, 0x01, 0x7F, 0xFF] {
                    let mut bad = good.clone();
                    bad[i] = v;
                    if let Ok(decoded) = Response::from_bytes(&bad) {
                        let _ = decoded.to_bytes();
                    }
                }
            }
        }
        for req in sample_requests() {
            let good = req.to_bytes();
            for i in 0..good.len() {
                for v in [0x00, 0x01, 0x7F, 0xFF] {
                    let mut bad = req.clone().to_bytes();
                    bad[i] = v;
                    if let Ok(decoded) = Request::from_bytes(&bad) {
                        let _ = decoded.to_bytes();
                    }
                }
            }
        }
        let _ = good_trailing_guard();
    }

    fn good_trailing_guard() -> bool {
        let mut bytes = Request::Shutdown.to_bytes();
        bytes.push(0);
        Request::from_bytes(&bytes).is_err()
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        assert!(good_trailing_guard());
        let mut bytes = Response::ShuttingDown.to_bytes();
        bytes.extend_from_slice(b"junk");
        assert!(Response::from_bytes(&bytes).is_err());
    }

    #[test]
    fn progress_frames_are_the_only_non_terminal_kind() {
        for resp in sample_responses() {
            let progress = matches!(resp, Response::Progress { .. });
            assert_eq!(resp.is_terminal(), !progress, "{resp:?}");
        }
    }
}
