//! Typed errors of the query engine.
//!
//! Every failure a job can hit — malformed input, a non-cograph graph, a
//! cover that fails self-verification, a panic inside the solver — is mapped
//! to a [`ServiceError`] variant so that batch execution can report it per
//! job without aborting the batch, and so the CLI can render it both as
//! human-readable text and as a machine-readable JSON object.

use crate::ingest::IngestError;
use crate::json::Json;
use cograph::RecognitionError;
use pcgraph::VertexId;
use std::fmt;

/// Any error a single query can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The graph input could not be parsed.
    Ingest(IngestError),
    /// The input graph is not a cograph, so the cotree pipeline cannot run.
    /// Recognition certifies the rejection with a concrete induced `P_4`,
    /// which travels all the way into the wire error body.
    NotACograph {
        /// Number of vertices of the offending graph.
        vertices: usize,
        /// The induced `P_4` found by recognition, in path order
        /// `a - b - c - d` (edges `ab`, `bc`, `cd`; non-edges `ac`, `ad`,
        /// `bd`).
        witness: [VertexId; 4],
    },
    /// The input graph has no vertices; the path-cover problem is trivial
    /// but the paper's pipeline (and recognition) require `n >= 1`.
    EmptyGraph,
    /// The request referenced the batch-level shared graph, but the batch
    /// was started without one.
    SharedGraphMissing,
    /// A produced cover failed verification ([`pcgraph::verify_path_cover`],
    /// or [`cograph::Cotree::verify_path_cover`] for a cotree input); this
    /// indicates a solver bug and is reported rather than returned silently.
    CoverVerificationFailed(String),
    /// The solver panicked; the panic was contained to this job.
    JobPanicked(String),
    /// The request itself was malformed (bad JSON line, unknown kind, ...).
    BadRequest(String),
    /// The request named a session handle the daemon does not hold (never
    /// created, already dropped, or reclaimed by the idle-TTL sweep).
    SessionNotFound(String),
    /// The session registry is at its admission cap; the client must drop
    /// a handle (or wait for the idle sweep) before creating another.
    TooManySessions {
        /// The configured admission cap.
        max: usize,
    },
    /// A session mutation named an invalid vertex: out of range, a
    /// self-loop, or a duplicate within one insertion. Recoverable — the
    /// session is untouched.
    InvalidVertex(String),
    /// The daemon shed this request under load (in-flight cap reached, a
    /// per-connection budget exhausted, or an injected fault). Recoverable
    /// and retryable: the wire body carries `retry_after_ms` so clients can
    /// back off before trying again.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before the work completed; the job
    /// was cut short instead of burning a core on an answer nobody is
    /// waiting for.
    DeadlineExceeded,
}

impl ServiceError {
    /// Stable machine-readable error tag used in JSON output.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Ingest(_) => "ingest",
            ServiceError::NotACograph { .. } => "not_a_cograph",
            ServiceError::EmptyGraph => "empty_graph",
            ServiceError::SharedGraphMissing => "shared_graph_missing",
            ServiceError::CoverVerificationFailed(_) => "cover_verification_failed",
            ServiceError::JobPanicked(_) => "job_panicked",
            ServiceError::BadRequest(_) => "bad_request",
            ServiceError::SessionNotFound(_) => "session_not_found",
            ServiceError::TooManySessions { .. } => "too_many_sessions",
            ServiceError::InvalidVertex(_) => "invalid",
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::DeadlineExceeded => "deadline_exceeded",
        }
    }

    /// The wire-format error body every transport and API version shares:
    /// `code`, the human-readable `message`, and — for
    /// [`ServiceError::NotACograph`] — the induced-`P_4` certificate as a
    /// structured `p4` vertex array, so clients need not parse message
    /// text. This is the single place the shape is built; the response
    /// model and both the v1 and v2 dispatchers embed it verbatim.
    pub fn wire_body(&self) -> Json {
        let mut fields = vec![
            ("code", Json::str(self.code())),
            ("message", Json::str(self.to_string())),
        ];
        if let ServiceError::NotACograph { witness, .. } = self {
            fields.push((
                "p4",
                Json::Arr(witness.iter().map(|&v| Json::num(v as u64)).collect()),
            ));
        }
        if let ServiceError::Overloaded { retry_after_ms } = self {
            fields.push(("retry_after_ms", Json::num(*retry_after_ms)));
        }
        Json::obj(fields)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Ingest(e) => write!(f, "ingest error: {e}"),
            ServiceError::NotACograph { vertices, witness } => {
                let [a, b, c, d] = witness;
                write!(
                    f,
                    "graph on {vertices} vertices is not a cograph \
                     (induced P4: {a} - {b} - {c} - {d})"
                )
            }
            ServiceError::EmptyGraph => write!(f, "graph has no vertices"),
            ServiceError::SharedGraphMissing => {
                write!(
                    f,
                    "request uses the shared batch graph, but none was provided"
                )
            }
            ServiceError::CoverVerificationFailed(detail) => {
                write!(f, "produced cover failed verification: {detail}")
            }
            ServiceError::JobPanicked(msg) => write!(f, "job panicked: {msg}"),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::SessionNotFound(handle) => {
                write!(f, "no such session: {handle}")
            }
            ServiceError::TooManySessions { max } => {
                write!(f, "session limit reached ({max} live handles)")
            }
            ServiceError::InvalidVertex(msg) => write!(f, "invalid vertex: {msg}"),
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
            ServiceError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<IngestError> for ServiceError {
    fn from(e: IngestError) -> Self {
        ServiceError::Ingest(e)
    }
}

impl ServiceError {
    /// Maps a typed recognition rejection onto the service taxonomy,
    /// carrying the induced-`P_4` certificate along.
    pub fn from_recognition(error: RecognitionError, vertices: usize) -> ServiceError {
        match error {
            RecognitionError::EmptyGraph => ServiceError::EmptyGraph,
            RecognitionError::InducedP4(p4) => ServiceError::NotACograph {
                vertices,
                witness: p4.vertices(),
            },
        }
    }
}
