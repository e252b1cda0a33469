//! Lock-free pipeline telemetry: counters, latency histograms, trace IDs.
//!
//! Every metric the daemon exports is declared once, in the `metrics!`
//! table below: its Prometheus name, HELP text, type, label axis and JSON
//! path. The [`Telemetry`] registry behind the table is a flat array of
//! relaxed atomics plus one of [`Histogram`]s, indexed by [`Metric`] and
//! label, so recording is one indexed `fetch_add` — no name lookup, no
//! hashing, no lock. Latencies land in fixed-bucket log-scale histograms
//! (powers of two, microseconds) whose counts are exact even under
//! concurrent recording.
//!
//! A [`MetricsReport`] snapshots everything at once; its JSON (the
//! `metrics` proto frame, `pathcover-cli metrics`) and Prometheus text
//! (`GET /v1/metrics`) renderings are both walks over the same table.
//!
//! Requests are correlated across log lines and transports by a trace ID
//! carried in a [`RequestCtx`]: accepted from an `X-Request-Id` header or a
//! `trace_id` proto field at the transport edge, synthesized otherwise, and
//! echoed in every response and error body.

use crate::cache::{CacheStats, ShardStats};
use crate::json::Json;
use crate::model::QueryKind;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Number of buckets in every latency histogram: bucket `i < 31` holds
/// values `v` with `2^(i-1) < v <= 2^i` microseconds (bucket 0 holds
/// `v <= 1`), bucket 31 is the overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A fixed-bucket log-scale latency histogram over `u64` microsecond
/// values, recordable concurrently from any number of threads.
///
/// Recording is three relaxed `fetch_add`s (bucket, count, sum) — no CAS
/// loops, no locks — so total counts are exact under contention even
/// though a snapshot taken mid-record may transiently see `count` ahead
/// of the bucket sums by a few in-flight increments.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 for `v <= 1`, otherwise the smallest
    /// `i` with `v <= 2^i`, saturating at the overflow bucket.
    fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            ((64 - (value - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of a bucket (`u64::MAX` for the overflow
    /// bucket).
    fn bucket_upper(index: usize) -> u64 {
        if index >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << index
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`], with quantile extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (microseconds).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The bucket-wise union of several snapshots (bounds are shared, so
    /// the merge is exact).
    fn merge<'a>(parts: impl IntoIterator<Item = &'a HistogramSnapshot>) -> Self {
        let mut merged = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        };
        for part in parts {
            for (total, bucket) in merged.buckets.iter_mut().zip(part.buckets) {
                *total += bucket;
            }
            merged.count += part.count;
            merged.sum += part.sum;
        }
        merged
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper bound of
    /// the bucket containing the rank-`ceil(q·count)` smallest
    /// observation; `0` when empty, `u64::MAX` when the rank falls in the
    /// overflow bucket. Because bucketisation preserves order, this is
    /// exactly the bucket bound the true quantile value lives under.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return Histogram::bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Mean observed value in microseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Structured summary (`count` / `sum_us` / `mean_us` / `p50_us` /
    /// `p90_us` / `p99_us`) used by the stats payload and the CLI.
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::num(self.count)),
            ("sum_us", Json::num(self.sum)),
            ("mean_us", Json::num(self.mean().round() as u64)),
            ("p50_us", Json::num(self.quantile(0.50))),
            ("p90_us", Json::num(self.quantile(0.90))),
            ("p99_us", Json::num(self.quantile(0.99))),
        ])
    }
}

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

/// The five pipeline stages whose latency is recorded per segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Parsing edge-list / DIMACS / cotree-term input into a graph.
    Ingest,
    /// Cograph recognition (cotree construction or P4 rejection).
    Recognize,
    /// Cache fingerprint/canonical-key lookups and inserts.
    CacheLookup,
    /// The actual path-cover / Hamiltonian computation.
    Solve,
    /// Independent re-verification of the returned cover.
    Verify,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Ingest,
        Stage::Recognize,
        Stage::CacheLookup,
        Stage::Solve,
        Stage::Verify,
    ];

    /// Stable label used in metric names and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Recognize => "recognize",
            Stage::CacheLookup => "cache_lookup",
            Stage::Solve => "solve",
            Stage::Verify => "verify",
        }
    }
}

/// Request outcome classes used to split whole-request latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The job produced a verified answer.
    Ok,
    /// The input graph was rejected with an induced-P4 certificate.
    NotACograph,
    /// The request itself was defective (ingest error, empty graph,
    /// missing shared graph, bad request).
    Invalid,
    /// The engine failed the job (verification mismatch, job panic).
    Internal,
}

impl Outcome {
    /// All outcomes, in severity order.
    pub const ALL: [Outcome; 4] = [
        Outcome::Ok,
        Outcome::NotACograph,
        Outcome::Invalid,
        Outcome::Internal,
    ];

    /// Stable label used in metric names and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::NotACograph => "not_a_cograph",
            Outcome::Invalid => "invalid",
            Outcome::Internal => "internal",
        }
    }

    /// Classifies a wire error code (the `code` field of error bodies).
    pub fn from_error_code(code: &str) -> Outcome {
        match code {
            "not_a_cograph" => Outcome::NotACograph,
            "cover_verification_failed" | "job_panicked" => Outcome::Internal,
            _ => Outcome::Invalid,
        }
    }
}

/// The two wire transports, used to label connection gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The length-framed `pcp1`/`pcp2` protocol (unix socket).
    Framed,
    /// The HTTP/1.1 front-end (TCP).
    Http,
}

impl Transport {
    /// Both transports.
    pub const ALL: [Transport; 2] = [Transport::Framed, Transport::Http];

    /// Stable label used in metric names and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Framed => "framed",
            Transport::Http => "http",
        }
    }
}

/// A value on a label axis. Every axis enum lists `ALL` in declaration
/// order, so a value's position on its axis is its discriminant.
pub trait Label: Copy {
    /// The axis this label type belongs to.
    const AXIS: Axis;
    /// Position on the axis (the series offset within its family).
    fn index(self) -> usize;
}

impl Label for () {
    const AXIS: Axis = Axis::None;
    fn index(self) -> usize {
        0
    }
}

macro_rules! enum_label {
    ($($ty:ty => $axis:ident),*) => {$(
        impl Label for $ty {
            const AXIS: Axis = Axis::$axis;
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
enum_label!(QueryKind => Kind, Stage => Stage, Outcome => Outcome, Transport => Transport);

impl Label for (QueryKind, Outcome) {
    const AXIS: Axis = Axis::KindOutcome;
    fn index(self) -> usize {
        self.0.index() * Outcome::ALL.len() + self.1.index()
    }
}

/// How a family's series are split by labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// One unlabelled series.
    None,
    /// One series per [`QueryKind`] (`kind`).
    Kind,
    /// One series per [`Stage`] (`stage`).
    Stage,
    /// One series per [`Outcome`] (`outcome`).
    Outcome,
    /// One series per [`Transport`] (`transport`).
    Transport,
    /// One series per kind × outcome pair (`kind`, `outcome`).
    KindOutcome,
    /// One series per cache shard (`shard`); read from the cache, not the
    /// registry.
    Shard,
    /// The single build-identity series (`version`, `rust_version`,
    /// `profile`).
    Build,
}

impl Axis {
    /// Series the registry keeps for a family on this axis.
    pub const fn width(self) -> usize {
        match self {
            Axis::None | Axis::Build => 1,
            Axis::Kind => QueryKind::ALL.len(),
            Axis::Stage => Stage::ALL.len(),
            Axis::Outcome => Outcome::ALL.len(),
            Axis::Transport => Transport::ALL.len(),
            Axis::KindOutcome => QueryKind::ALL.len() * Outcome::ALL.len(),
            Axis::Shard => 0,
        }
    }

    /// The `(name, value)` label pairs of series `i`.
    pub fn labels(self, i: usize) -> Vec<(&'static str, String)> {
        let pair = |name, value: &str| (name, value.to_string());
        match self {
            Axis::None => Vec::new(),
            Axis::Kind => vec![pair("kind", QueryKind::ALL[i].as_str())],
            Axis::Stage => vec![pair("stage", Stage::ALL[i].as_str())],
            Axis::Outcome => vec![pair("outcome", Outcome::ALL[i].as_str())],
            Axis::Transport => vec![pair("transport", Transport::ALL[i].as_str())],
            Axis::KindOutcome => {
                let outcomes = Outcome::ALL.len();
                let mut labels = Axis::Kind.labels(i / outcomes);
                labels.extend(Axis::Outcome.labels(i % outcomes));
                labels
            }
            Axis::Shard => vec![pair("shard", &i.to_string())],
            Axis::Build => vec![
                pair("version", env!("CARGO_PKG_VERSION")),
                pair(
                    "rust_version",
                    option_env!("CARGO_PKG_RUST_VERSION").unwrap_or("unknown"),
                ),
                pair(
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                ),
            ],
        }
    }
}

// ---------------------------------------------------------------------------
// Request context / trace IDs
// ---------------------------------------------------------------------------

/// Per-request context carried from the transport edge through the engine:
/// the trace ID echoed in every response and log line, plus an optional
/// deadline after which the engine stops working on the request.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// The trace ID — client-supplied (`X-Request-Id` header, `trace_id`
    /// proto field) or synthesized at the edge.
    pub trace_id: String,
    /// Absolute deadline for the request, set at the transport edge from a
    /// `deadline_ms` envelope field or `X-Deadline-Ms` header; `None` means
    /// the request may run to completion.
    pub deadline: Option<Instant>,
    /// The request's span sink when the flight recorder is on
    /// (see [`crate::trace`]); `None` means spans are not being collected
    /// and instrumented sites skip their clock reads entirely.
    pub collector: Option<std::sync::Arc<crate::trace::SpanCollector>>,
}

// Identity of a request context is its trace ID and deadline; the span
// collector is per-request plumbing, not identity (and `Arc<SpanCollector>`
// has no meaningful equality).
impl PartialEq for RequestCtx {
    fn eq(&self, other: &Self) -> bool {
        self.trace_id == other.trace_id && self.deadline == other.deadline
    }
}

impl Eq for RequestCtx {}

impl RequestCtx {
    /// Wraps a client-supplied trace ID.
    pub fn with_trace(trace_id: impl Into<String>) -> Self {
        RequestCtx {
            trace_id: trace_id.into(),
            deadline: None,
            collector: None,
        }
    }

    /// Attaches (or clears) a span collector; used by the engine at request
    /// entry when the flight recorder is enabled.
    pub fn with_collector(
        mut self,
        collector: Option<std::sync::Arc<crate::trace::SpanCollector>>,
    ) -> Self {
        self.collector = collector;
        self
    }

    /// The trace clock's current offset in microseconds, when spans are
    /// being collected. Instrumented sites pair this with
    /// [`RequestCtx::finish_span`].
    pub fn span_start(&self) -> Option<u64> {
        self.collector
            .as_ref()
            .map(|collector| collector.elapsed_us())
    }

    /// Closes a span opened at `start` (a [`RequestCtx::span_start`]
    /// reading). A `None` start — tracing off — is a no-op.
    pub fn finish_span(&self, name: &str, start: Option<u64>) {
        if let (Some(collector), Some(start_us)) = (self.collector.as_ref(), start) {
            collector.finish(name, start_us);
        }
    }

    /// Attaches a relative deadline (`None` clears it): the request must
    /// finish within `deadline_ms` milliseconds of now or the engine cuts
    /// it short with a `deadline_exceeded` error.
    pub fn with_deadline_ms(mut self, deadline_ms: Option<u64>) -> Self {
        self.deadline = deadline_ms.map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        self
    }

    /// Whether the request's deadline (if any) has already passed. Checked
    /// cooperatively at pipeline stage boundaries and in the session lock
    /// wait — a cheap monotonic-clock read, never a lock.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Synthesizes a fresh trace ID (`pc-<16 hex digits>`): wall-clock
    /// nanoseconds mixed with the process ID and a global sequence
    /// counter, so IDs are unique within a process and collide across
    /// daemons only if clocks and PIDs both coincide.
    pub fn generate() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mixed =
            nanos ^ (u64::from(std::process::id()) << 32) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        RequestCtx {
            trace_id: format!("pc-{mixed:016x}"),
            deadline: None,
            collector: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline clock
// ---------------------------------------------------------------------------

/// A per-request stage stopwatch: each [`mark`](PipelineClock::mark)
/// attributes the time since the previous mark to one stage. With
/// telemetry disabled it is a true no-op — no `Instant::now()` calls at
/// all — which is what the `service_telemetry_overhead` bench compares
/// against.
#[derive(Debug)]
pub struct PipelineClock<'t> {
    inner: Option<(&'t Telemetry, Instant)>,
    collector: Option<Arc<crate::trace::SpanCollector>>,
}

impl PipelineClock<'_> {
    /// Records the segment since the previous mark under `stage` and
    /// restarts the stopwatch. When a span collector rides the clock the
    /// same segment is also recorded as a `stage:*` span in the request
    /// trace.
    pub fn mark(&mut self, stage: Stage) {
        if let Some((telemetry, last)) = &mut self.inner {
            let now = Instant::now();
            let micros = (now - *last).as_micros() as u64;
            telemetry.observe(Metric::StageLatency, stage, micros);
            if let Some(collector) = &self.collector {
                let end = collector.elapsed_us();
                collector.push(crate::trace::Span::new(
                    format!("stage:{}", stage.as_str()),
                    end.saturating_sub(micros),
                    micros,
                ));
            }
            *last = now;
        }
    }

    /// The span collector riding this clock, if the request is traced and
    /// the clock is live. Pipeline internals use it to attach extra child
    /// spans (cache lookups, pool rounds) without threading the request
    /// context everywhere.
    pub fn collector(&self) -> Option<&Arc<crate::trace::SpanCollector>> {
        self.collector.as_ref()
    }

    /// Restarts the stopwatch without attributing the elapsed segment to
    /// any stage (used to skip untimed bookkeeping between stages).
    pub fn reset(&mut self) {
        if let Some((_, last)) = &mut self.inner {
            *last = Instant::now();
        }
    }
}

// ---------------------------------------------------------------------------
// The declaration table
// ---------------------------------------------------------------------------

/// Prometheus type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Type {
    /// Monotonic count (or a lifetime total copied from elsewhere).
    Counter,
    /// Point-in-time level; negative transients render as 0.
    Gauge,
    /// Latency histogram over the shared power-of-two bucket bounds.
    Histogram,
}

impl Type {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Type::Counter => "counter",
            Type::Gauge => "gauge",
            Type::Histogram => "histogram",
        }
    }
}

/// One row of the declaration table.
#[derive(Debug)]
pub struct Family {
    /// Prometheus family name.
    pub name: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// Prometheus type.
    pub ty: Type,
    /// How the family splits into series.
    pub axis: Axis,
    /// Dotted path of each series in the JSON report, `*` standing for the
    /// next label value; empty for Prometheus-only families.
    pub json: &'static str,
}

impl Family {
    /// JSON path of series `i` (`None` for Prometheus-only families).
    pub fn json_path(&self, i: usize) -> Option<Vec<String>> {
        if self.json.is_empty() {
            return None;
        }
        let mut values = self.axis.labels(i).into_iter().map(|(_, value)| value);
        Some(
            self.json
                .split('.')
                .map(|segment| match segment {
                    "*" => values.next().expect("one label per `*`"),
                    key => key.to_string(),
                })
                .collect(),
        )
    }
}

macro_rules! metrics {
    ($($metric:ident: $ty:ident $axis:ident $name:literal $json:literal $help:literal;)*) => {
        /// Every exported metric family, in exposition order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $help] $metric,)*
        }

        impl Metric {
            /// Every family, in exposition order.
            pub const ALL: &'static [Metric] = &[$(Metric::$metric),*];
        }

        const FAMILIES: &[Family] = &[$(Family {
            name: $name,
            help: $help,
            ty: Type::$ty,
            axis: Axis::$axis,
            json: $json,
        }),*];
    };
}

metrics! {
    BuildInfo: Gauge Build "pc_build_info" ""
        "Build identification of this daemon; always 1.";
    Requests: Counter KindOutcome "pc_requests_total" "requests.*.*"
        "Requests completed, by query kind and outcome.";
    StageLatency: Histogram Stage "pc_stage_latency_us" "stages.*"
        "Per-stage pipeline latency in microseconds.";
    RequestLatency: Histogram Kind "pc_request_latency_us" "request_latency_by_kind.*"
        "Whole-request latency in microseconds, by query kind.";
    OutcomeLatency: Histogram Outcome "pc_request_outcome_latency_us" "request_latency_by_outcome.*"
        "Whole-request latency in microseconds, by outcome.";
    RequestDuration: Histogram None "pc_request_duration" ""
        "Whole-request latency in microseconds, all query kinds.";
    RequestDurationP50: Gauge None "pc_request_duration_p50_us" ""
        "Precomputed median whole-request latency in microseconds.";
    RequestDurationP90: Gauge None "pc_request_duration_p90_us" ""
        "Precomputed p90 whole-request latency in microseconds.";
    RequestDurationP99: Gauge None "pc_request_duration_p99_us" ""
        "Precomputed p99 whole-request latency in microseconds.";
    ConnectionsAccepted: Counter Transport "pc_connections_accepted_total" "connections.*.accepted"
        "Connections accepted, by transport.";
    ConnectionsActive: Gauge Transport "pc_connections_active" "connections.*.active"
        "Currently open connections, by transport.";
    IdleTimeouts: Counter Transport "pc_idle_timeouts_total" "connections.*.idle_timeouts"
        "Connections closed by idle timeout, by transport.";
    OversizeRejects: Counter Transport "pc_oversize_rejects_total" "connections.*.oversize_rejects"
        "Frames or bodies rejected over the size cap, by transport.";
    AcceptErrors: Counter Transport "pc_accept_errors_total" "connections.*.accept_errors"
        "Listener accept() failures, by transport.";
    RejectedOverload: Counter None "pc_rejected_overload_total" "resilience.rejected_overload"
        "Requests shed under load (admission cap, budgets, injected faults).";
    DeadlineExceeded: Counter None "pc_deadline_exceeded_total" "resilience.deadline_exceeded"
        "Requests cut short because their deadline expired.";
    Inflight: Gauge None "pc_inflight_requests" "resilience.inflight"
        "Requests currently admitted and executing.";
    SnapshotCheckpoint: Histogram None "pc_snapshot_checkpoint_duration_us" "snapshot.checkpoints"
        "Snapshot checkpoint duration in microseconds.";
    SnapshotFailures: Counter None "pc_snapshot_failures_total" "snapshot.failures"
        "Failed snapshot checkpoints.";
    SnapshotConsecutiveFailures: Gauge None "pc_snapshot_consecutive_failures" "snapshot.consecutive_failures"
        "Checkpoint failures since the last success.";
    SnapshotLastSuccess: Gauge None "pc_snapshot_last_success_unixtime" "snapshot.last_success_unix"
        "Unix time of the last successful checkpoint (0 = never).";
    PoolSolves: Counter None "pc_pool_solves_total" "pool.solves"
        "Solves executed on the work-stealing pool.";
    PoolWorkers: Gauge None "pc_pool_workers" "pool.workers"
        "Worker threads of the engine's work-stealing pool.";
    PoolRounds: Counter None "pc_pool_rounds_total" "pool.rounds"
        "PRAM rounds executed by the pool.";
    PoolSteals: Counter None "pc_pool_steals_total" "pool.steals"
        "Chunks stolen between pool workers.";
    PoolBarrierWaits: Counter None "pc_pool_barrier_waits_total" "pool.barrier_waits"
        "Barrier wait observations in the pool.";
    PoolBarrierWaitP50: Gauge None "pc_pool_barrier_wait_p50_us" "pool.barrier_wait_p50_us"
        "Median pool barrier wait in microseconds.";
    PoolBarrierWaitP99: Gauge None "pc_pool_barrier_wait_p99_us" "pool.barrier_wait_p99_us"
        "99th-percentile pool barrier wait in microseconds.";
    SessionsLive: Gauge None "pc_sessions_live" "sessions.live"
        "Live daemon-resident session handles.";
    SessionsCreated: Counter None "pc_sessions_created_total" "sessions.created"
        "Session handles created.";
    SessionsDropped: Counter None "pc_sessions_dropped_total" "sessions.dropped"
        "Session handles released by session_drop.";
    SessionsExpired: Counter None "pc_sessions_expired_total" "sessions.expired"
        "Session handles reclaimed by the idle-TTL sweep.";
    SessionMutations: Counter None "pc_session_mutations_total" "sessions.mutations"
        "Successful session mutations.";
    SessionRecognizeIncremental: Counter None "pc_session_recognize_incremental_total" "sessions.recognize_incremental"
        "Session recognitions absorbed incrementally.";
    SessionRecognizeRebuild: Counter None "pc_session_recognize_rebuild_total" "sessions.recognize_rebuild"
        "Session recognitions that rebuilt from scratch.";
    CacheHits: Counter None "pc_cache_hits_total" "cache.hits"
        "Cache hits across all shards.";
    CacheMisses: Counter None "pc_cache_misses_total" "cache.misses"
        "Cache misses across all shards.";
    CacheEvictions: Counter None "pc_cache_evictions_total" "cache.evictions"
        "Cache evictions across all shards.";
    CacheEntries: Gauge None "pc_cache_entries" "cache.entries"
        "Live cache entries across all shards.";
    CacheShardHits: Counter Shard "pc_cache_shard_hits_total" "cache.per_shard"
        "Cache hits per shard.";
    CacheShardMisses: Counter Shard "pc_cache_shard_misses_total" ""
        "Cache misses per shard.";
    Uptime: Gauge None "pc_uptime_seconds" "uptime_secs"
        "Engine uptime in seconds.";
}

impl Metric {
    /// This family's row of the declaration table.
    pub fn family(self) -> &'static Family {
        &FAMILIES[self as usize]
    }

    /// Registry slot of this family's first series.
    fn base(self) -> usize {
        LAYOUT.0[self as usize]
    }
}

/// Registry offset of each family's first series (scalar families index
/// the scalar array, histogram families the histogram array), plus the
/// two array lengths.
const LAYOUT: ([usize; FAMILIES.len()], usize, usize) = {
    let mut base = [0; FAMILIES.len()];
    let (mut scalars, mut hists) = (0, 0);
    let mut i = 0;
    while i < FAMILIES.len() {
        let len = FAMILIES[i].axis.width();
        if matches!(FAMILIES[i].ty, Type::Histogram) {
            base[i] = hists;
            hists += len;
        } else {
            base[i] = scalars;
            scalars += len;
        }
        i += 1;
    }
    (base, scalars, hists)
};
const SCALAR_SLOTS: usize = LAYOUT.1;
const HISTOGRAM_SLOTS: usize = LAYOUT.2;

/// Registry slot of one series.
fn slot<L: Label>(metric: Metric, label: L) -> usize {
    debug_assert_eq!(metric.family().axis, L::AXIS, "{metric:?}");
    metric.base() + label.index()
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The metrics registry: one per [`QueryEngine`](crate::engine::QueryEngine),
/// shared by the engine pipeline, the daemon accept loops and both
/// transports. All recording is relaxed-atomic; reading takes a
/// point-in-time [`MetricsReport`] via the engine.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    slow_log_micros: Option<u64>,
    scalars: [AtomicU64; SCALAR_SLOTS],
    hists: [Histogram; HISTOGRAM_SLOTS],
}

impl Telemetry {
    /// Creates a registry. With `enabled` false every recording call is a
    /// no-op (the "no-op recorder" the overhead bench compares against);
    /// `slow_log_micros` is the `serve --slow-ms` threshold.
    pub fn new(enabled: bool, slow_log_micros: Option<u64>) -> Self {
        Telemetry {
            enabled,
            slow_log_micros,
            scalars: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Whether recording is live (false for the no-op recorder).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a per-request stage stopwatch (no-op when disabled).
    pub fn pipeline_clock(&self) -> PipelineClock<'_> {
        PipelineClock {
            inner: self.enabled.then(|| (self, Instant::now())),
            collector: None,
        }
    }

    /// Like [`pipeline_clock`](Self::pipeline_clock), but also carrying
    /// the request's span collector (if any) so each stage mark doubles
    /// as a trace span. Stage spans require telemetry to be live — the
    /// disabled registry keeps the clock a true no-op.
    pub fn pipeline_clock_ctx(&self, ctx: &RequestCtx) -> PipelineClock<'_> {
        PipelineClock {
            inner: self.enabled.then(|| (self, Instant::now())),
            collector: if self.enabled {
                ctx.collector.clone()
            } else {
                None
            },
        }
    }

    /// Adds `delta` (negative to decrement a gauge) to one counter or
    /// gauge series.
    pub fn add(&self, metric: Metric, label: impl Label, delta: i64) {
        if self.enabled {
            self.scalars[slot(metric, label)].fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    /// Adds one to a counter or gauge series.
    pub fn inc(&self, metric: Metric, label: impl Label) {
        self.add(metric, label, 1);
    }

    /// Overwrites a gauge series (or a counter mirrored from a lifetime
    /// total kept elsewhere).
    pub fn set(&self, metric: Metric, label: impl Label, value: u64) {
        if self.enabled {
            self.scalars[slot(metric, label)].store(value, Ordering::Relaxed);
        }
    }

    /// Records one microsecond observation in a histogram series.
    pub fn observe(&self, metric: Metric, label: impl Label, micros: u64) {
        if self.enabled {
            self.hists[slot(metric, label)].record(micros);
        }
    }

    /// Books an accepted connection; it counts as active until the
    /// returned gauge drops.
    pub fn connection_opened(&self, transport: Transport) -> ConnectionGauge<'_> {
        self.inc(Metric::ConnectionsAccepted, transport);
        self.add(Metric::ConnectionsActive, transport, 1);
        ConnectionGauge(self, transport)
    }

    /// Whether a completed request is eligible for a structured
    /// `slow_request` log line: over the `--slow-ms` threshold, or an
    /// internal failure. Rate limiting is the emitter's job
    /// ([`crate::log::rate_limited`]).
    pub fn should_log(&self, outcome: Outcome, total_micros: u64) -> bool {
        self.enabled
            && (matches!(outcome, Outcome::Internal)
                || self
                    .slow_log_micros
                    .is_some_and(|threshold| total_micros >= threshold))
    }

    /// Snapshots the registry and fills in the families derived from it
    /// (whole-request duration, live sessions) or owned by the engine
    /// (cache counters, uptime).
    pub fn report(
        &self,
        cache: CacheStats,
        shards: Vec<ShardStats>,
        uptime_secs: u64,
    ) -> MetricsReport {
        let mut report = MetricsReport {
            scalars: self
                .scalars
                .iter()
                .map(|v| v.load(Ordering::Relaxed))
                .collect(),
            hists: self.hists.iter().map(Histogram::snapshot).collect(),
            shards,
        };
        let duration = HistogramSnapshot::merge(
            QueryKind::ALL.map(|kind| report.hist(Metric::RequestLatency, kind)),
        );
        let ended =
            report.get(Metric::SessionsDropped, ()) + report.get(Metric::SessionsExpired, ());
        for (metric, value) in [
            (Metric::BuildInfo, 1),
            (
                Metric::SessionsLive,
                report
                    .get(Metric::SessionsCreated, ())
                    .saturating_sub(ended),
            ),
            (Metric::RequestDurationP50, duration.quantile(0.50)),
            (Metric::RequestDurationP90, duration.quantile(0.90)),
            (Metric::RequestDurationP99, duration.quantile(0.99)),
            (Metric::CacheHits, cache.hits),
            (Metric::CacheMisses, cache.misses),
            (Metric::CacheEvictions, cache.evictions),
            (Metric::CacheEntries, cache.entries as u64),
            (Metric::Uptime, uptime_secs),
        ] {
            report.scalars[metric.base()] = value;
        }
        report.hists[slot(Metric::RequestDuration, ())] = duration;
        report
    }
}

/// Holds one connection in the active gauge. Dropping it decrements the
/// gauge on *every* exit of the handler, panics included, so chaos runs
/// cannot leak open-connection counts.
#[derive(Debug)]
pub struct ConnectionGauge<'t>(&'t Telemetry, Transport);

impl Drop for ConnectionGauge<'_> {
    fn drop(&mut self) {
        self.0.add(Metric::ConnectionsActive, self.1, -1);
    }
}

// ---------------------------------------------------------------------------
// Report + rendering
// ---------------------------------------------------------------------------

/// A point-in-time copy of every metric the daemon exposes, renderable as
/// structured JSON (`metrics` proto frame) or Prometheus text
/// (`GET /v1/metrics`).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    scalars: Vec<u64>,
    hists: Vec<HistogramSnapshot>,
    shards: Vec<ShardStats>,
}

impl MetricsReport {
    /// One counter or gauge series (gauges clamp negative transients to 0).
    pub fn get<L: Label>(&self, metric: Metric, label: L) -> u64 {
        debug_assert_eq!(metric.family().axis, L::AXIS, "{metric:?}");
        self.scalar_at(metric, label.index())
    }

    /// One histogram series.
    pub fn hist(&self, metric: Metric, label: impl Label) -> &HistogramSnapshot {
        &self.hists[slot(metric, label)]
    }

    /// Total requests across all kinds and outcomes.
    pub fn total_requests(&self) -> u64 {
        (0..Axis::KindOutcome.width())
            .map(|i| self.scalar_at(Metric::Requests, i))
            .sum()
    }

    fn scalar_at(&self, metric: Metric, i: usize) -> u64 {
        let raw = match metric {
            Metric::CacheShardHits => self.shards[i].hits,
            Metric::CacheShardMisses => self.shards[i].misses,
            _ => self.scalars[metric.base() + i],
        };
        match metric.family().ty {
            Type::Gauge => (raw as i64).max(0) as u64,
            _ => raw,
        }
    }

    fn series_len(&self, metric: Metric) -> usize {
        match metric.family().axis {
            Axis::Shard => self.shards.len(),
            axis => axis.width(),
        }
    }

    /// Structured JSON rendering, used by the `metrics` proto frame,
    /// `GET /v1/metrics?format=json` and `pathcover-cli metrics`: every
    /// family with a JSON path, placed at that path in table order.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj(vec![("requests_total", Json::num(self.total_requests()))]);
        for &metric in Metric::ALL {
            let family = metric.family();
            if family.axis == Axis::Shard {
                if let Some(path) = family.json_path(0) {
                    let per_shard = self.shards.iter().map(|s| {
                        Json::obj(vec![
                            ("hits", Json::num(s.hits)),
                            ("misses", Json::num(s.misses)),
                            ("evictions", Json::num(s.evictions)),
                            ("entries", Json::num(s.entries as u64)),
                        ])
                    });
                    insert_at(&mut root, &path, Json::Arr(per_shard.collect()));
                }
                continue;
            }
            for i in 0..family.axis.width() {
                let Some(path) = family.json_path(i) else {
                    break;
                };
                let value = match family.ty {
                    Type::Histogram => self.hists[metric.base() + i].summary_json(),
                    _ => Json::num(self.scalar_at(metric, i)),
                };
                insert_at(&mut root, &path, value);
            }
        }
        root
    }

    /// Prometheus text exposition (format 0.0.4) rendering, served by
    /// `GET /v1/metrics`: every family in table order. Histograms use
    /// cumulative `le` buckets over the power-of-two bounds plus `+Inf`;
    /// all latency units are microseconds (suffix `_us`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(48 * 1024);
        for &metric in Metric::ALL {
            let family = metric.family();
            let name = family.name;
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.ty.as_str());
            for i in 0..self.series_len(metric) {
                let labels: Vec<String> = family
                    .axis
                    .labels(i)
                    .iter()
                    .map(|(key, value)| format!("{key}=\"{value}\""))
                    .collect();
                let labels = labels.join(",");
                if family.ty == Type::Histogram {
                    let snap = &self.hists[metric.base() + i];
                    render_histogram(&mut out, name, &labels, snap);
                } else if labels.is_empty() {
                    let _ = writeln!(out, "{name} {}", self.scalar_at(metric, i));
                } else {
                    let _ = writeln!(out, "{name}{{{labels}}} {}", self.scalar_at(metric, i));
                }
            }
        }
        out
    }
}

/// Sets `path` inside a JSON object tree, creating intermediate objects
/// in first-insertion order.
fn insert_at(node: &mut Json, path: &[String], value: Json) {
    let (Json::Obj(fields), Some((key, rest))) = (node, path.split_first()) else {
        return;
    };
    let index = match fields.iter().position(|(k, _)| k == key) {
        Some(index) => index,
        None => {
            fields.push((key.clone(), Json::Obj(Vec::new())));
            fields.len() - 1
        }
    };
    if rest.is_empty() {
        fields[index].1 = value;
    } else {
        insert_at(&mut fields[index].1, rest, value);
    }
}

/// Renders one labelled histogram series in Prometheus exposition shape:
/// cumulative `_bucket{le=...}` lines over the power-of-two bounds, the
/// `+Inf` bucket, then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    let prefix = if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    };
    for (i, &bucket) in snap.buckets.iter().enumerate() {
        cumulative += bucket;
        let le = if i == HISTOGRAM_BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            Histogram::bucket_upper(i).to_string()
        };
        let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"{le}\"}} {cumulative}");
    }
    let suffix = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{suffix} {}", snap.sum);
    let _ = writeln!(out, "{name}_count{suffix} {}", snap.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Every power of two lands in its own bucket; one past it spills
        // into the next.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        for i in 1..31usize {
            let bound = 1u64 << i;
            assert_eq!(Histogram::bucket_index(bound), i, "value {bound}");
            assert_eq!(
                Histogram::bucket_index(bound + 1),
                i + 1,
                "value {}",
                bound + 1
            );
            assert_eq!(Histogram::bucket_upper(i), bound);
        }
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        h.record(1u64 << 30); // last finite bucket
        h.record((1u64 << 30) + 1); // first overflow value
        h.record(u64::MAX); // way past everything
        let snap = h.snapshot();
        assert_eq!(snap.buckets[30], 1);
        assert_eq!(snap.buckets[31], 2);
        assert_eq!(snap.count, 3);
        // The overflow quantile reports the open bound.
        assert_eq!(snap.quantile(0.99), u64::MAX);
    }

    #[test]
    fn quantiles_agree_with_a_sorted_vector_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for round in 0..8 {
            let h = Histogram::new();
            let size = 100 + round * 173;
            let mut values: Vec<u64> = (0..size)
                .map(|_| {
                    // Log-uniform spread so every bucket range gets traffic.
                    let exp = rng.gen_range(0..24u32);
                    rng.gen_range(0..(2u64 << exp))
                })
                .collect();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count, values.len() as u64);
            assert_eq!(snap.sum, values.iter().sum::<u64>());
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
                let oracle = values[rank - 1];
                // Bucketisation preserves order, so the histogram quantile
                // is exactly the upper bound of the oracle value's bucket.
                let expected = Histogram::bucket_upper(Histogram::bucket_index(oracle));
                assert_eq!(
                    snap.quantile(q),
                    expected,
                    "q={q} round={round} oracle={oracle}"
                );
            }
        }
    }

    #[test]
    fn concurrent_recording_keeps_exact_counts() {
        let h = std::sync::Arc::new(Histogram::new());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 20_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * PER_THREAD);
        assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(snap.sum, n * (n - 1) / 2);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(
            snap.summary_json().get("p99_us").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let tel = Telemetry::new(false, Some(0));
        tel.observe(Metric::StageLatency, Stage::Solve, 10);
        tel.inc(Metric::Requests, (QueryKind::Recognize, Outcome::Ok));
        tel.inc(Metric::ConnectionsAccepted, Transport::Http);
        tel.observe(Metric::SnapshotCheckpoint, (), 5);
        assert!(!tel.should_log(Outcome::Internal, u64::MAX));
        let report = tel.report(CacheStats::default(), Vec::new(), 0);
        assert_eq!(report.total_requests(), 0);
        assert_eq!(report.hist(Metric::StageLatency, Stage::Solve).count, 0);
        assert_eq!(report.get(Metric::ConnectionsAccepted, Transport::Http), 0);
    }

    #[test]
    fn slow_log_gate_honours_threshold() {
        let tel = Telemetry::new(true, Some(1_000));
        assert!(!tel.should_log(Outcome::Ok, 999));
        assert!(tel.should_log(Outcome::Ok, 1_000));
        // No threshold configured: only internal failures qualify.
        let quiet = Telemetry::new(true, None);
        assert!(!quiet.should_log(Outcome::Ok, u64::MAX));
        assert!(quiet.should_log(Outcome::Internal, 1));
    }

    #[test]
    fn trace_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let ctx = RequestCtx::generate();
            assert!(ctx.trace_id.starts_with("pc-"), "{}", ctx.trace_id);
            assert_eq!(ctx.trace_id.len(), 19, "{}", ctx.trace_id);
            assert!(seen.insert(ctx.trace_id));
        }
        assert_eq!(RequestCtx::with_trace("abc").trace_id, "abc");
    }

    #[test]
    fn prometheus_rendering_is_line_parseable() {
        let tel = Telemetry::new(true, None);
        tel.inc(Metric::Requests, (QueryKind::FullCover, Outcome::Ok));
        tel.observe(Metric::RequestLatency, QueryKind::FullCover, 300);
        tel.observe(Metric::OutcomeLatency, Outcome::Ok, 300);
        tel.observe(Metric::StageLatency, Stage::Solve, 120);
        tel.inc(Metric::ConnectionsAccepted, Transport::Framed);
        tel.inc(Metric::OversizeRejects, Transport::Http);
        tel.observe(Metric::SnapshotCheckpoint, (), 2_000);
        let report = tel.report(CacheStats::default(), Vec::new(), 7);
        let text = report.to_prometheus();
        let mut samples = 0usize;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            // `name{labels} value` or `name value`.
            let (series, value) = line.rsplit_once(' ').expect(line);
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in: {line}"
            );
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'), "{line}");
                }
            }
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "bad value in: {line}"
            );
            samples += 1;
        }
        assert!(samples > 100, "suspiciously few samples: {samples}");
        assert!(text.contains("pc_requests_total{kind=\"full_cover\",outcome=\"ok\"} 1\n"));
        assert!(text.contains("pc_stage_latency_us_count{stage=\"solve\"} 1\n"));
        assert!(text.contains("pc_connections_accepted_total{transport=\"framed\"} 1\n"));
        assert!(text.contains("pc_oversize_rejects_total{transport=\"http\"} 1\n"));
        assert!(text.contains("pc_accept_errors_total{transport=\"framed\"} 0\n"));
        assert!(text.contains("pc_rejected_overload_total 0\n"));
        assert!(text.contains("pc_deadline_exceeded_total 0\n"));
        assert!(text.contains("pc_inflight_requests 0\n"));
        assert!(text.contains("pc_uptime_seconds 7\n"));
        // Histogram buckets are cumulative and end at +Inf == count.
        assert!(text.contains("pc_stage_latency_us_bucket{stage=\"solve\",le=\"+Inf\"} 1\n"));
        assert_eq!(report.total_requests(), 1);
    }

    #[test]
    fn metrics_json_mirrors_the_registry() {
        let tel = Telemetry::new(true, None);
        tel.inc(Metric::Requests, (QueryKind::MinCoverSize, Outcome::Ok));
        tel.inc(
            Metric::Requests,
            (QueryKind::MinCoverSize, Outcome::Invalid),
        );
        tel.observe(Metric::StageLatency, Stage::Ingest, 5);
        let report = tel.report(CacheStats::default(), Vec::new(), 3);
        let json = report.to_json();
        assert_eq!(json.get("requests_total").and_then(Json::as_u64), Some(2));
        let kind = json
            .get("requests")
            .and_then(|r| r.get("min_cover_size"))
            .expect("kind row");
        assert_eq!(kind.get("ok").and_then(Json::as_u64), Some(1));
        assert_eq!(kind.get("invalid").and_then(Json::as_u64), Some(1));
        let ingest = json
            .get("stages")
            .and_then(|s| s.get("ingest"))
            .expect("stage row");
        assert_eq!(ingest.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("uptime_secs").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn resilience_counters_round_trip() {
        let tel = Telemetry::new(true, None);
        tel.inc(Metric::RejectedOverload, ());
        tel.inc(Metric::RejectedOverload, ());
        tel.inc(Metric::DeadlineExceeded, ());
        tel.inc(Metric::Inflight, ());
        tel.inc(Metric::AcceptErrors, Transport::Framed);
        for _ in 0..2 {
            tel.inc(Metric::SnapshotFailures, ());
            tel.inc(Metric::SnapshotConsecutiveFailures, ());
        }
        let report = tel.report(CacheStats::default(), Vec::new(), 0);
        assert_eq!(report.get(Metric::RejectedOverload, ()), 2);
        assert_eq!(report.get(Metric::DeadlineExceeded, ()), 1);
        assert_eq!(report.get(Metric::Inflight, ()), 1);
        assert_eq!(report.get(Metric::AcceptErrors, Transport::Framed), 1);
        assert_eq!(report.get(Metric::SnapshotConsecutiveFailures, ()), 2);
        assert_eq!(report.get(Metric::SnapshotFailures, ()), 2);
        // A success resets the streak but not the lifetime total.
        tel.observe(Metric::SnapshotCheckpoint, (), 10);
        tel.set(Metric::SnapshotConsecutiveFailures, (), 0);
        tel.add(Metric::Inflight, (), -1);
        let report = tel.report(CacheStats::default(), Vec::new(), 0);
        assert_eq!(report.get(Metric::SnapshotConsecutiveFailures, ()), 0);
        assert_eq!(report.get(Metric::SnapshotFailures, ()), 2);
        assert_eq!(report.get(Metric::Inflight, ()), 0);
        let json = report.to_json();
        let resilience = json.get("resilience").expect("resilience block");
        assert_eq!(
            resilience.get("rejected_overload").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            resilience.get("deadline_exceeded").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(resilience.get("inflight").and_then(Json::as_u64), Some(0));
        let framed = json
            .get("connections")
            .and_then(|c| c.get("framed"))
            .expect("framed row");
        assert_eq!(framed.get("accept_errors").and_then(Json::as_u64), Some(1));
        let snapshot = json.get("snapshot").expect("snapshot block");
        assert_eq!(
            snapshot.get("consecutive_failures").and_then(Json::as_u64),
            Some(0)
        );
        let text = report.to_prometheus();
        assert!(text.contains("pc_rejected_overload_total 2\n"));
        assert!(text.contains("pc_deadline_exceeded_total 1\n"));
        assert!(text.contains("pc_accept_errors_total{transport=\"framed\"} 1\n"));
        assert!(text.contains("pc_snapshot_consecutive_failures 0\n"));
    }

    #[test]
    fn deadline_expiry_is_observable_from_ctx() {
        let ctx = RequestCtx::generate();
        assert!(!ctx.deadline_expired());
        let ctx = ctx.with_deadline_ms(Some(0));
        assert!(ctx.deadline_expired());
        let ctx = RequestCtx::with_trace("t").with_deadline_ms(Some(60_000));
        assert!(!ctx.deadline_expired());
        assert!(ctx.with_deadline_ms(None).deadline.is_none());
    }

    #[test]
    fn label_indices_follow_all_order() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        for (i, outcome) in Outcome::ALL.into_iter().enumerate() {
            assert_eq!(outcome.index(), i);
        }
        for (i, transport) in Transport::ALL.into_iter().enumerate() {
            assert_eq!(transport.index(), i);
        }
        for (i, kind) in QueryKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!((QueryKind::Recognize, Outcome::Internal).index(), 19);
    }

    #[test]
    fn every_family_is_declared_once_and_documented_in_the_readme() {
        let readme = include_str!("../../../README.md");
        let mut seen = std::collections::HashSet::new();
        for &metric in Metric::ALL {
            let name = metric.family().name;
            assert!(seen.insert(name), "{name} declared twice");
            assert!(
                readme.contains(&format!("`{name}`")),
                "README's metrics table lacks `{name}`"
            );
        }
    }

    #[test]
    fn negative_gauge_transients_render_as_zero() {
        let tel = Telemetry::new(true, None);
        tel.add(Metric::ConnectionsActive, Transport::Http, -1);
        let report = tel.report(CacheStats::default(), Vec::new(), 0);
        assert_eq!(report.get(Metric::ConnectionsActive, Transport::Http), 0);
        assert!(report
            .to_prometheus()
            .contains("pc_connections_active{transport=\"http\"} 0\n"));
    }
}
