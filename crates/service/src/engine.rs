//! The query engine: ingest → recognize → cache → solve → verify.
//!
//! [`QueryEngine::execute`] serves one request; [`QueryEngine::execute_batch`]
//! fans a slice of requests across a configurable pool of std threads. Jobs
//! are isolated two ways:
//!
//! * every error is typed ([`ServiceError`]) and confined to the job's
//!   response — a malformed input fails that job, never the batch;
//! * the solver runs under `catch_unwind`, so even a panic inside the
//!   algorithm stack is converted into [`ServiceError::JobPanicked`] for
//!   that job alone.
//!
//! Full covers and Hamiltonian witness paths come from the `O(n)`
//! Lin–Olariu–Pruesse solver ([`pathcover::sequential_path_cover`], the
//! paper's Lemma 2.3). The paper's parallel pipeline runs on the
//! work-stealing pool only when [`EngineConfig::parallel_min_vertices`] asks
//! for it (`--backend pool`).
//!
//! Every `FullCover` answer (and every Hamiltonian witness path) is checked
//! before it is returned. A request that arrived as a graph is checked with
//! [`pcgraph::verify_path_cover`] against that graph; one that arrived as a
//! cotree is checked on the cotree with [`Cotree::verify_path_cover`], which
//! answers each consecutive pair by an LCA query and never expands the
//! graph's edges. A failure is reported as
//! [`ServiceError::CoverVerificationFailed`] rather than silently passed on.

use crate::cache::{graph_fingerprint, CacheStats, Canonical, CotreeCache, SolveEntry};
use crate::error::ServiceError;
use crate::ingest::{self, GraphFormat, Ingested};
use crate::json::Json;
use crate::model::{
    Answer, CacheStatus, GraphSpec, QueryKind, QueryRequest, QueryResponse, ResponseMeta,
};
use crate::snapshot::{self, LoadOutcome, SaveReport, SnapshotError};
use crate::telemetry::{
    Metric, MetricsReport, Outcome, PipelineClock, RequestCtx, Stage, Telemetry,
};
use crate::trace::{FlightRecorder, Span, TraceConfig};
use cograph::{try_recognize, Cotree};
use parpool::Pool;
use pathcover::{hamiltonian_path, pool_path_cover, sequential_path_cover};
use pcgraph::{verify_path_cover, Graph, PathCover};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for [`QueryEngine::execute_batch`]; `0` means one per
    /// available CPU.
    pub threads: usize,
    /// Verify every returned cover / witness path against the graph.
    pub verify_covers: bool,
    /// Consult and fill the cotree cache.
    pub use_cache: bool,
    /// Maximum number of cotrees kept resident (split across the shards).
    pub cache_capacity: usize,
    /// Cotree cache shard count (rounded up to a power of two); `0` means
    /// [`crate::cache::DEFAULT_SHARDS`].
    pub cache_shards: usize,
    /// Record per-stage/request telemetry (see [`crate::telemetry`]);
    /// `false` installs a no-op recorder with zero timing calls.
    pub telemetry: bool,
    /// Emit a structured log line for requests slower than this many
    /// microseconds (`serve --slow-ms`); `None` logs only internal
    /// failures.
    pub slow_log_micros: Option<u64>,
    /// Worker threads of the work-stealing pool that runs the paper's
    /// parallel pipeline when [`Self::parallel_min_vertices`] routes a
    /// `FullCover` solve to it; `0` resolves to the machine's available
    /// parallelism.
    pub pool_threads: usize,
    /// Minimum vertex count before a `FullCover` solve moves from the
    /// sequential solver to the paper's pipeline on the work-stealing pool.
    /// `0`, the default, never uses the pool: the sequential solver is
    /// faster at every measured size. The pool only engages when at least
    /// two worker threads are available.
    pub parallel_min_vertices: usize,
    /// Admission cap on live daemon-resident session handles; creating a
    /// session past the cap fails with [`ServiceError::TooManySessions`].
    pub max_sessions: usize,
    /// Idle time after which an untouched session handle becomes eligible
    /// for the garbage sweep (run opportunistically on registry traffic).
    pub session_idle_ttl: std::time::Duration,
    /// Admission cap on concurrently executing work requests (solves,
    /// batches, session ops); `0` means unlimited. Past the cap,
    /// [`QueryEngine::try_admit`] fails with [`ServiceError::Overloaded`]
    /// instead of queueing, so overload turns into fast typed rejections
    /// rather than pile-up.
    pub max_inflight: usize,
    /// Flight-recorder configuration: per-request span capture and the
    /// tail-sampled trace ring served by `GET /v1/trace` and the `trace`
    /// verb (see [`crate::trace`]). [`TraceConfig::off`] removes every
    /// trace timestamp from the request hot path.
    pub trace: TraceConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            verify_covers: true,
            use_cache: true,
            cache_capacity: 1024,
            cache_shards: 0,
            telemetry: true,
            slow_log_micros: None,
            pool_threads: 0,
            parallel_min_vertices: 0,
            max_sessions: 256,
            session_idle_ttl: std::time::Duration::from_secs(600),
            max_inflight: 0,
            trace: TraceConfig::default(),
        }
    }
}

/// Backoff hint carried in [`ServiceError::Overloaded`] rejections issued
/// by the admission gate and per-connection budgets.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// A graph resolved to its cotree, ready to solve. Built by the resolve
/// path here and by [`crate::session`] from a resident session cotree.
pub(crate) struct Resolved {
    pub(crate) entry: Arc<SolveEntry>,
    /// The graph as ingested (kept for cover verification); absent when the
    /// request arrived as a cotree and no graph was materialised yet.
    pub(crate) graph: Option<Arc<Graph>>,
    pub(crate) cache: CacheStatus,
}

/// The batch's shared graph, parsed once; every job using it still performs
/// its own cache lookup so cache hits stay observable per response.
enum SharedPrep {
    Graph(Arc<Graph>),
    Cotree(Arc<cograph::Cotree>),
}

/// Snapshot persistence state of an engine, surfaced through the `stats`
/// frame and `GET /v1/stats` (see [`crate::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The snapshot file the engine saves to and was loaded from.
    pub path: PathBuf,
    /// Entries imported at startup (0 after a cold start).
    pub loaded_entries: usize,
    /// Unix time of the most recent successful save, `None` before the
    /// first checkpoint of this process.
    pub last_checkpoint_unix: Option<u64>,
}

/// The batched query engine.
pub struct QueryEngine {
    config: EngineConfig,
    cache: CotreeCache,
    started: Instant,
    snapshot: Mutex<Option<SnapshotMeta>>,
    telemetry: Telemetry,
    /// Lazily created work-stealing pool shared by the solves routed to it
    /// (`parallel_min_vertices > 0`); the mutex serialises them so one huge
    /// graph gets every core.
    pool: Mutex<Option<Pool>>,
    /// Daemon-resident session handles (see [`crate::session`]).
    pub(crate) sessions: crate::session::SessionRegistry,
    /// Work requests currently admitted (the admission-gate counter; the
    /// telemetry gauge mirrors it for export).
    inflight: AtomicUsize,
    /// The bounded, tail-sampled ring of finished request traces (see
    /// [`crate::trace`]); shared with the transports for export.
    recorder: FlightRecorder,
}

/// RAII permit for one admitted work request, handed out by
/// [`QueryEngine::try_admit`]. Dropping it releases the admission slot and
/// decrements the in-flight gauge, so a permit can never leak across a
/// panic or early return.
pub struct InflightGuard<'e> {
    engine: &'e QueryEngine,
}

impl std::fmt::Debug for InflightGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InflightGuard")
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.engine.inflight.fetch_sub(1, Ordering::Release);
        self.engine.telemetry.add(Metric::Inflight, (), -1);
    }
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::new(EngineConfig::default())
    }
}

impl QueryEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let shards = if config.cache_shards == 0 {
            crate::cache::DEFAULT_SHARDS
        } else {
            config.cache_shards
        };
        let cache = CotreeCache::with_shards(config.cache_capacity, shards);
        let telemetry = Telemetry::new(config.telemetry, config.slow_log_micros);
        // Publish the resolved pool size from startup so the pool gauges
        // are present (at their true value) before the first parallel
        // solve, not only after one.
        if config.parallel_min_vertices > 0 {
            let requested = match config.pool_threads {
                0 => None,
                t => Some(t),
            };
            let threads = parpool::resolve_threads(requested);
            if threads >= 2 {
                telemetry.set(Metric::PoolWorkers, (), threads as u64);
            }
        }
        let recorder = FlightRecorder::new(config.trace.clone());
        QueryEngine {
            config,
            cache,
            started: Instant::now(),
            snapshot: Mutex::new(None),
            telemetry,
            pool: Mutex::new(None),
            sessions: crate::session::SessionRegistry::new(),
            inflight: AtomicUsize::new(0),
            recorder,
        }
    }

    /// Tries to admit one work request under the `max_inflight` cap. On
    /// success the returned guard holds the slot until dropped; past the
    /// cap the request is shed with [`ServiceError::Overloaded`] carrying
    /// the [`DEFAULT_RETRY_AFTER_MS`] backoff hint. A cap of `0` admits
    /// everything (but still maintains the in-flight gauge).
    pub fn try_admit(&self) -> Result<InflightGuard<'_>, ServiceError> {
        let max = self.config.max_inflight;
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if max != 0 && current >= max {
                self.telemetry.inc(Metric::RejectedOverload, ());
                return Err(ServiceError::Overloaded {
                    retry_after_ms: DEFAULT_RETRY_AFTER_MS,
                });
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.telemetry.inc(Metric::Inflight, ());
                    return Ok(InflightGuard { engine: self });
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// The engine's telemetry registry (shared with the daemon's accept
    /// loops and transports).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's flight recorder (the trace store served by
    /// `GET /v1/trace`, the `trace` verb and the v2 `trace_*` ops).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Returns `ctx` with a span collector attached when the flight
    /// recorder is on and the context has none yet; otherwise a plain
    /// clone. Transports call this once at dispatch so pre-engine work
    /// (admission, session-lock waits) lands in the same trace as the
    /// pipeline stages.
    pub fn traced_ctx(&self, ctx: &RequestCtx) -> RequestCtx {
        if ctx.collector.is_some() || !self.recorder.enabled() {
            ctx.clone()
        } else {
            ctx.clone().with_collector(self.recorder.begin())
        }
    }

    /// A point-in-time copy of every metric: the telemetry registry plus
    /// the cache counters and uptime the engine owns.
    pub fn metrics_report(&self) -> MetricsReport {
        self.telemetry.report(
            self.cache_stats(),
            self.cache_shard_stats(),
            self.uptime_secs(),
        )
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Seconds since this engine was constructed (the daemon's uptime).
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Attaches snapshot persistence: loads `path` into the cache if it
    /// exists (quarantining it to `<path>.corrupt` on any verification
    /// failure — see [`crate::snapshot::load_or_quarantine`]) and remembers
    /// the path for [`QueryEngine::save_snapshot`].
    pub fn attach_snapshot(&self, path: impl Into<PathBuf>) -> LoadOutcome {
        let path = path.into();
        let outcome = snapshot::load_or_quarantine(&self.cache, &path);
        let loaded_entries = match &outcome {
            LoadOutcome::Warm(report) => report.entries,
            LoadOutcome::ColdStart
            | LoadOutcome::Unreadable(_)
            | LoadOutcome::Quarantined { .. } => 0,
        };
        *self.snapshot.lock().expect("snapshot state") = Some(SnapshotMeta {
            path,
            loaded_entries,
            last_checkpoint_unix: None,
        });
        outcome
    }

    /// Saves the cache to the attached snapshot path (atomic tmp + rename)
    /// and records the checkpoint time. Fails with
    /// [`SnapshotError::NotConfigured`] when no snapshot is attached.
    pub fn save_snapshot(&self) -> Result<SaveReport, SnapshotError> {
        let path = self
            .snapshot
            .lock()
            .expect("snapshot state")
            .as_ref()
            .map(|meta| meta.path.clone())
            .ok_or(SnapshotError::NotConfigured)?;
        let telemetry = &self.telemetry;
        let report = match snapshot::save(&self.cache, &path) {
            Ok(report) => report,
            Err(error) => {
                telemetry.inc(Metric::SnapshotFailures, ());
                telemetry.inc(Metric::SnapshotConsecutiveFailures, ());
                return Err(error);
            }
        };
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_secs();
        telemetry.observe(Metric::SnapshotCheckpoint, (), report.elapsed_micros);
        telemetry.set(Metric::SnapshotLastSuccess, (), now);
        telemetry.set(Metric::SnapshotConsecutiveFailures, (), 0);
        if let Some(meta) = self.snapshot.lock().expect("snapshot state").as_mut() {
            meta.last_checkpoint_unix = Some(now);
        }
        Ok(report)
    }

    /// The snapshot persistence state, when attached.
    pub fn snapshot_meta(&self) -> Option<SnapshotMeta> {
        self.snapshot.lock().expect("snapshot state").clone()
    }

    /// Aggregated snapshot of the cotree cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-shard snapshot of the cotree cache counters.
    pub fn cache_shard_stats(&self) -> Vec<crate::cache::ShardStats> {
        self.cache.shard_stats()
    }

    /// Serves one request (requests using [`GraphSpec::Shared`] fail with
    /// [`ServiceError::SharedGraphMissing`]; use a batch for those). A
    /// trace ID is synthesized; transports supply their own via
    /// [`QueryEngine::execute_ctx`].
    pub fn execute(&self, request: &QueryRequest) -> QueryResponse {
        self.execute_ctx(request, &RequestCtx::generate())
    }

    /// Serves one request under a caller-supplied [`RequestCtx`]; the
    /// context's trace ID is echoed in the response metadata and any slow
    /// log line.
    pub fn execute_ctx(&self, request: &QueryRequest, ctx: &RequestCtx) -> QueryResponse {
        self.guarded_execute(request, None, ctx)
    }

    /// Serves a batch: resolves the optional shared graph once, then fans
    /// the requests across the configured thread pool. The response order
    /// matches the request order.
    pub fn execute_batch(
        &self,
        shared: Option<&GraphSpec>,
        requests: &[QueryRequest],
    ) -> Vec<QueryResponse> {
        self.execute_batch_ctx(shared, requests, &RequestCtx::generate())
    }

    /// [`QueryEngine::execute_batch`] under a caller-supplied
    /// [`RequestCtx`]: every job in the batch shares the one trace ID.
    pub fn execute_batch_ctx(
        &self,
        shared: Option<&GraphSpec>,
        requests: &[QueryRequest],
        ctx: &RequestCtx,
    ) -> Vec<QueryResponse> {
        let shared_resolved = shared.map(|spec| self.prepare_shared(spec));
        let threads = self.effective_threads(requests.len());
        if threads <= 1 {
            return requests
                .iter()
                .map(|r| self.guarded_execute(r, shared_resolved.as_ref(), ctx))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<QueryResponse>> =
            requests.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    let response =
                        self.guarded_execute(&requests[i], shared_resolved.as_ref(), ctx);
                    slots[i].set(response).expect("each slot is written once");
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot filled"))
            .collect()
    }

    fn effective_threads(&self, jobs: usize) -> usize {
        let hw = if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        hw.min(jobs.max(1))
    }

    /// Runs one job with panic containment.
    fn guarded_execute(
        &self,
        request: &QueryRequest,
        shared: Option<&Result<SharedPrep, ServiceError>>,
        ctx: &RequestCtx,
    ) -> QueryResponse {
        // Attach a span collector here (not in the transports) so direct
        // library callers and every batch job get traced too. A context
        // that already carries one — dispatched by a transport, so the
        // trace includes admission and lock waits — is kept as-is.
        let traced;
        let ctx = if ctx.collector.is_none() && self.recorder.enabled() {
            traced = self.traced_ctx(ctx);
            &traced
        } else {
            ctx
        };
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            self.execute_inner(request, shared, ctx)
        })) {
            Ok(response) => response,
            Err(payload) => {
                let total_micros = started.elapsed().as_micros() as u64;
                let response = QueryResponse {
                    id: request.id.clone(),
                    kind: request.kind,
                    outcome: Err(ServiceError::JobPanicked(panic_message(payload))),
                    meta: ResponseMeta {
                        solve_micros: 0,
                        total_micros,
                        cache: CacheStatus::Bypass,
                        canonical_key: None,
                        vertices: 0,
                        trace_id: Some(ctx.trace_id.clone()),
                    },
                };
                self.finish_request(&response, ctx);
                response
            }
        }
    }

    fn execute_inner(
        &self,
        request: &QueryRequest,
        shared: Option<&Result<SharedPrep, ServiceError>>,
        ctx: &RequestCtx,
    ) -> QueryResponse {
        let started = Instant::now();
        let mut clock = self.telemetry.pipeline_clock_ctx(ctx);
        // Deadlines are checked cooperatively at stage boundaries: before
        // ingest/recognition and again before the solve, so an
        // already-expired request never starts the expensive work.
        let resolved = if ctx.deadline_expired() {
            Err(ServiceError::DeadlineExceeded)
        } else {
            self.resolve_request(&request.graph, shared, &mut clock)
        };
        let (outcome, meta) = match resolved {
            Err(error) => (
                Err(error),
                ResponseMeta {
                    solve_micros: 0,
                    total_micros: 0,
                    cache: CacheStatus::Bypass,
                    canonical_key: None,
                    vertices: 0,
                    trace_id: Some(ctx.trace_id.clone()),
                },
            ),
            Ok(resolved) => {
                let solve_started = Instant::now();
                let outcome = if ctx.deadline_expired() {
                    Err(ServiceError::DeadlineExceeded)
                } else {
                    self.solve(request.kind, &resolved, &mut clock)
                };
                (
                    outcome,
                    ResponseMeta {
                        solve_micros: solve_started.elapsed().as_micros() as u64,
                        total_micros: 0,
                        cache: resolved.cache,
                        canonical_key: Some(resolved.entry.key),
                        vertices: resolved.entry.cotree.num_vertices(),
                        trace_id: Some(ctx.trace_id.clone()),
                    },
                )
            }
        };
        let mut meta = meta;
        meta.total_micros = started.elapsed().as_micros() as u64;
        let response = QueryResponse {
            id: request.id.clone(),
            kind: request.kind,
            outcome,
            meta,
        };
        self.finish_request(&response, ctx);
        response
    }

    /// Books a completed request into the registry and emits the
    /// structured slow-request/error log line when warranted.
    pub(crate) fn finish_request(&self, response: &QueryResponse, ctx: &RequestCtx) {
        let outcome = match &response.outcome {
            Ok(_) => Outcome::Ok,
            Err(error) => Outcome::from_error_code(error.code()),
        };
        let telemetry = &self.telemetry;
        if matches!(response.outcome, Err(ServiceError::DeadlineExceeded)) {
            telemetry.inc(Metric::DeadlineExceeded, ());
        }
        let total = response.meta.total_micros;
        telemetry.inc(Metric::Requests, (response.kind, outcome));
        telemetry.observe(Metric::RequestLatency, response.kind, total);
        telemetry.observe(Metric::OutcomeLatency, outcome, total);
        if telemetry.should_log(outcome, total) {
            crate::log::rate_limited(
                crate::log::Level::Warn,
                "slow_request",
                Some(&ctx.trace_id),
                &[
                    ("kind", Json::str(response.kind.as_str())),
                    ("outcome", Json::str(outcome.as_str())),
                    ("total_us", Json::num(total)),
                    ("cache", Json::str(response.meta.cache.as_str())),
                    ("vertices", Json::num(response.meta.vertices as u64)),
                ],
            );
        }
        if let Some(collector) = &ctx.collector {
            let outcome_code = match &response.outcome {
                Ok(_) => "ok",
                Err(error) => error.code(),
            };
            // Errored, shed and deadline-exceeded requests are exactly the
            // traces an operator goes looking for — tail sampling must
            // never drop them.
            let protected = matches!(
                response.outcome,
                Err(ServiceError::DeadlineExceeded) | Err(ServiceError::Overloaded { .. })
            ) || matches!(outcome, Outcome::Internal);
            self.recorder.commit(
                &ctx.trace_id,
                response.kind.as_str(),
                outcome_code,
                total,
                protected,
                collector.take(),
            );
        }
    }

    fn resolve_request(
        &self,
        spec: &GraphSpec,
        shared: Option<&Result<SharedPrep, ServiceError>>,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        match spec {
            GraphSpec::Shared => match shared {
                Some(Ok(prep)) => self.resolve_prepared(prep, clock),
                Some(Err(error)) => Err(error.clone()),
                None => Err(ServiceError::SharedGraphMissing),
            },
            other => self.resolve_spec(other, clock),
        }
    }

    /// Parses the batch's shared graph once; jobs resolve it per query via
    /// [`QueryEngine::resolve_prepared`] so their cache metadata is real.
    /// The one-off parse is booked as an ingest segment of its own.
    fn prepare_shared(&self, spec: &GraphSpec) -> Result<SharedPrep, ServiceError> {
        let mut clock = self.telemetry.pipeline_clock();
        let prep = match spec {
            GraphSpec::Shared => return Err(ServiceError::SharedGraphMissing),
            GraphSpec::EdgeList(text) => ingested_prep(ingest::parse(text, GraphFormat::EdgeList)?),
            GraphSpec::Dimacs(text) => ingested_prep(ingest::parse(text, GraphFormat::Dimacs)?),
            GraphSpec::CotreeTerm(text) => {
                ingested_prep(ingest::parse(text, GraphFormat::CotreeTerm)?)
            }
            GraphSpec::Graph(g) => SharedPrep::Graph(Arc::new(g.clone())),
            GraphSpec::Cotree(t) => SharedPrep::Cotree(Arc::new(t.clone())),
        };
        clock.mark(Stage::Ingest);
        Ok(prep)
    }

    fn resolve_prepared(
        &self,
        prep: &SharedPrep,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        match prep {
            SharedPrep::Graph(g) => self.resolve_graph(g.clone(), clock),
            SharedPrep::Cotree(t) => self.resolve_cotree(t, clock),
        }
    }

    fn resolve_spec(
        &self,
        spec: &GraphSpec,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        let ingested = match spec {
            GraphSpec::Shared => return Err(ServiceError::SharedGraphMissing),
            GraphSpec::EdgeList(text) => ingest::parse(text, GraphFormat::EdgeList)?,
            GraphSpec::Dimacs(text) => ingest::parse(text, GraphFormat::Dimacs)?,
            GraphSpec::CotreeTerm(text) => ingest::parse(text, GraphFormat::CotreeTerm)?,
            GraphSpec::Graph(g) => return self.resolve_graph(Arc::new(g.clone()), clock),
            GraphSpec::Cotree(t) => return self.resolve_cotree(t, clock),
        };
        clock.mark(Stage::Ingest);
        match ingested {
            Ingested::Graph(g) => self.resolve_graph(Arc::new(g), clock),
            Ingested::Cotree(t) => self.resolve_cotree(&t, clock),
        }
    }

    fn resolve_graph(
        &self,
        graph: Arc<Graph>,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        if graph.num_vertices() == 0 {
            return Err(ServiceError::EmptyGraph);
        }
        if !self.config.use_cache {
            let cotree = recognize_certified(&graph);
            clock.mark(Stage::Recognize);
            let cotree = cotree?;
            return Ok(Resolved {
                entry: Arc::new(SolveEntry::new(cotree)),
                graph: Some(graph),
                cache: CacheStatus::Bypass,
            });
        }
        let fingerprint = graph_fingerprint(&graph);
        let lookup_started = clock.collector().map(|c| c.elapsed_us());
        if let Some(entry) = self.cache.lookup_graph(fingerprint, &graph) {
            self.cache_lookup_span(clock, lookup_started, fingerprint, "hit");
            clock.mark(Stage::CacheLookup);
            return Ok(Resolved {
                entry,
                graph: Some(graph),
                cache: CacheStatus::Hit,
            });
        }
        self.cache_lookup_span(clock, lookup_started, fingerprint, "miss");
        clock.mark(Stage::CacheLookup);
        let cotree = recognize_certified(&graph);
        clock.mark(Stage::Recognize);
        let cotree = cotree?;
        let entry = self
            .cache
            .insert(Some((fingerprint, graph.clone())), cotree);
        clock.mark(Stage::CacheLookup);
        Ok(Resolved {
            entry,
            graph: Some(graph),
            cache: CacheStatus::Miss,
        })
    }

    fn resolve_cotree(
        &self,
        cotree: &cograph::Cotree,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Resolved, ServiceError> {
        if !self.config.use_cache {
            return Ok(Resolved {
                entry: Arc::new(SolveEntry::new(cotree.clone())),
                graph: None,
                cache: CacheStatus::Bypass,
            });
        }
        // One pass yields the key and the serialisation that confirms a
        // hit, or that the new entry keeps on a miss.
        let canonical = Canonical::of(cotree);
        let key = canonical.key;
        let lookup_started = clock.collector().map(|c| c.elapsed_us());
        if let Some(entry) = self.cache.lookup_canonical(&canonical) {
            self.cache_lookup_span(clock, lookup_started, key, "hit");
            clock.mark(Stage::CacheLookup);
            return Ok(Resolved {
                entry,
                graph: None,
                cache: CacheStatus::Hit,
            });
        }
        self.cache_lookup_span(clock, lookup_started, key, "miss");
        let entry = self.cache.insert_entry(
            None,
            Arc::new(SolveEntry::canonical(cotree.clone(), canonical)),
        );
        clock.mark(Stage::CacheLookup);
        Ok(Resolved {
            entry,
            graph: None,
            cache: CacheStatus::Miss,
        })
    }

    pub(crate) fn solve(
        &self,
        kind: QueryKind,
        resolved: &Resolved,
        clock: &mut PipelineClock<'_>,
    ) -> Result<Answer, ServiceError> {
        let entry = &resolved.entry;
        match kind {
            QueryKind::MinCoverSize => {
                let size = entry.min_cover_size();
                clock.mark(Stage::Solve);
                Ok(Answer::MinCoverSize { size })
            }
            QueryKind::FullCover => {
                let cover = self.solve_cover(&entry.cotree, clock);
                clock.mark(Stage::Solve);
                let verified = self.verify(resolved, &cover)?;
                clock.mark(Stage::Verify);
                Ok(Answer::FullCover { cover, verified })
            }
            QueryKind::HamiltonianPath => {
                let exists = entry.has_hamiltonian_path();
                let path = if exists {
                    hamiltonian_path(&entry.cotree)
                } else {
                    None
                };
                clock.mark(Stage::Solve);
                if let Some(path) = &path {
                    self.verify(resolved, &PathCover::from_paths(vec![path.clone()]))?;
                    clock.mark(Stage::Verify);
                }
                Ok(Answer::HamiltonianPath { exists, path })
            }
            QueryKind::HamiltonianCycle => {
                let exists = entry.has_hamiltonian_cycle();
                clock.mark(Stage::Solve);
                Ok(Answer::HamiltonianCycle { exists })
            }
            QueryKind::Recognize => {
                // A cotree input is never expanded: its edges are counted
                // on the tree.
                let edges = match &resolved.graph {
                    Some(graph) => graph.num_edges(),
                    None => entry.cotree.num_edges(),
                };
                let answer = Answer::Recognized {
                    is_cograph: true,
                    vertices: entry.cotree.num_vertices(),
                    edges,
                    cotree_nodes: entry.cotree.num_nodes(),
                    height: entry.cotree.height(),
                    term: ingest::cotree_to_term(&entry.cotree),
                };
                clock.mark(Stage::Solve);
                Ok(answer)
            }
        }
    }

    /// Annotates the request trace with one `cache:lookup` span naming the
    /// shard the key hashed into and whether it hit. No-op when the
    /// request is untraced.
    fn cache_lookup_span(
        &self,
        clock: &PipelineClock<'_>,
        start_us: Option<u64>,
        hash: u64,
        result: &str,
    ) {
        if let (Some(collector), Some(start_us)) = (clock.collector(), start_us) {
            let end = collector.elapsed_us();
            collector.push(
                Span::new("cache:lookup", start_us, end.saturating_sub(start_us))
                    .with_detail("shard", self.cache.shard_index(hash).to_string())
                    .with_detail("result", result),
            );
        }
    }

    /// Solves one cover with the sequential solver, or with the paper's
    /// pipeline on the work-stealing pool when `parallel_min_vertices` is
    /// set, the graph reaches it and at least two worker threads are
    /// available. The pool is created on first use and reused for the life
    /// of the engine; its cumulative statistics are published to the
    /// telemetry registry after every parallel solve.
    fn solve_cover(&self, cotree: &Cotree, clock: &PipelineClock<'_>) -> PathCover {
        let threshold = self.config.parallel_min_vertices;
        if threshold > 0 && cotree.num_vertices() >= threshold {
            let requested = match self.config.pool_threads {
                0 => None,
                t => Some(t),
            };
            let threads = parpool::resolve_threads(requested);
            if threads >= 2 {
                let mut guard = self.pool.lock().unwrap_or_else(|e| e.into_inner());
                let pool = guard.get_or_insert_with(|| Pool::new(threads));
                // For traced requests, have the pool keep per-round records
                // (timestamped against its own epoch started here, so the
                // records rebase onto the request clock with one offset).
                let trace_base = clock.collector().map(|c| c.elapsed_us());
                if trace_base.is_some() {
                    pool.enable_round_records();
                }
                let cover = pool_path_cover(cotree, pool);
                if let (Some(collector), Some(base)) = (clock.collector(), trace_base) {
                    let batch: Vec<Span> = pool
                        .take_round_records()
                        .iter()
                        .map(|r| {
                            Span::new("pool:round", base + r.start_us, r.dur_us)
                                .with_detail("round", r.round.to_string())
                                .with_detail("chunks", r.chunks.to_string())
                                .with_detail("steals", r.steals.to_string())
                                .with_detail("barrier_wait_us", r.barrier_wait_us.to_string())
                        })
                        .collect();
                    collector.push_all(batch);
                }
                let stats = pool.stats();
                // The pool's counters are lifetime totals, so the latest
                // snapshot replaces the previous one.
                let telemetry = &self.telemetry;
                telemetry.inc(Metric::PoolSolves, ());
                for (metric, value) in [
                    (Metric::PoolWorkers, stats.workers as u64),
                    (Metric::PoolRounds, stats.rounds),
                    (Metric::PoolSteals, stats.steals),
                    (Metric::PoolBarrierWaits, stats.barrier_waits),
                    (Metric::PoolBarrierWaitP50, stats.barrier_wait_p50_micros),
                    (Metric::PoolBarrierWaitP99, stats.barrier_wait_p99_micros),
                ] {
                    telemetry.set(metric, (), value);
                }
                return cover;
            }
        }
        sequential_path_cover(cotree)
    }

    /// Checks a cover against the ingested graph when there is one, and on
    /// the cotree otherwise.
    fn verify(&self, resolved: &Resolved, cover: &PathCover) -> Result<bool, ServiceError> {
        if !self.config.verify_covers {
            return Ok(false);
        }
        let report = match &resolved.graph {
            Some(graph) => verify_path_cover(graph, cover),
            None => resolved.entry.cotree.verify_path_cover(cover),
        };
        if report.is_valid() {
            Ok(true)
        } else {
            Err(ServiceError::CoverVerificationFailed(format!(
                "missing={:?} duplicated={:?} non_edges={:?} out_of_range={:?}",
                report.missing, report.duplicated, report.non_edges, report.out_of_range
            )))
        }
    }
}

/// Runs the linear-time recogniser, lifting its typed rejection — including
/// the induced-`P_4` certificate — into the service taxonomy.
fn recognize_certified(graph: &Graph) -> Result<Cotree, ServiceError> {
    try_recognize(graph).map_err(|e| ServiceError::from_recognition(e, graph.num_vertices()))
}

fn ingested_prep(ingested: Ingested) -> SharedPrep {
    match ingested {
        Ingested::Graph(g) => SharedPrep::Graph(Arc::new(g)),
        Ingested::Cotree(t) => SharedPrep::Cotree(Arc::new(t)),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> QueryEngine {
        QueryEngine::default()
    }

    #[test]
    fn full_cover_on_edge_list_is_verified() {
        let e = engine();
        let req = QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::EdgeList("0 1\n1 2\n0 2\n3\n".to_string()),
        );
        let resp = e.execute(&req);
        match resp.outcome.expect("triangle plus isolate is a cograph") {
            Answer::FullCover { cover, verified } => {
                assert!(verified);
                assert_eq!(cover.len(), 2); // triangle path + isolated vertex
            }
            other => panic!("wrong answer variant: {other:?}"),
        }
        assert_eq!(resp.meta.cache, CacheStatus::Miss);
        assert_eq!(resp.meta.vertices, 4);
        assert!(resp.meta.canonical_key.is_some());
    }

    #[test]
    fn repeated_graph_hits_the_cache() {
        let e = engine();
        let spec = GraphSpec::EdgeList("0 1\n1 2\n0 2\n".to_string());
        let first = e.execute(&QueryRequest::new(QueryKind::MinCoverSize, spec.clone()));
        let second = e.execute(&QueryRequest::new(QueryKind::HamiltonianPath, spec));
        assert_eq!(first.meta.cache, CacheStatus::Miss);
        assert_eq!(second.meta.cache, CacheStatus::Hit);
        assert_eq!(first.meta.canonical_key, second.meta.canonical_key);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn p4_is_reported_not_a_cograph_with_witness() {
        let e = engine();
        let req = QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::EdgeList("0 1\n1 2\n2 3\n".to_string()),
        );
        let resp = e.execute(&req);
        let Err(ServiceError::NotACograph { vertices, witness }) = resp.outcome else {
            panic!("expected a certified rejection, got {:?}", resp.outcome);
        };
        assert_eq!(vertices, 4);
        // The witness is an induced P4 of the input path 0-1-2-3: it must
        // be that path, in one of the two directions.
        assert!(
            witness == [0, 1, 2, 3] || witness == [3, 2, 1, 0],
            "unexpected witness {witness:?}"
        );
    }

    #[test]
    fn bad_input_fails_only_its_own_job() {
        let e = engine();
        let requests = vec![
            QueryRequest::new(
                QueryKind::MinCoverSize,
                GraphSpec::EdgeList("0 x".to_string()),
            )
            .with_id("bad"),
            QueryRequest::new(
                QueryKind::MinCoverSize,
                GraphSpec::CotreeTerm("(j a b)".to_string()),
            )
            .with_id("good"),
        ];
        let responses = e.execute_batch(None, &requests);
        assert_eq!(responses.len(), 2);
        assert!(responses[0].outcome.is_err());
        assert_eq!(
            responses[1].outcome,
            Ok(Answer::MinCoverSize { size: 1 }),
            "the malformed job must not poison its neighbour"
        );
        assert_eq!(responses[0].id.as_deref(), Some("bad"));
        assert_eq!(responses[1].id.as_deref(), Some("good"));
    }

    #[test]
    fn shared_graph_requests_need_a_shared_graph() {
        let e = engine();
        let req = QueryRequest::new(QueryKind::Recognize, GraphSpec::Shared);
        assert_eq!(
            e.execute(&req).outcome,
            Err(ServiceError::SharedGraphMissing)
        );
        let shared = GraphSpec::EdgeList("0 1\n".to_string());
        let responses = e.execute_batch(Some(&shared), std::slice::from_ref(&req));
        match responses[0].outcome.as_ref().expect("edge is a cograph") {
            Answer::Recognized {
                is_cograph,
                vertices,
                edges,
                ..
            } => {
                assert!(is_cograph);
                assert_eq!(*vertices, 2);
                assert_eq!(*edges, 1);
            }
            other => panic!("wrong answer variant: {other:?}"),
        }
    }

    #[test]
    fn hamiltonian_answers_are_consistent() {
        let e = engine();
        // K4: Hamiltonian path and cycle both exist.
        let k4 = GraphSpec::CotreeTerm("(j a b c d)".to_string());
        let path = e.execute(&QueryRequest::new(QueryKind::HamiltonianPath, k4.clone()));
        match path.outcome.expect("K4 solves") {
            Answer::HamiltonianPath { exists, path } => {
                assert!(exists);
                assert_eq!(path.expect("witness").len(), 4);
            }
            other => panic!("wrong answer variant: {other:?}"),
        }
        let cycle = e.execute(&QueryRequest::new(QueryKind::HamiltonianCycle, k4));
        assert_eq!(cycle.outcome, Ok(Answer::HamiltonianCycle { exists: true }));
        // Two disjoint vertices: neither exists.
        let e2 = e.execute(&QueryRequest::new(
            QueryKind::HamiltonianPath,
            GraphSpec::CotreeTerm("(u a b)".to_string()),
        ));
        assert_eq!(
            e2.outcome,
            Ok(Answer::HamiltonianPath {
                exists: false,
                path: None
            })
        );
    }

    #[test]
    fn dense_cotree_terms_are_answered_without_expanding_the_graph() {
        // A join of 8 unions of 8 cliques K64: n = 4096 and m = 28·512²
        // cross edges plus 64·C(64, 2) clique edges, about 7.5 million.
        let clique = |p: usize| {
            let leaves: Vec<String> = (0..64).map(|i| format!("v{p}_{i}")).collect();
            format!("(j {})", leaves.join(" "))
        };
        let part = |q: usize| {
            let cliques: Vec<String> = (0..8).map(|c| clique(q * 8 + c)).collect();
            format!("(u {})", cliques.join(" "))
        };
        let parts: Vec<String> = (0..8).map(part).collect();
        let term = GraphSpec::CotreeTerm(format!("(j {})", parts.join(" ")));
        let e = engine();
        let ask = |kind| e.execute(&QueryRequest::new(kind, term.clone())).outcome;
        match ask(QueryKind::Recognize).expect("a cotree term is a cograph") {
            Answer::Recognized {
                vertices, edges, ..
            } => assert_eq!((vertices, edges), (4096, 28 * 512 * 512 + 64 * 2016)),
            other => panic!("wrong answer variant: {other:?}"),
        }
        match ask(QueryKind::FullCover).expect("dense term solves") {
            Answer::FullCover { cover, verified } => {
                assert!(verified);
                assert_eq!(cover.len(), 1);
            }
            other => panic!("wrong answer variant: {other:?}"),
        }
        match ask(QueryKind::HamiltonianPath).expect("dense term solves") {
            Answer::HamiltonianPath { exists, path } => {
                assert!(exists);
                assert_eq!(path.expect("a verified witness").len(), 4096);
            }
            other => panic!("wrong answer variant: {other:?}"),
        }
    }

    #[test]
    fn cache_bypass_is_reported() {
        let config = EngineConfig {
            use_cache: false,
            ..EngineConfig::default()
        };
        let e = QueryEngine::new(config);
        let spec = GraphSpec::EdgeList("0 1\n".to_string());
        let r1 = e.execute(&QueryRequest::new(QueryKind::MinCoverSize, spec.clone()));
        let r2 = e.execute(&QueryRequest::new(QueryKind::MinCoverSize, spec));
        assert_eq!(r1.meta.cache, CacheStatus::Bypass);
        assert_eq!(r2.meta.cache, CacheStatus::Bypass);
    }

    #[test]
    fn admission_gate_sheds_over_cap_and_releases_on_drop() {
        let e = QueryEngine::new(EngineConfig {
            max_inflight: 2,
            ..EngineConfig::default()
        });
        let g1 = e.try_admit().expect("first slot");
        let _g2 = e.try_admit().expect("second slot");
        let rejected = e.try_admit().expect_err("cap reached");
        assert_eq!(rejected.code(), "overloaded");
        assert_eq!(
            rejected,
            ServiceError::Overloaded {
                retry_after_ms: DEFAULT_RETRY_AFTER_MS
            }
        );
        drop(g1);
        let _g3 = e.try_admit().expect("slot freed by drop");
        let report = e.metrics_report();
        assert_eq!(report.get(Metric::RejectedOverload, ()), 1);
        assert_eq!(report.get(Metric::Inflight, ()), 2);
    }

    #[test]
    fn unlimited_gate_admits_everything_but_tracks_inflight() {
        let e = engine();
        let guards: Vec<_> = (0..64).map(|_| e.try_admit().expect("no cap")).collect();
        assert_eq!(e.metrics_report().get(Metric::Inflight, ()), 64);
        drop(guards);
        assert_eq!(e.metrics_report().get(Metric::Inflight, ()), 0);
        assert_eq!(e.metrics_report().get(Metric::RejectedOverload, ()), 0);
    }

    #[test]
    fn expired_deadline_short_circuits_the_pipeline() {
        let e = engine();
        let req = QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::EdgeList("0 1\n1 2\n0 2\n".to_string()),
        );
        let ctx = RequestCtx::generate().with_deadline_ms(Some(0));
        let resp = e.execute_ctx(&req, &ctx);
        assert_eq!(resp.outcome, Err(ServiceError::DeadlineExceeded));
        // The expired request never reached ingest: no cache traffic.
        assert_eq!(e.cache_stats().misses, 0);
        assert_eq!(e.metrics_report().get(Metric::DeadlineExceeded, ()), 1);
        // A generous deadline solves normally.
        let ctx = RequestCtx::generate().with_deadline_ms(Some(60_000));
        let resp = e.execute_ctx(&req, &ctx);
        assert!(resp.outcome.is_ok());
    }

    #[test]
    fn requests_leave_traces_with_stage_and_cache_spans() {
        let e = engine();
        let resp = e.execute(&QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::EdgeList("0 1\n1 2\n0 2\n".to_string()),
        ));
        assert!(resp.outcome.is_ok());
        let trace_id = resp.meta.trace_id.clone().expect("trace id echoed");
        let trace = e.recorder().get(&trace_id).expect("trace retained");
        assert_eq!(trace.outcome, "ok");
        assert_eq!(trace.kind, "full_cover");
        for name in [
            "stage:ingest",
            "stage:solve",
            "stage:verify",
            "cache:lookup",
        ] {
            assert!(
                trace.spans.iter().any(|s| s.name == name),
                "missing {name} span in {:?}",
                trace.spans
            );
        }
        let lookup = trace
            .spans
            .iter()
            .find(|s| s.name == "cache:lookup")
            .unwrap();
        assert!(lookup.detail.iter().any(|(k, _)| k == "shard"));
        assert!(lookup
            .detail
            .iter()
            .any(|(k, v)| k == "result" && v == "miss"));
    }

    #[test]
    fn failed_requests_commit_protected_traces() {
        let e = engine();
        let ctx = RequestCtx::generate().with_deadline_ms(Some(0));
        let resp = e.execute_ctx(
            &QueryRequest::new(
                QueryKind::MinCoverSize,
                GraphSpec::CotreeTerm("(j a b)".to_string()),
            ),
            &ctx,
        );
        assert_eq!(resp.outcome, Err(ServiceError::DeadlineExceeded));
        let trace = e.recorder().get(&ctx.trace_id).expect("trace retained");
        assert!(
            trace.protected,
            "deadline-exceeded traces must be protected"
        );
        assert_eq!(trace.outcome, "deadline_exceeded");
    }

    #[test]
    fn disabled_tracing_attaches_no_collector_and_retains_nothing() {
        let e = QueryEngine::new(EngineConfig {
            trace: TraceConfig::off(),
            ..EngineConfig::default()
        });
        let resp = e.execute(&QueryRequest::new(
            QueryKind::MinCoverSize,
            GraphSpec::CotreeTerm("(j a b)".to_string()),
        ));
        assert!(resp.outcome.is_ok());
        assert!(e.recorder().is_empty());
        assert!(!e.recorder().enabled());
    }

    #[test]
    fn pool_solves_leave_round_spans_in_the_trace() {
        let e = QueryEngine::new(EngineConfig {
            parallel_min_vertices: 4,
            pool_threads: 2,
            ..EngineConfig::default()
        });
        // A join of unions: big enough to clear the (lowered) pool
        // threshold deterministically.
        let leaves = |tag: &str| {
            (0..8)
                .map(|i| format!("{tag}{i}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let term = format!("(j (u {}) (u {}))", leaves("a"), leaves("b"));
        let resp = e.execute(&QueryRequest::new(
            QueryKind::FullCover,
            GraphSpec::CotreeTerm(term),
        ));
        assert!(resp.outcome.is_ok());
        let trace_id = resp.meta.trace_id.clone().expect("trace id echoed");
        let trace = e.recorder().get(&trace_id).expect("trace retained");
        let rounds: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "pool:round")
            .collect();
        assert!(
            !rounds.is_empty(),
            "pool-backed solve must leave pool:round spans; got {:?}",
            trace.spans
        );
        assert!(rounds
            .iter()
            .all(|s| s.detail.iter().any(|(k, _)| k == "round")));
        assert!(trace.spans.iter().any(|s| s.name == "stage:solve"));
    }

    #[test]
    fn batch_order_is_preserved_across_threads() {
        let e = QueryEngine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        let requests: Vec<QueryRequest> = (2..40u32)
            .map(|k| {
                // Complete graph K_k as a join of k leaves: min cover 1.
                let leaves = (0..k)
                    .map(|i| format!("v{i}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                QueryRequest::new(
                    QueryKind::MinCoverSize,
                    GraphSpec::CotreeTerm(format!("(j {leaves})")),
                )
                .with_id(format!("job-{k}"))
            })
            .collect();
        let responses = e.execute_batch(None, &requests);
        assert_eq!(responses.len(), requests.len());
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, requests[i].id, "response {i} out of order");
            assert_eq!(resp.outcome, Ok(Answer::MinCoverSize { size: 1 }));
        }
    }
}
