//! The in-process replay behind the per-layer metrics.
//!
//! Each replayed request is the exact wire bytes the load generator sends,
//! pushed through the program's public layer functions in pipeline order,
//! one timed span per call:
//!
//! `http::read_request` (or `proto::read_frame_raw`) → `Json::parse` →
//! `v2::parse_envelope` (or `QueryRequest::from_json` for v1 bodies) →
//! `ingest::parse` → `graph_fingerprint` / `canonical_key` →
//! `CotreeCache::lookup_graph` / `lookup_key` → `cograph::try_recognize` and
//! `CotreeCache::insert` on a miss → the solve (the `SolveEntry` scalars,
//! `path_cover`, or `pool_path_cover` under the engine's routing rule) →
//! `verify_path_cover` → `QueryResponse::to_json` → `http::write_response`
//! (or `proto::write_frame_v`) into a sink.
//!
//! The same request is then served whole by `QueryEngine::execute` on a
//! second engine that saw the same request sequence; the difference is the
//! engine's own time (`engine.self_us`). Session operations run through
//! `v2::execute_op`, the dispatcher both transports use.

use crate::net::{self, Handles};
use crate::trace::SpanRec;
use crate::workload::{Chunk, Request, Transport, Workload};
use cograph::try_recognize;
use pathcover::{hamiltonian_path, path_cover, pool_path_cover};
use pcgraph::{verify_path_cover, Graph, PathCover};
use pcservice::http::{self, HttpBody, HttpResponse};
use pcservice::json::Json;
use pcservice::model::{Answer, CacheStatus, GraphSpec, QueryRequest, QueryResponse, ResponseMeta};
use pcservice::telemetry::RequestCtx;
use pcservice::v2::{self, Op, Target};
use pcservice::{
    canonical_key, graph_fingerprint, ingest, proto, CotreeCache, EngineConfig, GraphFormat,
    Ingested, QueryEngine, QueryKind, ServiceError, DEFAULT_SHARDS,
};
use std::collections::BTreeMap;
use std::io::{self, Cursor};
use std::sync::Arc;
use std::time::Instant;

/// Layers timed inside the engine (their sum is subtracted from
/// `QueryEngine::execute` to get the engine's own time).
pub const ENGINE_LAYERS: [&str; 7] = [
    "ingest.parse",
    "cache.fingerprint",
    "cache.lookup",
    "cache.insert",
    "recognition.recognize",
    "pathcover.solve",
    "pcgraph.verify",
];

/// Accumulated per-layer time of a replay.
#[derive(Default)]
pub struct Replay {
    /// Layer → (calls, total µs).
    pub layers: BTreeMap<&'static str, (usize, f64)>,
    pub spans: Vec<SpanRec>,
    /// Request signature → (layer, µs) of its last replay, in call order.
    pub by_request: BTreeMap<String, Vec<(&'static str, f64)>>,
    pub engine_execute_us: Vec<f64>,
    pub engine_self_us: Vec<f64>,
    pub ingest_bytes: f64,
}

/// A request's identity across the live run and the replay.
pub fn signature(request: &Request) -> String {
    format!("{} {:?}", request.path, request.expect)
}

impl Replay {
    pub fn per_call_us(&self, layer: &str) -> Option<f64> {
        self.layers
            .get(layer)
            .filter(|(calls, _)| *calls > 0)
            .map(|(calls, total)| total / *calls as f64)
    }
}

/// Times `f` as one span of `layer` for request `id`.
struct Timer<'r> {
    replay: &'r mut Replay,
    epoch: Instant,
    id: u64,
    layers: Vec<(&'static str, f64)>,
}

impl Timer<'_> {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_secs_f64();
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed().as_secs_f64();
        let us = (end - start) * 1e6;
        let entry = self.replay.layers.entry(layer).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += us;
        self.replay.spans.push(SpanRec {
            name: layer,
            request: self.id,
            tid: 0,
            start,
            end,
        });
        self.layers.push((layer, us));
        out
    }

    /// Files this request's layer times under its signature; returns the
    /// time spent in the layers the engine runs.
    fn finish(self, request: &Request) -> f64 {
        let inner = self
            .layers
            .iter()
            .filter(|(layer, _)| ENGINE_LAYERS.contains(layer))
            .map(|(_, us)| us)
            .sum();
        self.replay
            .by_request
            .insert(signature(request), self.layers);
        inner
    }
}

/// The full wire bytes of a request (session handles substituted).
fn wire_bytes(request: &Request, transport: Transport, handles: &Handles) -> io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(request.body_len());
    for chunk in &request.chunks {
        match chunk {
            Chunk::Bytes(b) => body.extend_from_slice(b),
            Chunk::Handle(s) => body.extend_from_slice(handles.get(*s)?.as_bytes()),
        }
    }
    let mut out = net::request_head(transport, request.path, body.len()).into_bytes();
    out.extend_from_slice(&body);
    if transport == Transport::Framed {
        out.push(b'\n');
    }
    Ok(out)
}

fn spec_text(spec: &GraphSpec) -> Option<(&str, GraphFormat)> {
    match spec {
        GraphSpec::EdgeList(t) => Some((t, GraphFormat::EdgeList)),
        GraphSpec::Dimacs(t) => Some((t, GraphFormat::Dimacs)),
        GraphSpec::CotreeTerm(t) => Some((t, GraphFormat::CotreeTerm)),
        _ => None,
    }
}

pub struct Replayer {
    cache: CotreeCache,
    engine: QueryEngine,
    pool: Option<parpool::Pool>,
    threshold: usize,
    handles: Handles,
    epoch: Instant,
    pub replay: Replay,
}

impl Replayer {
    pub fn new(work: &Workload) -> Replayer {
        let config = EngineConfig::default();
        let threads = parpool::resolve_threads(None);
        Replayer {
            cache: CotreeCache::with_shards(config.cache_capacity, DEFAULT_SHARDS),
            pool: (threads >= 2).then(|| parpool::Pool::new(threads)),
            threshold: config.parallel_min_vertices,
            engine: QueryEngine::new(config),
            handles: Handles::new(work.sessions.len()),
            epoch: Instant::now(),
            replay: Replay::default(),
        }
    }

    /// Replays one request; `measured` marks it as part of the measured
    /// traffic (priming is replayed too, unmeasured, so caches match).
    pub fn run(
        &mut self,
        work: &Workload,
        request: &Request,
        id: u64,
        measured: bool,
    ) -> io::Result<()> {
        let bytes = wire_bytes(request, work.transport, &self.handles)?;
        let epoch = self.epoch;
        let mut t = Timer {
            replay: &mut self.replay,
            epoch,
            id,
            layers: Vec::new(),
        };
        let body: String = match work.transport {
            Transport::Http => {
                let req = t
                    .time("http.read", || {
                        http::read_request(&mut Cursor::new(&bytes), &mut io::sink())
                    })
                    .map_err(|e| io::Error::other(format!("read_request: {e:?}")))?
                    .ok_or_else(|| io::Error::other("empty request"))?;
                String::from_utf8(req.body).map_err(io::Error::other)?
            }
            Transport::Framed => {
                t.time("http.read", || {
                    proto::read_frame_raw(&mut Cursor::new(&bytes))
                })
                .map_err(|e| io::Error::other(format!("read_frame_raw: {e:?}")))?
                .1
            }
        };
        let json = t
            .time("json.decode", || Json::parse(&body))
            .map_err(io::Error::other)?;
        let v1 = request.path == "/v1/solve";
        let (kind, spec) = if v1 {
            let q = t
                .time("v2.envelope", || QueryRequest::from_json(&json))
                .map_err(|e| io::Error::other(e.to_string()))?;
            (q.kind, q.graph)
        } else {
            let op = t
                .time("v2.envelope", || v2::parse_envelope(&json))
                .map_err(|e| io::Error::other(e.to_string()))?;
            match op {
                Op::Solve {
                    target: Target::Inline(spec),
                    kind,
                    ..
                } => (kind, spec),
                other => {
                    let layers = std::mem::take(&mut t.layers);
                    return self.session_op(request, other, id, layers);
                }
            }
        };
        let (text, format) = spec_text(&spec).ok_or_else(|| io::Error::other("no inline graph"))?;
        let raw_len = text.len() as f64;
        let ingested = t
            .time("ingest.parse", || ingest::parse(text, format))
            .map_err(|e| io::Error::other(e.to_string()))?;
        t.replay.ingest_bytes += raw_len;
        let cache = &self.cache;
        let (entry, graph, status) = match ingested {
            Ingested::Graph(g) => {
                let g = Arc::new(g);
                let fp = t.time("cache.fingerprint", || graph_fingerprint(&g));
                match t.time("cache.lookup", || cache.lookup_graph(fp, &g)) {
                    Some(entry) => (Ok(entry), Some(g), CacheStatus::Hit),
                    None => match t.time("recognition.recognize", || try_recognize(&g)) {
                        Ok(tree) => {
                            let entry = t
                                .time("cache.insert", || cache.insert(Some((fp, g.clone())), tree));
                            (Ok(entry), Some(g), CacheStatus::Miss)
                        }
                        Err(e) => (
                            Err(ServiceError::from_recognition(e, g.num_vertices())),
                            None,
                            CacheStatus::Bypass,
                        ),
                    },
                }
            }
            Ingested::Cotree(tree) => {
                let key = t.time("cache.fingerprint", || canonical_key(&tree));
                match t.time("cache.lookup", || cache.lookup_key(key, &tree)) {
                    Some(entry) => (Ok(entry), None, CacheStatus::Hit),
                    None => {
                        let entry = t.time("cache.insert", || cache.insert(None, tree));
                        (Ok(entry), None, CacheStatus::Miss)
                    }
                }
            }
        };
        let outcome = match entry {
            Err(e) => Err(e),
            Ok(entry) => {
                let pool = &mut self.pool;
                let threshold = self.threshold;
                let answer = t.time("pathcover.solve", || match kind {
                    QueryKind::MinCoverSize => Answer::MinCoverSize {
                        size: entry.min_cover_size(),
                    },
                    QueryKind::HamiltonianCycle => Answer::HamiltonianCycle {
                        exists: entry.has_hamiltonian_cycle(),
                    },
                    QueryKind::HamiltonianPath => {
                        let exists = entry.has_hamiltonian_path();
                        let path = if exists {
                            hamiltonian_path(&entry.cotree)
                        } else {
                            None
                        };
                        Answer::HamiltonianPath { exists, path }
                    }
                    QueryKind::FullCover => {
                        // The engine's routing rule: large covers go to the
                        // pool when it has at least two threads.
                        let cover = match pool.as_mut() {
                            Some(p)
                                if threshold > 0 && entry.cotree.num_vertices() >= threshold =>
                            {
                                pool_path_cover(&entry.cotree, p)
                            }
                            _ => path_cover(&entry.cotree),
                        };
                        Answer::FullCover {
                            cover,
                            verified: true,
                        }
                    }
                    QueryKind::Recognize => {
                        let g = graph
                            .clone()
                            .unwrap_or_else(|| Arc::new(entry.cotree.to_graph()));
                        Answer::Recognized {
                            is_cograph: true,
                            vertices: g.num_vertices(),
                            edges: g.num_edges(),
                            cotree_nodes: entry.cotree.num_nodes(),
                            height: entry.cotree.height(),
                            term: pcservice::cotree_to_term(&entry.cotree),
                        }
                    }
                });
                let witness: Option<PathCover> = match &answer {
                    Answer::FullCover { cover, .. } => Some(cover.clone()),
                    Answer::HamiltonianPath {
                        path: Some(path), ..
                    } => Some(PathCover::from_paths(vec![path.clone()])),
                    _ => None,
                };
                if let Some(cover) = witness {
                    let valid = t.time("pcgraph.verify", || {
                        let g: Arc<Graph> = match &graph {
                            Some(g) => g.clone(),
                            None => Arc::new(entry.cotree.to_graph()),
                        };
                        verify_path_cover(&g, &cover).is_valid()
                    });
                    if !valid {
                        return Err(io::Error::other("replayed cover failed verification"));
                    }
                }
                Ok(answer)
            }
        };
        let response = QueryResponse {
            id: None,
            kind,
            outcome,
            meta: ResponseMeta {
                solve_micros: 0,
                total_micros: 0,
                cache: status,
                canonical_key: None,
                vertices: 0,
                trace_id: None,
            },
        };
        let reply = t.time("json.encode", || {
            if v1 {
                proto::response_reply(&response)
            } else {
                Json::obj(vec![
                    ("api_version", Json::num(2)),
                    ("op", Json::str("solve")),
                    ("ok", Json::Bool(true)),
                    ("result", response.to_json()),
                ])
            }
        });
        let mut sink: Vec<u8> = Vec::new();
        write_reply(&mut t, &mut sink, work.transport, reply, v1)?;
        let inner = t.finish(request);

        // The same request, served whole by the engine.
        let whole = QueryRequest::new(kind, spec);
        let started = Instant::now();
        let response = std::hint::black_box(self.engine.execute(&whole));
        let execute_us = started.elapsed().as_secs_f64() * 1e6;
        drop(response);
        if measured {
            self.replay.engine_execute_us.push(execute_us);
            self.replay.engine_self_us.push(execute_us - inner);
        }
        Ok(())
    }

    /// A session operation, after its read/decode/envelope `layers`.
    fn session_op(
        &mut self,
        request: &Request,
        op: Op,
        id: u64,
        layers: Vec<(&'static str, f64)>,
    ) -> io::Result<()> {
        let layer = match op {
            Op::SessionAddVertex { .. } => "session.mutate",
            Op::SessionQuery { .. } => "session.query",
            _ => "session.admin",
        };
        let epoch = self.epoch;
        let engine = &self.engine;
        let mut t = Timer {
            replay: &mut self.replay,
            epoch,
            id,
            layers,
        };
        let (result, _) = t.time(layer, || {
            v2::execute_op(engine, &op, &RequestCtx::generate())
        });
        if let (Some(sess), Ok(result)) = (request.expect.creates(), &result) {
            if let Some(handle) = result.get("handle").and_then(Json::as_str) {
                self.handles.set(sess, handle.to_string());
            }
        }
        let reply = t.time("json.encode", || match &result {
            Ok(r) => Json::obj(vec![("ok", Json::Bool(true)), ("result", r.clone())]),
            Err(e) => Json::obj(vec![("ok", Json::Bool(false)), ("error", e.wire_body())]),
        });
        let mut sink: Vec<u8> = Vec::new();
        write_reply(&mut t, &mut sink, Transport::Http, reply, false)?;
        t.finish(request);
        Ok(())
    }
}

fn write_reply(
    t: &mut Timer,
    sink: &mut Vec<u8>,
    transport: Transport,
    reply: Json,
    v1: bool,
) -> io::Result<()> {
    match transport {
        Transport::Http => {
            let response = HttpResponse {
                status: 200,
                reason: "OK",
                allow: None,
                deprecated: v1,
                retry_after_ms: None,
                body: HttpBody::Json(reply),
            };
            t.time("http.write", || http::write_response(sink, &response, true))
        }
        Transport::Framed => t.time("http.write", || proto::write_frame_v(sink, &reply, 2)),
    }
}
