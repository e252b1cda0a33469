//! The request/response model of the query engine.
//!
//! A [`QueryRequest`] names a graph (inline text in one of the ingestion
//! formats, a programmatic object, or the batch-level shared graph) and one
//! of five [`QueryKind`]s. A [`QueryResponse`] carries the typed
//! [`Answer`] (or a [`ServiceError`]) plus [`ResponseMeta`]: solve and total
//! wall time, the cotree cache disposition and the canonical cotree key.
//!
//! Requests and responses both have JSON-lines encodings (see
//! [`QueryRequest::from_json_line`] / [`QueryResponse::to_json_line`]) used
//! by `pathcover-cli batch`.

use crate::error::ServiceError;
use crate::json::Json;
use cograph::Cotree;
use pcgraph::{Graph, Path, PathCover};

/// The five query kinds the engine answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Only the minimum number of paths.
    MinCoverSize,
    /// The full minimum path cover, self-verified before it is returned.
    FullCover,
    /// Hamiltonian-path decision (plus a witness path when one exists).
    HamiltonianPath,
    /// Hamiltonian-cycle decision.
    HamiltonianCycle,
    /// Cograph recognition: is the graph a cograph, and what is its cotree?
    Recognize,
}

impl QueryKind {
    /// All kinds, for iteration in tests and benches.
    pub const ALL: [QueryKind; 5] = [
        QueryKind::MinCoverSize,
        QueryKind::FullCover,
        QueryKind::HamiltonianPath,
        QueryKind::HamiltonianCycle,
        QueryKind::Recognize,
    ];

    /// The snake_case wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryKind::MinCoverSize => "min_cover_size",
            QueryKind::FullCover => "full_cover",
            QueryKind::HamiltonianPath => "hamiltonian_path",
            QueryKind::HamiltonianCycle => "hamiltonian_cycle",
            QueryKind::Recognize => "recognize",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// Where a request's graph comes from.
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// Inline edge-list text.
    EdgeList(String),
    /// Inline DIMACS text.
    Dimacs(String),
    /// Inline cotree term notation.
    CotreeTerm(String),
    /// A programmatic graph object (library callers).
    Graph(Graph),
    /// A programmatic cotree object (library callers; skips recognition).
    Cotree(Cotree),
    /// The batch-level shared graph supplied next to the query file.
    Shared,
}

impl GraphSpec {
    /// Renders the spec as a wire object (`{"edge_list"|"dimacs"|"cotree":
    /// text}`), lowering programmatic graphs/cotrees to inline text.
    /// [`GraphSpec::Shared`] has no wire form and returns `None`.
    ///
    /// Both programmatic variants lower to *edge-list* text: vertex ids
    /// survive it exactly. Term notation cannot carry a [`GraphSpec::Cotree`]
    /// faithfully — the term parser assigns leaf ids by order of first
    /// appearance, not by printed label, so any cotree whose leaf labels are
    /// not already in appearance order would be silently relabelled. The
    /// server re-recognises the graph instead; only the labelled graph (and
    /// therefore every answer) is contractual, not the cotree's shape.
    pub fn to_json(&self) -> Option<Json> {
        let (field, text) = match self {
            GraphSpec::EdgeList(text) => ("edge_list", text.clone()),
            GraphSpec::Dimacs(text) => ("dimacs", text.clone()),
            GraphSpec::CotreeTerm(text) => ("cotree", text.clone()),
            GraphSpec::Graph(g) => ("edge_list", graph_to_edge_list(g)),
            GraphSpec::Cotree(t) => ("edge_list", graph_to_edge_list(&t.to_graph())),
            GraphSpec::Shared => return None,
        };
        Some(Json::obj(vec![(field, Json::str(text))]))
    }

    /// Parses a wire object produced by [`GraphSpec::to_json`].
    pub fn from_json(value: &Json) -> Result<GraphSpec, ServiceError> {
        GraphSpec::from_json_fields(value)?.ok_or_else(|| {
            ServiceError::BadRequest(
                "graph spec needs one of 'edge_list'/'dimacs'/'cotree'".to_string(),
            )
        })
    }

    /// Scans an object for the inline graph fields (`edge_list` / `dimacs`
    /// / `cotree`). `Ok(None)` when none is present; an error when more
    /// than one is, or one is not a string. This is the single place the
    /// wire field names live — [`GraphSpec::from_json`] and
    /// [`QueryRequest::from_json`] both delegate here.
    pub fn from_json_fields(value: &Json) -> Result<Option<GraphSpec>, ServiceError> {
        let mut graph: Option<GraphSpec> = None;
        for (field, make) in [
            ("edge_list", GraphSpec::EdgeList as fn(String) -> GraphSpec),
            ("dimacs", GraphSpec::Dimacs as fn(String) -> GraphSpec),
            ("cotree", GraphSpec::CotreeTerm as fn(String) -> GraphSpec),
        ] {
            if let Some(text) = value.get(field) {
                let text = text.as_str().ok_or_else(|| {
                    ServiceError::BadRequest(format!("field '{field}' must be a string"))
                })?;
                if graph.is_some() {
                    return Err(ServiceError::BadRequest(
                        "at most one of 'edge_list'/'dimacs'/'cotree' may be given".to_string(),
                    ));
                }
                graph = Some(make(text.to_string()));
            }
        }
        Ok(graph)
    }
}

/// One query job.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Caller-chosen id echoed back in the response.
    pub id: Option<String>,
    /// What to compute.
    pub kind: QueryKind,
    /// Which graph to compute it on.
    pub graph: GraphSpec,
}

impl QueryRequest {
    /// Creates a request without an id.
    pub fn new(kind: QueryKind, graph: GraphSpec) -> Self {
        QueryRequest {
            id: None,
            kind,
            graph,
        }
    }

    /// Sets the echo id.
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }

    /// Parses one JSON query line.
    ///
    /// Recognised fields: `"kind"` (required), `"id"` (string or number),
    /// and at most one of `"edge_list"` / `"dimacs"` / `"cotree"` carrying
    /// inline graph text; with none of them the request targets the batch's
    /// shared graph.
    pub fn from_json_line(line: &str) -> Result<QueryRequest, ServiceError> {
        let value = Json::parse(line)
            .map_err(|e| ServiceError::BadRequest(format!("invalid JSON: {e}")))?;
        QueryRequest::from_json(&value)
    }

    /// Parses a query object (the [`QueryRequest::from_json_line`] shape,
    /// already decoded). Unknown fields — e.g. the protocol layer's
    /// `"type"` — are ignored.
    pub fn from_json(value: &Json) -> Result<QueryRequest, ServiceError> {
        if !matches!(value, Json::Obj(_)) {
            return Err(ServiceError::BadRequest(
                "query line must be a JSON object".to_string(),
            ));
        }
        let kind_name = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::BadRequest("missing string field 'kind'".to_string()))?;
        let kind = QueryKind::parse(kind_name).ok_or_else(|| {
            ServiceError::BadRequest(format!(
                "unknown kind '{kind_name}' (expected one of {})",
                QueryKind::ALL.map(|k| k.as_str()).join(", ")
            ))
        })?;
        let id = match value.get("id") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(Json::Num(_)) => Some(value.get("id").unwrap().to_string()),
            Some(other) => {
                return Err(ServiceError::BadRequest(format!(
                    "field 'id' must be a string or number, got {other}"
                )))
            }
        };
        Ok(QueryRequest {
            id,
            kind,
            graph: GraphSpec::from_json_fields(value)?.unwrap_or(GraphSpec::Shared),
        })
    }

    /// Renders the request as a query object (the [`QueryRequest::from_json`]
    /// shape), used by remote clients to put requests on the wire.
    ///
    /// Programmatic specs are lowered to their inline text forms: a
    /// [`GraphSpec::Graph`] becomes edge-list text and a
    /// [`GraphSpec::Cotree`] becomes term notation; [`GraphSpec::Shared`]
    /// emits no graph field at all.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &self.id {
            fields.push(("id".to_string(), Json::str(id.clone())));
        }
        fields.push(("kind".to_string(), Json::str(self.kind.as_str())));
        if let Some(Json::Obj(spec_fields)) = self.graph.to_json() {
            fields.extend(spec_fields);
        }
        Json::Obj(fields)
    }
}

/// Lowers a graph to the edge-list text format (one `u v` pair per line,
/// isolated vertices as lone ids), the inverse of edge-list ingestion.
fn graph_to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    for v in g.vertices() {
        if g.degree(v) == 0 {
            out.push_str(&format!("{v}\n"));
        }
    }
    out
}

/// Cotree-cache disposition of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// The canonical cotree (and memoised answers) came from the cache.
    Hit,
    /// The graph was recognised/binarised fresh and the result cached.
    Miss,
    /// The cache was disabled for this request.
    Bypass,
}

impl CacheStatus {
    /// The snake_case wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// Timing and cache metadata attached to every response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Microseconds spent in the solver proper (after ingest/recognition).
    pub solve_micros: u64,
    /// Microseconds for the whole job (ingest + recognition + solve + verify).
    pub total_micros: u64,
    /// Cache disposition.
    pub cache: CacheStatus,
    /// Canonical cotree key (present whenever the graph was a cograph).
    pub canonical_key: Option<u64>,
    /// Vertex count of the request's graph (0 when ingest failed).
    pub vertices: usize,
    /// The trace ID of the request that produced this response (see
    /// [`crate::telemetry::RequestCtx`]); echoed on the wire as
    /// `meta.trace_id`.
    pub trace_id: Option<String>,
}

/// A typed answer, one variant per [`QueryKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Answer to [`QueryKind::MinCoverSize`].
    MinCoverSize {
        /// The minimum number of paths covering the graph.
        size: usize,
    },
    /// Answer to [`QueryKind::FullCover`].
    FullCover {
        /// The minimum path cover.
        cover: PathCover,
        /// `true`: the cover passed verification (against the ingested
        /// graph, or on the cotree for a cotree input) before being
        /// returned; `false` only when the engine runs with
        /// `verify_covers` off.
        verified: bool,
    },
    /// Answer to [`QueryKind::HamiltonianPath`].
    HamiltonianPath {
        /// Whether a Hamiltonian path exists.
        exists: bool,
        /// A witness path when one exists.
        path: Option<Path>,
    },
    /// Answer to [`QueryKind::HamiltonianCycle`].
    HamiltonianCycle {
        /// Whether a Hamiltonian cycle exists.
        exists: bool,
    },
    /// Answer to [`QueryKind::Recognize`].
    Recognized {
        /// Whether the graph is a cograph (always true for successful
        /// responses; non-cographs answer with an error instead).
        is_cograph: bool,
        /// Vertex count.
        vertices: usize,
        /// Edge count.
        edges: usize,
        /// Number of cotree nodes.
        cotree_nodes: usize,
        /// Cotree height.
        height: usize,
        /// The cotree in term notation.
        term: String,
    },
}

/// The engine's reply to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Echo of the request id.
    pub id: Option<String>,
    /// Echo of the request kind.
    pub kind: QueryKind,
    /// The answer, or the typed error that stopped this job.
    pub outcome: Result<Answer, ServiceError>,
    /// Timing and cache metadata.
    pub meta: ResponseMeta,
}

impl QueryResponse {
    /// Renders the response as one JSON line.
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Renders the response as a JSON object (the [`to_json_line`] shape,
    /// not yet serialised), used by the protocol layer to embed responses
    /// in reply frames.
    ///
    /// [`to_json_line`]: QueryResponse::to_json_line
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = Vec::new();
        if let Some(id) = &self.id {
            fields.push(("id", Json::str(id.clone())));
        }
        fields.push(("kind", Json::str(self.kind.as_str())));
        match &self.outcome {
            Ok(answer) => {
                fields.push(("ok", Json::Bool(true)));
                fields.push(("answer", answer_json(answer)));
            }
            Err(error) => {
                fields.push(("ok", Json::Bool(false)));
                fields.push(("error", error.wire_body()));
            }
        }
        let mut meta = vec![
            ("solve_us", Json::num(self.meta.solve_micros)),
            ("total_us", Json::num(self.meta.total_micros)),
            ("cache", Json::str(self.meta.cache.as_str())),
            ("n", Json::num(self.meta.vertices as u64)),
        ];
        if let Some(key) = self.meta.canonical_key {
            meta.push(("key", Json::str(format!("{key:016x}"))));
        }
        if let Some(trace) = &self.meta.trace_id {
            meta.push(("trace_id", Json::str(trace.clone())));
        }
        fields.push(("meta", Json::obj(meta)));
        Json::obj(fields)
    }
}

fn paths_json(paths: &[Path]) -> Json {
    Json::Arr(
        paths
            .iter()
            .map(|p| Json::Arr(p.vertices().iter().map(|&v| Json::num(v as u64)).collect()))
            .collect(),
    )
}

fn answer_json(answer: &Answer) -> Json {
    match answer {
        Answer::MinCoverSize { size } => Json::obj(vec![("size", Json::num(*size as u64))]),
        Answer::FullCover { cover, verified } => Json::obj(vec![
            ("size", Json::num(cover.len() as u64)),
            ("verified", Json::Bool(*verified)),
            ("paths", paths_json(cover.paths())),
        ]),
        Answer::HamiltonianPath { exists, path } => {
            let mut fields = vec![("exists", Json::Bool(*exists))];
            if let Some(path) = path {
                fields.push(("path", paths_json(std::slice::from_ref(path))));
            }
            Json::obj(fields)
        }
        Answer::HamiltonianCycle { exists } => Json::obj(vec![("exists", Json::Bool(*exists))]),
        Answer::Recognized {
            is_cograph,
            vertices,
            edges,
            cotree_nodes,
            height,
            term,
        } => Json::obj(vec![
            ("is_cograph", Json::Bool(*is_cograph)),
            ("n", Json::num(*vertices as u64)),
            ("m", Json::num(*edges as u64)),
            ("cotree_nodes", Json::num(*cotree_nodes as u64)),
            ("height", Json::num(*height as u64)),
            ("term", Json::str(term.clone())),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in QueryKind::ALL {
            assert_eq!(QueryKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(QueryKind::parse("nonsense"), None);
    }

    #[test]
    fn request_parsing_happy_path() {
        let req =
            QueryRequest::from_json_line(r#"{"id":"a","kind":"full_cover","edge_list":"0 1"}"#)
                .unwrap();
        assert_eq!(req.id.as_deref(), Some("a"));
        assert_eq!(req.kind, QueryKind::FullCover);
        assert!(matches!(req.graph, GraphSpec::EdgeList(ref t) if t == "0 1"));

        let shared = QueryRequest::from_json_line(r#"{"kind":"recognize"}"#).unwrap();
        assert!(matches!(shared.graph, GraphSpec::Shared));
        assert!(shared.id.is_none());

        let numeric_id = QueryRequest::from_json_line(r#"{"kind":"recognize","id":7}"#).unwrap();
        assert_eq!(numeric_id.id.as_deref(), Some("7"));
    }

    #[test]
    fn request_parsing_typed_failures() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"id":"x"}"#,
            r#"{"kind":"which_cover"}"#,
            r#"{"kind":"recognize","edge_list":"0 1","dimacs":"p edge 1 0"}"#,
            r#"{"kind":"recognize","edge_list":17}"#,
            r#"{"kind":"recognize","id":[1]}"#,
        ] {
            assert!(
                matches!(
                    QueryRequest::from_json_line(bad),
                    Err(ServiceError::BadRequest(_))
                ),
                "expected BadRequest for {bad}"
            );
        }
    }

    #[test]
    fn programmatic_spec_lowering_preserves_vertex_labels() {
        use crate::ingest::{self, GraphFormat, Ingested};
        // Leaf labels deliberately out of appearance order: term notation
        // would silently relabel them (the term parser assigns ids by first
        // appearance), so the lowering must go through edge-list text.
        let tree = Cotree::union_of_labelled(vec![
            Cotree::join_of_labelled(vec![Cotree::single(1), Cotree::single(2)]),
            Cotree::single(0),
        ]);
        let wire = GraphSpec::Cotree(tree.clone())
            .to_json()
            .expect("wire form");
        let spec = GraphSpec::from_json(&wire).unwrap();
        let GraphSpec::EdgeList(text) = spec else {
            panic!("expected edge-list lowering");
        };
        let Ingested::Graph(g) = ingest::parse(&text, GraphFormat::EdgeList).unwrap() else {
            panic!("edge list must parse to a graph");
        };
        assert_eq!(g, tree.to_graph(), "vertex labels must survive the wire");

        let graph = tree.to_graph();
        let wire = GraphSpec::Graph(graph.clone())
            .to_json()
            .expect("wire form");
        let GraphSpec::EdgeList(text) = GraphSpec::from_json(&wire).unwrap() else {
            panic!("expected edge-list lowering");
        };
        let Ingested::Graph(g) = ingest::parse(&text, GraphFormat::EdgeList).unwrap() else {
            panic!("edge list must parse to a graph");
        };
        assert_eq!(g, graph);
    }

    #[test]
    fn response_json_shape() {
        let resp = QueryResponse {
            id: Some("q9".to_string()),
            kind: QueryKind::MinCoverSize,
            outcome: Ok(Answer::MinCoverSize { size: 3 }),
            meta: ResponseMeta {
                solve_micros: 12,
                total_micros: 40,
                cache: CacheStatus::Hit,
                canonical_key: Some(0xdeadbeef),
                vertices: 10,
                trace_id: Some("pc-test".to_string()),
            },
        };
        let line = resp.to_json_line();
        let value = Json::parse(&line).unwrap();
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            value
                .get("answer")
                .and_then(|a| a.get("size"))
                .and_then(Json::as_u64),
            Some(3)
        );
        let meta = value.get("meta").unwrap();
        assert_eq!(meta.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(
            meta.get("key").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(meta.get("trace_id").and_then(Json::as_str), Some("pc-test"));
    }

    #[test]
    fn not_a_cograph_error_carries_the_p4_witness() {
        let resp = QueryResponse {
            id: None,
            kind: QueryKind::Recognize,
            outcome: Err(ServiceError::NotACograph {
                vertices: 9,
                witness: [4, 2, 7, 5],
            }),
            meta: ResponseMeta {
                solve_micros: 0,
                total_micros: 3,
                cache: CacheStatus::Miss,
                canonical_key: None,
                vertices: 9,
                trace_id: None,
            },
        };
        let value = Json::parse(&resp.to_json_line()).unwrap();
        let error = value.get("error").expect("error object");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("not_a_cograph")
        );
        let Some(Json::Arr(p4)) = error.get("p4") else {
            panic!("missing structured p4 witness: {value}");
        };
        let ids: Vec<u64> = p4.iter().filter_map(Json::as_u64).collect();
        assert_eq!(ids, vec![4, 2, 7, 5]);
        // The message repeats the path in human-readable form.
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("4 - 2 - 7 - 5"), "message: {message}");
    }

    #[test]
    fn error_response_json_shape() {
        let resp = QueryResponse {
            id: None,
            kind: QueryKind::FullCover,
            outcome: Err(ServiceError::EmptyGraph),
            meta: ResponseMeta {
                solve_micros: 0,
                total_micros: 5,
                cache: CacheStatus::Bypass,
                canonical_key: None,
                vertices: 0,
                trace_id: None,
            },
        };
        let value = Json::parse(&resp.to_json_line()).unwrap();
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("empty_graph")
        );
        assert!(value.get("meta").unwrap().get("key").is_none());
    }
}
