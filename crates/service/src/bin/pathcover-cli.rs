//! `pathcover-cli` — command-line front-end of the `pcservice` query engine.
//!
//! ```text
//! pathcover-cli solve <graph|-> [--format F] [--query KIND] [--backend sim|pool] [--threads N] [--json] [--no-verify] [--remote SOCK | --remote-http ADDR]
//! pathcover-cli recognize <graph|-> [--format F] [--json] [--remote SOCK | --remote-http ADDR]
//! pathcover-cli batch <graph|-|none> <queries.jsonl|-> [--threads N] [--format F] [--human] [--remote SOCK | --remote-http ADDR]
//! pathcover-cli serve [--socket SOCK] [--http ADDR] [--snapshot PATH [--checkpoint-secs N]] [--threads N] [--cache-capacity N] [--cache-shards N] [--idle-timeout-ms MS] [--slow-ms MS] [--no-verify]
//! pathcover-cli stats (--remote SOCK | --remote-http ADDR) [--json]
//! pathcover-cli metrics (--remote SOCK | --remote-http ADDR) [--json]
//! pathcover-cli snapshot save (--remote SOCK | --remote-http ADDR)
//! pathcover-cli snapshot inspect FILE [--json]
//! pathcover-cli session <create|add-vertex|add-edges|remove-edge|query|drop> ... (--remote SOCK | --remote-http ADDR)
//! pathcover-cli shutdown (--remote SOCK | --remote-http ADDR)
//! pathcover-cli bench [--batches 1,64,4096] [--threads 1,2,4,8] [--n 64] [--json FILE]
//! ```
//!
//! `<graph|->` is a file path or `-` for stdin. Formats are sniffed from
//! content (edge list / DIMACS / cotree term) unless `--format` pins one.
//! `batch` reads one JSON query object per line (see
//! `QueryRequest::from_json_line`) and emits one JSON response line per
//! query; per-job failures are reported in their own line and never abort
//! the batch.
//!
//! `serve` runs the engine as a long-lived daemon on a unix socket
//! (`--socket`, framed `pcp1` protocol), a TCP socket (`--http`, HTTP/1.1
//! routes), or both at once over one shared cache; `--remote SOCK` /
//! `--remote-http ADDR` turn `solve`/`recognize`/`batch` into thin clients
//! of one, so repeated invocations share the daemon's warm cotree cache
//! instead of paying recognition each time. Without a remote flag the
//! subcommands run in-process exactly as before.

use pcservice::telemetry::{Axis, Type};
use pcservice::{
    CacheStatus, EngineConfig, GraphFormat, GraphSpec, Json, Metric, QueryEngine, QueryKind,
    QueryRequest, QueryResponse,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::Read;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "solve" => cmd_solve(rest, false),
        "recognize" => cmd_solve(rest, true),
        "batch" => cmd_batch(rest),
        "bench" => cmd_bench(rest),
        "serve" => cmd_serve(rest),
        "stats" => cmd_stats(rest),
        "metrics" => cmd_metrics(rest),
        "snapshot" => cmd_snapshot(rest),
        "session" => cmd_session(rest),
        "trace" => cmd_trace(rest),
        "shutdown" => cmd_shutdown(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "pathcover-cli — batched minimum path cover queries on cographs

USAGE:
    pathcover-cli solve <graph|-> [--format F] [--query KIND] [--backend sim|pool]
                        [--threads N] [--json] [--no-verify]
                        [--remote SOCK | --remote-http ADDR]
    pathcover-cli recognize <graph|-> [--format F] [--json] [--remote SOCK | --remote-http ADDR]
    pathcover-cli batch <graph|-|none> <queries.jsonl|-> [--threads N] [--format F] [--human]
                        [--remote SOCK | --remote-http ADDR]
    pathcover-cli serve [--socket SOCK] [--http ADDR] [--snapshot PATH [--checkpoint-secs N]]
                        [--threads N] [--backend sim|pool] [--cache-capacity N]
                        [--cache-shards N] [--idle-timeout-ms MS] [--slow-ms MS] [--no-verify]
                        [--max-inflight N] [--max-connections N] [--max-requests-per-conn N]
                        [--drain-timeout-ms MS] [--fault-spec SPEC] [--log-level LEVEL]
    pathcover-cli stats (--remote SOCK | --remote-http ADDR) [--json]
    pathcover-cli metrics (--remote SOCK | --remote-http ADDR) [--json]
    pathcover-cli trace list (--remote SOCK | --remote-http ADDR) [--json]
    pathcover-cli trace get ID (--remote SOCK | --remote-http ADDR) [--chrome | --json]
    pathcover-cli trace watch (--remote SOCK | --remote-http ADDR) [--interval-ms MS]
    pathcover-cli snapshot save (--remote SOCK | --remote-http ADDR)
    pathcover-cli snapshot inspect FILE [--json]
    pathcover-cli session create [<graph|->] [--format F] (--remote SOCK | --remote-http ADDR) [--json]
    pathcover-cli session add-vertex HANDLE [--neighbors 0,2,5] (--remote ... | --remote-http ...) [--json]
    pathcover-cli session add-edges HANDLE U V [U V ...] (--remote ... | --remote-http ...) [--json]
    pathcover-cli session remove-edge HANDLE U V (--remote ... | --remote-http ...) [--json]
    pathcover-cli session query HANDLE [--query KIND] (--remote ... | --remote-http ...) [--json]
    pathcover-cli session drop HANDLE (--remote ... | --remote-http ...) [--json]
    pathcover-cli shutdown (--remote SOCK | --remote-http ADDR)
    pathcover-cli bench [--batches 1,64,4096] [--threads 1,2,4,8] [--n 64] [--json FILE]

FORMATS (sniffed from content when --format is omitted):
    edge-list   '<u> <v>' per line, 0-based; a lone id declares a vertex; # comments
    dimacs      'p edge <n> <m>' header, 'e <u> <v>' lines, 1-based
    cotree      term notation: (u ...) union, (j ...) join, names as leaves

QUERY KINDS:
    min_cover_size | full_cover | hamiltonian_path | hamiltonian_cycle | recognize

SERVING:
    'serve' owns a shared cotree cache behind a unix socket (--socket, framed
    pcp1 protocol), an HTTP/1.1 listener (--http ADDR; --http 127.0.0.1:0
    picks a free port), or both at once. '--remote SOCK' / '--remote-http ADDR'
    make solve/recognize/batch thin clients of it. 'stats' snapshots the
    daemon's cache counters; 'metrics' dumps the full telemetry registry
    (request/stage latency histograms, connection gauges — also scrapeable
    as Prometheus text from GET /v1/metrics); '--slow-ms MS' logs requests
    slower than MS milliseconds with their trace IDs; 'shutdown' stops it
    gracefully.

RESILIENCE:
    '--max-inflight N' caps concurrently executing work requests (excess is
    rejected with a typed, retryable 'overloaded' error carrying
    retry_after_ms; HTTP clients see 503 + Retry-After). '--max-connections
    N' caps accepted connections per listener; '--max-requests-per-conn N'
    closes a connection after N requests (the last reply is an 'overloaded'
    shed). Requests may carry a deadline ('deadline_ms' on the v2 envelope,
    'X-Deadline-Ms' over HTTP); expired work fails with 'deadline_exceeded'.
    Shutdown drains: in-flight requests get '--drain-timeout-ms MS'
    (default 5000) to finish before connections are forced closed. Setting
    PC_RETRIES=N makes the thin clients retry 'overloaded' rejections up to
    N times with jittered exponential backoff honoring the server's
    retry_after_ms hint. '--fault-spec SPEC' (or PC_FAULTS) enables the
    built-in fault-injection harness for chaos testing, e.g.
    'frame_stall_ms=20,panic_rate=0.05,overload_rate=0.2,seed=42'.

OBSERVABILITY:
    The daemon keeps a bounded in-memory flight recorder of per-request
    traces (root span, pipeline stages, cache lookups, pool rounds) with
    tail sampling: errored/overloaded/deadline-exceeded requests and the
    slowest ones are always retained. 'trace list' shows the retained
    index, 'trace get ID' prints one trace ('--chrome' emits Chrome
    trace-event JSON — redirect to a file and load it in chrome://tracing
    or Perfetto), 'trace watch' tails new retained traces. The daemon logs
    JSON lines to stderr (one object per line, every line carrying a
    trace_id where one exists); '--log-level error|warn|info|debug|off'
    (or PC_LOG) sets the threshold.

PARALLEL EXECUTION:
    Large full-cover solves run on a work-stealing thread pool (the real-cores
    PRAM backend). '--threads N' sizes it; 0 or unset resolves to the
    machine's available parallelism (clamped to 1..=64). '--backend pool'
    forces every full-cover solve onto the pool, '--backend sim' keeps solves
    on the sequential substrate; unset picks the pool automatically for
    graphs with at least 65536 vertices. Step/work metrics always come from
    the PRAM simulator, never from the pool.

PERSISTENCE:
    '--snapshot PATH' makes restarts warm: the cache is saved to PATH on
    shutdown (and every --checkpoint-secs N while serving) and reloaded —
    after integrity verification; corrupt files are quarantined to
    PATH.corrupt — on the next serve. 'snapshot save' checkpoints a running
    daemon now; 'snapshot inspect FILE' verifies a snapshot offline.

SESSIONS (v2 API):
    'session' verbs talk the versioned v2 envelope (POST /v2/query over
    --remote-http, pcp2 frames over --remote) to a daemon-resident graph
    handle whose cotree is maintained incrementally across mutations.
    'create' opens a handle (empty, or seeded from a graph file); 'add-vertex'
    inserts one vertex wired to --neighbors (incremental recognition, no full
    re-run); 'add-edges'/'remove-edge' mutate existing vertices; 'query' runs
    any QUERY KIND against the resident cotree; 'drop' releases the handle.
    A mutation that would leave a non-cograph is rejected with its induced-P4
    witness and the session stays at the last good state.";

/// Pull the value of `--flag VALUE` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pull the numeric value of `--flag N` out of `args`, defaulting when the
/// flag is absent.
fn take_num_flag(args: &mut Vec<String>, flag: &str, default: usize) -> Result<usize, String> {
    match take_flag(args, flag)? {
        Some(t) => t
            .parse()
            .map_err(|_| format!("{flag}: '{t}' is not a number")),
        None => Ok(default),
    }
}

/// Pull a boolean `--flag` out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn graph_spec(text: String, format: Option<&str>) -> Result<GraphSpec, String> {
    let format = match format {
        Some(name) => {
            GraphFormat::parse_name(name).ok_or_else(|| format!("unknown format '{name}'"))?
        }
        None => GraphFormat::sniff(&text),
    };
    Ok(match format {
        GraphFormat::EdgeList => GraphSpec::EdgeList(text),
        GraphFormat::Dimacs => GraphSpec::Dimacs(text),
        GraphFormat::CotreeTerm => GraphSpec::CotreeTerm(text),
    })
}

fn cmd_solve(args: &[String], recognize_mode: bool) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let format = take_flag(&mut args, "--format")?;
    let query = take_flag(&mut args, "--query")?;
    let backend = take_flag(&mut args, "--backend")?;
    let threads = take_num_flag(&mut args, "--threads", 0)?;
    let remote = take_remote(&mut args)?;
    let json = take_switch(&mut args, "--json");
    let no_verify = take_switch(&mut args, "--no-verify");
    let [graph_path] = args.as_slice() else {
        return Err(format!("expected exactly one <graph> argument\n{USAGE}"));
    };
    let kind = if recognize_mode {
        if query.is_some() {
            return Err("'recognize' does not take --query".to_string());
        }
        QueryKind::Recognize
    } else {
        match query.as_deref() {
            None => QueryKind::FullCover,
            Some(name) => {
                QueryKind::parse(name).ok_or_else(|| format!("unknown query kind '{name}'"))?
            }
        }
    };
    let spec = graph_spec(read_input(graph_path)?, format.as_deref())?;
    let request = QueryRequest::new(kind, spec);
    let response_json = match remote {
        Some(target) => {
            if no_verify {
                return Err("--no-verify is a server-side setting; configure it on 'serve'".into());
            }
            if backend.is_some() || threads != 0 {
                return Err(
                    "--backend/--threads are server-side settings; configure them on 'serve'"
                        .into(),
                );
            }
            let mut client = target.connect()?;
            client
                .solve(&request)
                .map_err(|e| format!("remote solve: {e}"))?
        }
        None => {
            let mut config = EngineConfig {
                verify_covers: !no_verify,
                pool_threads: threads,
                ..EngineConfig::default()
            };
            match backend.as_deref() {
                None => {}
                Some("sim") => config.parallel_min_vertices = 0,
                Some("pool") => config.parallel_min_vertices = 1,
                Some(other) => return Err(format!("unknown backend '{other}' (sim|pool)")),
            }
            let engine = QueryEngine::new(config);
            engine.execute(&request).to_json()
        }
    };
    let failed = response_json.get("ok").and_then(Json::as_bool) != Some(true);
    if json {
        println!("{response_json}");
    } else {
        print_human_json(&response_json);
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Renders a path (a JSON array of vertex ids) as `0 -> 1 -> 2`.
fn render_path(path: &Json) -> String {
    let Json::Arr(vs) = path else {
        return path.to_string();
    };
    vs.iter()
        .map(|v| v.as_u64().map_or_else(|| v.to_string(), |v| v.to_string()))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Human-readable rendering of one response object (the
/// [`QueryResponse::to_json`] shape). Working on the JSON form keeps the
/// printer identical for in-process responses and frames relayed from a
/// remote daemon.
fn print_human_json(response: &Json) {
    let kind = response.get("kind").and_then(Json::as_str).unwrap_or("?");
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("(no message)");
        println!("error [{code}]: {message}");
        // A not_a_cograph rejection carries its induced-P4 certificate; show
        // it on its own line so scripts scraping human output can grab it.
        if let Some(Json::Arr(p4)) = response.get("error").and_then(|e| e.get("p4")) {
            let path = p4
                .iter()
                .map(Json::to_string)
                .collect::<Vec<_>>()
                .join(" - ");
            println!("  induced P4: {path}");
        }
    } else if let Some(answer) = response.get("answer") {
        let flag = |field: &str| answer.get(field).and_then(Json::as_bool) == Some(true);
        match kind {
            "min_cover_size" => {
                let size = answer.get("size").and_then(Json::as_u64).unwrap_or(0);
                println!("minimum path cover size: {size}");
            }
            "full_cover" => {
                let size = answer.get("size").and_then(Json::as_u64).unwrap_or(0);
                let verified = if flag("verified") { " (verified)" } else { "" };
                println!("minimum path cover: {size} path(s){verified}");
                if let Some(Json::Arr(paths)) = answer.get("paths") {
                    for (i, path) in paths.iter().enumerate() {
                        println!("  path {}: {}", i + 1, render_path(path));
                    }
                }
            }
            "hamiltonian_path" => {
                println!(
                    "hamiltonian path: {}",
                    if flag("exists") { "yes" } else { "no" }
                );
                if let Some(Json::Arr(paths)) = answer.get("path") {
                    for path in paths {
                        println!("  witness: {}", render_path(path));
                    }
                }
            }
            "hamiltonian_cycle" => {
                println!(
                    "hamiltonian cycle: {}",
                    if flag("exists") { "yes" } else { "no" }
                );
            }
            "recognize" => {
                let num = |field: &str| answer.get(field).and_then(Json::as_u64).unwrap_or(0);
                println!("cograph: yes ({} vertices, {} edges)", num("n"), num("m"));
                println!(
                    "  cotree: {} nodes, height {}",
                    num("cotree_nodes"),
                    num("height")
                );
                println!(
                    "  term: {}",
                    answer.get("term").and_then(Json::as_str).unwrap_or("?")
                );
            }
            other => println!("{other}: {answer}"),
        }
    }
    if let Some(meta) = response.get("meta") {
        let num = |field: &str| meta.get(field).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "  [{} us solve, {} us total, cache {}{}]",
            num("solve_us"),
            num("total_us"),
            meta.get("cache").and_then(Json::as_str).unwrap_or("?"),
            meta.get("key")
                .and_then(Json::as_str)
                .map(|k| format!(", key {k}"))
                .unwrap_or_default()
        );
    }
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let format = take_flag(&mut args, "--format")?;
    let remote = take_remote(&mut args)?;
    let threads_flag = take_flag(&mut args, "--threads")?;
    if remote.is_some() && threads_flag.is_some() {
        return Err(
            "--threads is a server-side setting when a remote is used; configure it on 'serve'"
                .to_string(),
        );
    }
    let threads: usize = match threads_flag {
        Some(t) => t
            .parse()
            .map_err(|_| format!("--threads: '{t}' is not a number"))?,
        None => 0,
    };
    let human = take_switch(&mut args, "--human");
    let [graph_path, query_path] = args.as_slice() else {
        return Err(format!(
            "expected <graph|none> and <queries.jsonl> arguments\n{USAGE}"
        ));
    };
    if graph_path == "-" && query_path == "-" {
        return Err("only one of <graph> and <queries> can come from stdin".to_string());
    }
    let shared = if graph_path == "none" {
        None
    } else {
        Some(graph_spec(read_input(graph_path)?, format.as_deref())?)
    };
    let query_text = read_input(query_path)?;
    let mut requests: Vec<(usize, QueryRequest)> = Vec::new();
    let mut line_errors: Vec<(usize, Json)> = Vec::new();
    for (idx, line) in query_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match QueryRequest::from_json_line(line) {
            Ok(request) => requests.push((idx + 1, request)),
            Err(error) => {
                // A malformed line fails alone, mirroring per-job isolation.
                let response = QueryResponse {
                    id: None,
                    kind: QueryKind::Recognize,
                    outcome: Err(error),
                    meta: pcservice::ResponseMeta {
                        solve_micros: 0,
                        total_micros: 0,
                        cache: CacheStatus::Bypass,
                        canonical_key: None,
                        vertices: 0,
                        trace_id: None,
                    },
                };
                line_errors.push((idx + 1, response.to_json()));
            }
        }
    }
    let request_objs: Vec<QueryRequest> = requests.iter().map(|(_, r)| r.clone()).collect();
    let started = Instant::now();
    let (responses, stats_line) = match &remote {
        Some(target) => {
            let mut client = target.connect()?;
            let responses = client
                .batch(shared, request_objs)
                .map_err(|e| format!("remote batch: {e}"))?;
            let stats = client.stats().map_err(|e| format!("remote stats: {e}"))?;
            (responses, render_stats_summary(&stats))
        }
        None => {
            let engine = QueryEngine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let responses: Vec<Json> = engine
                .execute_batch(shared.as_ref(), &request_objs)
                .iter()
                .map(QueryResponse::to_json)
                .collect();
            let stats = engine.cache_stats();
            (
                responses,
                format!(
                    "{} hits, {} misses, {} evictions, {} resident",
                    stats.hits, stats.misses, stats.evictions, stats.entries
                ),
            )
        }
    };
    let elapsed = started.elapsed();

    // Merge solved responses and line errors back into input order.
    let mut all: Vec<(usize, Json)> = requests
        .iter()
        .map(|(line, _)| *line)
        .zip(responses)
        .collect();
    all.extend(line_errors);
    all.sort_by_key(|(line, _)| *line);

    let failures = all
        .iter()
        .filter(|(_, r)| r.get("ok").and_then(Json::as_bool) != Some(true))
        .count();
    for (line, response) in &all {
        if human {
            let id = response
                .get("id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("line {line}"));
            print!("[{id}] ");
            print_human_json(response);
        } else {
            println!("{response}");
        }
    }
    eprintln!(
        "batch{}: {} queries in {:.1} ms ({} failed) — cache: {}",
        if remote.is_some() { " (remote)" } else { "" },
        all.len(),
        elapsed.as_secs_f64() * 1e3,
        failures,
        stats_line
    );
    // The batch itself always completes (per-job isolation), but scripts
    // chaining the CLI still need a signal when any job failed.
    Ok(if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One-line summary of a daemon `stats` payload, for batch footers.
fn render_stats_summary(stats: &Json) -> String {
    let num = |field: &str| stats.get(field).and_then(Json::as_u64).unwrap_or(0);
    format!(
        "{} hits, {} misses, {} evictions, {} resident (daemon totals)",
        num("hits"),
        num("misses"),
        num("evictions"),
        num("entries")
    )
}

/// Which remote daemon transport a subcommand targets.
enum RemoteTarget {
    /// `--remote SOCK`: the framed protocol over a unix socket.
    Socket(String),
    /// `--remote-http ADDR`: the HTTP/1.1 front-end.
    Http(String),
}

/// Pulls `--remote SOCK` / `--remote-http ADDR` out of `args` (at most one).
fn take_remote(args: &mut Vec<String>) -> Result<Option<RemoteTarget>, String> {
    let socket = take_flag(args, "--remote")?;
    let http = take_flag(args, "--remote-http")?;
    match (socket, http) {
        (Some(_), Some(_)) => Err("--remote and --remote-http are mutually exclusive".to_string()),
        (Some(socket), None) => Ok(Some(RemoteTarget::Socket(socket))),
        (None, Some(addr)) => Ok(Some(RemoteTarget::Http(addr))),
        (None, None) => Ok(None),
    }
}

/// The client retry policy requested via `PC_RETRIES=N` (None when unset
/// or zero: fail fast on `overloaded`).
fn env_retry_policy() -> Result<Option<pcservice::proto::RetryPolicy>, String> {
    match std::env::var("PC_RETRIES") {
        Ok(text) if !text.is_empty() => {
            let max_retries: u32 = text
                .parse()
                .map_err(|_| format!("PC_RETRIES: '{text}' is not a number"))?;
            Ok((max_retries != 0).then(|| pcservice::proto::RetryPolicy {
                max_retries,
                ..pcservice::proto::RetryPolicy::default()
            }))
        }
        _ => Ok(None),
    }
}

impl RemoteTarget {
    fn connect(&self) -> Result<RemoteClient, String> {
        let retry = env_retry_policy()?;
        match self {
            #[cfg(unix)]
            RemoteTarget::Socket(socket) => pcservice::daemon::connect(socket)
                .map(|client| match retry {
                    Some(policy) => client.with_retry(policy),
                    None => client,
                })
                .map(RemoteClient::Socket)
                .map_err(|e| format!("connecting to {socket}: {e}")),
            #[cfg(not(unix))]
            RemoteTarget::Socket(_) => Err(
                "--remote requires unix domain sockets, unavailable on this platform; \
                     use --remote-http"
                    .to_string(),
            ),
            RemoteTarget::Http(addr) => pcservice::http::Client::connect(addr)
                .map(|client| match retry {
                    Some(policy) => client.with_retry(policy),
                    None => client,
                })
                .map(RemoteClient::Http)
                .map_err(|e| format!("connecting to http://{addr}: {e}")),
        }
    }
}

/// A connected client of either transport. Both answer with identical reply
/// payloads (the HTTP front-end reuses the framed protocol's dispatch —
/// see `pcservice::http`), so every subcommand is transport-agnostic.
enum RemoteClient {
    #[cfg(unix)]
    Socket(pcservice::proto::Client<std::os::unix::net::UnixStream>),
    Http(pcservice::http::Client),
}

impl RemoteClient {
    fn solve(&mut self, request: &QueryRequest) -> Result<Json, String> {
        match self {
            #[cfg(unix)]
            RemoteClient::Socket(client) => client.solve(request).map_err(|e| e.to_string()),
            RemoteClient::Http(client) => client.solve(request).map_err(|e| e.to_string()),
        }
    }

    fn batch(
        &mut self,
        shared: Option<GraphSpec>,
        requests: Vec<QueryRequest>,
    ) -> Result<Vec<Json>, String> {
        match self {
            #[cfg(unix)]
            RemoteClient::Socket(client) => {
                client.batch(shared, requests).map_err(|e| e.to_string())
            }
            RemoteClient::Http(client) => client.batch(shared, requests).map_err(|e| e.to_string()),
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        match self {
            #[cfg(unix)]
            RemoteClient::Socket(client) => client.stats().map_err(|e| e.to_string()),
            RemoteClient::Http(client) => client.stats().map_err(|e| e.to_string()),
        }
    }

    fn metrics(&mut self) -> Result<Json, String> {
        match self {
            #[cfg(unix)]
            RemoteClient::Socket(client) => client.metrics().map_err(|e| e.to_string()),
            RemoteClient::Http(client) => client.metrics().map_err(|e| e.to_string()),
        }
    }

    fn shutdown(&mut self) -> Result<(), String> {
        match self {
            #[cfg(unix)]
            RemoteClient::Socket(client) => client.shutdown().map_err(|e| e.to_string()),
            RemoteClient::Http(client) => client.shutdown().map_err(|e| e.to_string()),
        }
    }

    fn save_snapshot(&mut self) -> Result<Json, String> {
        match self {
            #[cfg(unix)]
            RemoteClient::Socket(client) => client.save_snapshot().map_err(|e| e.to_string()),
            RemoteClient::Http(client) => client.save_snapshot().map_err(|e| e.to_string()),
        }
    }

    /// Sends one v2 envelope (`POST /v2/query` over HTTP, a `pcp2` frame
    /// over the unix socket) and returns the reply envelope verbatim.
    fn query_v2(&mut self, envelope: &Json) -> Result<Json, String> {
        match self {
            #[cfg(unix)]
            RemoteClient::Socket(client) => client.query_v2(envelope).map_err(|e| e.to_string()),
            RemoteClient::Http(client) => client.query_v2(envelope).map_err(|e| e.to_string()),
        }
    }

    /// Fetches the flight-recorder index (`id: None`) or one retained
    /// trace; `chrome` selects the Chrome trace-event export.
    fn trace(&mut self, id: Option<&str>, chrome: bool) -> Result<Json, String> {
        match self {
            #[cfg(unix)]
            RemoteClient::Socket(client) => client.trace(id, chrome).map_err(|e| e.to_string()),
            RemoteClient::Http(client) => client.trace(id, chrome).map_err(|e| e.to_string()),
        }
    }
}

fn cmd_snapshot(args: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = args.split_first() else {
        return Err(format!(
            "'snapshot' needs an action: save or inspect\n{USAGE}"
        ));
    };
    match action.as_str() {
        "save" => {
            let mut rest = rest.to_vec();
            let remote = take_remote(&mut rest)?.ok_or_else(|| {
                format!("'snapshot save' needs --remote SOCK or --remote-http ADDR\n{USAGE}")
            })?;
            if !rest.is_empty() {
                return Err(format!("unexpected arguments: {rest:?}"));
            }
            let mut client = remote.connect()?;
            let reply = client
                .save_snapshot()
                .map_err(|e| format!("remote snapshot: {e}"))?;
            let num = |field: &str| reply.get(field).and_then(Json::as_u64).unwrap_or(0);
            eprintln!(
                "snapshot saved: {} entries ({} graph links), {} bytes to {}",
                num("entries"),
                num("links"),
                num("bytes"),
                reply.get("path").and_then(Json::as_str).unwrap_or("?"),
            );
            Ok(ExitCode::SUCCESS)
        }
        "inspect" => {
            let mut rest = rest.to_vec();
            let json = take_switch(&mut rest, "--json");
            let [path] = rest.as_slice() else {
                return Err(format!(
                    "'snapshot inspect' needs exactly one FILE\n{USAGE}"
                ));
            };
            // Inspection runs the loader's full verification (checksum,
            // canonical keys, links, scalar re-solve) against the
            // file without touching any cache.
            let report = pcservice::snapshot::inspect(std::path::Path::new(path))
                .map_err(|e| format!("{path}: {e}"))?;
            if json {
                println!(
                    "{}",
                    Json::obj(vec![
                        ("version", Json::num(report.version)),
                        ("entries", Json::num(report.entries as u64)),
                        ("links", Json::num(report.links as u64)),
                        ("total_vertices", Json::num(report.total_vertices as u64)),
                        ("memoised", Json::num(report.memoised as u64)),
                        ("scalar_checked", Json::num(report.scalar_checked as u64)),
                        ("bytes", Json::num(report.bytes)),
                    ])
                );
            } else {
                println!(
                    "{path}: pcsnap{} — {} entries ({} graph links, {} with memoised answers), \
                     {} vertices total, {} bytes",
                    report.version,
                    report.entries,
                    report.links,
                    report.memoised,
                    report.total_vertices,
                    report.bytes
                );
                println!(
                    "  integrity: checksum ok, all canonical keys verified, \
                     {} entries re-solved and matched",
                    report.scalar_checked
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown snapshot action '{other}'\n{USAGE}")),
    }
}

/// Builds one v2 request envelope (`{"api_version":2,"op":...,"target":...,
/// "params":...}`).
fn v2_envelope(op: &str, target: Option<Json>, params: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("api_version", Json::num(pcservice::API_VERSION)),
        ("op", Json::str(op)),
    ];
    if let Some(target) = target {
        fields.push(("target", target));
    }
    if !params.is_empty() {
        fields.push(("params", Json::obj(params)));
    }
    Json::obj(fields)
}

/// The `{"session": HANDLE}` target object.
fn session_target(handle: &str) -> Json {
    Json::obj(vec![("session", Json::str(handle))])
}

fn parse_vertex(text: &str, what: &str) -> Result<Json, String> {
    text.trim()
        .parse::<u32>()
        .map(|v| Json::num(v as u64))
        .map_err(|_| format!("{what}: '{text}' is not a vertex id"))
}

/// One human-readable line for a session-state reply (`create` and every
/// mutation answer this shape).
fn print_session_state(result: &Json) {
    let num = |field: &str| result.get(field).and_then(Json::as_u64).unwrap_or(0);
    let new_vertex = result
        .get("new_vertex")
        .and_then(Json::as_u64)
        .map(|v| format!(", new vertex {v}"))
        .unwrap_or_default();
    println!(
        "session {}: {} vertices, {} edges (mutation #{}, cotree {}{new_vertex})",
        result.get("handle").and_then(Json::as_str).unwrap_or("?"),
        num("vertices"),
        num("edges"),
        num("mutations"),
        result
            .get("maintenance")
            .and_then(Json::as_str)
            .unwrap_or("?"),
    );
}

fn cmd_session(args: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = args.split_first() else {
        return Err(format!(
            "'session' needs an action: create, add-vertex, add-edges, remove-edge, query or drop\n{USAGE}"
        ));
    };
    let mut rest = rest.to_vec();
    let remote = take_remote(&mut rest)?.ok_or_else(|| {
        format!("'session {action}' needs --remote SOCK or --remote-http ADDR\n{USAGE}")
    })?;
    let json = take_switch(&mut rest, "--json");
    let envelope = match action.as_str() {
        "create" => {
            let format = take_flag(&mut rest, "--format")?;
            let target = match rest.as_slice() {
                [] => None,
                [graph_path] => {
                    let spec = graph_spec(read_input(graph_path)?, format.as_deref())?;
                    Some(spec.to_json().expect("inline specs always serialise"))
                }
                _ => {
                    return Err(format!(
                        "'session create' takes at most one <graph>\n{USAGE}"
                    ))
                }
            };
            v2_envelope("session_create", target, vec![])
        }
        "add-vertex" => {
            let neighbors = take_flag(&mut rest, "--neighbors")?;
            let [handle] = rest.as_slice() else {
                return Err(format!(
                    "'session add-vertex' needs exactly one HANDLE\n{USAGE}"
                ));
            };
            let neighbors: Vec<Json> = match neighbors {
                None => vec![],
                Some(list) => list
                    .split(',')
                    .filter(|t| !t.trim().is_empty())
                    .map(|t| parse_vertex(t, "--neighbors"))
                    .collect::<Result<_, _>>()?,
            };
            v2_envelope(
                "session_add_vertex",
                Some(session_target(handle)),
                vec![("neighbors", Json::Arr(neighbors))],
            )
        }
        "add-edges" => {
            let Some((handle, vertices)) = rest.split_first() else {
                return Err(format!(
                    "'session add-edges' needs HANDLE U V [U V ...]\n{USAGE}"
                ));
            };
            if vertices.is_empty() || vertices.len() % 2 != 0 {
                return Err(
                    "'session add-edges' needs an even, non-zero number of vertex ids \
                     (each U V pair is one edge)"
                        .to_string(),
                );
            }
            let edges: Vec<Json> = vertices
                .chunks(2)
                .map(|pair| {
                    Ok(Json::Arr(vec![
                        parse_vertex(&pair[0], "add-edges")?,
                        parse_vertex(&pair[1], "add-edges")?,
                    ]))
                })
                .collect::<Result<_, String>>()?;
            v2_envelope(
                "session_add_edges",
                Some(session_target(handle)),
                vec![("edges", Json::Arr(edges))],
            )
        }
        "remove-edge" => {
            let [handle, u, v] = rest.as_slice() else {
                return Err(format!("'session remove-edge' needs HANDLE U V\n{USAGE}"));
            };
            v2_envelope(
                "session_remove_edge",
                Some(session_target(handle)),
                vec![(
                    "edge",
                    Json::Arr(vec![
                        parse_vertex(u, "remove-edge")?,
                        parse_vertex(v, "remove-edge")?,
                    ]),
                )],
            )
        }
        "query" => {
            let query = take_flag(&mut rest, "--query")?;
            let [handle] = rest.as_slice() else {
                return Err(format!("'session query' needs exactly one HANDLE\n{USAGE}"));
            };
            let kind = match query.as_deref() {
                None => QueryKind::FullCover,
                Some(name) => {
                    QueryKind::parse(name).ok_or_else(|| format!("unknown query kind '{name}'"))?
                }
            };
            v2_envelope(
                "session_query",
                Some(session_target(handle)),
                vec![("kind", Json::str(kind.as_str()))],
            )
        }
        "drop" => {
            let [handle] = rest.as_slice() else {
                return Err(format!("'session drop' needs exactly one HANDLE\n{USAGE}"));
            };
            v2_envelope("session_drop", Some(session_target(handle)), vec![])
        }
        other => return Err(format!("unknown session action '{other}'\n{USAGE}")),
    };
    let mut client = remote.connect()?;
    let reply = client
        .query_v2(&envelope)
        .map_err(|e| format!("remote session {action}: {e}"))?;
    if json {
        println!("{reply}");
    } else if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        // Operation-level failure: print the typed error (and, for a
        // rejected insertion, its induced-P4 certificate) like solve does.
        let error = reply.get("error").cloned().unwrap_or(Json::Null);
        println!(
            "error [{}]: {}",
            error
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("unknown"),
            error
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("(no message)")
        );
        if let Some(Json::Arr(p4)) = error.get("p4") {
            let path = p4
                .iter()
                .map(Json::to_string)
                .collect::<Vec<_>>()
                .join(" - ");
            println!("  induced P4: {path}");
        }
    } else {
        let result = reply.get("result").cloned().unwrap_or(Json::Null);
        match action.as_str() {
            "query" => print_human_json(&result),
            "drop" => println!(
                "session {} dropped",
                result.get("handle").and_then(Json::as_str).unwrap_or("?")
            ),
            _ => print_session_state(&result),
        }
    }
    let failed = reply.get("ok").and_then(Json::as_bool) != Some(true)
        || (action == "query"
            && reply
                .get("result")
                .and_then(|r| r.get("ok"))
                .and_then(Json::as_bool)
                != Some(true));
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    #[cfg(not(unix))]
    {
        let _ = args;
        Err("'serve' requires unix domain sockets, unavailable on this platform".to_string())
    }
    #[cfg(unix)]
    {
        let mut args = args.to_vec();
        let socket = take_flag(&mut args, "--socket")?;
        let http = take_flag(&mut args, "--http")?;
        if socket.is_none() && http.is_none() {
            return Err(format!(
                "'serve' needs --socket PATH and/or --http ADDR\n{USAGE}"
            ));
        }
        let threads = take_num_flag(&mut args, "--threads", 0)?;
        let backend = take_flag(&mut args, "--backend")?;
        let cache_capacity = take_num_flag(
            &mut args,
            "--cache-capacity",
            EngineConfig::default().cache_capacity,
        )?;
        let cache_shards = take_num_flag(&mut args, "--cache-shards", 0)?;
        let idle_timeout_ms = take_num_flag(&mut args, "--idle-timeout-ms", 30_000)?;
        let snapshot = take_flag(&mut args, "--snapshot")?;
        let checkpoint_secs = match take_flag(&mut args, "--checkpoint-secs")? {
            Some(t) => Some(
                t.parse::<usize>()
                    .map_err(|_| format!("--checkpoint-secs: '{t}' is not a number"))?,
            ),
            None => None,
        };
        if checkpoint_secs.is_some() && snapshot.is_none() {
            return Err("--checkpoint-secs needs --snapshot PATH".to_string());
        }
        let slow_ms = match take_flag(&mut args, "--slow-ms")? {
            Some(t) => Some(
                t.parse::<u64>()
                    .map_err(|_| format!("--slow-ms: '{t}' is not a number"))?,
            ),
            None => None,
        };
        let no_verify = take_switch(&mut args, "--no-verify");
        let max_inflight = take_num_flag(&mut args, "--max-inflight", 0)?;
        let max_connections = take_num_flag(&mut args, "--max-connections", 0)?;
        let max_requests_per_conn = take_num_flag(&mut args, "--max-requests-per-conn", 0)?;
        let drain_timeout_ms = take_num_flag(&mut args, "--drain-timeout-ms", 5_000)?;
        let fault_spec = match take_flag(&mut args, "--fault-spec")? {
            Some(text) => Some(text),
            None => std::env::var("PC_FAULTS").ok().filter(|v| !v.is_empty()),
        };
        let faults = match fault_spec {
            Some(text) => pcservice::FaultSpec::parse(&text)
                .map_err(|e| format!("--fault-spec/PC_FAULTS: {e}"))?,
            None => pcservice::FaultSpec::default(),
        };
        // Structured-log threshold: the flag wins, PC_LOG is the fallback,
        // the compiled-in default (info) applies when neither is set.
        match take_flag(&mut args, "--log-level")? {
            Some(text) => pcservice::log::set_level(
                pcservice::log::Level::parse(&text).map_err(|e| format!("--log-level: {e}"))?,
            ),
            None => pcservice::log::init_from_env().map_err(|e| format!("PC_LOG: {e}"))?,
        }
        if !args.is_empty() {
            return Err(format!("unexpected arguments: {args:?}"));
        }
        let config = pcservice::DaemonConfig {
            socket_path: socket.map(std::path::PathBuf::from),
            http_addr: http,
            idle_timeout: std::time::Duration::from_millis(idle_timeout_ms.max(1) as u64),
            snapshot_path: snapshot.map(std::path::PathBuf::from),
            checkpoint_interval: checkpoint_secs
                .map(|secs| std::time::Duration::from_secs(secs.max(1) as u64)),
            max_connections,
            max_requests_per_conn: max_requests_per_conn as u64,
            drain_timeout: std::time::Duration::from_millis(drain_timeout_ms.max(1) as u64),
            faults,
            engine: {
                let mut engine = EngineConfig {
                    threads,
                    verify_covers: !no_verify,
                    cache_capacity,
                    cache_shards,
                    slow_log_micros: slow_ms.map(|ms| ms.saturating_mul(1000)),
                    pool_threads: threads,
                    max_inflight,
                    ..EngineConfig::default()
                };
                match backend.as_deref() {
                    None => {}
                    Some("sim") => engine.parallel_min_vertices = 0,
                    Some("pool") => engine.parallel_min_vertices = 1,
                    Some(other) => return Err(format!("unknown backend '{other}' (sim|pool)")),
                }
                engine
            },
        };
        let resolved_threads =
            parpool::resolve_threads(if threads == 0 { None } else { Some(threads) });
        let parallel_note = match config.engine.parallel_min_vertices {
            0 => "parallel solve disabled (--backend sim)".to_string(),
            1 => "every full-cover solve on the pool (--backend pool)".to_string(),
            min => format!("pool engages at >= {min} vertices"),
        };
        eprintln!(
            "threads: {resolved_threads} resolved from --threads {threads} \
             (0 = available parallelism); {parallel_note}"
        );
        let daemon = pcservice::Daemon::bind(config).map_err(|e| format!("binding: {e}"))?;
        if let Some(outcome) = daemon.snapshot_load() {
            use pcservice::LoadOutcome;
            match outcome {
                LoadOutcome::ColdStart => eprintln!("snapshot: no file yet, starting cold"),
                LoadOutcome::Warm(report) => eprintln!(
                    "snapshot: warm start — {} entries ({} graph links) loaded",
                    report.entries, report.links
                ),
                LoadOutcome::Unreadable(error) => {
                    eprintln!("snapshot: unreadable ({error}); file left in place — starting cold")
                }
                LoadOutcome::Quarantined { error, moved_to } => eprintln!(
                    "snapshot: REJECTED ({error}); {} — starting cold",
                    match moved_to {
                        Some(path) => format!("file quarantined to {}", path.display()),
                        None => "file could not be quarantined".to_string(),
                    }
                ),
            }
        }
        if let Some(path) = daemon.socket_path() {
            eprintln!(
                "pathcover daemon serving on {} (proto pcp{}; run 'pathcover-cli shutdown \
                 --remote {}' to stop)",
                path.display(),
                pcservice::PROTO_VERSION,
                path.display()
            );
        }
        if let Some(addr) = daemon.http_addr() {
            // The resolved address matters when --http asked for port 0.
            eprintln!(
                "pathcover daemon serving http on {addr} (POST /v1/solve, POST /v1/batch, \
                 GET /v1/stats, GET /healthz, POST /v2/query; POST /v1/shutdown to stop)"
            );
        }
        daemon.run().map_err(|e| format!("serving: {e}"))?;
        eprintln!("pathcover daemon stopped");
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let remote = take_remote(&mut args)?
        .ok_or_else(|| format!("'stats' needs --remote SOCK or --remote-http ADDR\n{USAGE}"))?;
    let json = take_switch(&mut args, "--json");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let mut client = remote.connect()?;
    let stats = client.stats().map_err(|e| format!("remote stats: {e}"))?;
    if json {
        println!("{stats}");
        return Ok(ExitCode::SUCCESS);
    }
    let num = |field: &str| stats.get(field).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "cache: {} hits, {} misses, {} evictions, {} resident across {} shards",
        num("hits"),
        num("misses"),
        num("evictions"),
        num("entries"),
        num("shards"),
    );
    if let Some(Json::Num(rate)) = stats.get("hit_rate") {
        println!("hit rate: {:.1}%", rate * 100.0);
    }
    println!("uptime: {} s", num("uptime_secs"));
    match stats.get("snapshot") {
        None | Some(Json::Null) => println!("snapshot: not configured"),
        Some(snapshot) => {
            let snum = |field: &str| snapshot.get(field).and_then(Json::as_u64);
            println!(
                "snapshot: {} — {} entries loaded at start, last checkpoint {}",
                snapshot.get("path").and_then(Json::as_str).unwrap_or("?"),
                snum("loaded_entries").unwrap_or(0),
                match snum("last_checkpoint_unix") {
                    Some(unix) => format!("at unix {unix}"),
                    None => "never".to_string(),
                }
            );
        }
    }
    if let Some(Json::Arr(shards)) = stats.get("per_shard") {
        for (i, shard) in shards.iter().enumerate() {
            let num = |field: &str| shard.get(field).and_then(Json::as_u64).unwrap_or(0);
            // Older daemons omit the per-shard rate: derive it so the
            // column renders against any server version.
            let rate = match shard.get("hit_rate") {
                Some(Json::Num(rate)) => *rate,
                _ => {
                    let looked_up = num("hits") + num("misses");
                    if looked_up == 0 {
                        0.0
                    } else {
                        num("hits") as f64 / looked_up as f64
                    }
                }
            };
            println!(
                "  shard {i}: {} hits, {} misses, {} evictions, {} resident, {:.1}% hit rate",
                num("hits"),
                num("misses"),
                num("evictions"),
                num("entries"),
                rate * 100.0,
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one latency summary object (`count`/`mean_us`/`p50_us`/...) on
/// a single line, used for both pipeline stages and request histograms.
fn latency_summary(label: &str, summary: &Json) -> String {
    let num = |field: &str| summary.get(field).and_then(Json::as_u64).unwrap_or(0);
    if num("count") == 0 {
        return format!("  {label}: no samples");
    }
    format!(
        "  {label}: {} samples, mean {} us, p50 {} us, p90 {} us, p99 {} us",
        num("count"),
        num("mean_us"),
        num("p50_us"),
        num("p90_us"),
        num("p99_us"),
    )
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let remote = take_remote(&mut args)?
        .ok_or_else(|| format!("'metrics' needs --remote SOCK or --remote-http ADDR\n{USAGE}"))?;
    let json = take_switch(&mut args, "--json");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let mut client = remote.connect()?;
    let metrics = client
        .metrics()
        .map_err(|e| format!("remote metrics: {e}"))?;
    if json {
        println!("{metrics}");
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "requests: {} total",
        metrics
            .get("requests_total")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    );
    // One block per declared family that has a JSON path, headed by its
    // HELP text; labelled counters list only their non-zero series.
    for &metric in Metric::ALL {
        let family = metric.family();
        let help = family.help.trim_end_matches('.');
        let rows: Vec<(String, &Json)> = (0..family.axis.width())
            .filter_map(|i| {
                let path = family.json_path(i)?;
                let value = path.iter().try_fold(&metrics, |node, key| node.get(key))?;
                let labels: Vec<String> =
                    family.axis.labels(i).into_iter().map(|(_, v)| v).collect();
                Some((labels.join(" "), value))
            })
            .collect();
        let labelled = family.axis != Axis::None;
        if !labelled && family.ty != Type::Histogram {
            for (_, value) in rows {
                println!("{help}: {value}");
            }
            continue;
        }
        let lines: Vec<String> = rows
            .into_iter()
            .filter_map(|(label, value)| match family.ty {
                Type::Histogram => Some(latency_summary(
                    if labelled { &label } else { "all" },
                    value,
                )),
                _ => (value.as_u64() != Some(0)).then(|| format!("  {label}: {value}")),
            })
            .collect();
        if !lines.is_empty() {
            println!("{help}:\n{}", lines.join("\n"));
        }
    }
    if let Some(version) = metrics.get("version") {
        let field = |name: &str| version.get(name).and_then(Json::as_str).unwrap_or("?");
        println!(
            "server: {} (proto {}, snapshot {})",
            field("server"),
            field("proto"),
            field("snapshot_format"),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// One human-readable index line for a trace summary object.
fn print_trace_summary(summary: &Json) {
    let text = |field: &str| summary.get(field).and_then(Json::as_str).unwrap_or("?");
    let num = |field: &str| summary.get(field).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "{}  {}  {}  {} us  {} spans{}",
        text("trace_id"),
        text("kind"),
        text("outcome"),
        num("total_us"),
        num("spans"),
        if summary.get("protected").and_then(Json::as_bool) == Some(true) {
            "  [protected]"
        } else {
            ""
        },
    );
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let Some((action, rest)) = args.split_first() else {
        return Err(format!(
            "'trace' needs an action: list, get or watch\n{USAGE}"
        ));
    };
    let mut rest = rest.to_vec();
    let remote = take_remote(&mut rest)?.ok_or_else(|| {
        format!("'trace {action}' needs --remote SOCK or --remote-http ADDR\n{USAGE}")
    })?;
    match action.as_str() {
        "list" => {
            let json = take_switch(&mut rest, "--json");
            if !rest.is_empty() {
                return Err(format!("unexpected arguments: {rest:?}"));
            }
            let mut client = remote.connect()?;
            let index = client
                .trace(None, false)
                .map_err(|e| format!("remote trace: {e}"))?;
            if json {
                println!("{index}");
                return Ok(ExitCode::SUCCESS);
            }
            let num = |field: &str| index.get(field).and_then(Json::as_u64).unwrap_or(0);
            println!(
                "flight recorder: {} retained (capacity {}), {} sampled out, {} evicted",
                num("retained"),
                num("capacity"),
                num("sampled_out"),
                num("evicted"),
            );
            if let Some(Json::Arr(traces)) = index.get("traces") {
                for summary in traces {
                    print_trace_summary(summary);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "get" => {
            let chrome = take_switch(&mut rest, "--chrome");
            let json = take_switch(&mut rest, "--json");
            let [id] = rest.as_slice() else {
                return Err(format!("'trace get' needs exactly one trace ID\n{USAGE}"));
            };
            let mut client = remote.connect()?;
            let trace = client
                .trace(Some(id), chrome)
                .map_err(|e| format!("remote trace: {e}"))?;
            if chrome || json {
                // --chrome prints the Chrome trace-event export verbatim
                // (redirect to a file and load it in chrome://tracing or
                // Perfetto); --json prints the native trace object.
                println!("{trace}");
                return Ok(ExitCode::SUCCESS);
            }
            let text = |field: &str| trace.get(field).and_then(Json::as_str).unwrap_or("?");
            let num = |field: &str| trace.get(field).and_then(Json::as_u64).unwrap_or(0);
            println!(
                "trace {} — {} {} in {} us{}",
                text("trace_id"),
                text("kind"),
                text("outcome"),
                num("total_us"),
                if trace.get("protected").and_then(Json::as_bool) == Some(true) {
                    " [protected]"
                } else {
                    ""
                },
            );
            if let Some(Json::Arr(spans)) = trace.get("spans") {
                for span in spans {
                    let at = |field: &str| span.get(field).and_then(Json::as_u64).unwrap_or(0);
                    let detail = match span.get("detail") {
                        Some(Json::Obj(pairs)) => pairs
                            .iter()
                            .map(|(key, value)| match value.as_str() {
                                Some(text) => format!(" {key}={text}"),
                                None => format!(" {key}={value}"),
                            })
                            .collect::<String>(),
                        _ => String::new(),
                    };
                    println!(
                        "  {:>9} us  +{:<9} {}{detail}",
                        at("start_us"),
                        at("dur_us"),
                        span.get("name").and_then(Json::as_str).unwrap_or("?"),
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "watch" => {
            let interval_ms = take_num_flag(&mut rest, "--interval-ms", 2_000)?;
            if !rest.is_empty() {
                return Err(format!("unexpected arguments: {rest:?}"));
            }
            let mut client = remote.connect()?;
            eprintln!("watching flight recorder (poll every {interval_ms} ms, Ctrl-C to stop)");
            // The first poll prints the current backlog, later polls only
            // traces with an unseen sequence number.
            let mut last_seq: Option<u64> = None;
            loop {
                let index = client
                    .trace(None, false)
                    .map_err(|e| format!("remote trace: {e}"))?;
                if let Some(Json::Arr(traces)) = index.get("traces") {
                    let mut fresh: Vec<&Json> = traces
                        .iter()
                        .filter(|summary| summary.get("seq").and_then(Json::as_u64) > last_seq)
                        .collect();
                    // The index is newest-first; emit in arrival order.
                    fresh.reverse();
                    for summary in fresh {
                        print_trace_summary(summary);
                    }
                    if let Some(max) = traces
                        .iter()
                        .filter_map(|summary| summary.get("seq").and_then(Json::as_u64))
                        .max()
                    {
                        last_seq = Some(last_seq.map_or(max, |seen| seen.max(max)));
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100) as u64));
            }
        }
        other => Err(format!("unknown trace action '{other}'\n{USAGE}")),
    }
}

fn cmd_shutdown(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let remote = take_remote(&mut args)?
        .ok_or_else(|| format!("'shutdown' needs --remote SOCK or --remote-http ADDR\n{USAGE}"))?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let mut client = remote.connect()?;
    client
        .shutdown()
        .map_err(|e| format!("remote shutdown: {e}"))?;
    let endpoint = match &remote {
        RemoteTarget::Socket(socket) => socket.clone(),
        RemoteTarget::Http(addr) => format!("http://{addr}"),
    };
    eprintln!("daemon on {endpoint} acknowledged shutdown");
    Ok(ExitCode::SUCCESS)
}

fn parse_list(text: &str, flag: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| format!("{flag}: '{t}' is not a number"))
        })
        .collect()
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let batches = match take_flag(&mut args, "--batches")? {
        Some(text) => parse_list(&text, "--batches")?,
        None => vec![1, 64, 4096],
    };
    let threads = match take_flag(&mut args, "--threads")? {
        Some(text) => parse_list(&text, "--threads")?,
        None => vec![1, 2, 4, 8],
    };
    let n = take_num_flag(&mut args, "--n", 64)?;
    let json_out = take_flag(&mut args, "--json")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    // A pool of distinct cotrees; batches cycle through it, so large batches
    // exercise the cache the way repeated production traffic would.
    const POOL: usize = 32;
    let pool: Vec<GraphSpec> = (0..POOL)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(i as u64);
            let tree = cograph::random_cotree(n, cograph::CotreeShape::Mixed, &mut rng);
            GraphSpec::Graph(tree.to_graph())
        })
        .collect();

    let resolved: Vec<usize> = threads
        .iter()
        .map(|&t| parpool::resolve_threads(if t == 0 { None } else { Some(t) }))
        .collect();
    eprintln!(
        "threads {threads:?} resolve to {resolved:?} (0 = available parallelism, clamped 1..=64)"
    );
    let mut json_lines = Vec::new();
    println!("batch-size  threads  queries/sec  ms/batch  cache-hit%");
    for &batch in &batches {
        let requests: Vec<QueryRequest> = (0..batch)
            .map(|i| {
                let kind = QueryKind::ALL[i % QueryKind::ALL.len()];
                QueryRequest::new(kind, pool[i % POOL].clone())
            })
            .collect();
        for &t in &threads {
            let engine = QueryEngine::new(EngineConfig {
                threads: t,
                ..EngineConfig::default()
            });
            // Warm-up round fills the cache; timed round measures serving.
            engine.execute_batch(None, &requests);
            let started = Instant::now();
            let responses = engine.execute_batch(None, &requests);
            let elapsed = started.elapsed();
            let failures = responses.iter().filter(|r| r.outcome.is_err()).count();
            if failures > 0 {
                return Err(format!("{failures} bench queries failed"));
            }
            let stats = engine.cache_stats();
            let qps = batch as f64 / elapsed.as_secs_f64();
            let hit_pct = 100.0 * stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
            println!(
                "{batch:>10}  {t:>7}  {qps:>11.0}  {:>8.3}  {hit_pct:>9.1}",
                elapsed.as_secs_f64() * 1e3
            );
            json_lines.push(format!(
                "{{\"batch\":{batch},\"threads\":{t},\"n\":{n},\"qps\":{qps:.1},\"ms_per_batch\":{:.3},\"cache_hit_pct\":{hit_pct:.1}}}",
                elapsed.as_secs_f64() * 1e3
            ));
        }
    }
    if let Some(path) = json_out {
        std::fs::write(&path, json_lines.join("\n") + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} measurements to {path}", json_lines.len());
    }
    Ok(ExitCode::SUCCESS)
}
