//! `perfbench` — the serving benchmark for `pathcover-cli serve`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --cli <path to pathcover-cli> [--smoke] [--out <dir>]
//! ```
//!
//! Generates the workload from the seed, starts the daemon as a child
//! process (several times, to measure set-up), drives it through its public
//! endpoints, checks every reply independently and prints one line per
//! metric followed by a JSON summary as the last line of stdout. With
//! `--trace 1` it also records spans, replays the workload through the
//! program's layer functions in-process and prints the per-layer metrics.
//! See README.md for the workloads and what each metric should show.

mod check;
mod daemon;
mod gen;
mod load;
mod net;
mod replay;
mod trace;
mod workload;

use daemon::{Counters, Daemon};
use load::{Sample, Step, Target};
use net::Handles;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Drive, Expect, Request, Scale, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cli: PathBuf::new(),
        smoke: false,
        out: PathBuf::from(".bench_run"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?
            }
            "--trace" => args.trace = value()? == "1",
            "--cli" => args.cli = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    if !args.cli.is_file() {
        return Err(format!("--cli {:?} is not a file", args.cli));
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Linear-interpolated quantile of sorted data.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// The tail percentile the sample supports: p99 when at least ten samples
/// lie beyond it, else the highest percentile that still has ten beyond
/// it (never below the median).
fn tail_q(n: usize) -> f64 {
    if n <= 20 {
        0.5
    } else {
        (1.0 - 10.0 / n as f64).min(0.99)
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

/// Results of driving the daemon once.
struct Phase {
    samples: Vec<Sample>,
    /// Seconds from the phase start to the last reply of the window the
    /// throughput is computed over.
    elapsed: f64,
    /// Open loop: per step (offered rate, p99 ms, sustained, requests).
    steps: Vec<(f64, f64, bool, usize)>,
}

/// The open-loop rate steps: the reference rate for half the time, then a
/// ladder of higher rates for `max_rate_rps`.
fn open_steps(seconds: f64, smoke: bool) -> Vec<Step> {
    let (base, ladder): (f64, &[f64]) = if smoke {
        (100.0, &[200.0])
    } else {
        (200.0, &[300.0, 400.0, 500.0, 600.0, 800.0])
    };
    let mut steps = vec![Step {
        rate: base,
        seconds: seconds * 0.5,
    }];
    let each = seconds * 0.5 / ladder.len() as f64;
    steps.extend(ladder.iter().map(|&rate| Step {
        rate,
        seconds: each,
    }));
    steps
}

const LATENCY_LIMIT_MS: f64 = 10.0;

/// A step is sustained when its p99 meets the limit and latency did not
/// climb through the step (a growing backlog).
fn sustained(samples: &[Sample]) -> bool {
    if samples.is_empty() {
        return false;
    }
    let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    let p99 = quantile(&sorted(lat.clone()), 0.99);
    let q = lat.len() / 4;
    let first = median(lat[..q.max(1)].to_vec());
    let last = median(lat[lat.len() - q.max(1)..].to_vec());
    p99 <= LATENCY_LIMIT_MS && last <= 2.0 * first + 1.0
}

/// Drives the daemon for `seconds`; an open loop starts at request
/// `offset` of its schedule.
fn drive(
    work: &Workload,
    target: &Target,
    handles: &Handles,
    args: &Args,
    seconds: f64,
    offset: usize,
    recorder: Option<&trace::Recorder>,
) -> std::io::Result<Phase> {
    match &work.drive {
        Drive::Closed { streams, unit } => {
            let (samples, elapsed) =
                load::closed(target, streams, seconds, *unit, handles, recorder)?;
            Ok(Phase {
                samples,
                elapsed,
                steps: Vec::new(),
            })
        }
        Drive::Open { requests } => {
            let steps = open_steps(seconds, args.smoke);
            let samples = load::open(
                target,
                &requests[offset..],
                &steps,
                handles,
                recorder,
                args.seed,
                &sustained,
            )?;
            let mut samples = samples;
            for s in &mut samples {
                s.index += offset;
            }
            let mut step_rows = Vec::new();
            let mut elapsed = 0.0;
            for (i, step) in steps.iter().enumerate() {
                let in_step: Vec<&Sample> = samples.iter().filter(|s| s.step == i).collect();
                if in_step.is_empty() {
                    break;
                }
                let owned: Vec<Sample> = in_step.iter().map(|s| (*s).clone()).collect();
                let p99 = quantile(
                    &sorted(owned.iter().map(Sample::latency_ms).collect()),
                    0.99,
                );
                step_rows.push((step.rate, p99, sustained(&owned), owned.len()));
                if i == 0 {
                    let start = in_step.iter().map(|s| s.due).fold(f64::MAX, f64::min);
                    elapsed = in_step.iter().map(|s| s.done).fold(0.0, f64::max) - start;
                }
            }
            Ok(Phase {
                samples,
                elapsed,
                steps: step_rows,
            })
        }
    }
}

fn requests_of(work: &Workload) -> Vec<&Request> {
    match &work.drive {
        Drive::Closed { .. } => Vec::new(),
        Drive::Open { requests } => requests.iter().collect(),
    }
}

fn request_of<'w>(work: &'w Workload, s: &Sample) -> &'w Request {
    match &work.drive {
        Drive::Closed { streams, .. } => &streams[s.conn][s.index],
        Drive::Open { requests } => &requests[s.index],
    }
}

fn header(args: &Args) {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} commit={} rustc={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
    );
}

fn run(args: &Args) -> Result<bool, String> {
    header(args);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("creating {:?}: {e}", args.out))?;
    let scale = Scale { smoke: args.smoke };
    let gen_started = Instant::now();
    let work = match args.workload.as_str() {
        "warm_dense_http" => workload::warm_dense_http(args.seed, scale),
        "large_sparse_cover" => workload::large_sparse_cover(args.seed, scale),
        _ => {
            let total: f64 = open_steps(args.seconds, args.smoke)
                .iter()
                .map(|s| s.rate * s.seconds)
                .sum();
            // Headroom for Poisson arrivals running above their mean.
            workload::small_mixed(args.seed, scale, (total * 1.2).ceil() as usize + 64)
        }
    };
    println!(
        "# generated {} inputs, {} sessions in {:.2} s (excluded from setup_s)",
        work.inputs.len(),
        work.sessions.len(),
        gen_started.elapsed().as_secs_f64()
    );

    let mut checker = check::Checker::new(&work);
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut first_failure: Option<String> = None;
    let mut tally = |checker: &mut check::Checker, req: &Request, status: u16, reply: &[u8]| {
        attempted += 1;
        let verdict = checker.check(req, status, reply);
        if let Err(why) = &verdict {
            failed += 1;
            if first_failure.is_none() {
                first_failure = Some(format!("{:?}: {why}", req.expect));
            }
        }
        verdict.is_ok()
    };

    // Set-up: spawn, bind, prime; repeated, the last daemon is kept.
    let setups = if args.smoke { 2 } else { 5 };
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let handles = Handles::new(work.sessions.len());
    for k in 0..setups {
        let started = Instant::now();
        let d = Daemon::spawn(
            &args.cli,
            &args.out,
            &format!("pc{}-{k}", std::process::id()),
        )
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let target = Target {
            transport: work.transport,
            http: &d.http,
            socket: &d.socket,
        };
        let primed = load::sequential(&target, &work.prime, &handles)
            .map_err(|e| format!("priming: {e}"))?;
        setup_s.push(started.elapsed().as_secs_f64());
        for s in &primed {
            tally(&mut checker, &work.prime[s.index], s.status, &s.reply);
        }
        if k + 1 < setups {
            d.shutdown()
                .map_err(|e| format!("stopping the daemon: {e}"))?;
        } else {
            daemon = Some(d);
        }
    }
    let d = daemon.expect("at least one set-up");
    let target = Target {
        transport: work.transport,
        http: &d.http,
        socket: &d.socket,
    };

    let before = Counters::read(&d).map_err(|e| format!("reading counters: {e}"))?;
    let recorder = trace::Recorder::default();
    let (main_phase, traced_phase) = if args.trace {
        let half = args.seconds / 2.0;
        let a = drive(&work, &target, &handles, args, half, 0, None)
            .map_err(|e| format!("load: {e}"))?;
        let next = a.samples.iter().map(|s| s.index + 1).max().unwrap_or(0);
        let b = drive(&work, &target, &handles, args, half, next, Some(&recorder))
            .map_err(|e| format!("traced load: {e}"))?;
        (a, Some(b))
    } else {
        let a = drive(&work, &target, &handles, args, args.seconds, 0, None)
            .map_err(|e| format!("load: {e}"))?;
        (a, None)
    };
    let after = Counters::read(&d).map_err(|e| format!("reading counters: {e}"))?;
    let peak_rss_mb = d.peak_rss_mb();
    d.shutdown()
        .map_err(|e| format!("stopping the daemon: {e}"))?;
    let delta = Counters::delta(&before, &after);

    // Check every reply and the daemon's request counter.
    let phases: Vec<&Phase> = std::iter::once(&main_phase)
        .chain(traced_phase.as_ref())
        .collect();
    let mut ok_flags: Vec<Vec<bool>> = Vec::new();
    let mut sent_queries = 0usize;
    for phase in &phases {
        let mut flags = Vec::with_capacity(phase.samples.len());
        for s in &phase.samples {
            let req = request_of(&work, s);
            if req.expect.counts_as_query() {
                sent_queries += 1;
            }
            flags.push(tally(&mut checker, req, s.status, &s.reply));
        }
        ok_flags.push(flags);
    }
    let counter_ok = delta.requests_total as usize == sent_queries
        && delta.stats_requests_total as usize == sent_queries;
    println!(
        "# counter cross-check: pc_requests_total delta {} (stats {}), query requests sent {} -> {}",
        delta.requests_total,
        delta.stats_requests_total,
        sent_queries,
        if counter_ok { "ok" } else { "MISMATCH" }
    );
    if !counter_ok {
        failed += 1;
        first_failure.get_or_insert_with(|| "daemon request counter mismatch".into());
    }

    // End-to-end metrics from the (untraced) main phase.
    let open = matches!(work.drive, Drive::Open { .. });
    let measured: Vec<(&Sample, bool)> = main_phase
        .samples
        .iter()
        .zip(&ok_flags[0])
        .filter(|(s, _)| s.step == 0)
        .map(|(s, ok)| (s, *ok))
        .collect();
    let latency = |s: &Sample| {
        if open {
            s.latency_ms()
        } else {
            (s.done - s.sent) * 1e3
        }
    };
    let good: Vec<&Sample> = measured
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(s, _)| *s)
        .collect();
    let lat = sorted(good.iter().map(|s| latency(s)).collect());
    let tq = tail_q(lat.len());
    let body_bytes: f64 = good
        .iter()
        .map(|s| request_of(&work, s).body_len() as f64)
        .sum();
    let n = lat.len();
    let mut e2e = vec![
        metric(
            "setup_s",
            median(setup_s.clone()),
            "s",
            format!("median of {setups} set-ups"),
        ),
        metric(
            "throughput_rps",
            n as f64 / main_phase.elapsed,
            "1/s",
            format!("n={n}"),
        ),
        metric(
            "goodput_mb_s",
            body_bytes / 1e6 / main_phase.elapsed,
            "MB/s",
            format!("n={n}"),
        ),
        metric(
            "latency_p50_ms",
            quantile(&lat, 0.5),
            "ms",
            format!("n={n}"),
        ),
        metric(
            "latency_tail_ms",
            quantile(&lat, tq),
            "ms",
            format!("p{:.1}, n={n}", tq * 100.0),
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB", "daemon VmHWM"),
    ];
    println!(
        "# latency quantiles (ms): p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
        quantile(&lat, 0.1),
        quantile(&lat, 0.25),
        quantile(&lat, 0.5),
        quantile(&lat, 0.75),
        quantile(&lat, 0.9),
        quantile(&lat, 1.0)
    );
    let lag = sorted(main_phase.samples.iter().map(Sample::lag_ms).collect());
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!(
        "# {} end-to-end ({}):",
        work.name,
        if open { "open loop" } else { "closed loop" }
    );
    if open {
        let mut max_rate = 0.0;
        for (rate, p99, ok, count) in &main_phase.steps {
            println!(
                "#   offered {rate:>6} rps: p99 {p99:.3} ms over {count} requests -> {}",
                if *ok { "sustained" } else { "not sustained" }
            );
            if *ok {
                max_rate = *rate;
            } else {
                break;
            }
        }
        println!(
            "{} max_rate_rps = {max_rate} 1/s (p99 <= {LATENCY_LIMIT_MS} ms, no backlog growth)",
            work.name
        );
    }
    println!(
        "{} error_rate = {error_rate} ratio (failed {failed} of {attempted})",
        work.name
    );
    println!(
        "{} loadgen.lag_p99_ms = {:.4} ms (n={})",
        work.name,
        quantile(&lag, 0.99),
        lag.len()
    );
    if let Some(why) = &first_failure {
        println!("# first failure: {why}");
    }

    let mut metrics = if args.trace {
        per_layer(
            &work,
            args,
            &main_phase,
            traced_phase.as_ref().expect("traced run"),
            &delta,
            &recorder,
            &latency,
        )?
    } else {
        std::mem::take(&mut e2e)
    };
    for m in e2e.iter().chain(metrics.iter()) {
        println!(
            "{} {} = {} {} ({})",
            work.name, m.name, m.value, m.unit, m.note
        );
    }
    let correct = failed == 0;
    let fields: Vec<String> = metrics
        .drain(..)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(correct)
}

/// The traced run's per-layer metrics, from the replay, the live spans
/// and the daemon's counter deltas.
fn per_layer(
    work: &Workload,
    args: &Args,
    untraced: &Phase,
    traced: &Phase,
    delta: &Counters,
    recorder: &trace::Recorder,
    latency: &dyn Fn(&Sample) -> f64,
) -> Result<Vec<Metric>, String> {
    // Replay: priming first (unmeasured, so caches match the live run),
    // then the measured traffic in order, each distinct request once for
    // closed loops.
    let replay_started = Instant::now();
    let mut replayer = replay::Replayer::new(work);
    for (i, r) in work.prime.iter().enumerate() {
        replayer
            .run(work, r, (1 << 48) | i as u64, false)
            .map_err(|e| format!("replay: {e}"))?;
    }
    let measured: Vec<&Request> = match &work.drive {
        Drive::Closed { streams, .. } => {
            let mut seen = std::collections::HashSet::new();
            streams
                .iter()
                .flatten()
                .filter(|r| seen.insert(replay::signature(r)))
                .collect()
        }
        Drive::Open { .. } => {
            let cap = if args.smoke { 200 } else { 1500 };
            requests_of(work).into_iter().take(cap).collect()
        }
    };
    for (i, r) in measured.iter().enumerate() {
        replayer
            .run(work, r, (2 << 48) | i as u64, true)
            .map_err(|e| format!("replay: {e}"))?;
    }
    let rep = &replayer.replay;
    println!(
        "# replayed {} priming + {} measured requests in-process in {:.2} s",
        work.prime.len(),
        measured.len(),
        replay_started.elapsed().as_secs_f64()
    );

    // Self-time table: each traced live request charged with its replayed
    // layer times, so layers weigh as often as the live mix calls them.
    // Round trip minus those layer times is the unattributed time.
    let mut table: BTreeMap<&str, f64> = BTreeMap::new();
    let mut charged = 0usize;
    let mut rt_total = 0.0;
    let mut unexplained = 0.0;
    for s in &traced.samples {
        if let Some(layers) = rep.by_request.get(&replay::signature(request_of(work, s))) {
            charged += 1;
            let rt = (s.done - s.sent) * 1e6;
            rt_total += rt;
            unexplained += rt;
            for (layer, us) in layers {
                *table.entry(layer).or_insert(0.0) += us;
                unexplained -= us;
            }
        }
    }
    let total: f64 = table.values().sum();
    let mut rows: Vec<(&str, f64)> = table.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "# {} layer self time, charged to {charged} traced requests (µs per request, share):",
        work.name
    );
    for (layer, us) in &rows {
        println!(
            "#   {layer:<22} {:>12.1} µs  {:>5.1}%",
            us / charged.max(1) as f64,
            100.0 * us / total.max(1e-9)
        );
    }
    if let Some((layer, _)) = rows.first() {
        let module = layer.split('.').next().unwrap_or(layer);
        println!("# largest layer on {}: {module} ({layer})", work.name);
    }
    let p50 = |phase: &Phase| {
        median(
            phase
                .samples
                .iter()
                .filter(|s| s.step == 0)
                .map(latency)
                .collect(),
        )
    };
    let overhead = (p50(traced) - p50(untraced)) / p50(untraced);
    let lag = sorted(untraced.samples.iter().map(Sample::lag_ms).collect());
    let queries = traced
        .samples
        .iter()
        .chain(&untraced.samples)
        .filter(|s| request_of(work, s).expect.counts_as_query())
        .count();
    let rejects = traced
        .samples
        .iter()
        .chain(&untraced.samples)
        .filter(|s| matches!(request_of(work, s).expect, Expect::Reject { .. }))
        .count();
    let replies: Vec<f64> = untraced
        .samples
        .iter()
        .map(|s| s.reply.len() as f64)
        .collect();
    let us = |layer: &str| rep.per_call_us(layer);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    // Layers a workload never calls are shown, not exported: a constant
    // zero time is not a measurement.
    for (name, value) in [
        ("recognition.recognize_us", us("recognition.recognize")),
        ("cache.insert_us", us("cache.insert")),
        ("session.mutate_us", us("session.mutate")),
        ("session.query_us", us("session.query")),
        (
            "parpool.barrier_wait_p99_us",
            (delta.pool_rounds > 0.0).then_some(delta.pool_barrier_p99_us),
        ),
    ] {
        match value {
            Some(v) => println!("{} {name} = {v} µs (per call)", work.name),
            None => println!(
                "{} {name} = - (layer not exercised by this workload)",
                work.name
            ),
        }
    }

    let spans = recorder.take();
    let chrome = trace::chrome_json(&[(1, &spans), (2, &rep.spans)]);
    let path = args
        .out
        .join(format!("trace-{}-{}.json", work.name, args.seed));
    std::fs::write(&path, chrome.to_string()).map_err(|e| format!("writing {path:?}: {e}"))?;
    println!(
        "# chrome trace ({} live + {} replay spans): {}",
        spans.len(),
        rep.spans.len(),
        path.display()
    );

    let per_call = |layer: &str| us(layer).unwrap_or(0.0);
    let hits = delta.cache_hits;
    let lookups = delta.cache_hits + delta.cache_misses;
    let session_recog = delta.session_incremental + delta.session_rebuild;
    Ok(vec![
        metric("http.read_us", per_call("http.read"), "us", "per call"),
        metric("json.decode_us", per_call("json.decode"), "us", "per call"),
        metric("v2.envelope_us", per_call("v2.envelope"), "us", "per call"),
        metric(
            "ingest.parse_us",
            per_call("ingest.parse"),
            "us",
            "per call",
        ),
        metric(
            "ingest.mb_s",
            rep.ingest_bytes
                / rep
                    .layers
                    .get("ingest.parse")
                    .map_or(1.0, |l| l.1.max(1e-9)),
            "MB/s",
            "bytes parsed per µs of ingest.parse",
        ),
        metric(
            "cache.fingerprint_us",
            per_call("cache.fingerprint"),
            "us",
            "per call",
        ),
        metric(
            "cache.lookup_us",
            per_call("cache.lookup"),
            "us",
            "per call",
        ),
        metric(
            "cache.hit_ratio",
            hits / lookups.max(1.0),
            "ratio",
            "daemon delta",
        ),
        metric(
            "cache.evictions",
            delta.cache_evictions,
            "count",
            "daemon delta",
        ),
        metric(
            "recognition.reject_share",
            rejects as f64 / queries.max(1) as f64,
            "ratio",
            "of query requests",
        ),
        metric(
            "pathcover.solve_us",
            per_call("pathcover.solve"),
            "us",
            "per call",
        ),
        metric("parpool.rounds", delta.pool_rounds, "count", "daemon delta"),
        metric("parpool.steals", delta.pool_steals, "count", "daemon delta"),
        metric(
            "pcgraph.verify_us",
            per_call("pcgraph.verify"),
            "us",
            "per call",
        ),
        metric("json.encode_us", per_call("json.encode"), "us", "per call"),
        metric(
            "json.reply_kb",
            mean(&replies) / 1024.0,
            "KiB",
            "mean live reply",
        ),
        metric("http.write_us", per_call("http.write"), "us", "per call"),
        metric(
            "session.incremental_ratio",
            delta.session_incremental / session_recog.max(1.0),
            "ratio",
            "daemon delta",
        ),
        metric(
            "engine.execute_us",
            mean(&rep.engine_execute_us),
            "us",
            "QueryEngine::execute",
        ),
        metric(
            "engine.self_us",
            mean(&rep.engine_self_us),
            "us",
            "execute minus inner layers",
        ),
        metric(
            "daemon.overload_rejects",
            delta.overload_rejects,
            "count",
            "daemon delta",
        ),
        metric(
            "loadgen.lag_p99_ms",
            quantile(&lag, 0.99),
            "ms",
            format!("n={}", lag.len()),
        ),
        metric(
            "unattributed_share",
            unexplained / rt_total.max(1e-9),
            "ratio",
            "round trip minus layer spans",
        ),
        metric(
            "trace.overhead_share",
            overhead,
            "ratio",
            "traced vs untraced p50",
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
