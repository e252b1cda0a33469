//! Pins the exported metrics surface byte for byte: one registry with a
//! distinct non-zero value in every counter, gauge and histogram series
//! renders exactly the checked-in JSON and Prometheus texts, and the stats
//! payload keeps its key set. Any change to a family's name, HELP/TYPE
//! line, label set, bucket bounds, JSON key or nesting fails here.

use pcservice::cache::{CacheStats, ShardStats};
use pcservice::telemetry::Telemetry;
use pcservice::{proto, Json, Metric, Outcome, QueryEngine, QueryKind, Stage, Transport};
use std::time::{SystemTime, UNIX_EPOCH};

const EXPECTED_JSON: &str = include_str!("fixtures/metrics_surface.json");
const EXPECTED_PROMETHEUS: &str = include_str!("fixtures/metrics_surface.prom");

/// Stands in for the wall-clock second of the last checkpoint in the
/// fixtures; the test checks the real value lies inside the fill window.
const LAST_UNIX_MARK: &str = "@LAST_SUCCESS_UNIX@";

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Fills every series with a distinct non-zero value.
fn filled_registry() -> Telemetry {
    let tel = Telemetry::new(true, None);
    for (k, &kind) in QueryKind::ALL.iter().enumerate() {
        for (o, &outcome) in Outcome::ALL.iter().enumerate() {
            let n = 1 + 4 * k as u64 + o as u64;
            for j in 0..n {
                tel.inc(Metric::Requests, (kind, outcome));
                tel.observe(Metric::RequestLatency, kind, 10 * n + 7 * j);
                tel.observe(Metric::OutcomeLatency, outcome, 10 * n + 7 * j);
            }
        }
    }
    for (i, &stage) in Stage::ALL.iter().enumerate() {
        for j in 0..(i as u64 + 2) {
            tel.observe(Metric::StageLatency, stage, (5u64 << (3 * i)) + j);
        }
    }
    for (t, &transport) in Transport::ALL.iter().enumerate() {
        let t = t as i64;
        tel.add(Metric::ConnectionsAccepted, transport, 6 + t);
        tel.add(Metric::ConnectionsActive, transport, 6 + t);
        tel.add(Metric::ConnectionsActive, transport, -(1 + 3 * t));
        tel.add(Metric::IdleTimeouts, transport, 8 + t);
        tel.add(Metric::OversizeRejects, transport, 10 + t);
        tel.add(Metric::AcceptErrors, transport, 12 + t);
    }
    tel.add(Metric::RejectedOverload, (), 14);
    tel.add(Metric::DeadlineExceeded, (), 15);
    tel.add(Metric::Inflight, (), 19 - 3);
    tel.observe(Metric::SnapshotCheckpoint, (), 1_500);
    tel.observe(Metric::SnapshotCheckpoint, (), 2_600);
    tel.set(Metric::SnapshotLastSuccess, (), unix_now());
    tel.add(Metric::SnapshotFailures, (), 20 + 18);
    tel.set(Metric::SnapshotConsecutiveFailures, (), 18);
    tel.add(Metric::PoolSolves, (), 27);
    for (metric, value) in [
        (Metric::PoolWorkers, 21),
        (Metric::PoolRounds, 22),
        (Metric::PoolSteals, 23),
        (Metric::PoolBarrierWaits, 24),
        (Metric::PoolBarrierWaitP50, 25),
        (Metric::PoolBarrierWaitP99, 26),
    ] {
        tel.set(metric, (), value);
    }
    tel.add(Metric::SessionsCreated, (), 40);
    tel.add(Metric::SessionsDropped, (), 29);
    tel.inc(Metric::SessionsExpired, ());
    tel.add(Metric::SessionMutations, (), 30);
    tel.add(Metric::SessionRecognizeIncremental, (), 31);
    tel.add(Metric::SessionRecognizeRebuild, (), 32);
    tel
}

/// Panics with the first differing line, which reads far better than a
/// multi-kilobyte `assert_eq!` dump.
fn assert_same_text(actual: &str, expected: &str, what: &str) {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{what}: first difference at line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{what}: line counts differ"
    );
    assert_eq!(actual, expected, "{what}: trailing bytes differ");
}

#[test]
fn json_and_prometheus_renderings_are_pinned() {
    let before = unix_now();
    let tel = filled_registry();
    let after = unix_now();
    let cache = CacheStats {
        hits: 33,
        misses: 34,
        evictions: 35,
        entries: 36,
        shards: 2,
    };
    let shard = ShardStats {
        hits: 41,
        misses: 42,
        evictions: 43,
        entries: 44,
    };
    let report = tel.report(cache, vec![shard; 2], 4242);

    let json = report.to_json();
    let last_unix = json
        .get("snapshot")
        .and_then(|s| s.get("last_success_unix"))
        .and_then(Json::as_u64)
        .expect("snapshot.last_success_unix");
    assert!(
        (before..=after).contains(&last_unix),
        "last checkpoint second {last_unix} outside the fill window {before}..={after}"
    );
    let stamp = last_unix.to_string();
    assert_same_text(
        &json.to_string(),
        EXPECTED_JSON
            .trim_end()
            .replace(LAST_UNIX_MARK, &stamp)
            .as_str(),
        "to_json",
    );

    let prometheus: String = report
        .to_prometheus()
        .lines()
        .map(|line| {
            if line.starts_with("pc_build_info{") {
                "pc_build_info{<masked>} 1\n".to_string()
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_same_text(
        &prometheus,
        &EXPECTED_PROMETHEUS.replace(LAST_UNIX_MARK, &stamp),
        "to_prometheus",
    );
}

#[test]
fn stats_payload_keeps_its_key_set() {
    let engine = QueryEngine::default();
    let stats = proto::stats_payload(&engine);
    let Json::Obj(fields) = &stats else {
        panic!("stats payload is not an object: {stats}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "hits",
            "misses",
            "evictions",
            "entries",
            "shards",
            "hit_rate",
            "per_shard",
            "uptime_secs",
            "requests_total",
            "stages",
            "sessions",
            "version",
            "snapshot",
        ]
    );
    let Some(Json::Obj(stages)) = stats.get("stages") else {
        panic!("stats payload lacks a stages object: {stats}");
    };
    let stage_keys: Vec<&str> = stages.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        stage_keys,
        ["ingest", "recognize", "cache_lookup", "solve", "verify"]
    );
    for (stage, summary) in stages {
        let Json::Obj(fields) = summary else {
            panic!("stage {stage} summary is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["count", "sum_us", "mean_us", "p50_us", "p90_us", "p99_us"]
        );
    }
}
