//! Engine-level tests for the real-cores pool backend: large full-cover
//! solves must route through the pool, answer identically to the sequential
//! engine, and publish pool telemetry through both export formats.

use cograph::{random_cotree, CotreeShape};
use pcservice::{Answer, EngineConfig, GraphSpec, Metric, QueryEngine, QueryKind, QueryRequest};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn cover_of(engine: &QueryEngine, tree: &cograph::Cotree) -> pcgraph::PathCover {
    let response = engine.execute(&QueryRequest::new(
        QueryKind::FullCover,
        GraphSpec::Cotree(tree.clone()),
    ));
    match response.outcome {
        Ok(Answer::FullCover {
            ref cover,
            verified,
        }) => {
            assert!(verified, "cover must be re-verified");
            cover.clone()
        }
        ref other => panic!("expected a full cover, got {other:?}"),
    }
}

#[test]
fn pool_engine_matches_sequential_engine_and_exports_telemetry() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    // Large enough to clear a low threshold; small enough to stay fast.
    let trees: Vec<_> = CotreeShape::ALL
        .iter()
        .map(|&shape| random_cotree(600, shape, &mut rng))
        .collect();

    let sequential = QueryEngine::new(EngineConfig {
        parallel_min_vertices: 0, // pool disabled
        ..EngineConfig::default()
    });
    let pooled = QueryEngine::new(EngineConfig {
        parallel_min_vertices: 1, // every full cover through the pool
        pool_threads: 2,
        ..EngineConfig::default()
    });

    for tree in &trees {
        assert_eq!(
            cover_of(&pooled, tree),
            cover_of(&sequential, tree),
            "pool-backed engine diverges from sequential engine"
        );
    }

    // The pool solves were recorded in telemetry...
    let report = pooled.metrics_report();
    assert_eq!(report.get(Metric::PoolSolves, ()), trees.len() as u64);
    assert_eq!(report.get(Metric::PoolWorkers, ()), 2);
    assert!(
        report.get(Metric::PoolRounds, ()) > 0,
        "pool executed no rounds: {report:?}"
    );

    // ...and both export formats carry the pool block.
    let json = report.to_json().to_string();
    assert!(json.contains("\"pool\""), "JSON export lacks pool: {json}");
    assert!(json.contains("\"workers\":2"), "JSON pool workers: {json}");
    let prom = report.to_prometheus();
    assert!(prom.contains("pc_pool_solves_total 3"), "{prom}");
    assert!(prom.contains("pc_pool_workers 2"), "{prom}");
    assert!(prom.contains("pc_pool_rounds_total"), "{prom}");

    // The sequential engine never touched a pool.
    assert_eq!(sequential.metrics_report().get(Metric::PoolSolves, ()), 0);
}

#[test]
fn small_graphs_bypass_the_pool_under_the_default_threshold() {
    let mut rng = ChaCha8Rng::seed_from_u64(78);
    let tree = random_cotree(50, CotreeShape::Mixed, &mut rng);
    let engine = QueryEngine::new(EngineConfig::default());
    cover_of(&engine, &tree);
    assert_eq!(
        engine.metrics_report().get(Metric::PoolSolves, ()),
        0,
        "a 50-vertex solve must not engage the pool"
    );
}
