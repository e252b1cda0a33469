//! Engine-level tests for the real-cores pool backend. An engine told to use
//! the pool must route every full-cover solve through it, answer exactly
//! what the paper's pipeline answers on the host (`pathcover::path_cover`),
//! and publish pool telemetry through both export formats. The default
//! engine serves covers from the sequential solver and never builds a pool.

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

    let sequential = QueryEngine::new(EngineConfig::default());
    let pooled = QueryEngine::new(EngineConfig {
        parallel_min_vertices: 1, // every full cover through the pool
        pool_threads: 2,
        ..EngineConfig::default()
    });

    for tree in &trees {
        let pooled_cover = cover_of(&pooled, tree);
        assert_eq!(
            pooled_cover,
            pathcover::path_cover(tree),
            "pool-backed engine diverges from the host pipeline"
        );
        // The sequential solver builds a different cover of the same
        // (minimum) size; `cover_of` checked that it is verified.
        assert_eq!(cover_of(&sequential, tree).len(), pooled_cover.len());
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
    let engine = QueryEngine::new(EngineConfig::default());
    for n in [50, 5_000] {
        let tree = random_cotree(n, CotreeShape::Mixed, &mut rng);
        cover_of(&engine, &tree);
    }
    let report = engine.metrics_report();
    assert_eq!(
        report.get(Metric::PoolSolves, ()),
        0,
        "the default engine must not engage the pool at any size"
    );
    assert_eq!(report.get(Metric::PoolWorkers, ()), 0, "no pool is sized");
}
