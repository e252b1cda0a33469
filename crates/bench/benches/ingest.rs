//! Ingestion throughput: `pcservice::ingest::parse` on the three input
//! shapes the serving benchmark sends.
//!
//! * `edge_list/n1024_m400k` — a dense random cograph (n = 1024, about
//!   400k edges) as a shuffled edge list, endpoints in random order, the
//!   `warm_dense_http` body shape (≈3.4 MB);
//! * `dimacs/n1024_m400k` — the same graph as DIMACS;
//! * `cotree/n65536` — the disjoint union of 2048 random 32-vertex cotrees
//!   as one term, the `large_sparse_cover` body shape.
//!
//! Recording a baseline: `CRITERION_JSON=BENCH_service.json cargo bench
//! -p pc-bench --bench ingest` appends one JSON line per measurement.
use cograph::{random_cotree, Cotree, CotreeShape};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pcservice::ingest::{self, GraphFormat, Ingested};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

/// Edges of a random cograph on `vertices`: random binary splits, each a
/// join with probability `q`.
fn cograph_edges(rng: &mut ChaCha8Rng, vertices: &[u32], q: f64, out: &mut Vec<(u32, u32)>) {
    if vertices.len() < 2 {
        return;
    }
    let (left, right) = vertices.split_at(rng.gen_range(1..vertices.len()));
    cograph_edges(rng, left, q, out);
    cograph_edges(rng, right, q, out);
    if rng.gen_bool(q) {
        out.extend(
            left.iter()
                .flat_map(|&u| right.iter().map(move |&v| (u, v))),
        );
    }
}

/// A cograph on `n` vertices with `target` edges ± 1%, edges shuffled and
/// each pair in random orientation.
fn dense_edges(rng: &mut ChaCha8Rng, n: usize, target: usize) -> Vec<(u32, u32)> {
    let vertices: Vec<u32> = (0..n as u32).collect();
    let q = target as f64 / (n * (n - 1) / 2) as f64;
    let mut edges = Vec::new();
    loop {
        edges.clear();
        cograph_edges(rng, &vertices, q, &mut edges);
        if edges.len().abs_diff(target) * 100 <= target {
            break;
        }
    }
    edges.shuffle(rng);
    for edge in &mut edges {
        if rng.gen_bool(0.5) {
            *edge = (edge.1, edge.0);
        }
    }
    edges
}

fn edge_list_text(n: usize, edges: &[(u32, u32)]) -> String {
    let mut out = String::with_capacity(edges.len() * 10);
    let mut seen = vec![false; n];
    for &(u, v) in edges {
        seen[u as usize] = true;
        seen[v as usize] = true;
        let _ = writeln!(out, "{u} {v}");
    }
    for (v, _) in seen.iter().enumerate().filter(|(_, &seen)| !seen) {
        let _ = writeln!(out, "{v}");
    }
    out
}

fn dimacs_text(n: usize, edges: &[(u32, u32)]) -> String {
    let mut out = format!("p edge {n} {}\n", edges.len());
    for &(u, v) in edges {
        let _ = writeln!(out, "e {} {}", u + 1, v + 1);
    }
    out
}

fn sparse_term(rng: &mut ChaCha8Rng) -> String {
    let parts = (0..2048)
        .map(|_| random_cotree(32, CotreeShape::Mixed, rng))
        .collect();
    Cotree::union_of(parts).to_term()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_ingest");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let n = 1024;
    let edges = dense_edges(&mut rng, n, 400_000);
    let inputs = [
        (
            "edge_list",
            format!("n1024_m{}k", edges.len() / 1000),
            edge_list_text(n, &edges),
            GraphFormat::EdgeList,
        ),
        (
            "dimacs",
            format!("n1024_m{}k", edges.len() / 1000),
            dimacs_text(n, &edges),
            GraphFormat::Dimacs,
        ),
        (
            "cotree",
            "n65536".to_string(),
            sparse_term(&mut rng),
            GraphFormat::CotreeTerm,
        ),
    ];
    for (format_name, size, text, format) in &inputs {
        group.bench_with_input(BenchmarkId::new(*format_name, size), text, |b, text| {
            b.iter(|| match ingest::parse(black_box(text), *format) {
                Ok(Ingested::Graph(g)) => g.num_edges(),
                Ok(Ingested::Cotree(t)) => t.num_nodes(),
                Err(err) => panic!("{format_name} input must parse: {err}"),
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
