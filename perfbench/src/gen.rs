//! Seeded input generation shared by every workload.
//!
//! Everything here is a pure function of the `--seed` argument: the same
//! seed yields byte-identical request bodies and the same expected answers.
//! Graphs are produced as random cotrees ([`Tree`]), so the benchmark knows
//! each graph's structure independently of the daemon and can compute the
//! expected answers with code the daemon does not serve with.

use cograph::Cotree;
use pcgraph::{Graph, VertexId};

/// SplitMix64: small, fast and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream derived from this seed and a label, so adding
    /// draws to one part of a workload does not shift another part.
    pub fn derive(seed: u64, label: u64) -> Rng {
        let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ label);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) sampler over `0..n` by inverse CDF (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at cumulative probability `u` in `[0, 1)`.
    pub fn at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A cotree whose leaves carry the served vertex ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    Leaf(VertexId),
    Union(Vec<Tree>),
    Join(Vec<Tree>),
}

impl Tree {
    fn combine(join: bool, parts: Vec<Tree>) -> Tree {
        // Flatten same-kind children so the result is a proper cotree
        // (kinds alternate along every root-to-leaf path).
        let mut flat = Vec::with_capacity(parts.len());
        for part in parts {
            match (join, part) {
                (true, Tree::Join(children)) | (false, Tree::Union(children)) => {
                    flat.extend(children)
                }
                (_, other) => flat.push(other),
            }
        }
        if flat.len() == 1 {
            return flat.pop().expect("one part");
        }
        if join {
            Tree::Join(flat)
        } else {
            Tree::Union(flat)
        }
    }

    pub fn children(&self) -> &[Tree] {
        match self {
            Tree::Leaf(_) => &[],
            Tree::Union(c) | Tree::Join(c) => c,
        }
    }

    pub fn num_vertices(&self) -> usize {
        match self {
            Tree::Leaf(_) => 1,
            _ => self.children().iter().map(Tree::num_vertices).sum(),
        }
    }

    /// Edge count: every join node connects each pair of its children.
    pub fn num_edges(&self) -> usize {
        match self {
            Tree::Leaf(_) => 0,
            Tree::Union(c) => c.iter().map(Tree::num_edges).sum(),
            Tree::Join(c) => {
                let sizes: Vec<usize> = c.iter().map(Tree::num_vertices).collect();
                let total: usize = sizes.iter().sum();
                let cross = sizes.iter().map(|s| s * (total - s)).sum::<usize>() / 2;
                cross + c.iter().map(Tree::num_edges).sum::<usize>()
            }
        }
    }

    pub fn leaves(&self, out: &mut Vec<VertexId>) {
        match self {
            Tree::Leaf(v) => out.push(*v),
            _ => self.children().iter().for_each(|c| c.leaves(out)),
        }
    }

    /// Every edge `(u, v)` with `u < v`, in no particular order.
    pub fn edges(&self, out: &mut Vec<(VertexId, VertexId)>) {
        if let Tree::Join(children) = self {
            let sets: Vec<Vec<VertexId>> = children
                .iter()
                .map(|c| {
                    let mut l = Vec::new();
                    c.leaves(&mut l);
                    l
                })
                .collect();
            for i in 0..sets.len() {
                for j in i + 1..sets.len() {
                    for &a in &sets[i] {
                        for &b in &sets[j] {
                            out.push((a.min(b), a.max(b)));
                        }
                    }
                }
            }
        }
        self.children().iter().for_each(|c| c.edges(out));
    }

    pub fn relabel(&self, map: &[VertexId]) -> Tree {
        match self {
            Tree::Leaf(v) => Tree::Leaf(map[*v as usize]),
            Tree::Union(c) => Tree::Union(c.iter().map(|t| t.relabel(map)).collect()),
            Tree::Join(c) => Tree::Join(c.iter().map(|t| t.relabel(map)).collect()),
        }
    }

    /// Term notation with numeric leaves, e.g. `(j 0 (u 1 2))`.
    pub fn term(&self, out: &mut String) {
        match self {
            Tree::Leaf(v) => out.push_str(&v.to_string()),
            Tree::Union(c) | Tree::Join(c) => {
                out.push_str(if matches!(self, Tree::Join(_)) {
                    "(j"
                } else {
                    "(u"
                });
                for child in c {
                    out.push(' ');
                    child.term(out);
                }
                out.push(')');
            }
        }
    }

    /// The same cotree with its leaves renumbered `0..n` in label order.
    pub fn compact(&self) -> Tree {
        let mut leaves = Vec::new();
        self.leaves(&mut leaves);
        let max = leaves.iter().copied().max().unwrap_or(0) as usize;
        let mut rank = vec![0 as VertexId; max + 1];
        leaves.sort_unstable();
        for (i, &v) in leaves.iter().enumerate() {
            rank[v as usize] = i as VertexId;
        }
        self.relabel(&rank)
    }

    /// The same cotree in the library's representation (labels kept).
    pub fn to_cotree(&self) -> Cotree {
        match self {
            Tree::Leaf(v) => Cotree::single(*v),
            Tree::Union(c) => Cotree::union_of_labelled(c.iter().map(Tree::to_cotree).collect()),
            Tree::Join(c) => Cotree::join_of_labelled(c.iter().map(Tree::to_cotree).collect()),
        }
    }

    /// Replaces leaf `x` by a twin pair `{x, v}`: joined (true twin) or
    /// unioned (false twin). Twins never create an induced `P_4`.
    pub fn add_twin(&self, x: VertexId, v: VertexId, adjacent: bool) -> Tree {
        match self {
            Tree::Leaf(y) if *y == x => Tree::combine(adjacent, vec![Tree::Leaf(x), Tree::Leaf(v)]),
            Tree::Leaf(_) => self.clone(),
            Tree::Union(c) => Tree::combine(
                false,
                c.iter().map(|t| t.add_twin(x, v, adjacent)).collect(),
            ),
            Tree::Join(c) => {
                Tree::combine(true, c.iter().map(|t| t.add_twin(x, v, adjacent)).collect())
            }
        }
    }
}

/// A random mixed cotree on leaves `first..first + n`, labelled in
/// depth-first order; each internal node is a join with probability
/// `q_join` (same-kind nesting is flattened).
pub fn random_tree(rng: &mut Rng, n: usize, q_join: f64, first: VertexId) -> Tree {
    if n == 1 {
        return Tree::Leaf(first);
    }
    let k = (2 + rng.below(3)).min(n);
    // A random composition of n into k positive parts.
    let mut cuts: Vec<usize> = Vec::with_capacity(k + 1);
    cuts.push(0);
    while cuts.len() < k {
        let c = 1 + rng.below(n - 1);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
    }
    cuts.push(n);
    cuts.sort_unstable();
    let join = rng.unit() < q_join;
    let mut next = first;
    let parts = cuts
        .windows(2)
        .map(|w| {
            let size = w[1] - w[0];
            let t = random_tree(rng, size, q_join, next);
            next += size as VertexId;
            t
        })
        .collect();
    Tree::combine(join, parts)
}

/// A random cotree on `n` leaves whose edge count is within `tol` of
/// `target_m` (retrying with fresh join probabilities until it is).
pub fn tree_with_edges(rng: &mut Rng, n: usize, target_m: usize, tol: f64) -> Tree {
    let density = target_m as f64 / (n * (n - 1) / 2) as f64;
    loop {
        let q = (density + (rng.unit() - 0.5) * 0.3).clamp(0.02, 0.98);
        let t = random_tree(rng, n, q, 0);
        let m = t.num_edges();
        if (m as f64 - target_m as f64).abs() <= tol * target_m as f64 {
            return t;
        }
    }
}

/// A uniformly random permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<VertexId> {
    let mut p: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut p);
    p
}

/// How a graph is put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    EdgeList,
    Dimacs,
    Cotree,
}

impl Format {
    pub fn field(self) -> &'static str {
        match self {
            Format::EdgeList => "edge_list",
            Format::Dimacs => "dimacs",
            Format::Cotree => "cotree",
        }
    }
}

/// Sorted, simple-graph [`Graph`] from an edge list (inserting in
/// lexicographic order keeps the adjacency sorted, so construction stays
/// linear).
pub fn graph_from_edges(n: usize, mut edges: Vec<(VertexId, VertexId)>) -> Graph {
    edges.sort_unstable();
    edges.dedup();
    let mut g = Graph::new(n);
    for (u, v) in edges {
        g.add_edge(u, v)
            .expect("generated edges are simple and in range");
    }
    g
}

/// Graph text in `format` for a graph on `n` vertices, edges shuffled so
/// the input order carries no structure. Isolated vertices are listed as
/// lone ids in edge-list text so the vertex count survives.
pub fn graph_text(
    rng: &mut Rng,
    n: usize,
    edges: &[(VertexId, VertexId)],
    format: Format,
) -> String {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    rng.shuffle(&mut order);
    let mut out = String::with_capacity(edges.len() * 12 + 32);
    use std::fmt::Write;
    match format {
        Format::EdgeList => {
            let mut degree = vec![0u32; n];
            for &i in &order {
                let (u, v) = edges[i];
                let (u, v) = if rng.next_u64() & 1 == 0 {
                    (u, v)
                } else {
                    (v, u)
                };
                degree[u as usize] += 1;
                degree[v as usize] += 1;
                let _ = writeln!(out, "{u} {v}");
            }
            for (v, d) in degree.iter().enumerate() {
                if *d == 0 {
                    let _ = writeln!(out, "{v}");
                }
            }
        }
        Format::Dimacs => {
            let _ = writeln!(out, "p edge {n} {}", edges.len());
            for &i in &order {
                let (u, v) = edges[i];
                let _ = writeln!(out, "e {} {}", u + 1, v + 1);
            }
        }
        Format::Cotree => unreachable!("cotree inputs are rendered from their tree"),
    }
    out
}

/// JSON string-body escaping (the generated texts only need `\n`, but
/// escape the full control range for safety).
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 6);
    for c in text.chars() {
        match c {
            '\n' => out.push_str("\\n"),
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tree() {
        let a = random_tree(&mut Rng::new(7), 200, 0.5, 0);
        let b = random_tree(&mut Rng::new(7), 200, 0.5, 0);
        assert_eq!(a, b);
        assert_eq!(a.num_vertices(), 200);
    }

    #[test]
    fn edge_count_matches_materialised_edges() {
        let t = random_tree(&mut Rng::new(3), 90, 0.6, 0);
        let mut edges = Vec::new();
        t.edges(&mut edges);
        assert_eq!(edges.len(), t.num_edges());
        let g = t.to_cotree().to_graph();
        assert_eq!(g.num_edges(), t.num_edges());
    }

    #[test]
    fn twins_keep_the_graph_a_cograph() {
        let mut rng = Rng::new(11);
        let mut t = random_tree(&mut rng, 20, 0.5, 0);
        for v in 20..40 {
            let x = rng.below(v as usize) as VertexId;
            t = t.add_twin(x, v, rng.unit() < 0.5);
            let mut edges = Vec::new();
            t.edges(&mut edges);
            let g = graph_from_edges(v as usize + 1, edges);
            assert!(cograph::is_cograph(&g));
        }
    }
}
