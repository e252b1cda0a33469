//! Path-cover verification on the cotree itself.
//!
//! Two vertices of a cograph are adjacent exactly when their lowest common
//! ancestor in the cotree is a 1-node. A cover can therefore be checked
//! with one LCA query per consecutive pair, answered offline by Tarjan's
//! union–find algorithm in one post-order pass, instead of materialising
//! the graph's up to `n²/4` edges with [`Cotree::to_graph`].

use crate::cotree::{Cotree, CotreeKind, NO_NODE};
use pcgraph::{CoverReport, PathCover, VertexId};

impl Cotree {
    /// Verifies that `cover` is a path cover of the cograph this cotree
    /// describes. For a cotree labelled `0..n` the report is exactly the one
    /// [`pcgraph::verify_path_cover`] gives against [`Cotree::to_graph`],
    /// field by field and in the same order, but no graph is built.
    ///
    /// The graph's vertices are `0..n` for a cotree with `n` leaves. A cover
    /// vertex that no leaf carries is out of range, and every pair it is in
    /// is a non-edge. A tree with a leaf label outside `0..n` leaves some
    /// vertex of `0..n` without a leaf; that vertex can never be covered,
    /// so it is reported missing. Such a tree gets a report, never a panic.
    ///
    /// Runs iteratively in `O((N + k) α(N))` time and `O(N + k)` memory for
    /// `N` cotree nodes and `k` cover vertices, so a cotree `O(n)` levels
    /// deep costs heap, not call stack.
    pub fn verify_path_cover(&self, cover: &PathCover) -> CoverReport {
        let n = self.num_vertices();
        let nodes = self.num_nodes();
        let mut leaf_of = vec![NO_NODE; n];
        for u in 0..nodes {
            if let CotreeKind::Leaf(v) = self.kind(u) {
                if let Some(slot) = leaf_of.get_mut(v as usize) {
                    *slot = u;
                }
            }
        }
        let leaf = |v: VertexId| leaf_of.get(v as usize).copied().filter(|&u| u != NO_NODE);

        let mut times_covered = vec![0usize; n];
        let mut out_of_range = Vec::new();
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        for path in cover.paths() {
            for &v in path.vertices() {
                match leaf(v) {
                    Some(_) => times_covered[v as usize] += 1,
                    None => out_of_range.push(v),
                }
            }
            pairs.extend(path.vertices().windows(2).map(|w| (w[0], w[1])));
        }

        // Pair `q` between two distinct leaves becomes one LCA query, filed
        // under both leaves; every other pair is a non-edge outright.
        let leaf_pairs: Vec<Option<(usize, usize)>> = pairs
            .iter()
            .map(|&(a, b)| match (leaf(a), leaf(b)) {
                (Some(x), Some(y)) if x != y => Some((x, y)),
                _ => None,
            })
            .collect();
        let mut start = vec![0usize; nodes + 1];
        for &(x, y) in leaf_pairs.iter().flatten() {
            start[x + 1] += 1;
            start[y + 1] += 1;
        }
        for u in 0..nodes {
            start[u + 1] += start[u];
        }
        let mut fill = start.clone();
        let mut queries = vec![0usize; start[nodes]];
        for (q, ends) in leaf_pairs.iter().enumerate() {
            if let Some((x, y)) = *ends {
                for node in [x, y] {
                    queries[fill[node]] = q;
                    fill[node] += 1;
                }
            }
        }

        // Tarjan's offline LCA. A finished node's set is merged into its
        // parent's, whose `ancestor` is the parent until it finishes too, so
        // for a finished leaf `y` and the leaf `x` being finished,
        // `ancestor[find(y)]` is the deepest unfinished ancestor of `y`:
        // their LCA.
        let mut adjacent = vec![false; pairs.len()];
        let mut sets = DisjointSets::new(nodes);
        let mut ancestor: Vec<usize> = (0..nodes).collect();
        let mut finished = vec![false; nodes];
        for u in self.postorder() {
            finished[u] = true;
            for &q in &queries[start[u]..start[u + 1]] {
                let (x, y) = leaf_pairs[q].expect("only leaf pairs are queried");
                let other = if x == u { y } else { x };
                if finished[other] {
                    let lca = ancestor[sets.find(other)];
                    adjacent[q] = self.kind(lca) == CotreeKind::Join;
                }
            }
            let p = self.parent(u);
            if p != NO_NODE {
                let root = sets.union(u, p);
                ancestor[root] = p;
            }
        }

        let non_edges = pairs
            .iter()
            .zip(&adjacent)
            .filter(|(_, &adj)| !adj)
            .map(|(&pair, _)| pair)
            .collect();
        let vertices = || 0..n as VertexId;
        CoverReport {
            num_paths: cover.len(),
            covered: times_covered.iter().filter(|&&c| c > 0).count(),
            missing: vertices()
                .filter(|&v| times_covered[v as usize] == 0)
                .collect(),
            duplicated: vertices()
                .filter(|&v| times_covered[v as usize] > 1)
                .collect(),
            non_edges,
            out_of_range,
        }
    }
}

/// Union–find over `0..n` with union by size and path halving.
struct DisjointSets {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b` and returns the merged set's root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if self.size[a] < self.size[b] {
            std::mem::swap(&mut a, &mut b);
        }
        if a != b {
            self.parent[b] = a;
            self.size[a] += self.size[b];
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random_cotree, CotreeShape};
    use pcgraph::{verify_path_cover, Path};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cover(paths: &[&[VertexId]]) -> PathCover {
        PathCover::from_paths(paths.iter().map(|p| Path::new(p.to_vec())).collect())
    }

    /// `(u (j 0 1 2) (j 3 4))`: a triangle and an edge.
    fn triangle_and_edge() -> Cotree {
        let leaves = |vs: &[u32]| vs.iter().map(|&v| Cotree::single(v)).collect();
        Cotree::union_of_labelled(vec![
            Cotree::join_of_labelled(leaves(&[0, 1, 2])),
            Cotree::join_of_labelled(leaves(&[3, 4])),
        ])
    }

    #[test]
    fn accepts_a_valid_cover() {
        let report = triangle_and_edge().verify_path_cover(&cover(&[&[2, 0, 1], &[4, 3]]));
        assert!(report.is_valid(), "{report:?}");
        assert_eq!((report.num_paths, report.covered), (2, 5));
    }

    #[test]
    fn rejects_a_missing_vertex() {
        let report = triangle_and_edge().verify_path_cover(&cover(&[&[0, 1, 2], &[3]]));
        assert_eq!(report.missing, vec![4]);
        assert!(report.duplicated.is_empty() && report.non_edges.is_empty());
        assert!(!report.is_valid());
    }

    #[test]
    fn rejects_a_duplicate_vertex() {
        let report = triangle_and_edge().verify_path_cover(&cover(&[&[0, 1, 2], &[3, 4], &[1]]));
        assert_eq!(report.duplicated, vec![1]);
        assert!(report.missing.is_empty() && report.non_edges.is_empty());
        // A vertex repeated inside one path is a duplicate and a non-edge.
        let report = triangle_and_edge().verify_path_cover(&cover(&[&[0, 1, 1, 2], &[3, 4]]));
        assert_eq!(report.duplicated, vec![1]);
        assert_eq!(report.non_edges, vec![(1, 1)]);
    }

    #[test]
    fn rejects_an_out_of_range_vertex() {
        let report = triangle_and_edge().verify_path_cover(&cover(&[&[0, 1, 2], &[3, 4, 7]]));
        assert_eq!(report.out_of_range, vec![7]);
        assert_eq!(report.non_edges, vec![(4, 7)]);
        assert!(report.missing.is_empty() && report.duplicated.is_empty());
    }

    #[test]
    fn rejects_a_pair_whose_lca_is_a_union() {
        let report = triangle_and_edge().verify_path_cover(&cover(&[&[0, 1, 2, 3, 4]]));
        assert_eq!(report.non_edges, vec![(2, 3)]);
        assert!(report.missing.is_empty() && report.duplicated.is_empty());
    }

    #[test]
    fn labels_outside_the_vertex_range_give_a_report_not_a_panic() {
        let tree = Cotree::join_of_labelled(vec![Cotree::single(0), Cotree::single(5)]);
        let report = tree.verify_path_cover(&cover(&[&[0, 5]]));
        assert_eq!(report.out_of_range, vec![5]);
        assert_eq!(report.missing, vec![1]);
        assert_eq!(report.non_edges, vec![(0, 5)]);
        let report = tree.verify_path_cover(&cover(&[&[0, 1]]));
        assert_eq!(report.out_of_range, vec![1]);
        assert_eq!(report.missing, vec![1]);
        assert!(!report.is_valid());
    }

    #[test]
    fn deep_cotrees_are_verified_iteratively() {
        // An alternating spine 100 000 levels deep, laid out directly:
        // leaf v sits at index v, and the internal node of level v, at
        // index depth + 1 + v, joins (v even) or unions (v odd) leaf v with
        // the level below.
        let depth = 100_000usize;
        let level = |v: usize| if v < depth { depth + 1 + v } else { depth };
        let mut kinds: Vec<CotreeKind> = (0..=depth).map(|v| CotreeKind::Leaf(v as u32)).collect();
        let mut children = vec![Vec::new(); depth + 1];
        let mut parent: Vec<usize> = (0..=depth).map(|v| level(v.min(depth - 1))).collect();
        for v in 0..depth {
            kinds.push(if v % 2 == 0 {
                CotreeKind::Join
            } else {
                CotreeKind::Union
            });
            children.push(vec![v, level(v + 1)]);
            parent.push(if v == 0 { NO_NODE } else { level(v - 1) });
        }
        let tree = Cotree::from_arena(kinds, children, parent, level(0)).expect("valid spine");
        assert_eq!(tree.height(), depth);
        let depth = depth as u32;
        // Pairs (2i, 2i+1) meet at a join; the rest are singletons.
        let mut paths: Vec<Path> = (0..depth / 2)
            .map(|i| Path::new(vec![2 * i, 2 * i + 1]))
            .collect();
        paths.push(Path::singleton(depth));
        let report = tree.verify_path_cover(&PathCover::from_paths(paths));
        assert!(report.is_valid(), "{:?}", report.non_edges.first());
        let report = tree.verify_path_cover(&cover(&[&[1, 2]]));
        assert_eq!(report.non_edges, vec![(1, 2)]);
    }

    /// A valid (not necessarily minimum) cover to mutate: paths grown
    /// greedily along graph edges from the vertices in random order.
    fn greedy_cover(tree: &Cotree, rng: &mut ChaCha8Rng) -> PathCover {
        let g = tree.to_graph();
        let n = g.num_vertices() as VertexId;
        let mut used = vec![false; n as usize];
        let mut paths = Vec::new();
        let mut order: Vec<VertexId> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &start in &order {
            if used[start as usize] {
                continue;
            }
            used[start as usize] = true;
            let mut path = vec![start];
            let mut cur = start;
            while let Some(&next) = g.neighbors(cur).iter().find(|&&w| !used[w as usize]) {
                used[next as usize] = true;
                path.push(next);
                cur = next;
            }
            paths.push(Path::new(path));
        }
        PathCover::from_paths(paths)
    }

    /// Applies one random defect: splice two paths together, swap two
    /// vertices, drop a vertex or duplicate one.
    fn mutate(current: &PathCover, n: usize, rng: &mut ChaCha8Rng) -> PathCover {
        let mut paths: Vec<Vec<VertexId>> = current
            .paths()
            .iter()
            .map(|p| p.vertices().to_vec())
            .collect();
        let k = paths.len();
        if k == 0 {
            return cover(&[&[rng.gen_range(0..n as VertexId)]]);
        }
        match rng.gen_range(0..4) {
            0 if k >= 2 => {
                let i = rng.gen_range(0..k);
                let mut j = rng.gen_range(0..k - 1);
                if j >= i {
                    j += 1;
                }
                let tail = std::mem::take(&mut paths[j]);
                paths[i].extend(tail);
                paths.retain(|p| !p.is_empty());
            }
            1 => {
                let total: usize = paths.iter().map(Vec::len).sum();
                let a = rng.gen_range(0..total);
                let b = rng.gen_range(0..total);
                let mut flat: Vec<&mut VertexId> = paths.iter_mut().flatten().collect();
                let (va, vb) = (*flat[a], *flat[b]);
                *flat[a] = vb;
                *flat[b] = va;
            }
            2 => {
                let i = rng.gen_range(0..k);
                let at = rng.gen_range(0..paths[i].len());
                paths[i].remove(at);
                paths.retain(|p| !p.is_empty());
            }
            _ => {
                let i = rng.gen_range(0..k);
                let v = rng.gen_range(0..n as VertexId + 2);
                let at = rng.gen_range(0..=paths[i].len());
                paths[i].insert(at, v);
            }
        }
        PathCover::from_paths(paths.into_iter().map(Path::new).collect())
    }

    #[test]
    fn agrees_with_the_graph_verifier_on_random_covers_and_mutations() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_c0fe);
        let mut invalid = 0;
        for shape in CotreeShape::ALL {
            for n in [1usize, 2, 3, 5, 8, 13, 40, 150] {
                for _ in 0..8 {
                    let tree = random_cotree(n, shape, &mut rng);
                    let g = tree.to_graph();
                    let valid = greedy_cover(&tree, &mut rng);
                    let report = tree.verify_path_cover(&valid);
                    assert!(report.is_valid(), "{shape:?} n={n}: {report:?}");
                    assert_eq!(report, verify_path_cover(&g, &valid));
                    let mut current = valid;
                    for _ in 0..6 {
                        current = mutate(&current, n, &mut rng);
                        let ours = tree.verify_path_cover(&current);
                        invalid += usize::from(!ours.is_valid());
                        assert_eq!(
                            ours,
                            verify_path_cover(&g, &current),
                            "{shape:?} n={n} cover={current:?}"
                        );
                    }
                }
            }
        }
        assert!(
            invalid > 500,
            "the mutations must mostly break covers: {invalid}"
        );
    }
}
