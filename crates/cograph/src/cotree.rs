//! The k-ary labelled cotree.

use pcgraph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

/// Sentinel for "no node".
pub const NO_NODE: usize = usize::MAX;

/// Kind of a cotree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CotreeKind {
    /// A leaf carrying a graph vertex.
    Leaf(VertexId),
    /// A 0-node: the subgraphs of the children are disjoint-unioned.
    Union,
    /// A 1-node: the subgraphs of the children are joined (all cross edges).
    Join,
}

impl CotreeKind {
    /// `true` for [`CotreeKind::Leaf`].
    pub fn is_leaf(&self) -> bool {
        matches!(self, CotreeKind::Leaf(_))
    }
}

/// A rooted k-ary cotree.
///
/// Nodes are stored in an arena; the root is the last-created node of the
/// top-level constructor used. Leaves carry explicit vertex ids so that a
/// cotree produced by [`crate::recognition::recognize`] refers to the
/// original graph's vertices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cotree {
    kinds: Vec<CotreeKind>,
    children: Vec<Vec<usize>>,
    parent: Vec<usize>,
    root: usize,
}

impl Cotree {
    /// The cotree of the one-vertex graph, with the leaf labelled `v`.
    pub fn single(v: VertexId) -> Self {
        Cotree {
            kinds: vec![CotreeKind::Leaf(v)],
            children: vec![Vec::new()],
            parent: vec![NO_NODE],
            root: 0,
        }
    }

    /// Combines cotrees under a 0-node (disjoint union), relabelling the
    /// vertices of each part by consecutive offsets so the result's vertices
    /// are `0..n`.
    pub fn union_of(parts: Vec<Cotree>) -> Self {
        Self::combine(parts, CotreeKind::Union, true)
    }

    /// Combines cotrees under a 1-node (join), relabelling vertices by
    /// consecutive offsets.
    pub fn join_of(parts: Vec<Cotree>) -> Self {
        Self::combine(parts, CotreeKind::Join, true)
    }

    /// Combines cotrees under a 0-node keeping the existing vertex labels.
    pub fn union_of_labelled(parts: Vec<Cotree>) -> Self {
        Self::combine(parts, CotreeKind::Union, false)
    }

    /// Combines cotrees under a 1-node keeping the existing vertex labels.
    pub fn join_of_labelled(parts: Vec<Cotree>) -> Self {
        Self::combine(parts, CotreeKind::Join, false)
    }

    fn combine(parts: Vec<Cotree>, kind: CotreeKind, relabel: bool) -> Self {
        assert!(!parts.is_empty(), "cannot combine an empty list of cotrees");
        if parts.len() == 1 {
            return parts.into_iter().next().expect("one part");
        }
        let mut kinds = Vec::new();
        let mut children: Vec<Vec<usize>> = Vec::new();
        let mut parent = Vec::new();
        let mut top_children = Vec::new();
        let mut vertex_offset: VertexId = 0;
        for part in parts {
            let node_offset = kinds.len();
            let part_vertices = part.num_vertices() as VertexId;
            for (i, k) in part.kinds.iter().enumerate() {
                kinds.push(match k {
                    CotreeKind::Leaf(v) => {
                        CotreeKind::Leaf(if relabel { v + vertex_offset } else { *v })
                    }
                    other => *other,
                });
                children.push(part.children[i].iter().map(|c| c + node_offset).collect());
                parent.push(if part.parent[i] == NO_NODE {
                    NO_NODE
                } else {
                    part.parent[i] + node_offset
                });
            }
            let part_root = part.root + node_offset;
            // Normalisation: a Union child of a Union (or Join child of a
            // Join) is absorbed so labels alternate along every root path,
            // which is property (5) of the paper's cotree definition.
            if kinds[part_root] == kind {
                top_children.extend(children[part_root].clone());
            } else {
                top_children.push(part_root);
            }
            vertex_offset += part_vertices;
        }
        let new_root = kinds.len();
        kinds.push(kind);
        children.push(top_children.clone());
        parent.push(NO_NODE);
        for &c in &top_children {
            parent[c] = new_root;
        }
        let tree = Cotree {
            kinds,
            children,
            parent,
            root: new_root,
        };
        tree.compact()
    }

    /// Assembles a cotree from arena parts of untrusted origin.
    ///
    /// Node `u` has kind `kinds[u]`, ordered children `children[u]` and
    /// parent `parent[u]` ([`NO_NODE`] for `root`). The parts are accepted
    /// only if they pass [`Cotree::validate`], so a builder that produces
    /// the whole arena in one pass (the service's term parser) gets the same
    /// guarantees as the combining constructors without their
    /// copy-on-combine cost.
    pub fn from_arena(
        kinds: Vec<CotreeKind>,
        children: Vec<Vec<usize>>,
        parent: Vec<usize>,
        root: usize,
    ) -> Result<Self, String> {
        let tree = Cotree {
            kinds,
            children,
            parent,
            root,
        };
        tree.validate()?;
        Ok(tree)
    }

    /// Assembles a cotree directly from arena parts.
    ///
    /// Crate-internal: the incremental recogniser builds its result in one
    /// pass through this instead of the combining constructors, whose
    /// copy-on-combine behaviour would cost `O(n · height)`. The caller must
    /// uphold the structural invariants ([`Cotree::validate`]); they are
    /// checked in debug builds.
    pub(crate) fn from_raw_parts(
        kinds: Vec<CotreeKind>,
        children: Vec<Vec<usize>>,
        parent: Vec<usize>,
        root: usize,
    ) -> Self {
        let tree = Cotree {
            kinds,
            children,
            parent,
            root,
        };
        debug_assert_eq!(tree.validate(), Ok(()), "from_raw_parts invariants");
        tree
    }

    /// Drops nodes that became unreachable during normalisation.
    fn compact(self) -> Self {
        let n = self.kinds.len();
        let mut keep = vec![false; n];
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            keep[v] = true;
            stack.extend(self.children[v].iter().copied());
        }
        if keep.iter().all(|&k| k) {
            return self;
        }
        let mut remap = vec![NO_NODE; n];
        let mut next = 0usize;
        for v in 0..n {
            if keep[v] {
                remap[v] = next;
                next += 1;
            }
        }
        let mut kinds = Vec::with_capacity(next);
        let mut children = Vec::with_capacity(next);
        let mut parent = Vec::with_capacity(next);
        for v in 0..n {
            if !keep[v] {
                continue;
            }
            kinds.push(self.kinds[v]);
            children.push(self.children[v].iter().map(|&c| remap[c]).collect());
            parent.push(if self.parent[v] == NO_NODE || !keep[self.parent[v]] {
                NO_NODE
            } else {
                remap[self.parent[v]]
            });
        }
        Cotree {
            kinds,
            children,
            parent,
            root: remap[self.root],
        }
    }

    /// Number of cotree nodes (leaves plus internal nodes).
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of graph vertices (leaves).
    pub fn num_vertices(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_leaf()).count()
    }

    /// The root node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Kind of node `u`.
    pub fn kind(&self, u: usize) -> CotreeKind {
        self.kinds[u]
    }

    /// Ordered children of node `u`.
    pub fn children(&self, u: usize) -> &[usize] {
        &self.children[u]
    }

    /// Parent of node `u`, or [`NO_NODE`] for the root.
    pub fn parent(&self, u: usize) -> usize {
        self.parent[u]
    }

    /// The vertex ids carried by the leaves, in left-to-right order.
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            if let CotreeKind::Leaf(x) = self.kinds[v] {
                out.push(x);
            }
            for &c in self.children[v].iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Checks the structural invariants of a cotree: the arena is one tree
    /// hanging from the root, with every parent link matching a child
    /// list; every internal node has at least two children; labels
    /// alternate along root paths; and leaf labels are distinct.
    ///
    /// Never panics, whatever the arena holds, and runs in `O(n log n)`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.kinds.len();
        if self.children.len() != n || self.parent.len() != n {
            return Err(format!(
                "arena arrays differ in length: {n} kinds, {} child lists, {} parents",
                self.children.len(),
                self.parent.len()
            ));
        }
        if self.root >= n {
            return Err(format!("root {} out of range for {n} nodes", self.root));
        }
        if self.parent[self.root] != NO_NODE {
            return Err(format!("root {} has a parent", self.root));
        }
        // Every node is reached from the root exactly once, through a child
        // list whose owner it names as its parent.
        let mut reached = vec![false; n];
        reached[self.root] = true;
        let mut stack = vec![self.root];
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for &c in &self.children[u] {
                if c >= n || reached[c] {
                    return Err(format!(
                        "node {u} lists child {c}, which is out of range or already placed"
                    ));
                }
                if self.parent[c] != u {
                    return Err(format!(
                        "child {c} of node {u} names parent {}",
                        self.parent[c]
                    ));
                }
                reached[c] = true;
                count += 1;
                stack.push(c);
            }
        }
        if count != n {
            return Err(format!("{} nodes are unreachable from the root", n - count));
        }
        let mut labels = Vec::new();
        for u in 0..n {
            match self.kinds[u] {
                CotreeKind::Leaf(v) => {
                    if !self.children[u].is_empty() {
                        return Err(format!("leaf {u} has children"));
                    }
                    labels.push(v);
                }
                kind => {
                    if self.children[u].len() < 2 {
                        return Err(format!("internal node {u} has fewer than two children"));
                    }
                    let p = self.parent[u];
                    if p != NO_NODE && self.kinds[p] == kind {
                        return Err(format!("labels do not alternate at node {u}"));
                    }
                }
            }
        }
        labels.sort_unstable();
        match labels.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(format!("duplicate vertex label {}", w[0])),
            None => Ok(()),
        }
    }

    /// Number of edges of the cograph, counted on the cotree in
    /// `O(nodes)`: a 1-node joins every pair of its children, so it
    /// contributes the sum of the pairwise products of their leaf counts.
    pub fn num_edges(&self) -> usize {
        let mut leaves = vec![0usize; self.num_nodes()];
        let mut edges = 0usize;
        for u in self.postorder() {
            leaves[u] = match self.kinds[u] {
                CotreeKind::Leaf(_) => 1,
                kind => {
                    let mut seen = 0usize;
                    for &c in &self.children[u] {
                        if kind == CotreeKind::Join {
                            edges += seen * leaves[c];
                        }
                        seen += leaves[c];
                    }
                    seen
                }
            };
        }
        edges
    }

    /// Materialises the cograph: vertex labels must be exactly `0..n`.
    ///
    /// Two vertices are adjacent iff their lowest common ancestor in the
    /// cotree is a 1-node, so the edges are the cross pairs between the
    /// children of every 1-node. Each subtree's leaves are one contiguous
    /// run of the depth-first leaf order, so the pairs are read off those
    /// runs without copying vertex sets, and the graph is built in bulk by
    /// [`Graph::from_edges`] in `O(nodes + m)`.
    pub fn to_graph(&self) -> Graph {
        let n = self.num_vertices();
        // Post-order visits the leaves left to right; `run[u]` is the range
        // of `order` holding the leaves below `u`.
        let mut order: Vec<VertexId> = Vec::with_capacity(n);
        let mut run = vec![0..0; self.num_nodes()];
        let mut edges = Vec::with_capacity(self.num_edges());
        for u in self.postorder() {
            match self.kinds[u] {
                CotreeKind::Leaf(v) => {
                    assert!(
                        (v as usize) < n,
                        "to_graph requires vertex labels 0..n, found {v} with n = {n}"
                    );
                    run[u] = order.len()..order.len() + 1;
                    order.push(v);
                }
                kind => {
                    let kids = &self.children[u];
                    if kind == CotreeKind::Join {
                        for (i, &a) in kids.iter().enumerate() {
                            for &b in &kids[i + 1..] {
                                for &x in &order[run[a].clone()] {
                                    for &y in &order[run[b].clone()] {
                                        edges.push((x, y));
                                    }
                                }
                            }
                        }
                    }
                    let first = &run[kids[0]];
                    let last = &run[kids[kids.len() - 1]];
                    run[u] = first.start..last.end;
                }
            }
        }
        Graph::from_edges(n, &edges)
            .expect("a cotree with labels 0..n has distinct in-range cross pairs")
    }

    /// Renders the cotree in term notation — `(u ...)` for a 0-node,
    /// `(j ...)` for a 1-node — with every leaf written as its numeric
    /// vertex label, e.g. `(u (j 0 1) 2)`.
    ///
    /// This is the serialisation form of a *labelled* cotree: children keep
    /// their order and leaves keep their exact labels, so a label-aware
    /// parser (the service's `parse_cotree_term_labelled`) reconstructs a
    /// structurally identical tree describing the same labelled graph. (The
    /// service's default term parser assigns leaf ids by order of first
    /// appearance instead, which round-trips only when the labels already
    /// appear in order.)
    pub fn to_term(&self) -> String {
        // Explicit stack instead of recursion: cotrees of skewed shape can
        // be `O(n)` deep. `Close` emits the ')' after a node's children,
        // `Space` the separator before each child.
        enum Step {
            Node(usize),
            Space,
            Close,
        }
        let mut out = String::new();
        let mut stack = vec![Step::Node(self.root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Space => out.push(' '),
                Step::Close => out.push(')'),
                Step::Node(u) => match self.kinds[u] {
                    CotreeKind::Leaf(v) => out.push_str(&v.to_string()),
                    kind => {
                        out.push('(');
                        out.push(if kind == CotreeKind::Join { 'j' } else { 'u' });
                        stack.push(Step::Close);
                        for &c in self.children[u].iter().rev() {
                            stack.push(Step::Node(c));
                            stack.push(Step::Space);
                        }
                    }
                },
            }
        }
        out
    }

    /// Post-order listing of all nodes.
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![(self.root, false)];
        while let Some((u, expanded)) = stack.pop() {
            if expanded {
                order.push(u);
            } else {
                stack.push((u, true));
                for &c in self.children[u].iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Height of the cotree (a single leaf has height 0).
    pub fn height(&self) -> usize {
        let order = self.postorder();
        let mut h = vec![0usize; self.num_nodes()];
        for &u in &order {
            h[u] = self.children[u]
                .iter()
                .map(|&c| h[c] + 1)
                .max()
                .unwrap_or(0);
        }
        h[self.root]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcgraph::verify_path_cover;
    use pcgraph::{Path, PathCover};

    #[test]
    fn single_vertex_cotree() {
        let t = Cotree::single(0);
        assert_eq!(t.num_vertices(), 1);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.validate().is_ok());
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn join_of_two_singles_is_an_edge() {
        let t = Cotree::join_of(vec![Cotree::single(0), Cotree::single(0)]);
        assert!(t.validate().is_ok());
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 2);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn union_of_two_singles_is_edgeless() {
        let t = Cotree::union_of(vec![Cotree::single(0), Cotree::single(0)]);
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn normalisation_flattens_nested_unions() {
        let inner = Cotree::union_of(vec![Cotree::single(0), Cotree::single(0)]);
        let outer = Cotree::union_of(vec![inner, Cotree::single(0)]);
        assert!(outer.validate().is_ok());
        // one union node with three leaf children
        assert_eq!(outer.num_nodes(), 4);
        assert_eq!(outer.children(outer.root()).len(), 3);
    }

    #[test]
    fn complete_graph_from_joins() {
        let t = Cotree::join_of(vec![
            Cotree::single(0),
            Cotree::single(0),
            Cotree::single(0),
            Cotree::single(0),
        ]);
        let g = t.to_graph();
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn complete_bipartite_structure() {
        let side = |k: usize| Cotree::union_of((0..k).map(|_| Cotree::single(0)).collect());
        let t = Cotree::join_of(vec![side(2), side(3)]);
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 6);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn fig1_style_cograph_cover_sanity() {
        // A join of (union of two edges) with a single vertex: every vertex
        // of the right side sees all of the left side, so a Hamiltonian path
        // exists; sanity-check with a hand-built cover.
        let edge = || Cotree::join_of(vec![Cotree::single(0), Cotree::single(0)]);
        let left = Cotree::union_of(vec![edge(), edge()]);
        let t = Cotree::join_of(vec![left, Cotree::single(0)]);
        let g = t.to_graph();
        assert_eq!(g.num_vertices(), 5);
        let cover = PathCover::from_paths(vec![Path::new(vec![0, 1, 4, 2, 3])]);
        assert!(verify_path_cover(&g, &cover).is_valid());
    }

    #[test]
    fn vertices_listing_and_height() {
        let t = Cotree::join_of(vec![
            Cotree::union_of(vec![Cotree::single(0), Cotree::single(0)]),
            Cotree::single(0),
        ]);
        assert_eq!(t.vertices().len(), 3);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn term_export_renders_labels_and_structure() {
        let t = Cotree::union_of_labelled(vec![
            Cotree::join_of_labelled(vec![Cotree::single(2), Cotree::single(0)]),
            Cotree::single(1),
        ]);
        // Child order and the exact (non-appearance-order) labels survive.
        assert_eq!(t.to_term(), "(u (j 2 0) 1)");
        assert_eq!(Cotree::single(7).to_term(), "7");
    }

    #[test]
    fn term_export_handles_skewed_trees() {
        // A maximally skewed cotree (alternating join/union spine): the
        // export must stay iterative, not recurse per level.
        let mut t = Cotree::single(0);
        for v in 1..2_000u32 {
            let parts = vec![t, Cotree::single(v)];
            t = if v % 2 == 0 {
                Cotree::union_of_labelled(parts)
            } else {
                Cotree::join_of_labelled(parts)
            };
        }
        let term = t.to_term();
        assert_eq!(term.matches('(').count(), 1_999);
        assert_eq!(term.matches('(').count(), term.matches(')').count());
    }

    #[test]
    fn validate_rejects_duplicate_labels() {
        let t = Cotree::join_of_labelled(vec![Cotree::single(3), Cotree::single(3)]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn labelled_combination_keeps_labels() {
        let t = Cotree::union_of_labelled(vec![Cotree::single(5), Cotree::single(9)]);
        let mut vs = t.vertices();
        vs.sort_unstable();
        assert_eq!(vs, vec![5, 9]);
    }

    #[test]
    fn single_part_combination_is_identity() {
        let t = Cotree::union_of(vec![Cotree::single(0)]);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_combination_panics() {
        Cotree::union_of(vec![]);
    }

    #[test]
    fn from_arena_accepts_exactly_the_valid_trees() {
        use CotreeKind::{Join, Leaf, Union};
        // (u (j 0 1) 2) laid out in post-order.
        let kinds = vec![Leaf(0), Leaf(1), Join, Leaf(2), Union];
        let children = vec![vec![], vec![], vec![0, 1], vec![], vec![2, 3]];
        let parent = vec![2, 2, 4, 4, NO_NODE];
        let tree = Cotree::from_arena(kinds.clone(), children.clone(), parent.clone(), 4)
            .expect("valid arena");
        assert_eq!(tree.to_term(), "(u (j 0 1) 2)");
        assert_eq!(
            tree,
            Cotree::union_of_labelled(vec![
                Cotree::join_of_labelled(vec![Cotree::single(0), Cotree::single(1)]),
                Cotree::single(2),
            ])
        );
        let reject = |kinds: Vec<CotreeKind>, children: Vec<Vec<usize>>, parent, root| {
            Cotree::from_arena(kinds, children, parent, root).unwrap_err()
        };
        let with_children = |edit: &dyn Fn(&mut Vec<Vec<usize>>)| {
            let mut c = children.clone();
            edit(&mut c);
            c
        };
        let with_parent = |edit: &dyn Fn(&mut Vec<usize>)| {
            let mut p = parent.clone();
            edit(&mut p);
            p
        };
        assert!(reject(kinds.clone(), children.clone(), parent.clone(), 5).contains("out of range"));
        assert!(reject(kinds.clone(), children.clone(), vec![2, 2, 4], 4).contains("length"));
        assert!(reject(kinds.clone(), children.clone(), parent.clone(), 2).contains("has a parent"));
        let cyclic = with_children(&|c| c[2] = vec![0, 1, 4]);
        assert!(reject(kinds.clone(), cyclic, parent.clone(), 4).contains("already placed"));
        let out_of_range = with_children(&|c| c[4] = vec![2, 9]);
        assert!(reject(kinds.clone(), out_of_range, parent.clone(), 4).contains("out of range"));
        let wrong_parent = with_parent(&|p| p[3] = 2);
        assert!(reject(kinds.clone(), children.clone(), wrong_parent, 4).contains("names parent"));
        let orphan = with_children(&|c| c[4] = vec![2]);
        let orphan_parent = with_parent(&|p| p[3] = NO_NODE);
        assert!(reject(kinds.clone(), orphan, orphan_parent, 4).contains("unreachable"));
        let mut same_kind = kinds.clone();
        same_kind[2] = Union;
        assert!(reject(same_kind, children.clone(), parent.clone(), 4).contains("alternate"));
        let mut twice = kinds.clone();
        twice[3] = Leaf(1);
        assert!(reject(twice, children.clone(), parent.clone(), 4).contains("duplicate"));
    }
}
