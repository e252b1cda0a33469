//! The three workloads: their inputs, request streams and expected answers.
//!
//! A workload is built entirely from `--seed` before the daemon starts;
//! the daemon only ever sees the generated bytes. Each request carries an
//! [`Expect`] that the checker resolves against the generator's own
//! cotree, never against anything the daemon said.

use crate::gen::{self, Format, Rng, Tree, Zipf};
use pcgraph::VertexId;
use pcservice::QueryKind;
use std::collections::HashMap;
use std::sync::Arc;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["warm_dense_http", "large_sparse_cover", "small_mixed"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// HTTP/1.1 keep-alive on the daemon's TCP port.
    Http,
    /// `pcp2` frames on the daemon's unix socket.
    Framed,
}

/// One generated graph as the daemon receives it.
pub struct Input {
    /// The cotree, leaves labelled with served vertex ids. For a
    /// near-cograph this is the cograph before `flip` was applied.
    pub tree: Tree,
    /// Vertex pairs whose adjacency was toggled to break the cograph.
    pub flip: Vec<(VertexId, VertexId)>,
    pub format: Format,
    /// The graph text, already JSON-escaped for embedding in a body.
    pub text: Arc<Vec<u8>>,
}

impl Input {
    /// Every edge of the served graph, `u < v`.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges = Vec::new();
        self.tree.edges(&mut edges);
        for &(a, b) in &self.flip {
            let pair = (a.min(b), a.max(b));
            match edges.iter().position(|&e| e == pair) {
                Some(i) => {
                    edges.swap_remove(i);
                }
                None => edges.push(pair),
            }
        }
        edges
    }
}

/// A daemon-resident session's script: the cotree after each accepted
/// mutation (state 0 is the seed graph).
pub struct Session {
    pub states: Vec<Tree>,
}

/// One piece of a request body.
#[derive(Clone)]
pub enum Chunk {
    Bytes(Arc<Vec<u8>>),
    /// The handle of session `i`, known only once its create reply arrives.
    Handle(usize),
}

/// Session handles are `sess-` plus 16 hex digits.
pub const HANDLE_LEN: usize = 21;

/// What a correct reply looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A solve on cograph input `input`.
    Solve {
        input: usize,
        kind: QueryKind,
    },
    /// A solve on near-cograph `input`: `not_a_cograph` with a valid P4.
    Reject {
        input: usize,
    },
    SessionCreate {
        sess: usize,
    },
    /// An `add_vertex` that is accepted, moving the session to `state`.
    SessionAdd {
        sess: usize,
        state: usize,
    },
    /// An `add_vertex` that must be refused with a P4 of the session graph
    /// in `state` plus the new vertex adjacent to `neighbors`.
    SessionRefuse {
        sess: usize,
        state: usize,
        neighbors: Vec<VertexId>,
    },
    SessionQuery {
        sess: usize,
        state: usize,
        kind: QueryKind,
    },
    SessionDrop,
}

impl Expect {
    /// Whether the daemon books this request in `pc_requests_total`
    /// (every query execution; session mutations and drops are not).
    pub fn counts_as_query(&self) -> bool {
        matches!(
            self,
            Expect::Solve { .. } | Expect::Reject { .. } | Expect::SessionQuery { .. }
        )
    }

    /// The session whose handle this request's reply defines.
    pub fn creates(&self) -> Option<usize> {
        match self {
            Expect::SessionCreate { sess } => Some(*sess),
            _ => None,
        }
    }
}

#[derive(Clone)]
pub struct Request {
    /// HTTP route (`/v1/solve` or `/v2/query`); framed requests are `pcp2`.
    pub path: &'static str,
    pub chunks: Vec<Chunk>,
    pub expect: Expect,
}

impl Request {
    pub fn body_len(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| match c {
                Chunk::Bytes(b) => b.len(),
                Chunk::Handle(_) => HANDLE_LEN,
            })
            .sum()
    }

    pub fn sessions(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().filter_map(|c| match c {
            Chunk::Handle(s) => Some(*s),
            Chunk::Bytes(_) => None,
        })
    }
}

/// How the load generator drives a workload.
pub enum Drive {
    /// Each connection cycles through its own request list until time is
    /// up, stopping only after a multiple of `unit` requests so the mix
    /// stays exact.
    Closed {
        streams: Vec<Vec<Request>>,
        unit: usize,
    },
    /// One pipelined connection sends `requests` in order at fixed rates.
    Open { requests: Vec<Request> },
}

pub struct Workload {
    pub name: &'static str,
    pub transport: Transport,
    pub inputs: Vec<Input>,
    pub sessions: Vec<Session>,
    /// Sent in order on one connection before timing starts.
    pub prime: Vec<Request>,
    pub drive: Drive,
}

fn bytes(s: impl Into<Vec<u8>>) -> Chunk {
    Chunk::Bytes(Arc::new(s.into()))
}

/// `POST /v1/solve` body: `{"kind":K,"<format>":"<text>"}`.
fn solve_v1(inputs: &[Input], i: usize, kind: QueryKind, expect: Expect) -> Request {
    let input = &inputs[i];
    Request {
        path: "/v1/solve",
        chunks: vec![
            bytes(format!(
                "{{\"kind\":\"{}\",\"{}\":\"",
                kind.as_str(),
                input.format.field()
            )),
            Chunk::Bytes(input.text.clone()),
            bytes("\"}"),
        ],
        expect,
    }
}

/// v2 `solve` envelope (`POST /v2/query`, or a `pcp2` frame).
fn solve_v2(inputs: &[Input], i: usize, kind: QueryKind, expect: Expect) -> Request {
    let input = &inputs[i];
    Request {
        path: "/v2/query",
        chunks: vec![
            bytes(format!(
                "{{\"api_version\":2,\"op\":\"solve\",\"target\":{{\"{}\":\"",
                input.format.field()
            )),
            Chunk::Bytes(input.text.clone()),
            bytes(format!(
                "\"}},\"params\":{{\"kind\":\"{}\"}}}}",
                kind.as_str()
            )),
        ],
        expect,
    }
}

fn session_op(sess: usize, op: &str, params: &str, expect: Expect) -> Request {
    Request {
        path: "/v2/query",
        chunks: vec![
            bytes(format!(
                "{{\"api_version\":2,\"op\":\"{op}\",\"target\":{{\"session\":\""
            )),
            Chunk::Handle(sess),
            bytes(format!("\"}},\"params\":{params}}}")),
        ],
        expect,
    }
}

/// Builds an [`Input`] from a cotree labelled in depth-first order:
/// term inputs keep those labels (the daemon numbers term leaves by first
/// appearance), graph-text inputs are relabelled by a random permutation.
fn make_input(rng: &mut Rng, tree: Tree, format: Format, flip: bool) -> Input {
    let n = tree.num_vertices();
    let tree = match format {
        Format::Cotree => tree,
        _ => tree.relabel(&gen::permutation(rng, n)),
    };
    let mut input = Input {
        tree,
        flip: Vec::new(),
        format,
        text: Arc::new(Vec::new()),
    };
    if flip {
        // Toggle one random pair until the graph is no longer a cograph; if
        // no single toggle does, force an induced P4 on four vertices.
        for _ in 0..64 {
            let (a, b) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
            if a == b {
                continue;
            }
            input.flip = vec![(a, b)];
            if !cograph::is_cograph(&gen::graph_from_edges(n, input.edges())) {
                break;
            }
            input.flip.clear();
        }
        if input.flip.is_empty() {
            let mut edges = Vec::new();
            input.tree.edges(&mut edges);
            let p = gen::permutation(rng, n);
            let (a, b, c, d) = (p[0], p[1], p[2], p[3]);
            let want = [
                (a, b, true),
                (b, c, true),
                (c, d, true),
                (a, c, false),
                (a, d, false),
                (b, d, false),
            ];
            for (u, v, edge) in want {
                if edges.contains(&(u.min(v), u.max(v))) != edge {
                    input.flip.push((u, v));
                }
            }
        }
    }
    let raw = match format {
        Format::Cotree => {
            let mut s = String::new();
            input.tree.term(&mut s);
            s
        }
        _ => gen::graph_text(rng, n, &input.edges(), format),
    };
    input.text = Arc::new(gen::json_escape(&raw).into_bytes());
    input
}

/// Scales workload sizes down for the smoke mode (tests and quick looks).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn pick(self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Closed loop over HTTP on two connections; eight dense n=1024 graphs
/// (about 400k edges, a quarter as DIMACS), all cached after priming.
pub fn warm_dense_http(seed: u64, scale: Scale) -> Workload {
    let mut rng = Rng::derive(seed, 1);
    let n = scale.pick(1024, 128);
    let target_m = scale.pick(400_000, 6_000);
    let inputs: Vec<Input> = (0..8)
        .map(|i| {
            let tree = gen::tree_with_edges(&mut rng, n, target_m, 0.01);
            let format = if i % 4 == 3 {
                Format::Dimacs
            } else {
                Format::EdgeList
            };
            make_input(&mut rng, tree, format, false)
        })
        .collect();
    // 60% min_cover_size, 20% full_cover, 10% hamiltonian_path, 10% recognize.
    let pattern = [
        QueryKind::MinCoverSize,
        QueryKind::MinCoverSize,
        QueryKind::MinCoverSize,
        QueryKind::MinCoverSize,
        QueryKind::MinCoverSize,
        QueryKind::MinCoverSize,
        QueryKind::FullCover,
        QueryKind::FullCover,
        QueryKind::HamiltonianPath,
        QueryKind::Recognize,
    ];
    let mut cycle: Vec<(usize, QueryKind)> = (0..inputs.len())
        .flat_map(|i| pattern.iter().map(move |&k| (i, k)))
        .collect();
    rng.shuffle(&mut cycle);
    let request = |(i, kind): (usize, QueryKind)| {
        solve_v1(&inputs, i, kind, Expect::Solve { input: i, kind })
    };
    let half = cycle.len() / 2;
    let streams = vec![
        cycle.iter().copied().map(request).collect(),
        cycle[half..]
            .iter()
            .chain(&cycle[..half])
            .copied()
            .map(request)
            .collect(),
    ];
    let prime = (0..inputs.len())
        .map(|i| request((i, QueryKind::MinCoverSize)))
        .collect();
    Workload {
        name: "warm_dense_http",
        transport: Transport::Http,
        inputs,
        sessions: Vec::new(),
        prime,
        drive: Drive::Closed { streams, unit: 1 },
    }
}

/// Closed loop over the framed socket on two connections; three cotree
/// terms, each the disjoint union of 2048 random 32-vertex cographs
/// (n = 65536, so full covers reach the engine's pool threshold).
pub fn large_sparse_cover(seed: u64, scale: Scale) -> Workload {
    let mut rng = Rng::derive(seed, 2);
    let parts = scale.pick(2048, 64);
    let inputs: Vec<Input> = (0..3)
        .map(|_| {
            let comps: Vec<Tree> = (0..parts)
                .map(|c| {
                    let t = gen::tree_with_edges(&mut rng, 32, 246, 0.15);
                    t.relabel(
                        &(0..32)
                            .map(|v| (c * 32 + v) as VertexId)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let tree = Tree::Union(
                comps
                    .into_iter()
                    .flat_map(|t| match t {
                        Tree::Union(children) => children,
                        other => vec![other],
                    })
                    .collect(),
            );
            make_input(&mut rng, tree, Format::Cotree, false)
        })
        .collect();
    let request =
        |i: usize, kind: QueryKind| solve_v2(&inputs, i, kind, Expect::Solve { input: i, kind });
    // Each connection cycles full, full, min over the inputs (two thirds
    // full covers, so the median sits inside the full-cover mode rather
    // than between the two modes), the connections out of phase.
    let cycle = [
        QueryKind::FullCover,
        QueryKind::FullCover,
        QueryKind::MinCoverSize,
    ];
    let streams = (0..2)
        .map(|c| {
            (0..inputs.len())
                .flat_map(|i| {
                    let i = (i + c) % inputs.len();
                    (0..cycle.len()).map(move |k| (i, cycle[(k + c) % cycle.len()]))
                })
                .map(|(i, kind)| request(i, kind))
                .collect()
        })
        .collect();
    let prime = (0..inputs.len())
        .map(|i| request(i, QueryKind::MinCoverSize))
        .collect();
    Workload {
        name: "large_sparse_cover",
        transport: Transport::Framed,
        inputs,
        sessions: Vec::new(),
        prime,
        drive: Drive::Closed {
            streams,
            unit: cycle.len(),
        },
    }
}

/// The daemon's default cache capacity; `small_mixed` draws its graphs
/// from eight times as many.
pub const CACHE_CAPACITY: usize = 1024;

/// Open loop on one pipelined HTTP connection: 70% one-shot solves over a
/// Zipf-popular pool of small graphs, 10% near-cographs, 20% sessions.
pub fn small_mixed(seed: u64, scale: Scale, total: usize) -> Workload {
    let mut rng = Rng::derive(seed, 3);
    let pool = 8 * CACHE_CAPACITY;
    let zipf = Zipf::new(pool);
    let near_pool = 512;
    let mut inputs: Vec<Input> = Vec::new();
    let mut graph_index: HashMap<usize, usize> = HashMap::new();
    let mut near_index: HashMap<usize, usize> = HashMap::new();
    let max_n = scale.pick(256, 64);

    let mut cograph_input = |inputs: &mut Vec<Input>, id: usize| -> usize {
        *graph_index.entry(id).or_insert_with(|| {
            // Size, density and format follow the popularity rank, not the
            // seed: the few most popular graphs carry much of the traffic,
            // and letting the seed pick their sizes made whole runs differ.
            // The seed shapes only structure and labels.
            let mut g = Rng::derive(seed, 1_000_000 + id as u64);
            // Sizes skew small (per-request overhead is the point here);
            // a few graphs per sixteen reach max_n.
            let level = ((id * 7) % 16) as f64 / 15.0;
            let n = (16.0 * (max_n as f64 / 16.0).powf(level * level)).round() as usize;
            let density = 0.2 + 0.1 * ((id * 5) % 7) as f64;
            let target_m = (density * (n * (n - 1) / 2) as f64) as usize;
            let tree = gen::tree_with_edges(&mut g, n, target_m, 0.15);
            let format = [Format::EdgeList, Format::Dimacs, Format::Cotree][id % 3];
            inputs.push(make_input(&mut g, tree, format, false));
            inputs.len() - 1
        })
    };
    let mut near_input = |inputs: &mut Vec<Input>, id: usize| -> usize {
        *near_index.entry(id).or_insert_with(|| {
            let mut g = Rng::derive(seed, 2_000_000 + id as u64);
            let n = log_uniform(&mut g, 16, max_n / 2);
            let q = 0.3 + 0.4 * g.unit();
            let tree = gen::random_tree(&mut g, n, q, 0);
            let format = [Format::EdgeList, Format::Dimacs][g.below(2)];
            inputs.push(make_input(&mut g, tree, format, true));
            inputs.len() - 1
        })
    };
    let one_shot = |inputs: &[Input], rng: &mut Rng, i: usize, expect: Expect| {
        let kind = match expect {
            Expect::Solve { kind, .. } => kind,
            _ => QueryKind::ALL[rng.below(QueryKind::ALL.len())],
        };
        if rng.below(2) == 0 {
            solve_v1(inputs, i, kind, expect)
        } else {
            solve_v2(inputs, i, kind, expect)
        }
    };

    // Priming: one request for each of the most popular graphs, so the
    // measured phase starts from a cache in its steady state.
    let mut prime = Vec::new();
    for id in 0..scale.pick(CACHE_CAPACITY / 2, 32) {
        let i = cograph_input(&mut inputs, id);
        prime.push(solve_v1(
            &inputs,
            i,
            QueryKind::MinCoverSize,
            Expect::Solve {
                input: i,
                kind: QueryKind::MinCoverSize,
            },
        ));
    }

    let mut sessions: Vec<Session> = Vec::new();
    let mut scripts: Vec<SessionScript> = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    let mut requests = Vec::with_capacity(total);
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let mut draw = rng.unit();
    while requests.len() < total {
        let u = rng.unit();
        if u < 0.70 {
            // A golden-ratio sequence through the Zipf quantiles: each rank
            // is drawn as often as its probability says, in scrambled order,
            // so a run's byte volume does not hinge on how often a few heavy
            // graphs happened to be drawn.
            draw = (draw + GOLDEN) % 1.0;
            let i = cograph_input(&mut inputs, zipf.at(draw));
            let kind = QueryKind::ALL[rng.below(QueryKind::ALL.len())];
            requests.push(one_shot(
                &inputs,
                &mut rng,
                i,
                Expect::Solve { input: i, kind },
            ));
        } else if u < 0.80 {
            let i = near_input(&mut inputs, rng.below(near_pool));
            requests.push(one_shot(&inputs, &mut rng, i, Expect::Reject { input: i }));
        } else if active.len() < 4 || (active.len() < 12 && rng.below(8) == 0) {
            let sess = sessions.len();
            let mut g = Rng::derive(seed, 3_000_000 + sess as u64);
            let n = 8 + g.below(17);
            let tree = gen::random_tree(&mut g, n, 0.5, 0);
            let n = tree.num_vertices();
            let mut edges = Vec::new();
            tree.edges(&mut edges);
            let text = gen::json_escape(&gen::graph_text(&mut g, n, &edges, Format::EdgeList));
            requests.push(Request {
                path: "/v2/query",
                chunks: vec![
                    bytes(
                        "{\"api_version\":2,\"op\":\"session_create\",\"target\":{\"edge_list\":\"",
                    ),
                    bytes(text),
                    bytes("\"}}"),
                ],
                expect: Expect::SessionCreate { sess },
            });
            sessions.push(Session { states: vec![tree] });
            scripts.push(SessionScript {
                rng: g,
                left: 6 + rng.below(8),
            });
            active.push(sess);
        } else {
            let slot = rng.below(active.len());
            let sess = active[slot];
            let script = &mut scripts[sess];
            let request = script.next(sess, &mut sessions[sess]);
            if matches!(request.expect, Expect::SessionDrop) {
                active.swap_remove(slot);
            }
            requests.push(request);
        }
    }
    Workload {
        name: "small_mixed",
        transport: Transport::Http,
        inputs,
        sessions,
        prime,
        drive: Drive::Open { requests },
    }
}

fn log_uniform(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    ((a + (b - a) * rng.unit()).exp().round() as usize).clamp(lo, hi)
}

struct SessionScript {
    rng: Rng,
    left: usize,
}

impl SessionScript {
    /// The session's next operation: a legal twin insertion, an illegal
    /// insertion, a query, and finally the drop.
    fn next(&mut self, sess: usize, session: &mut Session) -> Request {
        let rng = &mut self.rng;
        if self.left == 0 {
            return session_op(sess, "session_drop", "{}", Expect::SessionDrop);
        }
        self.left -= 1;
        let state = session.states.len() - 1;
        let tree = &session.states[state];
        let n = tree.num_vertices();
        let u = rng.unit();
        if u < 0.35 {
            let kind = QueryKind::ALL[rng.below(QueryKind::ALL.len())];
            return session_op(
                sess,
                "session_query",
                &format!("{{\"kind\":\"{}\"}}", kind.as_str()),
                Expect::SessionQuery { sess, state, kind },
            );
        }
        let mut edges = Vec::new();
        tree.edges(&mut edges);
        let neighbors_of = |x: VertexId| -> Vec<VertexId> {
            let mut out: Vec<VertexId> = edges
                .iter()
                .filter_map(|&(a, b)| {
                    if a == x {
                        Some(b)
                    } else if b == x {
                        Some(a)
                    } else {
                        None
                    }
                })
                .collect();
            out.sort_unstable();
            out
        };
        let v = n as VertexId;
        if u < 0.55 {
            // An illegal insertion: a random neighbourhood that creates a P4.
            for _ in 0..40 {
                let mut neighbors: Vec<VertexId> = (0..v).filter(|_| rng.below(3) == 0).collect();
                neighbors.sort_unstable();
                let mut with_v = edges.clone();
                with_v.extend(neighbors.iter().map(|&x| (x, v)));
                if !cograph::is_cograph(&gen::graph_from_edges(n + 1, with_v)) {
                    return session_op(
                        sess,
                        "session_add_vertex",
                        &neighbors_json(&neighbors),
                        Expect::SessionRefuse {
                            sess,
                            state,
                            neighbors,
                        },
                    );
                }
            }
        }
        // A legal insertion: a true or false twin of a random vertex.
        let x = rng.below(n) as VertexId;
        let adjacent = rng.below(2) == 0;
        let mut neighbors = neighbors_of(x);
        if adjacent {
            neighbors.push(x);
            neighbors.sort_unstable();
        }
        let next = tree.add_twin(x, v, adjacent);
        session.states.push(next);
        session_op(
            sess,
            "session_add_vertex",
            &neighbors_json(&neighbors),
            Expect::SessionAdd {
                sess,
                state: state + 1,
            },
        )
    }
}

fn neighbors_json(neighbors: &[VertexId]) -> String {
    let list: Vec<String> = neighbors.iter().map(|v| v.to_string()).collect();
    format!("{{\"neighbors\":[{}]}}", list.join(","))
}

/// Independently computed answers for one cograph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    pub n: usize,
    pub m: usize,
    pub min_cover: usize,
    pub ham_path: bool,
    pub ham_cycle: bool,
}

/// The answers for `tree`, computed with the sequential Lin–Olariu–Pruesse
/// solver (`pathcover::sequential`), not the paper pipeline the engine
/// serves with. The Hamiltonian-cycle flag uses the join rule: a join
/// `X + Y` on at least three vertices has a Hamiltonian cycle iff
/// `max(pc(X), pc(Y)) <= min(|X|, |Y|)`.
pub fn facts(tree: &Tree) -> Facts {
    let pc = |t: &Tree| pathcover::sequential_path_cover(&t.compact().to_cotree()).len();
    let n = tree.num_vertices();
    let min_cover = pc(tree);
    let ham_cycle = match tree {
        Tree::Join(children) if n >= 3 => {
            let x = &children[0];
            let y = if children.len() == 2 {
                children[1].clone()
            } else {
                Tree::Join(children[1..].to_vec())
            };
            let bound = x.num_vertices().min(y.num_vertices());
            pc(x).max(pc(&y)) <= bound
        }
        _ => false,
    };
    Facts {
        n,
        m: tree.num_edges(),
        min_cover,
        ham_path: min_cover == 1,
        ham_cycle,
    }
}
