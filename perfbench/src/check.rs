//! The independent answer checker behind `error_rate`.
//!
//! * Covers and Hamiltonian witnesses are checked with
//!   `pcgraph::verify_path_cover` against the generated graph.
//! * `min_cover_size` and the Hamiltonian flags are compared with
//!   [`crate::workload::facts`], computed by `pathcover::sequential` on the
//!   generator's own cotree.
//! * `recognize` terms are parsed here and must describe exactly the
//!   generated edge set.
//! * `not_a_cograph` witnesses are checked with `InducedP4::verify`.
//! * Session answers are checked like one-shot solves of the session's
//!   graph at that point of its script.
//!
//! Replies are deterministic per (graph, kind) apart from timing metadata,
//! so a verified answer is remembered and its repeats cost a hash lookup.

use crate::gen::{self, Tree};
use crate::workload::{facts, Expect, Facts, Request, Workload};
use cograph::InducedP4;
use pcgraph::{verify_path_cover, Graph, Path, PathCover, VertexId};
use pcservice::json::Json;
use pcservice::QueryKind;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Which graph an answer is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Subject {
    Input(usize),
    Session(usize, usize),
}

pub struct Checker<'w> {
    work: &'w Workload,
    facts: HashMap<Subject, Facts>,
    graphs: HashMap<Subject, Graph>,
    verified: HashSet<u64>,
}

fn field<'j>(v: &'j Json, key: &str) -> Result<&'j Json, String> {
    v.get(key).ok_or_else(|| format!("reply lacks '{key}'"))
}

fn uint(v: &Json, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| format!("'{key}' is not a count"))
}

fn flag(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("'{key}' is not a boolean"))
}

fn paths(v: &Json) -> Result<Vec<Path>, String> {
    let Json::Arr(items) = v else {
        return Err("'paths' is not an array".into());
    };
    items
        .iter()
        .map(|p| match p {
            Json::Arr(vs) => vs
                .iter()
                .map(|x| {
                    x.as_u64()
                        .map(|x| x as VertexId)
                        .ok_or_else(|| "path vertex is not an id".to_string())
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Path::new),
            _ => Err("path is not an array".into()),
        })
        .collect()
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

impl<'w> Checker<'w> {
    pub fn new(work: &'w Workload) -> Checker<'w> {
        Checker {
            work,
            facts: HashMap::new(),
            graphs: HashMap::new(),
            verified: HashSet::new(),
        }
    }

    fn tree(&self, s: Subject) -> &'w Tree {
        match s {
            Subject::Input(i) => &self.work.inputs[i].tree,
            Subject::Session(sess, state) => &self.work.sessions[sess].states[state],
        }
    }

    fn facts(&mut self, s: Subject) -> Facts {
        let tree = self.tree(s);
        *self.facts.entry(s).or_insert_with(|| facts(tree))
    }

    fn graph(&mut self, s: Subject) -> &Graph {
        let work = self.work;
        self.graphs.entry(s).or_insert_with(|| match s {
            Subject::Input(i) => {
                let input = &work.inputs[i];
                gen::graph_from_edges(input.tree.num_vertices(), input.edges())
            }
            Subject::Session(sess, state) => {
                let tree = &work.sessions[sess].states[state];
                let mut edges = Vec::new();
                tree.edges(&mut edges);
                gen::graph_from_edges(tree.num_vertices(), edges)
            }
        })
    }

    /// Checks one reply; `Err` names what was wrong.
    pub fn check(&mut self, request: &Request, status: u16, reply: &[u8]) -> Result<(), String> {
        ensure(status == 200, || format!("HTTP status {status}"))?;
        let text = std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
        // v1 replies wrap the response object in "response"; v2 replies in
        // "result" beside an envelope-level "ok".
        let envelope_ok = match json.get("ok") {
            Some(v) => v.as_bool() == Some(true),
            None => true,
        };
        let result = json.get("result").or_else(|| json.get("response"));
        match &request.expect {
            Expect::Solve { input, kind } => {
                ensure(envelope_ok, || format!("envelope failed: {text:.200}"))?;
                let result = result.ok_or("reply lacks a response")?;
                self.answer(Subject::Input(*input), *kind, result)
            }
            Expect::SessionQuery { sess, state, kind } => {
                ensure(envelope_ok, || format!("envelope failed: {text:.200}"))?;
                let result = result.ok_or("reply lacks a result")?;
                self.answer(Subject::Session(*sess, *state), *kind, result)
            }
            Expect::Reject { input } => {
                let result = result.ok_or("reply lacks a response")?;
                ensure(field(result, "ok")?.as_bool() == Some(false), || {
                    "near-cograph was accepted".into()
                })?;
                let s = Subject::Input(*input);
                self.rejection(field(result, "error")?, |c| c.graph(s).clone())
            }
            Expect::SessionRefuse {
                sess,
                state,
                neighbors,
            } => {
                ensure(!envelope_ok, || {
                    "illegal insertion was accepted".to_string()
                })?;
                let tree = &self.work.sessions[*sess].states[*state];
                let n = tree.num_vertices();
                let mut edges = Vec::new();
                tree.edges(&mut edges);
                edges.extend(neighbors.iter().map(|&x| (x, n as VertexId)));
                self.rejection(field(&json, "error")?, |_| {
                    gen::graph_from_edges(n + 1, edges.clone())
                })
            }
            Expect::SessionCreate { sess } | Expect::SessionAdd { sess, .. } => {
                ensure(envelope_ok, || format!("session op failed: {text:.200}"))?;
                let state = match request.expect {
                    Expect::SessionAdd { state, .. } => state,
                    _ => 0,
                };
                let f = self.facts(Subject::Session(*sess, state));
                let result = result.ok_or("reply lacks a result")?;
                ensure(uint(result, "vertices")? == f.n, || {
                    "wrong vertex count".into()
                })?;
                ensure(uint(result, "edges")? == f.m, || "wrong edge count".into())
            }
            Expect::SessionDrop => {
                ensure(envelope_ok, || format!("drop failed: {text:.200}"))?;
                ensure(
                    flag(result.ok_or("reply lacks a result")?, "dropped")?,
                    || "session not dropped".into(),
                )
            }
        }
    }

    fn rejection(
        &mut self,
        error: &Json,
        graph: impl FnOnce(&mut Self) -> Graph,
    ) -> Result<(), String> {
        let code = field(error, "code")?.as_str().unwrap_or("");
        ensure(code == "not_a_cograph", || format!("error code {code:?}"))?;
        let Json::Arr(p4) = field(error, "p4")? else {
            return Err("p4 is not an array".into());
        };
        let ids: Vec<VertexId> = p4
            .iter()
            .filter_map(|v| v.as_u64())
            .map(|v| v as VertexId)
            .collect();
        ensure(ids.len() == 4, || "p4 does not have four vertices".into())?;
        let witness = InducedP4 {
            path: [ids[0], ids[1], ids[2], ids[3]],
        };
        ensure(witness.verify(&graph(self)), || {
            format!("{witness} is not an induced P4")
        })
    }

    /// Checks one response object (`{kind, ok, answer, meta}`).
    fn answer(&mut self, s: Subject, kind: QueryKind, response: &Json) -> Result<(), String> {
        ensure(field(response, "ok")?.as_bool() == Some(true), || {
            format!(
                "job failed: {}",
                response
                    .get("error")
                    .map(|e| e.to_string())
                    .unwrap_or_default()
            )
        })?;
        ensure(
            field(response, "kind")?.as_str() == Some(kind.as_str()),
            || "wrong kind".into(),
        )?;
        let answer = field(response, "answer")?;
        let mut h = DefaultHasher::new();
        (s, kind.as_str()).hash(&mut h);
        answer.to_string().hash(&mut h);
        let memo = h.finish();
        if self.verified.contains(&memo) {
            return Ok(());
        }
        let f = self.facts(s);
        match kind {
            QueryKind::MinCoverSize => ensure(uint(answer, "size")? == f.min_cover, || {
                "wrong min cover size".into()
            })?,
            QueryKind::FullCover => {
                ensure(uint(answer, "size")? == f.min_cover, || {
                    "wrong cover size".into()
                })?;
                ensure(flag(answer, "verified")?, || {
                    "cover not marked verified".into()
                })?;
                let cover = PathCover::from_paths(paths(field(answer, "paths")?)?);
                ensure(cover.len() == f.min_cover, || "cover is not minimum".into())?;
                let report = verify_path_cover(self.graph(s), &cover);
                ensure(report.is_valid(), || "cover fails verify_path_cover".into())?;
            }
            QueryKind::HamiltonianPath => {
                ensure(flag(answer, "exists")? == f.ham_path, || {
                    "wrong hamiltonian_path flag".into()
                })?;
                if f.ham_path {
                    let path = paths(field(answer, "path")?)?;
                    ensure(path.len() == 1, || "witness is not one path".into())?;
                    let report = verify_path_cover(self.graph(s), &PathCover::from_paths(path));
                    ensure(report.is_valid(), || {
                        "witness is not a Hamiltonian path".into()
                    })?;
                }
            }
            QueryKind::HamiltonianCycle => ensure(flag(answer, "exists")? == f.ham_cycle, || {
                "wrong hamiltonian_cycle flag".into()
            })?,
            QueryKind::Recognize => {
                ensure(flag(answer, "is_cograph")?, || {
                    "not recognised as a cograph".into()
                })?;
                ensure(uint(answer, "n")? == f.n, || "wrong n".into())?;
                ensure(uint(answer, "m")? == f.m, || "wrong m".into())?;
                let term = field(answer, "term")?
                    .as_str()
                    .ok_or("term is not a string")?;
                let parsed = parse_term(term)?;
                let mut got = Vec::new();
                parsed.edges(&mut got);
                got.sort_unstable();
                let mut want = Vec::new();
                self.tree(s).edges(&mut want);
                want.sort_unstable();
                let mut leaves = Vec::new();
                parsed.leaves(&mut leaves);
                leaves.sort_unstable();
                ensure(
                    got == want && leaves == (0..f.n as VertexId).collect::<Vec<_>>(),
                    || "term describes a different graph".into(),
                )?;
            }
        }
        self.verified.insert(memo);
        Ok(())
    }
}

/// Parses the daemon's term notation (`(j 0 (u 1 2))`, numeric leaves).
pub fn parse_term(text: &str) -> Result<Tree, String> {
    let bytes = text.as_bytes();
    let mut stack: Vec<(bool, Vec<Tree>)> = Vec::new();
    let mut pos = 0;
    let mut done: Option<Tree> = None;
    while pos < bytes.len() {
        match bytes[pos] {
            b' ' | b'\n' | b'\t' => pos += 1,
            b'(' => {
                let join = match bytes.get(pos + 1) {
                    Some(b'j') => true,
                    Some(b'u') => false,
                    _ => return Err(format!("bad operator at {pos}")),
                };
                stack.push((join, Vec::new()));
                pos += 2;
            }
            b')' => {
                let (join, children) = stack.pop().ok_or("unbalanced ')'")?;
                let node = if join {
                    Tree::Join(children)
                } else {
                    Tree::Union(children)
                };
                match stack.last_mut() {
                    Some((_, siblings)) => siblings.push(node),
                    None => done = Some(node),
                }
                pos += 1;
            }
            b'0'..=b'9' => {
                let start = pos;
                while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                    pos += 1;
                }
                let v: VertexId = text[start..pos].parse().map_err(|_| "bad leaf")?;
                match stack.last_mut() {
                    Some((_, siblings)) => siblings.push(Tree::Leaf(v)),
                    None => done = Some(Tree::Leaf(v)),
                }
            }
            other => return Err(format!("unexpected byte {other:?} in term")),
        }
    }
    ensure(stack.is_empty(), || "unbalanced '('".into())?;
    done.ok_or_else(|| "empty term".into())
}
