//! The line-and-token parsers the byte-level ones replaced, kept verbatim
//! as the differential test's oracle (see `differential.rs`). Test-only:
//! nothing outside `cfg(test)` may call them.

use super::IngestError;
use cograph::Cotree;
use pcgraph::{Graph, VertexId};
use std::collections::HashSet;

fn parse_vertex(token: &str, line: usize) -> Result<VertexId, IngestError> {
    token
        .parse::<VertexId>()
        .map_err(|_| IngestError::BadToken {
            line,
            token: token.to_string(),
        })
}

/// Parses the edge-list format (see module docs).
pub fn parse_edge_list(text: &str) -> Result<Graph, IngestError> {
    let mut edges: Vec<(VertexId, VertexId, usize)> = Vec::new();
    let mut max_vertex: Option<VertexId> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            [single] => {
                let v = parse_vertex(single, line_no)?;
                max_vertex = Some(max_vertex.map_or(v, |m| m.max(v)));
            }
            [a, b] => {
                let u = parse_vertex(a, line_no)?;
                let v = parse_vertex(b, line_no)?;
                max_vertex = Some(max_vertex.map_or(u.max(v), |m| m.max(u).max(v)));
                edges.push((u, v, line_no));
            }
            _ => {
                return Err(IngestError::BadLine {
                    line: line_no,
                    message: format!(
                        "expected 'u v' or a single vertex id, got {} tokens",
                        tokens.len()
                    ),
                })
            }
        }
    }
    let Some(max_vertex) = max_vertex else {
        return Err(IngestError::Empty);
    };
    let mut g = Graph::new(max_vertex as usize + 1);
    for (u, v, line) in edges {
        g.add_edge(u, v)
            .map_err(|source| IngestError::Graph { line, source })?;
    }
    g.finalize();
    Ok(g)
}

/// Parses the DIMACS `p edge` format (see module docs).
pub fn parse_dimacs(text: &str) -> Result<Graph, IngestError> {
    let mut graph: Option<Graph> = None;
    let mut declared_edges = 0usize;
    let mut seen_edges = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.first().copied() {
            Some("p") => {
                if graph.is_some() {
                    return Err(IngestError::BadHeader {
                        line: line_no,
                        message: "second 'p' line".to_string(),
                    });
                }
                let [_, format, n, m] = tokens.as_slice() else {
                    return Err(IngestError::BadHeader {
                        line: line_no,
                        message: "expected 'p edge <n> <m>'".to_string(),
                    });
                };
                if *format != "edge" && *format != "col" {
                    return Err(IngestError::BadHeader {
                        line: line_no,
                        message: format!("unsupported format '{format}'"),
                    });
                }
                let n: usize = n.parse().map_err(|_| IngestError::BadHeader {
                    line: line_no,
                    message: format!("'{n}' is not a vertex count"),
                })?;
                declared_edges = m.parse().map_err(|_| IngestError::BadHeader {
                    line: line_no,
                    message: format!("'{m}' is not an edge count"),
                })?;
                graph = Some(Graph::new(n));
            }
            Some("e") => {
                let g = graph.as_mut().ok_or(IngestError::BadHeader {
                    line: line_no,
                    message: "'e' line before 'p' header".to_string(),
                })?;
                let [_, a, b] = tokens.as_slice() else {
                    return Err(IngestError::BadLine {
                        line: line_no,
                        message: "expected 'e <u> <v>'".to_string(),
                    });
                };
                let u = parse_vertex(a, line_no)?;
                let v = parse_vertex(b, line_no)?;
                if u == 0 || v == 0 {
                    return Err(IngestError::BadToken {
                        line: line_no,
                        token: "0 (DIMACS ids are 1-based)".to_string(),
                    });
                }
                g.add_edge(u - 1, v - 1)
                    .map_err(|source| IngestError::Graph {
                        line: line_no,
                        source,
                    })?;
                seen_edges += 1;
            }
            _ => {
                return Err(IngestError::BadLine {
                    line: line_no,
                    message: format!("unknown DIMACS line '{line}'"),
                })
            }
        }
    }
    let mut g = graph.ok_or(IngestError::Empty)?;
    if g.num_vertices() == 0 {
        return Err(IngestError::Empty);
    }
    if declared_edges != seen_edges {
        return Err(IngestError::BadHeader {
            line: 0,
            message: format!("header declared {declared_edges} edges, found {seen_edges}"),
        });
    }
    g.finalize();
    Ok(g)
}

/// How a term's leaf tokens map onto vertex ids.
enum LeafMode {
    /// Leaf names are arbitrary identifiers assigned dense ids in order of
    /// first appearance (the public ingestion format).
    Appearance(HashSet<String>),
    /// Leaf names *are* numeric vertex labels, used verbatim — the inverse
    /// of [`cograph::Cotree::to_term`], used by the snapshot loader where
    /// the exact labelling must survive the round trip.
    Labelled(HashSet<VertexId>),
}

impl LeafMode {
    fn resolve(&mut self, name: &str, pos: usize) -> Result<VertexId, IngestError> {
        match self {
            LeafMode::Appearance(names) => {
                let id = names.len() as VertexId;
                if !names.insert(name.to_string()) {
                    return Err(IngestError::DuplicateLeaf {
                        name: name.to_string(),
                    });
                }
                Ok(id)
            }
            LeafMode::Labelled(seen) => {
                let id: VertexId = name.parse().map_err(|_| IngestError::BadTerm {
                    pos,
                    message: format!("leaf '{name}' is not a numeric vertex label"),
                })?;
                if !seen.insert(id) {
                    return Err(IngestError::DuplicateLeaf {
                        name: name.to_string(),
                    });
                }
                Ok(id)
            }
        }
    }
}

/// Parses the cotree term notation (see module docs).
pub fn parse_cotree_term(text: &str) -> Result<Cotree, IngestError> {
    parse_cotree_with(text, LeafMode::Appearance(HashSet::new()))
}

/// Parses a term whose leaves are numeric vertex labels, used verbatim.
///
/// This is the exact inverse of [`cograph::Cotree::to_term`]: child order
/// and leaf labels survive unchanged, so re-parsing an exported term yields
/// a cotree with the same canonical key describing the same labelled graph.
/// The default [`parse_cotree_term`] cannot do this — it assigns ids by
/// order of first appearance, silently relabelling any term whose labels
/// are not already in appearance order.
pub fn parse_cotree_term_labelled(text: &str) -> Result<Cotree, IngestError> {
    parse_cotree_with(text, LeafMode::Labelled(HashSet::new()))
}

fn parse_cotree_with(text: &str, mut mode: LeafMode) -> Result<Cotree, IngestError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let tree = parse_term(bytes, &mut pos, &mut mode)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(IngestError::BadTerm {
            pos,
            message: "trailing characters after term".to_string(),
        });
    }
    Ok(tree)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_term(bytes: &[u8], pos: &mut usize, mode: &mut LeafMode) -> Result<Cotree, IngestError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(IngestError::Empty),
        Some(b'(') => {
            let open_pos = *pos;
            *pos += 1;
            skip_ws(bytes, pos);
            let op = match bytes.get(*pos) {
                Some(b'u') | Some(b'0') => false,
                Some(b'j') | Some(b'1') => true,
                _ => {
                    return Err(IngestError::BadTerm {
                        pos: *pos,
                        message: "expected operator 'u'/'0' (union) or 'j'/'1' (join)".to_string(),
                    })
                }
            };
            *pos += 1;
            let mut parts = Vec::new();
            loop {
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    None => return Err(IngestError::UnbalancedTerm { pos: open_pos }),
                    Some(b')') => {
                        *pos += 1;
                        break;
                    }
                    _ => parts.push(parse_term(bytes, pos, mode)?),
                }
            }
            if parts.len() < 2 {
                return Err(IngestError::BadTerm {
                    pos: open_pos,
                    message: format!(
                        "internal node needs at least two children, found {}",
                        parts.len()
                    ),
                });
            }
            Ok(if op {
                Cotree::join_of_labelled(parts)
            } else {
                Cotree::union_of_labelled(parts)
            })
        }
        Some(b')') => Err(IngestError::UnbalancedTerm { pos: *pos }),
        Some(_) => {
            let start = *pos;
            while matches!(bytes.get(*pos), Some(c) if !matches!(c, b'(' | b')' | b' ' | b'\t' | b'\n' | b'\r'))
            {
                *pos += 1;
            }
            let name =
                std::str::from_utf8(&bytes[start..*pos]).map_err(|_| IngestError::BadTerm {
                    pos: start,
                    message: "leaf name is not UTF-8".to_string(),
                })?;
            Ok(Cotree::single(mode.resolve(name, start)?))
        }
    }
}
