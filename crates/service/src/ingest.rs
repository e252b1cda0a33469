//! Graph ingestion: edge-list text, DIMACS text and cotree term notation.
//!
//! Three input formats cover the service's entry points:
//!
//! * **edge list** — one `u v` pair per line (0-based vertex ids); a line
//!   with a single id declares an isolated vertex; `#` starts a comment.
//!   The vertex count is `max id + 1`.
//! * **DIMACS** — the classic `p edge <n> <m>` / `e <u> <v>` format with
//!   1-based ids and `c` comment lines.
//! * **cotree term** — the paper's own representation, written as nested
//!   s-expressions: `(u ...)` for a 0-node (union), `(j ...)` for a 1-node
//!   (join), and bare identifiers for leaves, e.g. `(u (j a b) c)`. Leaf
//!   names are assigned dense vertex ids in order of first appearance, so a
//!   term materialises to a graph on `0..n` directly.
//!
//! All parsers return typed [`IngestError`]s carrying the line (or byte
//! position) of the defect so batch jobs can report precisely what was wrong
//! with *their* input without touching the rest of the batch.
//!
//! Parsing is only the first gate: text graphs (`edge list` / `DIMACS`)
//! still pass through linear-time cograph recognition downstream, and a
//! non-cograph fails its job with [`crate::ServiceError::NotACograph`]
//! carrying an induced-`P_4` certificate. Cotree terms skip recognition
//! entirely — the term *is* the cotree.

use cograph::cotree::NO_NODE;
use cograph::{Cotree, CotreeKind};
use pcgraph::{Graph, GraphError, VertexId};
use std::collections::HashSet;
use std::fmt;

/// Input format of a graph payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// `u v` pairs, 0-based.
    EdgeList,
    /// DIMACS `p edge` / `e` lines, 1-based.
    Dimacs,
    /// Cotree term notation `(u (j a b) c)`.
    CotreeTerm,
}

impl GraphFormat {
    /// Guesses the format from file content: terms start with `(`, DIMACS
    /// files have `p`/`c` header lines, everything else is an edge list.
    pub fn sniff(text: &str) -> GraphFormat {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('(') {
                return GraphFormat::CotreeTerm;
            }
            if line.starts_with("p ") || line.starts_with("c ") || line.starts_with("e ") {
                return GraphFormat::Dimacs;
            }
            return GraphFormat::EdgeList;
        }
        GraphFormat::EdgeList
    }

    /// Parses a format name as used by the CLI's `--format` flag.
    pub fn parse_name(name: &str) -> Option<GraphFormat> {
        match name {
            "edge-list" | "edgelist" | "edges" => Some(GraphFormat::EdgeList),
            "dimacs" | "col" => Some(GraphFormat::Dimacs),
            "cotree" | "term" => Some(GraphFormat::CotreeTerm),
            _ => None,
        }
    }
}

/// Typed parse errors, each carrying enough location detail to be actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The input contained no vertices at all.
    Empty,
    /// A token that should have been a vertex id was not one.
    BadToken {
        /// 1-based input line.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A line had the wrong shape (e.g. three ids on an edge-list line).
    BadLine {
        /// 1-based input line.
        line: usize,
        /// What was expected.
        message: String,
    },
    /// A DIMACS header problem (`p edge n m` missing or malformed).
    BadHeader {
        /// 1-based input line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Graph construction rejected an edge (self loop, duplicate, range).
    Graph {
        /// 1-based input line.
        line: usize,
        /// The underlying graph error.
        source: GraphError,
    },
    /// A cotree term had unbalanced parentheses.
    UnbalancedTerm {
        /// Byte position in the term text.
        pos: usize,
    },
    /// A cotree term contained an unexpected character or token.
    BadTerm {
        /// Byte position in the term text.
        pos: usize,
        /// What was wrong.
        message: String,
    },
    /// A cotree term used the same leaf name twice.
    DuplicateLeaf {
        /// The repeated leaf name.
        name: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Empty => write!(f, "input describes no vertices"),
            IngestError::BadToken { line, token } => {
                write!(f, "line {line}: '{token}' is not a vertex id")
            }
            IngestError::BadLine { line, message } => write!(f, "line {line}: {message}"),
            IngestError::BadHeader { line, message } => {
                write!(f, "line {line}: bad DIMACS header: {message}")
            }
            IngestError::Graph { line, source } => write!(f, "line {line}: {source}"),
            IngestError::UnbalancedTerm { pos } => {
                write!(f, "unbalanced parentheses at byte {pos}")
            }
            IngestError::BadTerm { pos, message } => write!(f, "byte {pos}: {message}"),
            IngestError::DuplicateLeaf { name } => {
                write!(f, "leaf name '{name}' appears twice")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Parses text in the given (or sniffed) format into a graph-or-cotree.
///
/// Cotree terms return `Ingested::Cotree` so the engine can skip
/// recognition; the text formats return `Ingested::Graph`.
#[derive(Debug, Clone)]
pub enum Ingested {
    /// A plain graph that still needs cograph recognition.
    Graph(Graph),
    /// A ready cotree (recognition not needed).
    Cotree(Cotree),
}

/// Parses `text` according to `format`.
pub fn parse(text: &str, format: GraphFormat) -> Result<Ingested, IngestError> {
    match format {
        GraphFormat::EdgeList => parse_edge_list(text).map(Ingested::Graph),
        GraphFormat::Dimacs => parse_dimacs(text).map(Ingested::Graph),
        GraphFormat::CotreeTerm => parse_cotree_term(text).map(Ingested::Cotree),
    }
}

/// A byte cursor over line-oriented text (edge lists and DIMACS).
///
/// Lines end at `\n` only, and tokens are maximal runs of characters
/// outside Unicode `White_Space` — the splitting `str::lines` and
/// `str::split_whitespace` do, in one pass with no per-line allocation.
/// ASCII bytes are classified inline; a non-ASCII character is decoded
/// only where one occurs. An optional comment byte (`#` for edge lists)
/// ends a line's content early.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    /// The comment byte, or `\n` for none (a line end stops tokens anyway).
    comment: u8,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, comment: Option<u8>) -> Self {
        Cursor {
            text,
            pos: 0,
            line: 0,
            comment: comment.unwrap_or(b'\n'),
        }
    }

    /// Moves past whatever is left of the current line and returns the
    /// 1-based number of the next one, or `None` at the end of the text.
    fn next_line(&mut self) -> Option<usize> {
        let bytes = self.text.as_bytes();
        if self.line > 0 {
            self.pos = match bytes[self.pos..].iter().position(|&b| b == b'\n') {
                Some(offset) => self.pos + offset + 1,
                None => bytes.len(),
            };
        }
        if self.pos >= bytes.len() {
            return None;
        }
        self.line += 1;
        Some(self.line)
    }

    /// Byte length of the non-ASCII character at `pos`, and whether it is
    /// a separator.
    #[cold]
    fn wide_char(&self, pos: usize) -> (usize, bool) {
        let c = self.text[pos..]
            .chars()
            .next()
            .expect("a character starts here");
        (c.len_utf8(), c.is_whitespace())
    }

    /// The next token on the current line, if any.
    fn token(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while let Some(&b) = bytes.get(pos) {
            if matches!(b, b'\t' | 0x0b | 0x0c | b'\r' | b' ') {
                pos += 1;
            } else if b < 0x80 {
                break;
            } else {
                match self.wide_char(pos) {
                    (len, true) => pos += len,
                    (_, false) => break,
                }
            }
        }
        let start = pos;
        while let Some(&b) = bytes.get(pos) {
            if b > b' ' && b < 0x80 {
                if b == self.comment {
                    break;
                }
                pos += 1;
            } else if b < 0x80 {
                // `\t` ..= `\r` are the ASCII separators plus `\n`; other
                // control bytes belong to the token.
                if matches!(b, b'\t'..=b'\r' | b' ') {
                    break;
                }
                pos += 1;
            } else {
                match self.wide_char(pos) {
                    (len, false) => pos += len,
                    (_, true) => break,
                }
            }
        }
        self.pos = pos;
        (pos > start).then(|| &self.text[start..pos])
    }

    /// The current line's content from byte `start` on, trimmed.
    fn rest_of_line(&self, start: usize) -> &'a str {
        let rest = &self.text[start..];
        rest[..rest.find('\n').unwrap_or(rest.len())].trim()
    }
}

/// A decimal `u64` as `str::parse` reads it: an optional `+`, then one or
/// more ASCII digits (leading zeros allowed), rejected on overflow.
fn parse_decimal(token: &str) -> Option<u64> {
    let digits = token.strip_prefix('+').unwrap_or(token).as_bytes();
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

fn parse_vertex(token: &str, line: usize) -> Result<VertexId, IngestError> {
    parse_decimal(token)
        .and_then(|id| VertexId::try_from(id).ok())
        .ok_or_else(|| IngestError::BadToken {
            line,
            token: token.to_string(),
        })
}

/// Line number of the `k`-th (0-based) line `is_edge` accepts. Graph
/// errors come back from [`Graph::from_edges_indexed`] as an edge index;
/// re-reading the text on that error path keeps the hot loop free of
/// per-edge line numbers.
fn line_of_edge(
    text: &str,
    comment: Option<u8>,
    k: usize,
    is_edge: fn(&mut Cursor) -> bool,
) -> usize {
    let mut cursor = Cursor::new(text, comment);
    let mut seen = 0;
    while let Some(line) = cursor.next_line() {
        if is_edge(&mut cursor) {
            if seen == k {
                return line;
            }
            seen += 1;
        }
    }
    unreachable!("edge {k} was read from some line")
}

/// Parses the edge-list format (see module docs).
pub fn parse_edge_list(text: &str) -> Result<Graph, IngestError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_vertex: Option<VertexId> = None;
    let mut cursor = Cursor::new(text, Some(b'#'));
    while let Some(line) = cursor.next_line() {
        let Some(first) = cursor.token() else {
            continue;
        };
        let second = cursor.token();
        if second.is_some() && cursor.token().is_some() {
            let mut count = 3;
            while cursor.token().is_some() {
                count += 1;
            }
            return Err(IngestError::BadLine {
                line,
                message: format!("expected 'u v' or a single vertex id, got {count} tokens"),
            });
        }
        let u = parse_vertex(first, line)?;
        let mut max = u;
        if let Some(second) = second {
            let v = parse_vertex(second, line)?;
            max = max.max(v);
            edges.push((u, v));
        }
        max_vertex = Some(max_vertex.map_or(max, |m| m.max(max)));
    }
    let Some(max_vertex) = max_vertex else {
        return Err(IngestError::Empty);
    };
    Graph::from_edges_indexed(max_vertex as usize + 1, &edges).map_err(|(k, source)| {
        // Every line is well formed by now, so edge lines are the
        // two-token ones.
        let line = line_of_edge(text, Some(b'#'), k, |c| {
            c.token().is_some() && c.token().is_some()
        });
        IngestError::Graph { line, source }
    })
}

/// Parses the DIMACS `p edge` format (see module docs).
pub fn parse_dimacs(text: &str) -> Result<Graph, IngestError> {
    let mut header: Option<(usize, usize)> = None;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let scanned = scan_dimacs(text, &mut header, &mut edges);
    // DIMACS reports in line order: an edge the graph rejects precedes the
    // syntax error (if any) that stopped the scan.
    let graph = match header {
        Some((n, _)) => Some(Graph::from_edges_indexed(n, &edges).map_err(|(k, source)| {
            let line = line_of_edge(text, None, k, |c| c.token() == Some("e"));
            IngestError::Graph { line, source }
        })?),
        None => None,
    };
    scanned?;
    let (Some(g), Some((_, declared_edges))) = (graph, header) else {
        return Err(IngestError::Empty);
    };
    if g.num_vertices() == 0 {
        return Err(IngestError::Empty);
    }
    if declared_edges != edges.len() {
        return Err(IngestError::BadHeader {
            line: 0,
            message: format!(
                "header declared {declared_edges} edges, found {}",
                edges.len()
            ),
        });
    }
    Ok(g)
}

/// Reads DIMACS lines into `header` (`n`, declared `m`) and 0-based
/// `edges` up to the first syntax error, which it returns.
fn scan_dimacs(
    text: &str,
    header: &mut Option<(usize, usize)>,
    edges: &mut Vec<(VertexId, VertexId)>,
) -> Result<(), IngestError> {
    let mut cursor = Cursor::new(text, None);
    while let Some(line) = cursor.next_line() {
        let start = cursor.pos;
        let Some(first) = cursor.token() else {
            continue;
        };
        match first {
            _ if first.starts_with('c') => {}
            "p" => {
                if header.is_some() {
                    return Err(IngestError::BadHeader {
                        line,
                        message: "second 'p' line".to_string(),
                    });
                }
                let (Some(format), Some(n), Some(m), None) = (
                    cursor.token(),
                    cursor.token(),
                    cursor.token(),
                    cursor.token(),
                ) else {
                    return Err(IngestError::BadHeader {
                        line,
                        message: "expected 'p edge <n> <m>'".to_string(),
                    });
                };
                if format != "edge" && format != "col" {
                    return Err(IngestError::BadHeader {
                        line,
                        message: format!("unsupported format '{format}'"),
                    });
                }
                let count = |token: &str, what: &str| {
                    parse_decimal(token)
                        .and_then(|value| usize::try_from(value).ok())
                        .ok_or_else(|| IngestError::BadHeader {
                            line,
                            message: format!("'{token}' is not {what}"),
                        })
                };
                *header = Some((count(n, "a vertex count")?, count(m, "an edge count")?));
            }
            "e" => {
                if header.is_none() {
                    return Err(IngestError::BadHeader {
                        line,
                        message: "'e' line before 'p' header".to_string(),
                    });
                }
                let (Some(a), Some(b), None) = (cursor.token(), cursor.token(), cursor.token())
                else {
                    return Err(IngestError::BadLine {
                        line,
                        message: "expected 'e <u> <v>'".to_string(),
                    });
                };
                let u = parse_vertex(a, line)?;
                let v = parse_vertex(b, line)?;
                if u == 0 || v == 0 {
                    return Err(IngestError::BadToken {
                        line,
                        token: "0 (DIMACS ids are 1-based)".to_string(),
                    });
                }
                edges.push((u - 1, v - 1));
            }
            _ => {
                return Err(IngestError::BadLine {
                    line,
                    message: format!("unknown DIMACS line '{}'", cursor.rest_of_line(start)),
                })
            }
        }
    }
    Ok(())
}

/// How a term's leaf tokens map onto vertex ids.
enum LeafMode<'a> {
    /// Leaf names are arbitrary identifiers assigned dense ids in order of
    /// first appearance (the public ingestion format).
    Appearance(HashSet<&'a str>),
    /// Leaf names *are* numeric vertex labels, used verbatim — the inverse
    /// of [`cograph::Cotree::to_term`], used by the snapshot loader where
    /// the exact labelling must survive the round trip.
    Labelled(HashSet<VertexId>),
}

impl<'a> LeafMode<'a> {
    fn resolve(&mut self, name: &'a str, pos: usize) -> Result<VertexId, IngestError> {
        let fresh = match self {
            LeafMode::Appearance(names) => {
                let id = names.len() as VertexId;
                names.insert(name).then_some(id)
            }
            LeafMode::Labelled(seen) => {
                let id = parse_decimal(name)
                    .and_then(|id| VertexId::try_from(id).ok())
                    .ok_or_else(|| IngestError::BadTerm {
                        pos,
                        message: format!("leaf '{name}' is not a numeric vertex label"),
                    })?;
                seen.insert(id).then_some(id)
            }
        };
        fresh.ok_or_else(|| IngestError::DuplicateLeaf {
            name: name.to_string(),
        })
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

const NIL: usize = usize::MAX;

/// The term parser's node arena, in post-order of the term. Child lists
/// are singly linked (`first`/`last`/`next`), so absorbing a same-kind
/// child into its parent splices its list in `O(1)`.
#[derive(Default)]
struct TermArena {
    kinds: Vec<CotreeKind>,
    first: Vec<usize>,
    last: Vec<usize>,
    next: Vec<usize>,
    absorbed: Vec<bool>,
}

/// An internal node whose `)` has not been read yet.
struct OpenNode {
    kind: CotreeKind,
    open_pos: usize,
    /// Subterms read so far (absorbed ones count once).
    parts: usize,
    first: usize,
    last: usize,
}

impl TermArena {
    fn push(&mut self, kind: CotreeKind, first: usize, last: usize) -> usize {
        self.kinds.push(kind);
        self.first.push(first);
        self.last.push(last);
        self.next.push(NIL);
        self.absorbed.push(false);
        self.kinds.len() - 1
    }

    /// Appends `node` to `parent`'s children. A child of the parent's kind
    /// hands over its own children instead — the normalisation that keeps
    /// kinds alternating along every root path, as `Cotree::union_of` does.
    fn attach(&mut self, parent: &mut OpenNode, node: usize) {
        parent.parts += 1;
        let (first, last) = if self.kinds[node] == parent.kind {
            self.absorbed[node] = true;
            (self.first[node], self.last[node])
        } else {
            (node, node)
        };
        match parent.last {
            NIL => parent.first = first,
            tail => self.next[tail] = first,
        }
        parent.last = last;
    }

    /// Drops the absorbed nodes and builds the cotree, rooted at the last
    /// node read.
    fn into_cotree(self) -> Result<Cotree, String> {
        let mut remap = vec![NIL; self.kinds.len()];
        let mut live = 0;
        for (slot, &absorbed) in remap.iter_mut().zip(&self.absorbed) {
            if !absorbed {
                *slot = live;
                live += 1;
            }
        }
        let mut kinds = Vec::with_capacity(live);
        let mut children = Vec::with_capacity(live);
        let mut parent = vec![NO_NODE; live];
        for (u, &kind) in self.kinds.iter().enumerate() {
            if self.absorbed[u] {
                continue;
            }
            let mut kids = Vec::new();
            let mut c = self.first[u];
            while c != NIL {
                kids.push(remap[c]);
                parent[remap[c]] = kinds.len();
                c = self.next[c];
            }
            kinds.push(kind);
            children.push(kids);
        }
        Cotree::from_arena(kinds, children, parent, live - 1)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// One left-to-right pass with an explicit stack of open nodes: no
/// recursion, so nesting depth costs heap, not call stack, and each byte is
/// read once.
fn parse_cotree_with<'a>(text: &'a str, mut mode: LeafMode<'a>) -> Result<Cotree, IngestError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let mut arena = TermArena::default();
    let mut open: Vec<OpenNode> = Vec::new();
    loop {
        skip_ws(bytes, &mut pos);
        let node = match bytes.get(pos) {
            None => {
                return Err(match open.last() {
                    Some(node) => IngestError::UnbalancedTerm { pos: node.open_pos },
                    None => IngestError::Empty,
                })
            }
            Some(b'(') => {
                let open_pos = pos;
                pos += 1;
                skip_ws(bytes, &mut pos);
                let kind = match bytes.get(pos) {
                    Some(b'u') | Some(b'0') => CotreeKind::Union,
                    Some(b'j') | Some(b'1') => CotreeKind::Join,
                    _ => {
                        return Err(IngestError::BadTerm {
                            pos,
                            message: "expected operator 'u'/'0' (union) or 'j'/'1' (join)"
                                .to_string(),
                        })
                    }
                };
                pos += 1;
                open.push(OpenNode {
                    kind,
                    open_pos,
                    parts: 0,
                    first: NIL,
                    last: NIL,
                });
                continue;
            }
            Some(b')') => {
                let Some(node) = open.pop() else {
                    return Err(IngestError::UnbalancedTerm { pos });
                };
                pos += 1;
                if node.parts < 2 {
                    return Err(IngestError::BadTerm {
                        pos: node.open_pos,
                        message: format!(
                            "internal node needs at least two children, found {}",
                            node.parts
                        ),
                    });
                }
                arena.push(node.kind, node.first, node.last)
            }
            Some(_) => {
                let start = pos;
                while matches!(bytes.get(pos), Some(c) if !matches!(c, b'(' | b')' | b' ' | b'\t' | b'\n' | b'\r'))
                {
                    pos += 1;
                }
                // Delimiters are ASCII, so the name ends on a char boundary.
                let id = mode.resolve(&text[start..pos], start)?;
                arena.push(CotreeKind::Leaf(id), NIL, NIL)
            }
        };
        match open.last_mut() {
            Some(parent) => arena.attach(parent, node),
            None => break,
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(IngestError::BadTerm {
            pos,
            message: "trailing characters after term".to_string(),
        });
    }
    arena.into_cotree().map_err(|message| IngestError::BadTerm {
        pos: 0,
        message: format!("term describes no valid cotree: {message}"),
    })
}

/// Renders a cotree back into term notation with numeric leaf names; the
/// `Recognize` answer uses this as its canonical output form and the
/// snapshot format stores cotrees this way (see [`Cotree::to_term`]).
pub fn cotree_to_term(tree: &Cotree) -> String {
    tree.to_term()
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_basic() {
        let g = parse_edge_list("0 1\n1 2\n# comment\n\n3\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edge_list_typed_errors() {
        assert_eq!(parse_edge_list("").unwrap_err(), IngestError::Empty);
        assert_eq!(
            parse_edge_list("0 x"),
            Err(IngestError::BadToken {
                line: 1,
                token: "x".to_string()
            })
        );
        assert!(matches!(
            parse_edge_list("0 1 2"),
            Err(IngestError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_edge_list("0 1\n1 0"),
            Err(IngestError::Graph {
                line: 2,
                source: GraphError::DuplicateEdge { .. }
            })
        ));
        assert!(matches!(
            parse_edge_list("2 2"),
            Err(IngestError::Graph {
                line: 1,
                source: GraphError::SelfLoop { .. }
            })
        ));
    }

    #[test]
    fn dimacs_basic() {
        let text = "c a triangle plus isolate\np edge 4 3\ne 1 2\ne 2 3\ne 1 3\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn dimacs_typed_errors() {
        assert!(matches!(
            parse_dimacs("e 1 2\n"),
            Err(IngestError::BadHeader { line: 1, .. })
        ));
        assert!(matches!(
            parse_dimacs("p edge 3 1\ne 0 1\n"),
            Err(IngestError::BadToken { line: 2, .. })
        ));
        assert!(matches!(
            parse_dimacs("p edge 3 2\ne 1 2\n"),
            Err(IngestError::BadHeader { line: 0, .. })
        ));
        assert_eq!(parse_dimacs("c nothing\n").unwrap_err(), IngestError::Empty);
    }

    #[test]
    fn cotree_term_round_trip() {
        let tree = parse_cotree_term("(u (j a b) c)").unwrap();
        assert_eq!(tree.num_vertices(), 3);
        let g = tree.to_graph();
        // a-b joined, c isolated.
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        let term = cotree_to_term(&tree);
        let reparsed = parse_cotree_term(&term).unwrap();
        assert_eq!(reparsed.to_graph(), g);
    }

    #[test]
    fn cotree_term_digit_operators() {
        let tree = parse_cotree_term("(1 x (0 y z))").unwrap();
        let g = tree.to_graph();
        assert_eq!(g.num_vertices(), 3);
        // x joined to both y and z, y-z not adjacent.
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn cotree_term_typed_errors() {
        assert!(matches!(
            parse_cotree_term("(u a"),
            Err(IngestError::UnbalancedTerm { .. })
        ));
        assert!(matches!(
            parse_cotree_term("(x a b)"),
            Err(IngestError::BadTerm { .. })
        ));
        assert!(matches!(
            parse_cotree_term("(u a)"),
            Err(IngestError::BadTerm { .. })
        ));
        assert_eq!(
            parse_cotree_term("(u a a)").unwrap_err(),
            IngestError::DuplicateLeaf {
                name: "a".to_string()
            }
        );
        assert!(matches!(
            parse_cotree_term("(u a b) junk"),
            Err(IngestError::BadTerm { .. })
        ));
        assert_eq!(parse_cotree_term("").unwrap_err(), IngestError::Empty);
    }

    #[test]
    fn labelled_term_round_trips_exact_labels() {
        // Labels deliberately out of appearance order: the appearance-order
        // parser would relabel them, the labelled parser must not.
        let tree = Cotree::union_of_labelled(vec![
            Cotree::join_of_labelled(vec![Cotree::single(2), Cotree::single(0)]),
            Cotree::single(1),
        ]);
        let term = tree.to_term();
        let reparsed = parse_cotree_term_labelled(&term).unwrap();
        assert_eq!(reparsed, tree, "labelled round trip must be exact");
        let relabelled = parse_cotree_term(&term).unwrap();
        assert_ne!(
            relabelled, tree,
            "the appearance-order parser relabels this term — if this ever \
             starts passing, the labelled parser has lost its reason to exist"
        );
    }

    #[test]
    fn labelled_term_typed_errors() {
        assert!(matches!(
            parse_cotree_term_labelled("(u a b)"),
            Err(IngestError::BadTerm { .. })
        ));
        assert_eq!(
            parse_cotree_term_labelled("(u 3 3)").unwrap_err(),
            IngestError::DuplicateLeaf {
                name: "3".to_string()
            }
        );
        assert_eq!(
            parse_cotree_term_labelled("").unwrap_err(),
            IngestError::Empty
        );
    }

    #[test]
    fn format_sniffing() {
        assert_eq!(GraphFormat::sniff("0 1\n"), GraphFormat::EdgeList);
        assert_eq!(
            GraphFormat::sniff("c hi\np edge 2 1\n"),
            GraphFormat::Dimacs
        );
        assert_eq!(GraphFormat::sniff("  (u a b)"), GraphFormat::CotreeTerm);
        assert_eq!(GraphFormat::sniff(""), GraphFormat::EdgeList);
    }
}
