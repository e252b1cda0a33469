//! Differential test: the byte-level parsers against the line-and-token
//! parsers they replaced (`oracle.rs`).
//!
//! Every input goes through all four entry points — edge list, DIMACS,
//! appearance-order term and labelled term — whatever format it was written
//! in, and each new result must equal the oracle's: the same `Graph` or
//! `Cotree` (arena arrays included), or the same `IngestError` variant with
//! the same line, position and token. The corpus is hand-written edge cases,
//! seeded random cographs and near-cographs in all three formats with
//! randomised layout, and seeded byte mutations of those inputs.
//!
//! Mutated numbers stay below 10^7 (no base has a number longer than four
//! digits, and a mutation inserts at most three characters), so no input
//! asks either parser for a huge vertex array; capping declared sizes is a
//! separate robustness item.

use super::{oracle, parse_cotree_term, parse_cotree_term_labelled, parse_dimacs, parse_edge_list};
use cograph::{random_cotree, CotreeShape};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Asserts that every parser agrees with its oracle on `text`.
fn agree(text: &str) {
    assert_eq!(
        parse_edge_list(text),
        oracle::parse_edge_list(text),
        "edge list {text:?}"
    );
    assert_eq!(
        parse_dimacs(text),
        oracle::parse_dimacs(text),
        "DIMACS {text:?}"
    );
    assert_eq!(
        parse_cotree_term(text),
        oracle::parse_cotree_term(text),
        "term {text:?}"
    );
    assert_eq!(
        parse_cotree_term_labelled(text),
        oracle::parse_cotree_term_labelled(text),
        "labelled term {text:?}"
    );
}

/// Hand-written cases, one per rule of the grammar the README states.
const CASES: &[&str] = &[
    // Edge lists: comments (mid-line too), blank lines, lone ids, CRLF.
    "0 1\n1 2\n# comment\n\n3\n",
    "0 1\r\n1 2\r\n\r\n2\r\n",
    "0\t1\n\t\n  \n",
    "0 1 # trailing words\n1 2#3 4\n#only a comment\n",
    "0 1#",
    "#",
    "",
    "\n",
    "   \n\t\r\n",
    "5\n",
    "0 1\r",
    "0 1\r\r\n1\r2\n",
    // Numbers as `str::parse::<u32>` reads them.
    "+7 007\n",
    "0007 +0\n",
    "4294967296 1\n",
    "1 99999999999999999999\n",
    "-1 2\n",
    "+ 1\n",
    "1 +\n",
    "1 ++2\n",
    "٣ 1\n",
    // Unicode separators `split_whitespace` honours, and one it does not.
    "0\u{a0}1\n2\u{3000}3\n",
    "0\u{85}1\u{2028}2\n",
    "0\u{b}1\u{c}\n",
    "0\u{1f}1\n",
    "0 1\n\u{feff}2 3\n",
    "é 1\n",
    // Line shapes and error precedence: token errors before graph errors,
    // at any line.
    "1 2 3\n",
    "0 1\n1 2 3 4 # x\n",
    "0 1\n1 0\n",
    "2 2\n",
    "1 1\n0 x\n",
    "0 1\n0 1\n2 2\n",
    "0 1\n2 2\n0 1\n",
    "0 x\n1 1\n",
    "0 1 2\n1 1\n",
    // DIMACS.
    "c a triangle plus isolate\np edge 4 3\ne 1 2\ne 2 3\ne 1 3\n",
    "p col 3 1\ne 1 2\n",
    "\r\nc\r\np edge 2 1\r\ne 1 2\r\n",
    "  c indented comment\np edge 1 0\n",
    "comment without a space\np edge 1 0",
    "p edge +3 01\ne +1 002\n",
    "p\tedge\u{a0}3 1\ne\u{3000}1 2\n",
    "p edge 3 1\np edge 3 1\n",
    "e 1 2\np edge 2 1\n",
    "e\n",
    "p edge 3 1\ne 0 1\n",
    "p edge 3 1\ne 1 0\n",
    "p edge 3 1\ne 1 4\n",
    "p edge 3 2\ne 1 2\n",
    "p edge 3 0\ne 1 2\n",
    "p edge 0 0\n",
    "p edge 0 1\ne 1 2\n",
    "p edge 3\n",
    "p edge 3 1 9\n",
    "p graph 3 1\n",
    "p edge x 1\n",
    "p edge 3 y\n",
    "p edge 18446744073709551616 0\n",
    "p edge 3 18446744073709551615\ne 1 2\n",
    "p edge 3 1\ne 1\n",
    "p edge 3 1\ne 1 2 3\n",
    "p edge 3 1\ne 1 2 # no comments here\n",
    "p edge 3 1\ne 1 1\n",
    "p edge 3 1\ne 1 x\n",
    "p edge 3 1\ne 4294967296 1\n",
    "p edge 3 2\ne 1 2\ne 2 1\n",
    "p edge 3 2\ne 1 2\ne 2 1\nbogus\n",
    "p edge 3 2\ne 1 5\nbogus line\n",
    "p edge 3 2\nbogus line\ne 1 5\n",
    "p edge 3 1\n  q 1 2  \r\n",
    "pedge 3 1\n",
    "c\n",
    // Terms: operators, whitespace, balance, leaves.
    "(u (j a b) c)",
    "(1 x (0 y z))",
    "( u a b )",
    "(ua b)",
    "(uab)",
    "(j(u a b)c)",
    "(u (u a b) (u c d))",
    "(j (j a (j b c)) d)",
    "(u (j a b) (j c d) (u e (u f g)))",
    "(u\ta\r\nb\n)\n",
    "(u a\u{a0}b c)",
    "(u a\u{b}b c)",
    "(u é ü)",
    "a",
    "  a  ",
    "a b",
    "(u a",
    "(u (j a b)",
    "(",
    "(u",
    "(x a b)",
    "()",
    "(u () a)",
    "(u a)",
    "(j (u a) b)",
    "(u a a)",
    "(u a (j b a))",
    "(u a b) junk",
    "(u a b))",
    ")",
    "   ",
    // Labelled terms: numeric labels as `str::parse::<u32>` reads them.
    "(u 0 1)",
    "(u (j 2 0) 1)",
    "(u 3 3)",
    "(u +3 03)",
    "(u 4294967295 1)",
    "(u 4294967296 1)",
    "(u -1 1)",
    "7",
];

#[test]
fn hand_written_cases_agree_with_the_oracle() {
    for text in CASES {
        agree(text);
    }
}

/// Separators a generated line may use between and around tokens.
const SEPARATORS: &[&str] = &[" ", " ", " ", "\t", "  ", " \t ", "\u{a0}", "\u{3000}"];

fn pick<'a, T>(rng: &mut ChaCha8Rng, options: &'a [T]) -> &'a T {
    &options[rng.gen_range(0..options.len())]
}

/// A vertex id with an occasional `+` sign or leading zeros.
fn id(rng: &mut ChaCha8Rng, v: u32) -> String {
    match rng.gen_range(0..12) {
        0 => format!("+{v}"),
        1 => format!("00{v}"),
        _ => v.to_string(),
    }
}

/// Lines with randomised separators, line ends, comments and blank lines.
struct Layout {
    out: String,
    crlf: bool,
    comment: Option<&'static str>,
}

impl Layout {
    fn line(&mut self, tokens: &[String], rng: &mut ChaCha8Rng) {
        if rng.gen_range(0..10) == 0 {
            self.out.push_str(pick::<&str>(rng, &["", " ", "\t"]));
            self.end();
        }
        if rng.gen_range(0..6) == 0 {
            self.out.push_str(pick::<&str>(rng, SEPARATORS));
        }
        for (i, token) in tokens.iter().enumerate() {
            if i > 0 {
                self.out.push_str(pick::<&str>(rng, SEPARATORS));
            }
            self.out.push_str(token);
        }
        if let Some(comment) = self.comment {
            if rng.gen_range(0..8) == 0 {
                self.out.push_str(pick::<&str>(rng, &["", " ", "\t"]));
                self.out.push_str(comment);
            }
        }
        if rng.gen_range(0..6) == 0 {
            self.out.push_str(pick::<&str>(rng, SEPARATORS));
        }
        self.end();
    }

    fn end(&mut self) {
        self.out.push_str(if self.crlf { "\r\n" } else { "\n" });
    }
}

/// Edges of a random cograph on `n` vertices; with `near` set, one vertex
/// pair is toggled so the graph is usually not a cograph any more.
fn random_edges(rng: &mut ChaCha8Rng, n: usize, near: bool) -> Vec<(u32, u32)> {
    let shape = *pick(rng, &CotreeShape::ALL);
    let mut edges: Vec<(u32, u32)> = random_cotree(n, shape, rng).to_graph().edges().collect();
    if near && n >= 2 {
        let u = rng.gen_range(0..n as u32 - 1);
        let v = rng.gen_range(u + 1..n as u32);
        match edges.iter().position(|&e| e == (u, v)) {
            Some(i) => {
                edges.swap_remove(i);
            }
            None => edges.push((u, v)),
        }
    }
    edges.shuffle(rng);
    for edge in &mut edges {
        if rng.gen_bool(0.5) {
            *edge = (edge.1, edge.0);
        }
    }
    // Now and then a self loop or a repeated pair, for the graph errors.
    if !edges.is_empty() && rng.gen_range(0..8) == 0 {
        let at = rng.gen_range(0..edges.len());
        let bad = if rng.gen_bool(0.5) {
            (edges[at].0, edges[at].0)
        } else {
            (edges[at].1, edges[at].0)
        };
        let to = rng.gen_range(0..=edges.len());
        edges.insert(to, bad);
    }
    edges
}

fn edge_list_text(rng: &mut ChaCha8Rng, n: usize, edges: &[(u32, u32)]) -> String {
    let mut layout = Layout {
        out: String::new(),
        crlf: rng.gen_bool(0.3),
        comment: Some("# note"),
    };
    let mut seen = vec![false; n];
    for &(u, v) in edges {
        seen[u as usize] = true;
        seen[v as usize] = true;
        layout.line(&[id(rng, u), id(rng, v)], rng);
    }
    for v in 0..n as u32 {
        if !seen[v as usize] || rng.gen_range(0..20) == 0 {
            layout.line(&[id(rng, v)], rng);
        }
    }
    layout.out
}

fn dimacs_text(rng: &mut ChaCha8Rng, n: usize, edges: &[(u32, u32)]) -> String {
    let mut layout = Layout {
        out: String::new(),
        crlf: rng.gen_bool(0.3),
        comment: None,
    };
    if rng.gen_bool(0.5) {
        layout.line(&["c".to_string(), "generated".to_string()], rng);
    }
    let format = if rng.gen_range(0..4) == 0 {
        "col"
    } else {
        "edge"
    };
    let declared = edges.len() + usize::from(rng.gen_range(0..10) == 0);
    layout.line(
        &[
            "p".to_string(),
            format.to_string(),
            id(rng, n as u32),
            id(rng, declared as u32),
        ],
        rng,
    );
    for &(u, v) in edges {
        if rng.gen_range(0..25) == 0 {
            layout.line(&["c".to_string()], rng);
        }
        layout.line(&["e".to_string(), id(rng, u + 1), id(rng, v + 1)], rng);
    }
    layout.out
}

/// A random cotree's term, leaves numeric or named, whitespace varied.
fn term_text(rng: &mut ChaCha8Rng, n: usize) -> String {
    let shape = *pick(rng, &CotreeShape::ALL);
    let term = random_cotree(n, shape, rng).to_term();
    let named = rng.gen_bool(0.3);
    let mut out = String::with_capacity(term.len() * 2);
    let mut previous = ' ';
    for c in term.chars() {
        if c == ' ' {
            out.push_str(pick::<&str>(rng, &[" ", " ", "\t", "\n", "\r\n", "  "]));
        } else {
            if named && c.is_ascii_digit() && !previous.is_ascii_digit() {
                out.push('v');
            }
            out.push(c);
        }
        previous = c;
    }
    if rng.gen_bool(0.2) {
        out.push('\n');
    }
    out
}

/// Seeded inputs in all three formats: valid ones, near-cographs, and the
/// occasional self loop, duplicate or miscounted header.
fn corpus(rng: &mut ChaCha8Rng, count: usize, max_n: usize) -> Vec<String> {
    let mut texts = Vec::new();
    for i in 0..count {
        let n = rng.gen_range(1..=max_n);
        let edges = random_edges(rng, n, i % 3 == 2);
        texts.push(edge_list_text(rng, n, &edges));
        texts.push(dimacs_text(rng, n, &edges));
        texts.push(term_text(rng, n));
    }
    texts
}

#[test]
fn seeded_cographs_and_near_cographs_agree_with_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1c0_7ee5);
    for text in corpus(&mut rng, 60, 40) {
        agree(&text);
    }
}

/// Fragments a mutation may insert: separators, comment and term syntax,
/// digits, signs, DIMACS keywords and multi-byte characters.
const INSERTS: &[&str] = &[
    " ", "\t", "\r", "\n", "\r\n", "#", "(", ")", "u", "j", "0", "1", "9", "+", "-", "p", "e", "c",
    "x", "\u{a0}", "\u{3000}", "\u{b}", "é", "edge ", "col ", "e 1 2\n",
];

/// One to three byte-level inserts, deletes or bit flips. Byte edits may
/// split a multi-byte character; the lossy conversion turns the remains
/// into U+FFFD, which is just another non-separator character.
fn mutate(rng: &mut ChaCha8Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..3) {
            0 => {
                let fragment = pick(rng, INSERTS).as_bytes();
                bytes.splice(at..at, fragment.iter().copied());
            }
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..7),
            _ => bytes.push(b' '),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn seeded_byte_mutations_agree_with_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xb17_f11b);
    let mut bases = corpus(&mut rng, 30, 12);
    // Cases with long numbers stay out: deleting one digit of `4294967296`
    // leaves a valid id whose vertex array neither parser can allocate.
    let short_numbers = |case: &&&str| {
        case.split(|c: char| !c.is_ascii_digit())
            .all(|digits| digits.len() <= 4)
    };
    bases.extend(
        CASES
            .iter()
            .filter(short_numbers)
            .map(|case| case.to_string()),
    );
    for _ in 0..2_400 {
        let base = pick(&mut rng, &bases).clone();
        agree(&mutate(&mut rng, &base));
    }
}
