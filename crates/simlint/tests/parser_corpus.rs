//! The parser's survival contract: it never panics, recovers to the
//! next item on garbage, and digests every real file in this workspace
//! without losing a single construct. The adversarial half feeds it
//! syntax chosen to break hand-rolled parsers (deep nesting, stray
//! closers, half-finished items); the corpus half proves the recovery
//! counter stays at zero on the code it actually lints day to day.

use std::path::Path;

use mlb_simlint::ast::{self, File};
use mlb_simlint::lexer;
use mlb_simlint::parser;
use mlb_simlint::workspace::Workspace;

fn parse(src: &str) -> File {
    parser::parse_file(&lexer::lex(src))
}

fn fn_names(file: &File) -> Vec<String> {
    let mut names = Vec::new();
    ast::walk_fns(file, &mut |_impl_name, f| names.push(f.name.clone()));
    names
}

#[test]
fn empty_and_whitespace_only_sources_parse() {
    assert!(parse("").items.is_empty());
    assert!(parse("\n\n   \t\n").items.is_empty());
    assert!(parse("// just a comment\n").items.is_empty());
}

#[test]
fn pathological_nesting_does_not_overflow_the_stack() {
    // Parenthesis nesting far past MAX_DEPTH: the parser must bail out
    // gracefully (Unknown / recovery), never recurse to a crash.
    let deep = format!(
        "pub fn f() -> u64 {{ {}1{} }}\n",
        "(".repeat(5_000),
        ")".repeat(5_000)
    );
    let file = parse(&deep);
    assert_eq!(file.items.len(), 1);

    let blocks = format!(
        "pub fn g() {{ {} {} }}\n",
        "{".repeat(5_000),
        "}".repeat(5_000)
    );
    assert_eq!(parse(&blocks).items.len(), 1);
}

#[test]
fn stray_closers_and_unclosed_openers_recover() {
    // Unbalanced delimiters in one item must not eat the next item.
    for src in [
        "pub fn bad() { let x = (1; }\npub fn good() {}\n",
        "pub fn bad() { ) ] } }\npub fn good() {}\n",
        "struct Broken { a: , }\npub fn good() {}\n",
        "pub fn bad( { }\npub fn good() {}\n",
    ] {
        let file = parse(src);
        assert!(
            fn_names(&file).iter().any(|n| n == "good"),
            "recovery lost the following item in {src:?}: {file:?}"
        );
    }
}

#[test]
fn adversarial_expression_syntax_parses_without_recovery() {
    // Constructs that trip naive token-pair parsers: shifts vs nested
    // generics, turbofish, or-patterns, labeled loops, raw strings with
    // internal quotes, closures whose pipes look like or-pattern bars.
    let src = r####"
pub fn soup(xs: Vec<Vec<u64>>) -> u64 {
    let a: Vec<Vec<u64>> = Vec::<Vec<u64>>::new();
    let b = 1u64 << 3 >> 1;
    let c = xs.iter().map(|v| v.len() as u64).sum::<u64>();
    let d = if b < c { b } else { c };
    let s = r#"raw " string with )( braces {}"#;
    let t = 'outer: loop {
        match d {
            0 | 1 => break 'outer d,
            n if n > 10 => return n,
            _ => break 'outer n_of(s),
        }
    };
    a.first().map(|v| v.first().copied().unwrap_or(t)).unwrap_or(b)
}

fn n_of(_s: &str) -> u64 {
    0
}
"####;
    let file = parse(src);
    assert_eq!(file.recovered_skips, 0, "recovery on {file:#?}");
    assert_eq!(fn_names(&file).len(), 2);
}

#[test]
fn item_zoo_parses_without_recovery() {
    let src = r#"
#![forbid(unsafe_code)]
//! Module docs.

use std::collections::BTreeMap;

pub const LIMIT_US: u64 = 1_000;
pub static NAME: &str = "zoo";

pub type Table = BTreeMap<u64, u64>;

#[derive(Debug, Clone)]
pub struct Pair<T: Ord, const N: usize> {
    pub left: [T; N],
    right: Option<Box<Pair<T, N>>>,
}

pub enum Verdict {
    Ok,
    Slow { by_us: u64 },
    Failed(u64, &'static str),
}

pub trait Probe {
    fn poke(&mut self) -> Verdict;
    fn name(&self) -> &str {
        "anon"
    }
}

impl<T: Ord + Copy, const N: usize> Probe for Pair<T, N> {
    fn poke(&mut self) -> Verdict {
        Verdict::Ok
    }
}

pub mod inner {
    pub fn visible() -> u64 {
        super::LIMIT_US
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::inner::visible(), 1_000);
    }
}

macro_rules! twice {
    ($e:expr) => {
        $e + $e
    };
}
"#;
    let file = parse(src);
    assert_eq!(file.recovered_skips, 0, "recovery on {file:#?}");
    assert!(file.items.len() >= 9, "lost items: {file:#?}");
}

#[test]
fn double_references_in_type_position_parse_without_recovery() {
    // The lexer folds `&&` into one operator token; in a type it is two
    // reference levels, in parameters, returns, fields and closure
    // parameter ascriptions alike.
    for src in [
        "fn g(x: &&u8) -> u8 { **x }",
        "fn h() -> &&'static u8 { &&7 }",
        "struct S { a: &&'static u8 }",
        "fn k(v: &[Finding]) -> usize { v.iter().filter(|f: &&Finding| f.ok).count() }",
        "fn m(x: &u8) { let a: &&u8 = &x; let c = |y: &u64| *y; }",
    ] {
        let file = parse(src);
        assert_eq!(file.recovered_skips, 0, "{src}: {file:#?}");
        assert_eq!(file.items.len(), 1, "{src}");
    }
}

/// Every real source file in this workspace must parse to a non-empty
/// AST with zero recovery skips — the corpus meta-test that keeps the
/// parser honest as the simulator underneath it grows.
#[test]
fn whole_workspace_round_trips_without_recovery() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::discover(&root).expect("workspace discovery");
    assert!(
        ws.files.len() > 50,
        "suspiciously small corpus: {}",
        ws.files.len()
    );
    let mut parsed = 0usize;
    for sf in &ws.files {
        let src = std::fs::read_to_string(&sf.abs_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", sf.rel_path));
        let file = parse(&src);
        // A file may legitimately hold only docs and inner attributes
        // (e.g. the integration-test host crate root); otherwise an
        // empty AST means the parser lost everything.
        let has_items = {
            const STARTERS: [&str; 13] = [
                "fn",
                "struct",
                "enum",
                "impl",
                "mod",
                "use",
                "trait",
                "type",
                "macro_rules",
                "static",
                "const",
                "pub",
                "extern",
            ];
            lexer::lex(&src).iter().any(|t| {
                matches!(&t.kind, mlb_simlint::lexer::TokenKind::Ident)
                    && STARTERS.contains(&t.text.as_str())
            })
        };
        assert!(
            !file.items.is_empty() || !has_items,
            "{} parsed to an empty AST",
            sf.rel_path
        );
        assert_eq!(
            file.recovered_skips, 0,
            "{} needed parser recovery",
            sf.rel_path
        );
        parsed += 1;
    }
    assert_eq!(parsed, ws.files.len());
}
