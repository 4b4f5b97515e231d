//! Findings, suppressions and report rendering.

use std::fmt;

use crate::lexer::Token;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule's registered name (e.g. `"no-hash-order"`).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Structural fingerprint of the enclosing item (FNV-1a over the
    /// rule, the path, and the item's non-comment token stream) — the
    /// identity `--baseline` matches on. Line numbers deliberately do
    /// not participate, so findings survive unrelated edits above them.
    /// Zero until [`crate::lint_workspace`] fills it in.
    pub fingerprint: u64,
}

impl Finding {
    /// A finding at `path:line:col`, not yet fingerprinted.
    pub fn new(rule: &'static str, path: &str, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            col,
            message,
            fingerprint: 0,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// One parsed `// simlint::allow(<rule>[, <rule>…]): <justification>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Rules the comment suppresses.
    pub rules: Vec<String>,
    /// The mandatory justification text after the colon.
    pub justification: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// The marker that introduces a suppression inside a comment.
pub const ALLOW_MARKER: &str = "simlint::allow";

/// Extracts suppressions from a file's comment tokens. Only comments
/// that *begin* with the marker count (doc comments and prose that
/// merely mention the syntax are ignored). A marker comment that is
/// malformed (unparsable rule list, or a missing/empty justification)
/// yields an error entry carrying a [`Finding`]-ready message, because a
/// suppression without a written reason is itself a hygiene violation.
pub fn parse_suppressions(tokens: &[Token]) -> (Vec<Suppression>, Vec<(u32, u32, String)>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        // Only a comment that *is* a suppression counts: doc comments and
        // prose that merely mention the syntax (they start with `/`, `!`
        // or other text) are ignored.
        let trimmed = t.text.trim_start();
        let Some(rest) = trimmed.strip_prefix(ALLOW_MARKER) else {
            continue;
        };
        let parsed = (|| -> Result<Suppression, String> {
            let rest = rest.trim_start();
            let inner = rest
                .strip_prefix('(')
                .ok_or("expected `(` after simlint::allow")?;
            let close = inner.find(')').ok_or("unclosed `(` in simlint::allow")?;
            let rules: Vec<String> = inner[..close]
                .split(',')
                .map(|r| r.trim().to_owned())
                .filter(|r| !r.is_empty())
                .collect();
            if rules.is_empty() {
                return Err("simlint::allow names no rule".to_owned());
            }
            let after = inner[close + 1..].trim_start();
            let justification = after
                .strip_prefix(':')
                .map(str::trim)
                .filter(|j| !j.is_empty())
                .ok_or(
                    "suppression lacks a justification (`simlint::allow(rule): <why>` is required)",
                )?;
            Ok(Suppression {
                rules,
                justification: justification.to_owned(),
                line: t.line,
            })
        })();
        match parsed {
            Ok(s) => ok.push(s),
            Err(msg) => bad.push((t.line, t.col, msg.to_string())),
        }
    }
    (ok, bad)
}

/// A full lint run: what was found, what was suppressed, what was seen.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings — these fail the build.
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified suppression (kept for `--json`
    /// audits: every suppression stays visible).
    pub suppressed: Vec<(Finding, String)>,
    /// Files scanned, workspace-relative.
    pub files_scanned: Vec<String>,
    /// Function names the interprocedural summaries excluded because
    /// same-named definitions disagree on arity. Those call sites fall
    /// back to "no facts" — surfaced so silently-shrinking coverage is
    /// visible in every report, not just in a debugger.
    pub dropped_symbols: usize,
}

impl Report {
    /// Whether the run is clean (nothing unsuppressed).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Sorts findings for stable, diff-friendly output.
    pub fn sort(&mut self) {
        let key = |f: &Finding| (f.path.clone(), f.line, f.col, f.rule);
        self.findings.sort_by_key(key);
        self.suppressed.sort_by_key(|(f, _)| key(f));
    }

    /// Human-readable rendering, one `file:line:col: [rule] message` per
    /// finding.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{f}\n"));
        }
        out.push_str(&format!(
            "simlint: {} file(s), {} finding(s), {} suppressed\n",
            self.files_scanned.len(),
            self.findings.len(),
            self.suppressed.len()
        ));
        if self.dropped_symbols > 0 {
            out.push_str(&format!(
                "simlint: {} symbol(s) excluded from interprocedural summaries \
                 (same-named definitions with conflicting arities)\n",
                self.dropped_symbols
            ));
        }
        out
    }

    /// Machine-readable rendering (stable field order, hand-rolled so the
    /// crate stays dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n",
            self.files_scanned.len()
        ));
        out.push_str(&format!(
            "  \"dropped_symbols\": {},\n",
            self.dropped_symbols
        ));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \
                 \"fingerprint\": \"{:016x}\"}}{}\n",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                f.col,
                json_str(&f.message),
                f.fingerprint,
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"suppressed\": [\n");
        for (i, (f, why)) in self.suppressed.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"justification\": {}}}{}\n",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                json_str(why),
                if i + 1 < self.suppressed.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"clean\": {}\n", self.is_clean()));
        out.push('}');
        out
    }
}

/// Escapes `s` as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn well_formed_suppression_parses() {
        let toks =
            lex("// simlint::allow(no-hash-order, panic-hygiene): keyed probe only\nlet x = 1;");
        let (ok, bad) = parse_suppressions(&toks);
        assert!(bad.is_empty());
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].rules, vec!["no-hash-order", "panic-hygiene"]);
        assert_eq!(ok[0].justification, "keyed probe only");
        assert_eq!(ok[0].line, 1);
    }

    #[test]
    fn suppression_without_justification_is_flagged() {
        for src in [
            "// simlint::allow(no-hash-order)",
            "// simlint::allow(no-hash-order):",
            "// simlint::allow(no-hash-order):   ",
            "// simlint::allow(): because",
        ] {
            let (ok, bad) = parse_suppressions(&lex(src));
            assert!(ok.is_empty(), "{src} should not parse");
            assert_eq!(bad.len(), 1, "{src} should be flagged");
        }
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        let (ok, bad) = parse_suppressions(&lex("// nothing to see\n/* here either */"));
        assert!(ok.is_empty() && bad.is_empty());
    }

    #[test]
    fn json_escapes_and_shape() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "no-wall-clock",
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            message: "say \"no\"".into(),
            fingerprint: 0xabcd,
        });
        r.files_scanned.push("crates/x/src/lib.rs".into());
        let j = r.render_json();
        assert!(j.contains("\"say \\\"no\\\"\""));
        assert!(j.contains("\"clean\": false"));
    }
}
