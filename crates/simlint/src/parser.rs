//! Recursive-descent parser from the lexer's token stream to the
//! [`ast`](crate::ast) tree.
//!
//! Two passes. First, [`cook`] glues adjacent single-character
//! punctuation into compound operators (`::`, `->`, `..=`, `&&`, ...)
//! using line/column adjacency, so the parser sees one token per
//! operator. `<<`/`>>` are deliberately *not* glued — in type position
//! they close nested generics — and are instead recognized by adjacency
//! only where a binary operator is grammatically possible.
//!
//! Second, a hand-rolled recursive-descent parser with a Pratt
//! expression core builds the AST. It is loss-tolerant by design: the
//! parser **never panics and never fails a file**. Anything it cannot
//! model is skipped with balanced-delimiter recovery to the next item
//! or statement boundary, recorded in [`ast::File::recovered_skips`].
//! Trait bodies are parsed like `impl` blocks (default methods keep
//! their bodies); `trait` items therefore surface as [`ItemKind::Impl`].
//! A recursion-depth cap guards against pathological nesting.

use crate::ast::{
    Arm, Block, ConstDef, EnumDef, Expr, ExprKind, FieldDef, File, Func, ImplDef, Item, ItemKind,
    Lit, ModDef, Param, Pat, PatKind, Span, Stmt, StmtKind, StructDef, TypeRef,
};
use crate::lexer::{Token, TokenKind};

/// Cooked token payload.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pk {
    Ident(String),
    Num(String),
    Str,
    Char,
    Lifetime,
    /// A glued compound operator.
    Op(&'static str),
    /// A single punctuation character.
    P(char),
}

/// One cooked token.
#[derive(Debug, Clone)]
struct PTok {
    kind: Pk,
    line: u32,
    col: u32,
}

/// Compound operators glued by [`cook`], longest first. `<<`/`>>` are
/// absent on purpose (generics); shifts are detected positionally.
const GLUE3: [&str; 3] = ["..=", "<<=", ">>="];
const GLUE2: [&str; 18] = [
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=",
];

fn cook(tokens: &[Token]) -> Vec<PTok> {
    let toks: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    let punct = |t: &Token| match t.kind {
        TokenKind::Punct(c) => Some(c),
        _ => None,
    };
    // Two puncts are one operator only when physically adjacent.
    let adj = |a: &Token, b: &Token| b.line == a.line && b.col == a.col + 1;
    while i < toks.len() {
        let t = toks[i];
        let kind = match t.kind {
            TokenKind::Ident => Pk::Ident(t.text.clone()),
            TokenKind::Number => Pk::Num(t.text.clone()),
            TokenKind::Str => Pk::Str,
            TokenKind::Char => Pk::Char,
            TokenKind::Lifetime => Pk::Lifetime,
            TokenKind::LineComment | TokenKind::BlockComment => unreachable!("filtered"),
            TokenKind::Punct(c) => {
                let mut glued = None;
                if let (Some(c2), Some(c3)) = (
                    toks.get(i + 1).and_then(|t| punct(t)),
                    toks.get(i + 2).and_then(|t| punct(t)),
                ) {
                    if adj(t, toks[i + 1]) && adj(toks[i + 1], toks[i + 2]) {
                        let s: String = [c, c2, c3].iter().collect();
                        if let Some(op) = GLUE3.iter().find(|g| ***g == s) {
                            glued = Some((op, 3));
                        }
                    }
                }
                if glued.is_none() {
                    if let Some(c2) = toks.get(i + 1).and_then(|t| punct(t)) {
                        if adj(t, toks[i + 1]) {
                            let s: String = [c, c2].iter().collect();
                            if let Some(op) = GLUE2.iter().find(|g| ***g == s) {
                                glued = Some((op, 2));
                            }
                        }
                    }
                }
                match glued {
                    Some((op, n)) => {
                        out.push(PTok {
                            kind: Pk::Op(op),
                            line: t.line,
                            col: t.col,
                        });
                        i += n;
                        continue;
                    }
                    None => Pk::P(c),
                }
            }
        };
        out.push(PTok {
            kind,
            line: t.line,
            col: t.col,
        });
        i += 1;
    }
    out
}

/// Parses a lexed file into an AST. Never fails: unparseable regions
/// are skipped and counted in [`File::recovered_skips`].
pub fn parse_file(tokens: &[Token]) -> File {
    let toks = cook(tokens);
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        skips: 0,
    };
    let mut items = Vec::new();
    while p.peek().is_some() {
        if p.at_p('#') && matches!(p.nth_kind(1), Some(Pk::P('!'))) {
            // Inner attribute (`#![forbid(unsafe_code)]`).
            let mut sink = Vec::new();
            if p.parse_attr(&mut sink).is_none() {
                p.recover_item();
            }
            continue;
        }
        match p.parse_item() {
            Some(item) => items.push(item),
            None => p.recover_item(),
        }
    }
    File {
        items,
        recovered_skips: p.skips,
    }
}

/// Recursion cap for expressions, items, and patterns. Each level costs
/// several parser frames, and `lint_source` runs on 2 MiB test-thread
/// stacks, so the cap must stay far below what that stack can absorb;
/// the corpus round-trip test proves real workspace code never needs
/// even half of this.
const MAX_DEPTH: u32 = 64;

/// Keywords that can begin an item; recovery resynchronizes on these.
const ITEM_KEYWORDS: [&str; 13] = [
    "pub",
    "fn",
    "struct",
    "enum",
    "impl",
    "mod",
    "const",
    "static",
    "use",
    "trait",
    "type",
    "macro_rules",
    "extern",
];

struct Parser {
    toks: Vec<PTok>,
    pos: usize,
    depth: u32,
    skips: u32,
}

impl Parser {
    fn peek(&self) -> Option<&PTok> {
        self.toks.get(self.pos)
    }

    fn nth_kind(&self, k: usize) -> Option<&Pk> {
        self.toks.get(self.pos + k).map(|t| &t.kind)
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn at_p(&self, c: char) -> bool {
        matches!(self.peek(), Some(t) if t.kind == Pk::P(c))
    }

    fn eat_p(&mut self, c: char) -> bool {
        if self.at_p(c) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn at_op(&self, s: &str) -> bool {
        matches!(self.peek(), Some(t) if matches!(t.kind, Pk::Op(o) if o == s))
    }

    fn eat_op(&mut self, s: &str) -> bool {
        if self.at_op(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn at_kw(&self, s: &str) -> bool {
        matches!(self.peek(), Some(t) if matches!(&t.kind, Pk::Ident(i) if i == s))
    }

    fn eat_kw(&mut self, s: &str) -> bool {
        if self.at_kw(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn ident_text(&self) -> Option<&str> {
        match self.peek().map(|t| &t.kind) {
            Some(Pk::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn eat_ident(&mut self) -> Option<String> {
        let s = self.ident_text()?.to_owned();
        self.advance();
        Some(s)
    }

    /// (line, col) of the current token, or of the last token at EOF.
    fn here(&self) -> (u32, u32) {
        match self.peek() {
            Some(t) => (t.line, t.col),
            None => self.toks.last().map(|t| (t.line, t.col)).unwrap_or((1, 1)),
        }
    }

    /// Line of the most recently consumed token.
    fn prev_line(&self) -> u32 {
        if self.pos == 0 {
            return 1;
        }
        self.toks
            .get(self.pos - 1)
            .or_else(|| self.toks.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn span_from(&self, start: (u32, u32)) -> Span {
        Span {
            line: start.0,
            col: start.1,
            end_line: self.prev_line().max(start.0),
        }
    }

    // ----- recovery -------------------------------------------------

    /// Skips past unparseable input to the next depth-0 item keyword.
    fn recover_item(&mut self) {
        self.skips += 1;
        let mut depth = 0i32;
        let mut first = true;
        while let Some(t) = self.peek() {
            if !first && depth == 0 {
                if let Pk::Ident(s) = &t.kind {
                    if ITEM_KEYWORDS.contains(&s.as_str()) {
                        return;
                    }
                }
            }
            match t.kind {
                Pk::P('{') | Pk::P('(') | Pk::P('[') => depth += 1,
                Pk::P('}') | Pk::P(')') | Pk::P(']') => {
                    depth -= 1;
                    if depth < 0 {
                        self.advance();
                        return;
                    }
                }
                _ => {}
            }
            self.advance();
            first = false;
        }
    }

    /// Skips to the next `;` (consumed) or `}` (left) at depth 0.
    fn recover_stmt(&mut self) {
        self.skips += 1;
        let mut depth = 0i32;
        let mut first = true;
        while let Some(t) = self.peek() {
            match t.kind {
                Pk::P('{') | Pk::P('(') | Pk::P('[') => depth += 1,
                Pk::P('}') | Pk::P(')') | Pk::P(']') => {
                    if depth == 0 {
                        if first {
                            self.advance();
                        }
                        return;
                    }
                    depth -= 1;
                }
                Pk::P(';') if depth == 0 => {
                    self.advance();
                    return;
                }
                _ => {}
            }
            self.advance();
            first = false;
        }
    }

    /// Consumes a balanced `(…)`, `[…]` or `{…}` group (opener is the
    /// current token), optionally collecting identifiers seen inside.
    fn skip_balanced(&mut self, idents: Option<&mut Vec<String>>) -> Option<()> {
        let mut idents = idents;
        let open = match self.peek()?.kind {
            Pk::P(c @ ('(' | '[' | '{')) => c,
            _ => return None,
        };
        let close = match open {
            '(' => ')',
            '[' => ']',
            _ => '}',
        };
        self.advance();
        let mut depth = 1i32;
        while let Some(t) = self.peek() {
            match &t.kind {
                Pk::P(c) if *c == open => depth += 1,
                Pk::P(c) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.advance();
                        return Some(());
                    }
                }
                Pk::Ident(s) => {
                    if let Some(v) = idents.as_deref_mut() {
                        v.push(s.clone());
                    }
                }
                _ => {}
            }
            self.advance();
        }
        None
    }

    /// Consumes a balanced `<…>` generic-argument group (current token
    /// is `<`), collecting identifiers.
    fn skip_generics(&mut self, idents: Option<&mut Vec<String>>) -> Option<()> {
        let mut idents = idents;
        if !self.eat_p('<') {
            return None;
        }
        let mut depth = 1i32;
        while let Some(t) = self.peek() {
            match &t.kind {
                Pk::P('<') => {
                    depth += 1;
                    self.advance();
                }
                Pk::P('>') => {
                    depth -= 1;
                    self.advance();
                    if depth == 0 {
                        return Some(());
                    }
                }
                Pk::P('(' | '[' | '{') => {
                    self.skip_balanced(idents.as_deref_mut())?;
                }
                Pk::P(';') => return None, // malformed: ran off the generics
                Pk::Ident(s) => {
                    if let Some(v) = idents.as_deref_mut() {
                        v.push(s.clone());
                    }
                    self.advance();
                }
                _ => self.advance(),
            }
        }
        None
    }

    /// Skips a `where` clause (current token is `where`) up to `{` or
    /// `;` at depth 0.
    fn skip_where(&mut self) -> Option<()> {
        self.eat_kw("where");
        while let Some(t) = self.peek() {
            match t.kind {
                Pk::P('{') | Pk::P(';') => return Some(()),
                Pk::P('<') => self.skip_generics(None)?,
                Pk::P('(' | '[') => self.skip_balanced(None)?,
                _ => self.advance(),
            }
        }
        None
    }

    // ----- attributes & items ---------------------------------------

    /// Consumes `#[...]` / `#![...]` (current token is `#`), collecting
    /// the identifiers inside into `idents`.
    fn parse_attr(&mut self, idents: &mut Vec<String>) -> Option<()> {
        if !self.eat_p('#') {
            return None;
        }
        self.eat_p('!');
        if !self.at_p('[') {
            return None;
        }
        self.skip_balanced(Some(idents))
    }

    fn parse_item(&mut self) -> Option<Item> {
        if self.depth >= MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let r = self.parse_item_inner();
        self.depth -= 1;
        r
    }

    fn parse_item_inner(&mut self) -> Option<Item> {
        let start = self.here();
        let mut attrs = Vec::new();
        while self.at_p('#') && !matches!(self.nth_kind(1), Some(Pk::P('!'))) {
            self.parse_attr(&mut attrs)?;
        }
        if self.eat_kw("pub") && self.at_p('(') {
            self.skip_balanced(None)?;
        }
        // `const fn` / `async fn` / `unsafe fn` / `extern "C" fn`.
        loop {
            if (self.at_kw("const")
                && matches!(self.nth_kind(1), Some(Pk::Ident(s)) if s == "fn" || s == "unsafe" || s == "extern" || s == "async"))
                || self.at_kw("async")
                || self.at_kw("unsafe")
            {
                self.advance();
            } else if self.at_kw("extern")
                && matches!(self.nth_kind(1), Some(Pk::Str))
                && matches!(self.nth_kind(2), Some(Pk::Ident(s)) if s == "fn")
            {
                self.advance();
                self.advance();
            } else {
                break;
            }
        }
        let kind = match self.ident_text()? {
            "use" => {
                self.advance();
                while let Some(t) = self.peek() {
                    match t.kind {
                        Pk::P(';') => {
                            self.advance();
                            break;
                        }
                        Pk::P('{') => self.skip_balanced(None)?,
                        _ => self.advance(),
                    }
                }
                ItemKind::Use
            }
            "mod" => {
                self.advance();
                let name = self.eat_ident()?;
                if self.eat_p(';') {
                    ItemKind::Mod(ModDef {
                        name,
                        items: Vec::new(),
                        cfg_test: false,
                    })
                } else {
                    if !self.eat_p('{') {
                        return None;
                    }
                    let items = self.parse_item_list()?;
                    let cfg_test =
                        attrs.iter().any(|a| a == "cfg") && attrs.iter().any(|a| a == "test");
                    ItemKind::Mod(ModDef {
                        name,
                        items,
                        cfg_test,
                    })
                }
            }
            "fn" => {
                self.advance();
                ItemKind::Fn(self.parse_fn()?)
            }
            "struct" => {
                self.advance();
                ItemKind::Struct(self.parse_struct()?)
            }
            "enum" => {
                self.advance();
                ItemKind::Enum(self.parse_enum()?)
            }
            "impl" => {
                self.advance();
                ItemKind::Impl(self.parse_impl()?)
            }
            "trait" => {
                self.advance();
                let name = self.eat_ident()?;
                if self.at_p('<') {
                    self.skip_generics(None)?;
                }
                // Supertrait bounds / where clause, up to the body.
                while let Some(t) = self.peek() {
                    match t.kind {
                        Pk::P('{') | Pk::P(';') => break,
                        Pk::P('<') => self.skip_generics(None)?,
                        Pk::P('(' | '[') => self.skip_balanced(None)?,
                        _ => self.advance(),
                    }
                }
                if self.eat_p(';') {
                    ItemKind::Other
                } else {
                    if !self.eat_p('{') {
                        return None;
                    }
                    let items = self.parse_item_list()?;
                    ItemKind::Impl(ImplDef {
                        ty_name: name,
                        items,
                    })
                }
            }
            "const" | "static" => {
                self.advance();
                self.eat_kw("mut");
                let line = self.here().0;
                let name = self.eat_ident()?;
                let ty = if self.eat_p(':') {
                    Some(self.parse_type())
                } else {
                    None
                };
                let value = if self.eat_p('=') {
                    let v = self.parse_expr(true);
                    if v.is_none() {
                        self.recover_stmt();
                    }
                    v
                } else {
                    None
                };
                self.eat_p(';');
                ItemKind::Const(ConstDef {
                    name,
                    ty,
                    value,
                    line,
                })
            }
            "type" => {
                self.advance();
                while let Some(t) = self.peek() {
                    match t.kind {
                        Pk::P(';') => {
                            self.advance();
                            break;
                        }
                        Pk::P('<') => self.skip_generics(None)?,
                        Pk::P('(' | '[' | '{') => self.skip_balanced(None)?,
                        _ => self.advance(),
                    }
                }
                ItemKind::Other
            }
            "macro_rules" => {
                self.advance();
                self.eat_p('!');
                self.eat_ident()?;
                self.skip_balanced(None)?;
                ItemKind::Other
            }
            "extern" => {
                self.advance();
                if self.eat_kw("crate") {
                    while self.peek().is_some() && !self.eat_p(';') {
                        self.advance();
                    }
                    ItemKind::Other
                } else {
                    if matches!(self.peek().map(|t| &t.kind), Some(Pk::Str)) {
                        self.advance();
                    }
                    if self.at_p('{') {
                        self.skip_balanced(None)?;
                    }
                    ItemKind::Other
                }
            }
            _ => {
                // Item-position bang macro: `criterion_main!(benches);`,
                // `thread_local! { … }` — consume the invocation whole.
                if matches!(self.nth_kind(1), Some(Pk::P('!'))) {
                    self.advance();
                    self.advance();
                    if matches!(self.peek().map(|t| &t.kind), Some(Pk::P('(' | '[' | '{'))) {
                        self.skip_balanced(None)?;
                    }
                    self.eat_p(';');
                    ItemKind::Other
                } else {
                    return None;
                }
            }
        };
        Some(Item {
            kind,
            span: self.span_from(start),
        })
    }

    /// Parses items until a closing `}` (consumed), recovering inside
    /// the block on failures.
    fn parse_item_list(&mut self) -> Option<Vec<Item>> {
        let mut items = Vec::new();
        loop {
            if self.eat_p('}') {
                return Some(items);
            }
            if self.peek().is_none() {
                return Some(items); // unterminated; tolerate
            }
            match self.parse_item() {
                Some(item) => items.push(item),
                None => {
                    self.skips += 1;
                    // Skip one balanced token group or token, then retry.
                    match self.peek().map(|t| t.kind.clone()) {
                        Some(Pk::P('(' | '[' | '{')) => {
                            if self.skip_balanced(None).is_none() {
                                return Some(items);
                            }
                        }
                        Some(_) => self.advance(),
                        None => return Some(items),
                    }
                }
            }
        }
    }

    fn parse_fn(&mut self) -> Option<Func> {
        let name = self.eat_ident()?;
        if self.at_p('<') {
            self.skip_generics(None)?;
        }
        if !self.eat_p('(') {
            return None;
        }
        let mut params = Vec::new();
        loop {
            if self.eat_p(')') {
                break;
            }
            self.peek()?;
            let mut attr_sink = Vec::new();
            while self.at_p('#') {
                self.parse_attr(&mut attr_sink)?;
            }
            let line = self.here().0;
            // Receiver forms: `self`, `mut self`, `&self`, `&'a mut self`.
            let save = self.pos;
            let is_self = if self.eat_p('&') || self.eat_op("&&") {
                if matches!(self.peek().map(|t| &t.kind), Some(Pk::Lifetime)) {
                    self.advance();
                }
                self.eat_kw("mut");
                self.eat_kw("self")
            } else {
                self.eat_kw("mut");
                self.eat_kw("self")
            };
            if is_self {
                params.push(Param {
                    name: Some("self".to_owned()),
                    ty: None,
                    line,
                });
            } else {
                self.pos = save;
                let pat = self.parse_pat()?;
                let names = pat.bound_names();
                let ty = if self.eat_p(':') {
                    Some(self.parse_type())
                } else {
                    None
                };
                params.push(Param {
                    name: if names.len() == 1 {
                        Some(names.into_iter().next().unwrap())
                    } else {
                        None
                    },
                    ty,
                    line,
                });
            }
            if !self.eat_p(',') && !self.at_p(')') {
                return None;
            }
        }
        let ret = if self.eat_op("->") {
            let mut t = self.parse_type();
            // Bound sums only exist in type (not cast) position, so the
            // `+` is consumed here rather than in `parse_type`, which
            // the cast parser shares: `impl Iterator<Item = …> + '_`.
            while self.eat_p('+') {
                if matches!(self.peek().map(|tok| &tok.kind), Some(Pk::Lifetime)) {
                    self.advance();
                } else {
                    t.idents.extend(self.parse_type().idents);
                }
            }
            Some(t)
        } else {
            None
        };
        if self.at_kw("where") {
            self.skip_where()?;
        }
        let body = if self.at_p('{') {
            Some(self.parse_block()?)
        } else {
            self.eat_p(';');
            None
        };
        Some(Func {
            name,
            params,
            ret,
            body,
        })
    }

    fn parse_struct(&mut self) -> Option<StructDef> {
        let name = self.eat_ident()?;
        if self.at_p('<') {
            self.skip_generics(None)?;
        }
        if self.at_kw("where") {
            self.skip_where()?;
        }
        let mut fields = Vec::new();
        if self.eat_p('{') {
            loop {
                if self.eat_p('}') {
                    break;
                }
                if self.peek().is_none() {
                    break;
                }
                let mut attr_sink = Vec::new();
                while self.at_p('#') {
                    self.parse_attr(&mut attr_sink)?;
                }
                if self.eat_kw("pub") && self.at_p('(') {
                    self.skip_balanced(None)?;
                }
                let line = self.here().0;
                let fname = self.eat_ident()?;
                if !self.eat_p(':') {
                    return None;
                }
                let ty = self.parse_type();
                fields.push(FieldDef {
                    name: fname,
                    ty,
                    line,
                });
                self.eat_p(',');
            }
        } else if self.at_p('(') {
            self.skip_balanced(None)?;
            if self.at_kw("where") {
                self.skip_where()?;
            }
            self.eat_p(';');
        } else {
            self.eat_p(';');
        }
        Some(StructDef { name, fields })
    }

    fn parse_enum(&mut self) -> Option<EnumDef> {
        let name = self.eat_ident()?;
        if self.at_p('<') {
            self.skip_generics(None)?;
        }
        if self.at_kw("where") {
            self.skip_where()?;
        }
        if !self.eat_p('{') {
            return None;
        }
        let mut variants = Vec::new();
        loop {
            if self.eat_p('}') {
                break;
            }
            if self.peek().is_none() {
                break;
            }
            let mut attr_sink = Vec::new();
            while self.at_p('#') {
                self.parse_attr(&mut attr_sink)?;
            }
            let line = self.here().0;
            let vname = self.eat_ident()?;
            variants.push((vname, line));
            if self.at_p('(') || self.at_p('{') {
                self.skip_balanced(None)?;
            }
            if self.eat_p('=') {
                // Explicit discriminant: skip to the variant separator.
                while let Some(t) = self.peek() {
                    match t.kind {
                        Pk::P(',') | Pk::P('}') => break,
                        Pk::P('(' | '[' | '{') => self.skip_balanced(None)?,
                        _ => self.advance(),
                    }
                }
            }
            self.eat_p(',');
        }
        Some(EnumDef { name, variants })
    }

    fn parse_impl(&mut self) -> Option<ImplDef> {
        if self.at_p('<') {
            self.skip_generics(None)?;
        }
        // `impl [Trait for] Type { … }`: the implemented type's name is
        // the last depth-0 identifier before the body.
        let mut ty_name = String::new();
        loop {
            match self.peek().map(|t| t.kind.clone()) {
                Some(Pk::P('{')) => break,
                Some(Pk::Ident(s)) if s == "where" => {
                    self.skip_where()?;
                    break;
                }
                Some(Pk::Ident(s)) if s == "for" => {
                    ty_name.clear();
                    self.advance();
                }
                Some(Pk::Ident(s)) => {
                    if !matches!(s.as_str(), "dyn" | "mut" | "impl") {
                        ty_name = s;
                    }
                    self.advance();
                }
                Some(Pk::P('<')) => self.skip_generics(None)?,
                Some(Pk::P('(' | '[')) => self.skip_balanced(None)?,
                Some(_) => self.advance(),
                None => return None,
            }
        }
        if !self.eat_p('{') {
            return None;
        }
        let items = self.parse_item_list()?;
        Some(ImplDef { ty_name, items })
    }

    // ----- blocks & statements --------------------------------------

    fn parse_block(&mut self) -> Option<Block> {
        let start = self.here();
        if !self.eat_p('{') {
            return None;
        }
        let mut stmts = Vec::new();
        loop {
            if self.eat_p('}') {
                break;
            }
            if self.peek().is_none() {
                break; // unterminated; tolerate
            }
            let stmt_start = self.here();
            if self.at_p('#') {
                let mut sink = Vec::new();
                if self.parse_attr(&mut sink).is_none() {
                    self.recover_stmt();
                }
                continue;
            }
            if self.eat_p(';') {
                continue;
            }
            if self.at_kw("let") {
                match self.parse_let_stmt() {
                    Some(kind) => stmts.push(Stmt {
                        kind,
                        span: self.span_from(stmt_start),
                    }),
                    None => {
                        self.recover_stmt();
                        stmts.push(Stmt {
                            kind: StmtKind::Skipped,
                            span: self.span_from(stmt_start),
                        });
                    }
                }
                continue;
            }
            if self.at_item_start() {
                match self.parse_item() {
                    Some(item) => stmts.push(Stmt {
                        span: item.span,
                        kind: StmtKind::Item(item),
                    }),
                    None => {
                        self.recover_stmt();
                        stmts.push(Stmt {
                            kind: StmtKind::Skipped,
                            span: self.span_from(stmt_start),
                        });
                    }
                }
                continue;
            }
            match self.parse_expr(true) {
                Some(e) => {
                    self.eat_p(';');
                    stmts.push(Stmt {
                        span: self.span_from(stmt_start),
                        kind: StmtKind::Expr(e),
                    });
                }
                None => {
                    self.recover_stmt();
                    stmts.push(Stmt {
                        kind: StmtKind::Skipped,
                        span: self.span_from(stmt_start),
                    });
                }
            }
        }
        Some(Block {
            stmts,
            span: self.span_from(start),
        })
    }

    /// Whether the current token begins a nested item (not an
    /// expression). `const` needs lookahead: `const { … }` blocks and
    /// `const fn` are handled by the item parser anyway.
    fn at_item_start(&self) -> bool {
        match self.ident_text() {
            Some(
                "fn" | "struct" | "enum" | "impl" | "mod" | "use" | "trait" | "type"
                | "macro_rules" | "static",
            ) => true,
            Some("pub") => true,
            Some("const") => !matches!(self.nth_kind(1), Some(Pk::P('{'))),
            _ => false,
        }
    }

    fn parse_let_stmt(&mut self) -> Option<StmtKind> {
        if !self.eat_kw("let") {
            return None;
        }
        let pat = self.parse_pat()?;
        let names = pat.bound_names();
        let ty = if self.eat_p(':') {
            Some(self.parse_type())
        } else {
            None
        };
        let init = if self.eat_p('=') {
            Some(self.parse_expr(true)?)
        } else {
            None
        };
        if self.eat_kw("else") {
            self.parse_block()?;
        }
        self.eat_p(';');
        Some(StmtKind::Let { names, ty, init })
    }

    // ----- types ----------------------------------------------------

    /// Consumes a type, collecting the identifiers it mentions
    /// (generic arguments included). Stops at any token that cannot
    /// continue a type (`,`, `;`, `)`, `{`, `=`, `where`, operators...).
    /// Never fails; an empty `TypeRef` means nothing was consumed.
    fn parse_type(&mut self) -> TypeRef {
        let mut idents = Vec::new();
        loop {
            match self.peek().map(|t| t.kind.clone()) {
                // The lexer folds `&&` into one operator; in a type it
                // is two reference levels.
                Some(Pk::P('&') | Pk::Op("&&") | Pk::P('*') | Pk::P('!')) => self.advance(),
                Some(Pk::Lifetime) => self.advance(),
                Some(Pk::Op("::") | Pk::Op("->")) => self.advance(),
                Some(Pk::P('(') | Pk::P('[')) => {
                    if self.skip_balanced(Some(&mut idents)).is_none() {
                        break;
                    }
                }
                Some(Pk::P('<')) => {
                    if self.skip_generics(Some(&mut idents)).is_none() {
                        break;
                    }
                }
                Some(Pk::Ident(s)) => match s.as_str() {
                    "where" | "else" => break,
                    "mut" | "dyn" | "impl" | "fn" | "as" | "for" => self.advance(),
                    _ => {
                        idents.push(s);
                        self.advance();
                    }
                },
                _ => break,
            }
        }
        TypeRef { idents }
    }

    // ----- patterns -------------------------------------------------

    fn parse_pat(&mut self) -> Option<Pat> {
        if self.depth >= MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let r = self.parse_pat_inner();
        self.depth -= 1;
        r
    }

    fn parse_pat_inner(&mut self) -> Option<Pat> {
        let start = self.here();
        self.eat_p('|'); // leading `|`
        let first = self.parse_pat_single()?;
        if !self.at_p('|') {
            return Some(first);
        }
        let mut alts = vec![first];
        while self.eat_p('|') {
            alts.push(self.parse_pat_single()?);
        }
        Some(Pat {
            kind: PatKind::Or(alts),
            span: self.span_from(start),
        })
    }

    fn parse_pat_single(&mut self) -> Option<Pat> {
        let start = self.here();
        let pat = self.parse_pat_atom()?;
        if self.eat_p('@') {
            let sub = self.parse_pat_single()?;
            // `name @ pat`: keep both so bound names include the binding.
            return Some(Pat {
                kind: PatKind::Tuple(vec![pat, sub]),
                span: self.span_from(start),
            });
        }
        Some(pat)
    }

    fn parse_pat_atom(&mut self) -> Option<Pat> {
        let start = self.here();
        let done = |p: &mut Self, kind| {
            Some(Pat {
                kind,
                span: p.span_from(start),
            })
        };
        match self.peek().map(|t| t.kind.clone())? {
            Pk::P('&') | Pk::Op("&&") => {
                self.advance();
                self.eat_kw("mut");
                // Reference patterns are transparent for our purposes.
                self.parse_pat_single()
            }
            Pk::Op("..") => {
                self.advance();
                done(self, PatKind::Rest)
            }
            Pk::P('-') | Pk::Num(_) | Pk::Str | Pk::Char => {
                self.eat_p('-');
                self.advance();
                if self.eat_op("..=") || self.eat_op("..") {
                    self.eat_p('-');
                    if matches!(
                        self.peek().map(|t| &t.kind),
                        Some(Pk::Num(_) | Pk::Str | Pk::Char | Pk::Ident(_))
                    ) {
                        self.parse_pat_atom()?;
                    }
                }
                done(self, PatKind::Lit)
            }
            Pk::P('(') => {
                self.advance();
                let mut elems = Vec::new();
                loop {
                    if self.eat_p(')') {
                        break;
                    }
                    self.peek()?;
                    elems.push(self.parse_pat()?);
                    if !self.eat_p(',') && !self.at_p(')') {
                        return None;
                    }
                }
                done(self, PatKind::Tuple(elems))
            }
            Pk::P('[') => {
                self.skip_balanced(None)?;
                done(self, PatKind::Other)
            }
            Pk::Ident(first) => {
                if first == "_" {
                    self.advance();
                    return done(self, PatKind::Wild);
                }
                if first == "mut" || first == "ref" {
                    self.advance();
                    self.eat_kw("mut");
                    let name = self.eat_ident()?;
                    return done(self, PatKind::Binding(name));
                }
                if first == "box" {
                    self.advance();
                    return self.parse_pat_single();
                }
                self.advance();
                let mut segs = vec![first];
                while self.at_op("::") {
                    if matches!(self.nth_kind(1), Some(Pk::P('<'))) {
                        self.advance();
                        self.skip_generics(None)?;
                        continue;
                    }
                    self.advance();
                    segs.push(self.eat_ident()?);
                }
                if self.at_p('(') {
                    self.advance();
                    let mut elems = Vec::new();
                    loop {
                        if self.eat_p(')') {
                            break;
                        }
                        self.peek()?;
                        elems.push(self.parse_pat()?);
                        if !self.eat_p(',') && !self.at_p(')') {
                            return None;
                        }
                    }
                    return done(self, PatKind::TupleStruct { path: segs, elems });
                }
                if self.at_p('{') {
                    self.advance();
                    let mut fields = Vec::new();
                    loop {
                        if self.eat_p('}') {
                            break;
                        }
                        self.peek()?;
                        if self.eat_op("..") {
                            continue;
                        }
                        self.eat_kw("ref");
                        self.eat_kw("mut");
                        let fname = self.eat_ident()?;
                        if self.eat_p(':') {
                            let sub = self.parse_pat()?;
                            fields.extend(sub.bound_names());
                        } else {
                            fields.push(fname);
                        }
                        if !self.eat_p(',') && !self.at_p('}') {
                            return None;
                        }
                    }
                    return done(self, PatKind::Struct { path: segs, fields });
                }
                if self.eat_op("..=") || self.eat_op("..") {
                    // Path range pattern (`X::MIN..=X::MAX`).
                    if matches!(
                        self.peek().map(|t| &t.kind),
                        Some(Pk::Num(_) | Pk::Str | Pk::Char | Pk::Ident(_) | Pk::P('-'))
                    ) {
                        self.parse_pat_atom()?;
                    }
                    return done(self, PatKind::Lit);
                }
                if segs.len() == 1
                    && segs[0]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    let name = segs.into_iter().next().unwrap();
                    return done(self, PatKind::Binding(name));
                }
                done(self, PatKind::Path(segs))
            }
            _ => None,
        }
    }

    // ----- expressions ----------------------------------------------

    fn parse_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        self.parse_bp(0, allow_struct)
    }

    fn parse_bp(&mut self, min_bp: u8, allow_struct: bool) -> Option<Expr> {
        if self.depth >= MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let r = self.parse_bp_inner(min_bp, allow_struct);
        self.depth -= 1;
        r
    }

    /// Infix binding powers: `(left, right)`; assignment is
    /// right-associative, everything else left-associative.
    fn infix_bp(op: &str) -> Option<(u8, u8)> {
        Some(match op {
            "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => (2, 2),
            ".." | "..=" => (4, 5),
            "||" => (6, 7),
            "&&" => (8, 9),
            "==" | "!=" | "<" | ">" | "<=" | ">=" => (10, 11),
            "|" => (12, 13),
            "^" => (14, 15),
            "&" => (16, 17),
            "<<" | ">>" => (18, 19),
            "+" | "-" => (20, 21),
            "*" | "/" | "%" => (22, 23),
            _ => return None,
        })
    }

    /// The infix operator at the cursor, if any, with how many tokens it
    /// spans (shifts arrive as two adjacent `<`/`>` puncts).
    fn peek_infix(&self) -> Option<(&'static str, usize)> {
        let t = self.peek()?;
        match &t.kind {
            Pk::Op(o) => Some((o, 1)),
            Pk::P(c @ ('<' | '>')) => {
                if let Some(n) = self.toks.get(self.pos + 1) {
                    if n.kind == t.kind && n.line == t.line && n.col == t.col + 1 {
                        return Some((if *c == '<' { "<<" } else { ">>" }, 2));
                    }
                }
                Some((if *c == '<' { "<" } else { ">" }, 1))
            }
            Pk::P('+') => Some(("+", 1)),
            Pk::P('-') => Some(("-", 1)),
            Pk::P('*') => Some(("*", 1)),
            Pk::P('/') => Some(("/", 1)),
            Pk::P('%') => Some(("%", 1)),
            Pk::P('^') => Some(("^", 1)),
            Pk::P('&') => Some(("&", 1)),
            Pk::P('|') => Some(("|", 1)),
            Pk::P('=') => Some(("=", 1)),
            _ => None,
        }
    }

    fn parse_bp_inner(&mut self, min_bp: u8, allow_struct: bool) -> Option<Expr> {
        let start = self.here();
        let mut lhs = self.parse_prefix(allow_struct)?;
        loop {
            // Postfix operators bind tightest.
            if self.at_p('.') {
                self.advance();
                if self.eat_kw("await") {
                    continue;
                }
                if let Some(Pk::Num(n)) = self.nth_kind(0).cloned() {
                    self.advance();
                    lhs = Expr {
                        kind: ExprKind::Field {
                            recv: Box::new(lhs),
                            name: n,
                        },
                        span: self.span_from(start),
                    };
                    continue;
                }
                let name = self.eat_ident()?;
                if self.at_op("::") && matches!(self.nth_kind(1), Some(Pk::P('<'))) {
                    self.advance();
                    self.skip_generics(None)?;
                }
                if self.at_p('(') {
                    let args = self.parse_call_args()?;
                    lhs = Expr {
                        kind: ExprKind::MethodCall {
                            recv: Box::new(lhs),
                            method: name,
                            args,
                        },
                        span: self.span_from(start),
                    };
                } else {
                    lhs = Expr {
                        kind: ExprKind::Field {
                            recv: Box::new(lhs),
                            name,
                        },
                        span: self.span_from(start),
                    };
                }
                continue;
            }
            if self.at_p('(') {
                let args = self.parse_call_args()?;
                lhs = Expr {
                    kind: ExprKind::Call {
                        callee: Box::new(lhs),
                        args,
                    },
                    span: self.span_from(start),
                };
                continue;
            }
            if self.at_p('[') {
                self.advance();
                let index = self.parse_expr(true)?;
                if !self.eat_p(']') {
                    return None;
                }
                lhs = Expr {
                    kind: ExprKind::Index {
                        recv: Box::new(lhs),
                        index: Box::new(index),
                    },
                    span: self.span_from(start),
                };
                continue;
            }
            if self.at_p('?') {
                self.advance();
                lhs = Expr {
                    kind: ExprKind::Try {
                        expr: Box::new(lhs),
                    },
                    span: self.span_from(start),
                };
                continue;
            }
            if self.at_kw("as") {
                const CAST_BP: u8 = 24;
                if min_bp > CAST_BP {
                    break;
                }
                self.advance();
                let ty = self.parse_type();
                lhs = Expr {
                    kind: ExprKind::Cast {
                        expr: Box::new(lhs),
                        ty,
                    },
                    span: self.span_from(start),
                };
                continue;
            }
            // Infix operators.
            let Some((op, ntoks)) = self.peek_infix() else {
                break;
            };
            let Some((l_bp, r_bp)) = Self::infix_bp(op) else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            for _ in 0..ntoks {
                self.advance();
            }
            if op == ".." || op == "..=" {
                let hi = if self.expr_can_start(allow_struct) {
                    Some(Box::new(self.parse_bp(r_bp, allow_struct)?))
                } else {
                    None
                };
                lhs = Expr {
                    kind: ExprKind::Range {
                        lo: Some(Box::new(lhs)),
                        hi,
                    },
                    span: self.span_from(start),
                };
                continue;
            }
            let rhs = self.parse_bp(r_bp, allow_struct)?;
            let kind = if op == "="
                || op.len() >= 2 && op.ends_with('=') && Self::infix_bp(op).map(|b| b.0) == Some(2)
            {
                ExprKind::Assign {
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    op,
                }
            } else {
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                }
            };
            lhs = Expr {
                kind,
                span: self.span_from(start),
            };
        }
        Some(lhs)
    }

    /// Whether the current token can begin an expression (used to decide
    /// whether an open range `x..` has an upper bound).
    fn expr_can_start(&self, allow_struct: bool) -> bool {
        match self.peek().map(|t| &t.kind) {
            Some(Pk::Ident(s)) => !matches!(s.as_str(), "in" | "else" | "where" | "as"),
            Some(Pk::Num(_) | Pk::Str | Pk::Char | Pk::Lifetime) => true,
            Some(
                Pk::P('(')
                | Pk::P('[')
                | Pk::P('&')
                | Pk::P('*')
                | Pk::P('!')
                | Pk::P('-')
                | Pk::P('|'),
            ) => true,
            Some(Pk::P('{')) => allow_struct,
            Some(Pk::Op("&&") | Pk::Op("||")) => true,
            _ => false,
        }
    }

    fn parse_call_args(&mut self) -> Option<Vec<Expr>> {
        if !self.eat_p('(') {
            return None;
        }
        let mut args = Vec::new();
        loop {
            if self.eat_p(')') {
                return Some(args);
            }
            self.peek()?;
            let start = self.here();
            match self.parse_expr(true) {
                Some(e) => args.push(e),
                None => {
                    // Recover to the next argument boundary.
                    self.skips += 1;
                    let mut depth = 0i32;
                    loop {
                        match self.peek().map(|t| t.kind.clone()) {
                            None => return None,
                            Some(Pk::P('(' | '[' | '{')) => {
                                depth += 1;
                                self.advance();
                            }
                            Some(Pk::P(')')) if depth == 0 => break,
                            Some(Pk::P(')' | ']' | '}')) => {
                                depth -= 1;
                                self.advance();
                            }
                            Some(Pk::P(',')) if depth == 0 => break,
                            Some(_) => self.advance(),
                        }
                    }
                    args.push(Expr {
                        kind: ExprKind::Unknown,
                        span: self.span_from(start),
                    });
                }
            }
            if !self.eat_p(',') && !self.at_p(')') {
                return None;
            }
        }
    }

    fn parse_prefix(&mut self, allow_struct: bool) -> Option<Expr> {
        const PREFIX_BP: u8 = 25;
        let start = self.here();
        let done = |p: &mut Self, kind| {
            Some(Expr {
                kind,
                span: p.span_from(start),
            })
        };
        match self.peek().map(|t| t.kind.clone())? {
            Pk::P('&') => {
                self.advance();
                self.eat_kw("mut");
                let e = self.parse_bp(PREFIX_BP, allow_struct)?;
                done(self, ExprKind::Unary { expr: Box::new(e) })
            }
            Pk::Op("&&") => {
                self.advance();
                self.eat_kw("mut");
                let e = self.parse_bp(PREFIX_BP, allow_struct)?;
                done(self, ExprKind::Unary { expr: Box::new(e) })
            }
            Pk::P('*') | Pk::P('!') | Pk::P('-') => {
                self.advance();
                let e = self.parse_bp(PREFIX_BP, allow_struct)?;
                done(self, ExprKind::Unary { expr: Box::new(e) })
            }
            Pk::Op("..") | Pk::Op("..=") => {
                // Range-to: `..n` / `..=n` / bare `..`.
                self.advance();
                let hi = if self.expr_can_start(allow_struct) {
                    Some(Box::new(self.parse_bp(5, allow_struct)?))
                } else {
                    None
                };
                done(self, ExprKind::Range { lo: None, hi })
            }
            Pk::Num(n) => {
                self.advance();
                done(self, ExprKind::Lit(Lit::Num(n)))
            }
            Pk::Str => {
                self.advance();
                done(self, ExprKind::Lit(Lit::Str))
            }
            Pk::Char => {
                self.advance();
                done(self, ExprKind::Lit(Lit::Char))
            }
            Pk::Lifetime => {
                // Loop label: `'outer: loop { … }`.
                self.advance();
                if !self.eat_p(':') {
                    return None;
                }
                self.parse_prefix(allow_struct)
            }
            Pk::P('|') | Pk::Op("||") => self.parse_closure(),
            Pk::P('(') => {
                self.advance();
                if self.eat_p(')') {
                    return done(self, ExprKind::Tuple(Vec::new()));
                }
                let first = self.parse_expr(true)?;
                if self.eat_p(')') {
                    return Some(first); // plain parenthesization
                }
                let mut elems = vec![first];
                while self.eat_p(',') {
                    if self.at_p(')') {
                        break;
                    }
                    elems.push(self.parse_expr(true)?);
                }
                if !self.eat_p(')') {
                    return None;
                }
                done(self, ExprKind::Tuple(elems))
            }
            Pk::P('[') => {
                self.advance();
                if self.eat_p(']') {
                    return done(self, ExprKind::Array(Vec::new()));
                }
                let first = self.parse_expr(true)?;
                if self.eat_p(';') {
                    let _len = self.parse_expr(true)?;
                    if !self.eat_p(']') {
                        return None;
                    }
                    return done(self, ExprKind::Array(vec![first]));
                }
                let mut elems = vec![first];
                while self.eat_p(',') {
                    if self.at_p(']') {
                        break;
                    }
                    elems.push(self.parse_expr(true)?);
                }
                if !self.eat_p(']') {
                    return None;
                }
                done(self, ExprKind::Array(elems))
            }
            Pk::P('{') => {
                let b = self.parse_block()?;
                done(self, ExprKind::Block(b))
            }
            Pk::P('#') => {
                // Attribute on an expression; skip and retry.
                let mut sink = Vec::new();
                self.parse_attr(&mut sink)?;
                self.parse_prefix(allow_struct)
            }
            Pk::Ident(id) => match id.as_str() {
                "true" | "false" => {
                    self.advance();
                    done(self, ExprKind::Lit(Lit::Bool(id == "true")))
                }
                "if" => self.parse_if(),
                "match" => self.parse_match(),
                "while" => {
                    self.advance();
                    let cond = self.parse_expr(false)?;
                    let body = self.parse_block()?;
                    done(
                        self,
                        ExprKind::While {
                            cond: Box::new(cond),
                            body,
                        },
                    )
                }
                "loop" => {
                    self.advance();
                    let body = self.parse_block()?;
                    done(self, ExprKind::Loop { body })
                }
                "for" => {
                    self.advance();
                    let pat = self.parse_pat()?;
                    let names = pat.bound_names();
                    if !self.eat_kw("in") {
                        return None;
                    }
                    let iter = self.parse_expr(false)?;
                    let body = self.parse_block()?;
                    done(
                        self,
                        ExprKind::ForLoop {
                            names,
                            iter: Box::new(iter),
                            body,
                        },
                    )
                }
                "return" => {
                    self.advance();
                    let v = if self.expr_can_start(allow_struct) {
                        Some(Box::new(self.parse_expr(allow_struct)?))
                    } else {
                        None
                    };
                    done(self, ExprKind::Jump(v))
                }
                "break" => {
                    self.advance();
                    if matches!(self.peek().map(|t| &t.kind), Some(Pk::Lifetime)) {
                        self.advance();
                    }
                    let v = if self.expr_can_start(allow_struct) {
                        Some(Box::new(self.parse_expr(allow_struct)?))
                    } else {
                        None
                    };
                    done(self, ExprKind::Jump(v))
                }
                "continue" => {
                    self.advance();
                    if matches!(self.peek().map(|t| &t.kind), Some(Pk::Lifetime)) {
                        self.advance();
                    }
                    done(self, ExprKind::Jump(None))
                }
                "let" => {
                    // `let <pat> = expr` inside an if/while condition.
                    self.advance();
                    let pat = self.parse_pat()?;
                    let names = pat.bound_names();
                    if !self.eat_p('=') {
                        return None;
                    }
                    let e = self.parse_bp(9, false)?;
                    done(
                        self,
                        ExprKind::LetCond {
                            names,
                            expr: Box::new(e),
                        },
                    )
                }
                "move" => {
                    self.advance();
                    if self.at_p('|') || self.at_op("||") {
                        self.parse_closure()
                    } else {
                        // `async move { … }` tail — treat as a block.
                        let b = self.parse_block()?;
                        done(self, ExprKind::Block(b))
                    }
                }
                "unsafe" | "async" => {
                    self.advance();
                    self.eat_kw("move");
                    if self.at_p('{') {
                        let b = self.parse_block()?;
                        done(self, ExprKind::Block(b))
                    } else {
                        self.parse_prefix(allow_struct)
                    }
                }
                _ => {
                    self.advance();
                    let mut segs = vec![id];
                    while self.at_op("::") {
                        if matches!(self.nth_kind(1), Some(Pk::P('<'))) {
                            self.advance();
                            self.skip_generics(None)?;
                            continue;
                        }
                        self.advance();
                        segs.push(self.eat_ident()?);
                    }
                    if self.at_p('!') && matches!(self.nth_kind(1), Some(Pk::P('(' | '[' | '{'))) {
                        self.advance();
                        let name = segs.last().cloned().unwrap_or_default();
                        let args = self.parse_macro_args()?;
                        return done(self, ExprKind::MacroCall { name, args });
                    }
                    if allow_struct && self.at_p('{') && self.looks_like_struct_lit() {
                        let fields = self.parse_struct_lit_fields()?;
                        return done(self, ExprKind::StructLit { path: segs, fields });
                    }
                    done(self, ExprKind::Path(segs))
                }
            },
            _ => None,
        }
    }

    fn parse_closure(&mut self) -> Option<Expr> {
        let start = self.here();
        let mut params = Vec::new();
        if self.eat_op("||") {
            // no parameters
        } else {
            if !self.eat_p('|') {
                return None;
            }
            loop {
                if self.eat_p('|') {
                    break;
                }
                self.peek()?;
                // Single (non-or) patterns only: the closing `|` of the
                // parameter list must not read as an or-pattern bar.
                let pat = self.parse_pat_single()?;
                params.extend(pat.bound_names());
                if self.eat_p(':') {
                    self.parse_type();
                }
                if !self.eat_p(',') && !self.at_p('|') {
                    return None;
                }
            }
        }
        let body = if self.eat_op("->") {
            self.parse_type();
            let b = self.parse_block()?;
            Expr {
                span: b.span,
                kind: ExprKind::Block(b),
            }
        } else {
            self.parse_bp(2, true)?
        };
        Some(Expr {
            kind: ExprKind::Closure {
                params,
                body: Box::new(body),
            },
            span: self.span_from(start),
        })
    }

    fn parse_if(&mut self) -> Option<Expr> {
        let start = self.here();
        if !self.eat_kw("if") {
            return None;
        }
        let cond = self.parse_expr(false)?;
        let then = self.parse_block()?;
        let els = if self.eat_kw("else") {
            if self.at_kw("if") {
                Some(Box::new(self.parse_if()?))
            } else {
                let b = self.parse_block()?;
                Some(Box::new(Expr {
                    span: b.span,
                    kind: ExprKind::Block(b),
                }))
            }
        } else {
            None
        };
        Some(Expr {
            kind: ExprKind::If {
                cond: Box::new(cond),
                then,
                els,
            },
            span: self.span_from(start),
        })
    }

    fn parse_match(&mut self) -> Option<Expr> {
        let start = self.here();
        if !self.eat_kw("match") {
            return None;
        }
        let scrutinee = self.parse_expr(false)?;
        if !self.eat_p('{') {
            return None;
        }
        let mut arms = Vec::new();
        loop {
            if self.eat_p('}') {
                break;
            }
            if self.peek().is_none() {
                break;
            }
            let arm_start = self.here();
            let parsed = (|| -> Option<Arm> {
                let mut sink = Vec::new();
                while self.at_p('#') {
                    self.parse_attr(&mut sink)?;
                }
                let pat = self.parse_pat()?;
                let guard = if self.eat_kw("if") {
                    Some(self.parse_bp(0, false)?)
                } else {
                    None
                };
                if !self.eat_op("=>") {
                    return None;
                }
                // A block body ends the arm: the next arm's tuple
                // pattern must not read as a call on the block, so skip
                // the Pratt postfix loop here.
                let body = if self.at_p('{') {
                    let bstart = self.here();
                    let b = self.parse_block()?;
                    Expr {
                        kind: ExprKind::Block(b),
                        span: self.span_from(bstart),
                    }
                } else {
                    self.parse_expr(true)?
                };
                self.eat_p(',');
                Some(Arm {
                    pat,
                    guard,
                    body,
                    span: self.span_from(arm_start),
                })
            })();
            match parsed {
                Some(arm) => arms.push(arm),
                None => {
                    // Recover to the next arm boundary.
                    self.skips += 1;
                    let mut depth = 0i32;
                    loop {
                        match self.peek().map(|t| t.kind.clone()) {
                            None => break,
                            Some(Pk::P('(' | '[' | '{')) => {
                                depth += 1;
                                self.advance();
                            }
                            Some(Pk::P('}')) if depth == 0 => break,
                            Some(Pk::P(')' | ']' | '}')) => {
                                depth -= 1;
                                self.advance();
                            }
                            Some(Pk::P(',')) if depth == 0 => {
                                self.advance();
                                break;
                            }
                            Some(_) => self.advance(),
                        }
                    }
                }
            }
        }
        Some(Expr {
            kind: ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
            span: self.span_from(start),
        })
    }

    /// After a path, decides whether `{` opens a struct literal (vs a
    /// block following the expression, e.g. a match body).
    fn looks_like_struct_lit(&self) -> bool {
        debug_assert!(self.at_p('{'));
        matches!(
            (self.nth_kind(1), self.nth_kind(2)),
            (Some(Pk::P('}')), _)
                | (Some(Pk::Op("..")), _)
                | (Some(Pk::Ident(_)), Some(Pk::P(':' | ',' | '}')))
        )
    }

    fn parse_struct_lit_fields(&mut self) -> Option<Vec<(String, Option<Expr>, u32)>> {
        if !self.eat_p('{') {
            return None;
        }
        let mut fields = Vec::new();
        loop {
            if self.eat_p('}') {
                return Some(fields);
            }
            self.peek()?;
            if self.eat_op("..") {
                // Functional update base.
                self.parse_expr(true)?;
                continue;
            }
            let line = self.here().0;
            let name = self.eat_ident()?;
            let value = if self.eat_p(':') {
                Some(self.parse_expr(true)?)
            } else {
                None
            };
            fields.push((name, value, line));
            if !self.eat_p(',') && !self.at_p('}') {
                return None;
            }
        }
    }

    /// Parses macro-call arguments best-effort: each comma-separated
    /// piece is tried as an expression; pieces that are not expressions
    /// (patterns in `matches!`, format strings with captures, macro
    /// syntax) are skipped. `{}`-delimited macro bodies are skipped
    /// whole.
    fn parse_macro_args(&mut self) -> Option<Vec<Expr>> {
        match self.peek().map(|t| t.kind.clone())? {
            Pk::P('{') => {
                self.skip_balanced(None)?;
                Some(Vec::new())
            }
            Pk::P(open @ ('(' | '[')) => {
                let close = if open == '(' { ')' } else { ']' };
                self.advance();
                let mut args = Vec::new();
                loop {
                    if self.eat_p(close) {
                        return Some(args);
                    }
                    self.peek()?;
                    let save = self.pos;
                    let mut ok = false;
                    if let Some(e) = self.parse_expr(true) {
                        if self.at_p(',') || self.at_p(close) {
                            args.push(e);
                            ok = true;
                        }
                    }
                    if !ok {
                        // Not an expression — skip this piece verbatim.
                        self.pos = save;
                        let mut depth = 0i32;
                        loop {
                            match self.peek().map(|t| t.kind.clone()) {
                                None => return None,
                                Some(Pk::P('(' | '[' | '{')) => {
                                    depth += 1;
                                    self.advance();
                                }
                                Some(Pk::P(c)) if c == close && depth == 0 => break,
                                Some(Pk::P(')' | ']' | '}')) => {
                                    depth -= 1;
                                    self.advance();
                                }
                                Some(Pk::P(',')) if depth == 0 => break,
                                Some(_) => self.advance(),
                            }
                        }
                    }
                    if !self.eat_p(',') && !self.at_p(close) {
                        return None;
                    }
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> File {
        parse_file(&lex(src))
    }

    fn only_fn(file: &File) -> &Func {
        match &file.items[0].kind {
            ItemKind::Fn(f) => f,
            other => panic!("expected fn, got {other:?}"),
        }
    }

    #[test]
    fn simple_fn_roundtrips() {
        let f = parse("pub fn add(a: u64, b: u64) -> u64 { a + b }");
        assert_eq!(f.recovered_skips, 0);
        let func = only_fn(&f);
        assert_eq!(func.name, "add");
        assert_eq!(func.params.len(), 2);
        assert_eq!(func.params[0].name.as_deref(), Some("a"));
        assert!(func.ret.as_ref().unwrap().mentions(&["u64"]));
        assert_eq!(func.body.as_ref().unwrap().stmts.len(), 1);
    }

    #[test]
    fn method_chains_and_turbofish() {
        let f = parse("fn f() { let v = xs.iter().map(|x| x + 1).collect::<Vec<u64>>(); }");
        assert_eq!(f.recovered_skips, 0);
        let func = only_fn(&f);
        let StmtKind::Let { names, init, .. } = &func.body.as_ref().unwrap().stmts[0].kind else {
            panic!("expected let");
        };
        assert_eq!(names, &["v"]);
        let Some(Expr {
            kind: ExprKind::MethodCall { method, .. },
            ..
        }) = init.as_ref()
        else {
            panic!("expected method call, got {init:?}");
        };
        assert_eq!(method, "collect");
    }

    #[test]
    fn match_arms_and_wildcards() {
        let f = parse(
            "fn f(k: QueueKind) -> u32 { match k { QueueKind::Wheel => 1, QueueKind::Heap if x > 2 => 2, _ => 0 } }",
        );
        assert_eq!(f.recovered_skips, 0);
        let func = only_fn(&f);
        let StmtKind::Expr(Expr {
            kind: ExprKind::Match { arms, .. },
            ..
        }) = &func.body.as_ref().unwrap().stmts[0].kind
        else {
            panic!("expected match");
        };
        assert_eq!(arms.len(), 3);
        assert!(!arms[0].pat.is_catch_all());
        assert!(arms[1].guard.is_some());
        assert!(arms[2].pat.is_catch_all());
    }

    #[test]
    fn struct_literal_vs_match_block() {
        // `match x { … }` must not parse `x {` as a struct literal, while
        // explicit literals still parse.
        let f = parse("fn f() { let p = Point { x: 1, y: 2 }; match p { _ => () } }");
        assert_eq!(f.recovered_skips, 0);
    }

    #[test]
    fn generics_vs_shift_and_comparison() {
        let f = parse(
            "fn f() { let a = x << 2; let b = c < d; let m = BTreeMap::<u64, Vec<u8>>::new(); }",
        );
        assert_eq!(f.recovered_skips, 0);
        let func = only_fn(&f);
        assert_eq!(func.body.as_ref().unwrap().stmts.len(), 3);
    }

    #[test]
    fn if_let_chains_and_while_let() {
        let f = parse(
            "fn f() { if let Some(x) = a { g(x); } while let Some(y) = it.next() { h(y); } }",
        );
        assert_eq!(f.recovered_skips, 0);
    }

    #[test]
    fn for_loop_binds_tuple_names() {
        let f = parse("fn f() { for (k, v) in map.iter() { use_it(k, v); } }");
        let func = only_fn(&f);
        let StmtKind::Expr(Expr {
            kind: ExprKind::ForLoop { names, .. },
            ..
        }) = &func.body.as_ref().unwrap().stmts[0].kind
        else {
            panic!("expected for loop");
        };
        assert_eq!(names, &["k", "v"]);
    }

    #[test]
    fn unparseable_item_recovers_to_next() {
        let f = parse("fn good() {} yield wat !! ; fn also_good() {}");
        assert!(f.recovered_skips > 0);
        let names: Vec<_> = f
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Fn(func) => Some(func.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["good", "also_good"]);
    }

    #[test]
    fn enum_and_impl_surface() {
        let f = parse(
            "pub enum Kind { A, B(u32), C { x: u64 } } impl Kind { pub fn f(&self) -> u32 { 0 } }",
        );
        assert_eq!(f.recovered_skips, 0);
        let ItemKind::Enum(e) = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(
            e.variants.iter().map(|v| v.0.as_str()).collect::<Vec<_>>(),
            vec!["A", "B", "C"]
        );
        let ItemKind::Impl(i) = &f.items[1].kind else {
            panic!()
        };
        assert_eq!(i.ty_name, "Kind");
        assert_eq!(i.items.len(), 1);
    }

    #[test]
    fn spans_cover_statements() {
        let src = "fn f() {\n    let x = 1;\n    let y = 2;\n}\n";
        let f = parse(src);
        let func = only_fn(&f);
        let stmts = &func.body.as_ref().unwrap().stmts;
        assert_eq!(stmts[0].span.line, 2);
        assert_eq!(stmts[1].span.line, 3);
        assert_eq!(f.items[0].span.line, 1);
        assert_eq!(f.items[0].span.end_line, 4);
    }

    #[test]
    fn macro_args_parse_best_effort() {
        let f = parse("fn f() { assert_eq!(a.len(), 3); let m = matches!(k, Kind::A | Kind::B); }");
        assert_eq!(f.recovered_skips, 0, "macro pieces must not count as skips");
    }

    #[test]
    fn raw_string_in_match_guard() {
        let f = parse(
            r###"fn f(s: &str) -> u32 { match s { x if x == r#"we{i}rd"# => 1, _ => 0 } }"###,
        );
        assert_eq!(f.recovered_skips, 0);
    }

    #[test]
    fn closures_nest() {
        let f = parse("fn f() { let g = |a: u64| move |b| a + b; let h = g(1)(2); }");
        assert_eq!(f.recovered_skips, 0);
    }

    #[test]
    fn struct_fields_capture_types() {
        let f = parse("pub struct S { pub map: BTreeMap<u64, Vec<Entry>>, n: usize }");
        let ItemKind::Struct(s) = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(s.fields.len(), 2);
        assert!(s.fields[0].ty.mentions(&["BTreeMap", "Entry"]));
    }

    #[test]
    fn trait_default_methods_are_kept() {
        let f =
            parse("pub trait T { fn id(&self) -> u32; fn double(&self) -> u32 { self.id() * 2 } }");
        let ItemKind::Impl(i) = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(i.items.len(), 2);
    }

    #[test]
    fn cfg_test_mod_is_flagged() {
        let f = parse("#[cfg(test)] mod tests { fn t() {} } mod real { fn r() {} }");
        let ItemKind::Mod(m) = &f.items[0].kind else {
            panic!()
        };
        assert!(m.cfg_test);
        let ItemKind::Mod(m2) = &f.items[1].kind else {
            panic!()
        };
        assert!(!m2.cfg_test);
    }
}
