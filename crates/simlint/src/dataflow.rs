//! The function-body walker: nondeterminism taint, time units, shard
//! safety, and write effects in one forward pass.
//!
//! One walk over each function body maintains a scope stack in which
//! every binding carries two abstract values:
//!
//! * its dataflow [`Facts`]:
//!   * **taint** — the value (transitively) originates from a
//!     nondeterministic source: hash-collection iteration, `Instant`/
//!     `SystemTime` wall-clock reads, or ambient RNG. Taint propagates
//!     through lets, operators, calls, struct fields and loop bindings,
//!     and is reported when it reaches an event-scheduling sink
//!     (`schedule`/`push`) or a `SimTime`/`SimDuration` construction.
//!   * **unit** — the declared time unit (µs/ms/s) carried by the value,
//!     inferred from the naming convention (`_us`/`_ms`/`_secs`
//!     suffixes, `micros`/`millis`/`secs` parameter names) or an
//!     explicit `// simlint::unit(us)` annotation, and from unit-typed
//!     accessors (`.as_micros()` yields µs). Mismatches are reported
//!     where units meet: constructor arguments, unit-suffixed
//!     parameters and fields, additive arithmetic and comparisons.
//!     Multiplication and division legitimately change units, so they
//!     erase the fact instead.
//!   * **shard safety** — values that cross a thread boundary. A
//!     tainted or hash-ordered binding captured by a closure passed to
//!     `thread::scope`/`spawn`/`par_runs`, or sent through a channel,
//!     is a `shard-cross-thread` finding; a value received from a
//!     channel carries a *completion-order* fact, and aggregating it by
//!     arrival (`.push`/`.extend`) instead of by index is a
//!     `shard-order-agg` finding.
//! * its write [`Origin`] — the parameter (and first projected field)
//!   or static it aliases, so a write through it can be classified as
//!   sim or observer state by the [`StateModel`]. Three rules consume
//!   the write half:
//!   * `observer-purity` — code that only runs when observation is on
//!     (under a `cfg.trace` / `cfg.metrics` / `cfg.prof` guard, an
//!     `if let Some(m) = self.metrics.as_mut()` unwrap, or anywhere in
//!     an `impl` of an observer type) must not write sim state. The
//!     report lands once, at the outermost gated call, like two-hop
//!     taint: the helper that actually performs the write is
//!     summarized, not echoed.
//!   * `frozen-config` — a `SystemConfig` is mutable while it is being
//!     built and frozen the moment `validate()` returns; field writes
//!     after the freeze (or through a stored `cfg` field, which is
//!     always post-validate) are findings. `impl SystemConfig` itself
//!     (the builder methods) is exempt.
//!   * field-precise upgrades for the shard-safety family: a *write* to
//!     a `static` in sim code is reported at the write site
//!     (`shard-shared-state`), and a closure handed to
//!     `spawn`/`scope`/`par_runs` that writes a captured binding is a
//!     cross-thread mutation (`shard-cross-thread`) even when no taint
//!     is involved.
//!
//! One stack of capture boundaries (the thread-crossing closures) serves
//! both halves. The walker runs in two modes. In *summarize* mode
//! (`callgraph.rs` calls it once per function per fixpoint round)
//! parameters are seeded with one bit each, and the bits surviving to
//! `return` / sink positions, plus the sim writes, become the
//! function's [`FnSummary`]. In *check* mode it reports findings and
//! consults the finished summaries at call sites, so a taint laundered
//! through helper calls still reaches its sink, a helper whose body
//! schedules its argument turns every call site into a sink, and a
//! helper that writes sim state is reported where observation-gated
//! code calls it.
//!
//! The analysis stays deliberately conservative in the other direction:
//! one pass per body, branch facts don't merge back, and unknown calls
//! propagate argument taint but never invent it. Under the workspace's
//! other lint rules the sources are individually banned, so the taint
//! half is defense-in-depth: it catches flows from *suppressed* sources
//! and from future code the lexer rules can't see. The write half is
//! heuristic too: `let alias = &mut self.field` is tracked, a `&mut`
//! smuggled through an untracked accessor return is not, and by-value
//! rebinding (`x = 3` on a plain binding) is never an effect because it
//! cannot escape the function.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_expr, Block, Expr, ExprKind, Func, Lit, StmtKind, TypeRef};
use crate::callgraph::{FnSummary, Summaries};
use crate::effects::{StateClass, StateModel};
use crate::report::Finding;
use crate::symbols::{declared_unit, unit_from_name, Symbols, Unit, UnitAnnotations, HASH_TYPES};

/// Which finding families a given file gets reports for. Tracking
/// always runs in full; only *reporting* is gated, so e.g. taint facts
/// still feed the cross-thread rule in files where plain `nondet-taint`
/// is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowFamilies {
    /// Report `nondet-taint`.
    pub taint: bool,
    /// Report `time-unit`.
    pub unit: bool,
    /// Report `shard-cross-thread` / `shard-order-agg`, including
    /// captured-binding writes.
    pub shard: bool,
    /// Report the write rules that bind sim-crate code:
    /// `observer-purity`, `frozen-config` and static writes.
    pub sim: bool,
}

impl FlowFamilies {
    /// Every family — sim-crate library code.
    pub fn all() -> FlowFamilies {
        FlowFamilies {
            taint: true,
            unit: true,
            shard: true,
            sim: true,
        }
    }

    /// Shard safety only — the bench crate legitimately reads the wall
    /// clock for throughput numbers, but its fan-outs must still keep
    /// nondeterminism out of cross-thread traffic.
    pub fn shard_only() -> FlowFamilies {
        FlowFamilies {
            taint: false,
            unit: false,
            shard: true,
            sim: false,
        }
    }

    fn enables(self, rule: &str) -> bool {
        match rule {
            "nondet-taint" => self.taint,
            "time-unit" => self.unit,
            _ => self.shard,
        }
    }
}

/// What kind of nondeterminism a taint originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// Iteration order of a hash-keyed collection.
    HashIter,
    /// `Instant`/`SystemTime` wall-clock reads.
    WallClock,
    /// Ambient (OS-seeded) RNG.
    Rng,
}

impl TaintKind {
    fn label(self) -> &'static str {
        match self {
            TaintKind::HashIter => "hash-ordered iteration",
            TaintKind::WallClock => "wall-clock time",
            TaintKind::Rng => "ambient RNG",
        }
    }
}

/// A taint fact: what and where it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Taint {
    kind: TaintKind,
    origin_line: u32,
}

/// Abstract value carried by an expression or binding.
#[derive(Debug, Clone, Copy, Default)]
struct Facts {
    taint: Option<Taint>,
    unit: Option<Unit>,
    /// The value is (or contains) a hash-ordered collection.
    hashy: bool,
    /// Bitmask of enclosing-function parameters this value depends on
    /// (param *i* is seeded with bit *i*; check mode keeps the bits
    /// flowing so summaries compose, but never reports them).
    params: u32,
    /// The value was received from a channel, so its identity depends
    /// on cross-thread completion order.
    completion: bool,
    /// The value is a channel endpoint (`channel()` / `sync_channel()`).
    channel: bool,
}

impl Facts {
    fn tainted(kind: TaintKind, line: u32) -> Facts {
        Facts {
            taint: Some(Taint {
                kind,
                origin_line: line,
            }),
            ..Facts::default()
        }
    }

    /// Merges two control-flow alternatives (taint wins, units must
    /// agree to survive).
    fn join(self, other: Facts) -> Facts {
        Facts {
            taint: self.taint.or(other.taint),
            unit: if self.unit == other.unit {
                self.unit
            } else {
                None
            },
            hashy: self.hashy || other.hashy,
            params: self.params | other.params,
            completion: self.completion || other.completion,
            channel: self.channel || other.channel,
        }
    }
}

/// Where a tracked value points: the root the write half can name.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Origin {
    /// A plain local; writes cannot escape the function.
    Local,
    /// Derived from parameter `idx`, optionally through one projected
    /// field (`self.tracer.log` keeps the *first* projection,
    /// `tracer` — the classification anchor).
    Param { idx: usize, field: Option<String> },
    /// A module-level `static`.
    Static(String),
}

/// One scope entry. Most bindings (lets, parameters, patterns, closure
/// parameters) set both halves. An assignment that re-tracks `x` or
/// `self.field` sets the taint half only: it shadows without aliasing.
/// `if let` / `while let` names are bound in the guarded body's scope,
/// the taint half by evaluating the condition there and the write half
/// from the condition's bindings. Each lookup skips entries without its
/// half.
#[derive(Debug, Clone, Default)]
struct Binding {
    facts: Option<Facts>,
    origin: Option<Origin>,
}

/// `origin_of`'s result: the origin plus the root binding (name and
/// scope depth) when the lvalue is rooted at a named binding — the
/// capture-write check needs the depth even for plain locals.
#[derive(Debug)]
struct Resolved {
    origin: Option<Origin>,
    root: Option<(String, usize)>,
}

/// The workspace-wide tables every walk reads.
#[derive(Debug, Clone, Copy)]
pub struct Context<'a> {
    /// Cross-file symbol facts.
    pub symbols: &'a Symbols,
    /// Sim-vs-observer state classification.
    pub model: &'a StateModel,
    /// Function summaries (complete in check mode, the current fixpoint
    /// iterate in summarize mode).
    pub summaries: &'a Summaries,
}

/// Methods whose result order depends on hash state when the receiver
/// is a hash-ordered collection.
const ORDER_SENSITIVE: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "entries",
    "into_keys",
    "into_values",
];

/// Methods that preserve the receiver's unit (and whose first argument,
/// if unit-carrying, must agree with the receiver).
const UNIT_PRESERVING: [&str; 12] = [
    "min",
    "max",
    "clamp",
    "saturating_add",
    "saturating_sub",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "abs_diff",
    "clone",
    "unwrap_or",
];

/// Method/function names that schedule events or enqueue work — the
/// taint sinks.
const SINK_METHODS: [&str; 4] = ["schedule", "schedule_at", "push", "push_at"];

/// Functions/methods whose closure argument runs on another thread.
const CROSS_THREAD_FNS: [&str; 3] = ["spawn", "scope", "par_runs"];

/// Channel receives: the value's identity depends on completion order.
const RECV_METHODS: [&str; 3] = ["recv", "try_recv", "recv_timeout"];

/// Aggregation methods that append in call order; feeding them a
/// completion-ordered value makes the aggregate order-sensitive.
const AGG_METHODS: [&str; 5] = ["push", "extend", "insert", "push_back", "append"];

/// Config fields whose truthiness gates observation code paths.
const GATE_FLAGS: [&str; 3] = ["trace", "metrics", "prof"];

/// Methods that project a reference out of their receiver without
/// changing what it points into: the origin of `x.as_mut()` is the
/// origin of `x`.
const PROJECTION_METHODS: [&str; 8] = [
    "as_mut",
    "as_ref",
    "as_deref_mut",
    "borrow_mut",
    "get_mut",
    "unwrap",
    "expect",
    "last_mut",
];

/// Methods assumed to mutate their receiver when the callee has no
/// workspace summary (std collections, atomics, the event-queue API).
const MUTATING_METHODS: [&str; 26] = [
    "push",
    "push_back",
    "push_front",
    "push_at",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "clear",
    "set",
    "store",
    "fetch_add",
    "fetch_sub",
    "extend",
    "append",
    "drain",
    "truncate",
    "retain",
    "resize",
    "fill",
    "swap",
    "replace",
    "sort",
    "schedule",
    "schedule_at",
];

/// Computes one function's [`FnSummary`]: the walker in summarize mode
/// (no findings, parameters seeded with one bit each, return/sink
/// positions and sim writes recorded).
pub fn summarize_fn(
    func: &Func,
    owner: Option<&str>,
    anns: &UnitAnnotations,
    cx: Context<'_>,
) -> FnSummary {
    let mut w = Walker::new(func, owner, anns, cx, None);
    if let Some(body) = &func.body {
        let trailing = w.run_block(body);
        w.record_return(trailing);
    }
    w.summary
}

/// Checks one function body under `families`, returning its findings in
/// two groups, each in walk order: the dataflow findings (`nondet-taint`,
/// `time-unit`, value crossings, `shard-order-agg`) and the write
/// findings (`observer-purity`, `frozen-config`, static and captured
/// writes).
pub fn check_fn(
    func: &Func,
    owner: Option<&str>,
    anns: &UnitAnnotations,
    cx: Context<'_>,
    families: FlowFamilies,
    path: &str,
) -> (Vec<Finding>, Vec<Finding>) {
    let Some(body) = &func.body else {
        return (Vec::new(), Vec::new());
    };
    let check = Check {
        families,
        path,
        ..Check::default()
    };
    let mut w = Walker::new(func, owner, anns, cx, Some(check));
    w.run_block(body);
    let c = w.check.expect("check mode keeps its state");
    (c.flow, c.writes)
}

/// Check-mode state.
#[derive(Default)]
struct Check<'a> {
    families: FlowFamilies,
    path: &'a str,
    /// Observation-gate nesting depth; > 0 means this code only runs
    /// when tracing/metrics/profiling is enabled.
    gate_depth: u32,
    /// `SystemConfig` bindings in this body → frozen (validate seen)?
    cfg_bindings: BTreeMap<String, bool>,
    /// (boundary id, name) pairs already reported, so one captured
    /// binding used five times yields one finding.
    reported_captures: BTreeSet<(usize, String)>,
    /// `(line, col, rule)` write findings already reported (dedup).
    reported: BTreeSet<(u32, u32, &'static str)>,
    flow: Vec<Finding>,
    writes: Vec<Finding>,
}

struct Walker<'a> {
    cx: Context<'a>,
    anns: &'a UnitAnnotations,
    owner: Option<&'a str>,
    /// Per-parameter: its declared type mentions an observer type (or
    /// it is `self` of an observer impl), so writes through it are
    /// observer-class regardless of field.
    param_observer: Vec<bool>,
    scopes: Vec<BTreeMap<String, Binding>>,
    /// Active thread-crossing closures: (scope depth at entry, id).
    /// A binding resolved from a scope *below* the entry depth was
    /// captured across the thread boundary.
    boundaries: Vec<(usize, usize)>,
    next_boundary: usize,
    /// Nesting depth of sub-expressions that are not values for the
    /// write half (the base of an assignment target, a computed callee):
    /// while it is non-zero only the dataflow half runs.
    value_only: u32,
    /// The summary being accumulated (returned in summarize mode).
    summary: FnSummary,
    /// Two return paths disagreed on the unit, so `returns_unit` stays
    /// `None`.
    returns_unit_conflict: bool,
    /// `Some` in check mode.
    check: Option<Check<'a>>,
}

impl<'a> Walker<'a> {
    fn new(
        func: &Func,
        owner: Option<&'a str>,
        anns: &'a UnitAnnotations,
        cx: Context<'a>,
        mut check: Option<Check<'a>>,
    ) -> Walker<'a> {
        let owner_observer = owner.is_some_and(|o| cx.model.is_observer_type(o));
        if let Some(c) = check.as_mut() {
            if c.families.sim && owner_observer {
                // Everything inside an observer impl only runs in
                // service of observation: the whole body is gated.
                c.gate_depth = 1;
            }
        }
        let mut w = Walker {
            cx,
            anns,
            owner,
            param_observer: Vec::with_capacity(func.params.len()),
            scopes: vec![BTreeMap::new()],
            boundaries: Vec::new(),
            next_boundary: 0,
            value_only: 0,
            summary: FnSummary::empty(func),
            returns_unit_conflict: false,
            check,
        };
        for (i, p) in func.params.iter().enumerate() {
            let is_self = p.name.as_deref() == Some("self");
            w.param_observer.push(
                (is_self && owner_observer)
                    || p.ty
                        .as_ref()
                        .is_some_and(|t| t.idents.iter().any(|id| cx.model.is_observer_type(id))),
            );
            let Some(name) = &p.name else { continue };
            let facts = Facts {
                unit: declared_unit(name, p.line, anns),
                hashy: p.ty.as_ref().is_some_and(|t| t.mentions(&HASH_TYPES)),
                params: 1u32 << i.min(31),
                ..Facts::default()
            };
            w.bind(
                name.clone(),
                facts,
                Origin::Param {
                    idx: i,
                    field: None,
                },
            );
        }
        w
    }

    // ── scopes ───────────────────────────────────────────────────────

    fn top(&mut self, name: String) -> &mut Binding {
        self.scopes
            .last_mut()
            .expect("the parameter scope is never popped")
            .entry(name)
            .or_default()
    }

    /// Binds both halves, replacing any binding of `name` in the
    /// innermost scope.
    fn bind(&mut self, name: String, facts: Facts, origin: Origin) {
        *self.top(name) = Binding {
            facts: Some(facts),
            origin: Some(origin),
        };
    }

    fn bind_facts(&mut self, name: String, facts: Facts) {
        self.top(name).facts = Some(facts);
    }

    fn bind_origin(&mut self, name: String, origin: Origin) {
        self.top(name).origin = Some(origin);
    }

    /// The innermost facts for `name` and the scope depth they live at
    /// (for capture detection).
    fn lookup(&self, name: &str) -> Option<(usize, Facts)> {
        self.scopes
            .iter()
            .enumerate()
            .rev()
            .find_map(|(d, s)| s.get(name).and_then(|b| b.facts).map(|f| (d, f)))
    }

    /// The innermost origin for `name` and its scope depth.
    fn resolve(&self, name: &str) -> Option<(usize, Origin)> {
        self.scopes
            .iter()
            .enumerate()
            .rev()
            .find_map(|(d, s)| s.get(name).and_then(|b| b.origin.clone()).map(|o| (d, o)))
    }

    // ── reporting ────────────────────────────────────────────────────

    /// A dataflow finding, gated by the file's families.
    fn report(&mut self, rule: &'static str, line: u32, col: u32, message: String) {
        if let Some(c) = self.check.as_mut().filter(|c| c.families.enables(rule)) {
            c.flow.push(Finding::new(rule, c.path, line, col, message));
        }
    }

    /// A write finding, deduplicated by position and rule.
    fn report_write(&mut self, rule: &'static str, line: u32, col: u32, message: String) {
        if let Some(c) = self.check.as_mut() {
            if c.reported.insert((line, col, rule)) {
                c.writes
                    .push(Finding::new(rule, c.path, line, col, message));
            }
        }
    }

    fn record_return(&mut self, f: Facts) {
        let s = &mut self.summary;
        s.param_to_return |= f.params;
        if s.returns_taint.is_none() {
            s.returns_taint = f.taint.map(|t| t.kind);
        }
        s.returns_hashy |= f.hashy;
        // A unit-carrying return path sets the unit once; a second path
        // with a *different* unit poisons the inference (the helper has
        // no single unit to report).
        if let Some(u) = f.unit {
            match s.returns_unit {
                None if !self.returns_unit_conflict => s.returns_unit = Some(u),
                Some(prev) if prev != u => {
                    s.returns_unit = None;
                    self.returns_unit_conflict = true;
                }
                _ => {}
            }
        }
    }

    /// A value arrived at a scheduling sink: report its taint and
    /// record which parameters reach the sink.
    fn sink_arg(&mut self, arg: &Expr, f: Facts, sink: &str) {
        if let Some(t) = f.taint {
            self.taint_into_sink(arg, t, sink);
        }
        self.summary.param_to_sink |= f.params;
    }

    fn unit_mismatch(&mut self, e: &Expr, got: Unit, want: Unit, context: &str) {
        if got == want {
            return;
        }
        self.report(
            "time-unit",
            e.span.line,
            e.span.col,
            format!(
                "time-unit mismatch: {} carries {} but {} expects {}",
                describe(e),
                got.label(),
                context,
                want.label()
            ),
        );
    }

    fn taint_into_sink(&mut self, e: &Expr, taint: Taint, sink: &str) {
        self.report(
            "nondet-taint",
            e.span.line,
            e.span.col,
            format!(
                "nondeterministic value ({} from line {}) flows into {}; \
                 event order must be a pure function of (config, seed)",
                taint.kind.label(),
                taint.origin_line,
                sink
            ),
        );
    }

    /// A tainted/hash-ordered value crosses a thread boundary.
    fn cross_thread(&mut self, e: &Expr, f: Facts, how: &str) {
        let what = match f.taint {
            Some(t) => format!("{} from line {}", t.kind.label(), t.origin_line),
            None if f.hashy => "a hash-ordered collection".to_owned(),
            None => return,
        };
        self.report(
            "shard-cross-thread",
            e.span.line,
            e.span.col,
            format!(
                "nondeterministic value ({what}) {how}; \
                 values crossing threads must be pure functions of (config, seed)"
            ),
        );
    }

    // ── the walk ─────────────────────────────────────────────────────

    /// Runs a block in a fresh scope; returns the trailing expression's
    /// facts.
    fn run_block(&mut self, b: &Block) -> Facts {
        self.scopes.push(BTreeMap::new());
        let mut last = Facts::default();
        for stmt in &b.stmts {
            last = Facts::default();
            match &stmt.kind {
                StmtKind::Let { names, ty, init } => {
                    let init_facts = init.as_ref().map(|e| self.eval(e)).unwrap_or_default();
                    let origin = self.let_origin(init.as_ref());
                    let ty_hashy = ty.as_ref().is_some_and(|t| t.mentions(&HASH_TYPES));
                    if names.len() == 1 {
                        let name = &names[0];
                        let declared = declared_unit(name, stmt.span.line, self.anns);
                        if let (Some(want), Some(got), Some(e)) =
                            (declared, init_facts.unit, init.as_ref())
                        {
                            self.unit_mismatch(e, got, want, &format!("`{name}`"));
                        }
                        self.track_config_binding(name, ty.as_ref(), init.as_ref());
                        let facts = Facts {
                            unit: declared.or(init_facts.unit),
                            hashy: init_facts.hashy || ty_hashy,
                            ..init_facts
                        };
                        self.bind(name.clone(), facts, origin);
                    } else {
                        for name in names {
                            let facts = Facts {
                                unit: unit_from_name(name),
                                ..init_facts
                            };
                            self.bind(name.clone(), facts, Origin::Local);
                        }
                    }
                }
                StmtKind::Expr(e) => last = self.eval(e),
                StmtKind::Item(_) | StmtKind::Skipped => {}
            }
        }
        self.scopes.pop();
        last
    }

    /// What a `let` initializer aliases. Only reference-like
    /// initializers alias their source: `&mut x`, a rebound reference, a
    /// projecting method. A bare field/method read is a copy or a move —
    /// writes to it stay local.
    fn let_origin(&self, init: Option<&Expr>) -> Origin {
        match init.map(|e| &e.kind) {
            Some(ExprKind::Unary { expr }) => self.origin_of(expr).origin,
            Some(ExprKind::Path(segs)) if segs.len() == 1 => self.resolve(&segs[0]).map(|(_, o)| o),
            Some(ExprKind::MethodCall { recv, method, .. })
                if PROJECTION_METHODS.contains(&method.as_str()) =>
            {
                self.origin_of(recv).origin
            }
            _ => None,
        }
        .unwrap_or(Origin::Local)
    }

    fn eval(&mut self, e: &Expr) -> Facts {
        match &e.kind {
            ExprKind::Path(segs) => self.eval_path(e, segs),
            ExprKind::Lit(_) => Facts::default(),
            ExprKind::Call { callee, args } => self.eval_call(e, callee, args),
            ExprKind::MethodCall { recv, method, args } => self.eval_method(e, recv, method, args),
            ExprKind::Field { recv, name } => {
                let r = self.eval(recv);
                // A tracked `self.field` assignment earlier in the body
                // wins over the static field facts.
                if let Some((_, tracked)) = lvalue_key(e).and_then(|k| self.lookup(&k)) {
                    return tracked;
                }
                Facts {
                    taint: r.taint,
                    unit: unit_from_name(name),
                    hashy: self.cx.symbols.hash_fields.contains(name),
                    params: r.params,
                    completion: r.completion,
                    channel: false,
                }
            }
            ExprKind::Index { recv, index } => {
                let r = self.eval(recv);
                let i = self.eval(index);
                Facts {
                    taint: r.taint.or(i.taint),
                    params: r.params | i.params,
                    completion: r.completion,
                    ..Facts::default()
                }
            }
            ExprKind::Unary { expr } | ExprKind::Try { expr } => self.eval(expr),
            ExprKind::Cast { expr, .. } => self.eval(expr),
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs);
                let r = self.eval(rhs);
                let additive = matches!(*op, "+" | "-");
                let comparison = matches!(*op, "==" | "!=" | "<" | ">" | "<=" | ">=");
                if additive || comparison {
                    if let (Some(a), Some(b)) = (l.unit, r.unit) {
                        if a != b {
                            let what = if additive {
                                "additive arithmetic"
                            } else {
                                "comparison"
                            };
                            self.report(
                                "time-unit",
                                e.span.line,
                                e.span.col,
                                format!(
                                    "time-unit mismatch: {what} mixes {} ({}) and {} ({})",
                                    describe(lhs),
                                    a.label(),
                                    describe(rhs),
                                    b.label()
                                ),
                            );
                        }
                    }
                }
                Facts {
                    taint: l.taint.or(r.taint),
                    unit: if additive && l.unit == r.unit {
                        l.unit
                    } else {
                        None
                    },
                    params: l.params | r.params,
                    completion: l.completion || r.completion,
                    ..Facts::default()
                }
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                self.eval_assign(lhs, rhs);
                Facts::default()
            }
            ExprKind::StructLit { fields, .. } => {
                let mut taint = None;
                let mut params = 0u32;
                let mut completion = false;
                for (name, value, _line) in fields {
                    let f = match value {
                        Some(v) => {
                            let f = self.eval(v);
                            if let (Some(got), Some(want)) = (f.unit, unit_from_name(name)) {
                                self.unit_mismatch(v, got, want, &format!("field `{name}`"));
                            }
                            f
                        }
                        // Shorthand `Foo { window_us }`.
                        None => self.lookup(name).map(|(_, f)| f).unwrap_or_default(),
                    };
                    taint = taint.or(f.taint);
                    params |= f.params;
                    completion |= f.completion;
                }
                Facts {
                    taint,
                    params,
                    completion,
                    ..Facts::default()
                }
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) | ExprKind::MacroCall { args: es, .. } => {
                let mut taint = None;
                let mut params = 0u32;
                let mut completion = false;
                let mut channel = false;
                for x in es {
                    let f = self.eval(x);
                    taint = taint.or(f.taint);
                    params |= f.params;
                    completion |= f.completion;
                    channel |= f.channel;
                }
                Facts {
                    taint,
                    params,
                    completion,
                    channel,
                    ..Facts::default()
                }
            }
            ExprKind::Block(b) => self.run_block(b),
            ExprKind::If { cond, then, els } => {
                // `if let` names live in the guarded block's scope only.
                self.scopes.push(BTreeMap::new());
                self.eval(cond);
                let gate = self.check.as_ref().is_some_and(|c| c.families.sim)
                    && is_gated_cond(cond, self.cx.model);
                let bound = self.cond_bindings(cond);
                if gate {
                    self.shift_gate(1);
                }
                for (name, origin) in bound {
                    self.bind_origin(name, origin);
                }
                let t = self.run_block(then);
                self.scopes.pop();
                if gate {
                    self.shift_gate(-1);
                }
                let f = els.as_ref().map(|e| self.eval(e)).unwrap_or_default();
                t.join(f)
            }
            ExprKind::LetCond { names, expr } => {
                let f = self.eval(expr);
                for n in names {
                    let facts = Facts {
                        unit: unit_from_name(n).or(f.unit),
                        ..f
                    };
                    self.bind_facts(n.clone(), facts);
                }
                f
            }
            ExprKind::Match { scrutinee, arms } => {
                let s = self.eval(scrutinee);
                let mut merged = Facts::default();
                for (i, arm) in arms.iter().enumerate() {
                    self.scopes.push(BTreeMap::new());
                    for n in arm.pat.bound_names() {
                        let unit = unit_from_name(&n).or(s.unit);
                        self.bind(n, Facts { unit, ..s }, Origin::Local);
                    }
                    if let Some(g) = &arm.guard {
                        self.eval(g);
                    }
                    let b = self.eval(&arm.body);
                    self.scopes.pop();
                    merged = if i == 0 { b } else { merged.join(b) };
                }
                merged
            }
            ExprKind::ForLoop { names, iter, body } => {
                // `for ev in self.queue.drain(..)` mutates the source;
                // the method-call arm records it.
                let it = self.eval(iter);
                self.scopes.push(BTreeMap::new());
                let taint = it.taint.or_else(|| {
                    it.hashy.then_some(Taint {
                        kind: TaintKind::HashIter,
                        origin_line: iter.span.line,
                    })
                });
                // Draining a channel in a loop yields values in
                // completion order.
                let completion = it.completion || it.channel;
                for n in names {
                    let facts = Facts {
                        taint,
                        unit: unit_from_name(n),
                        params: it.params,
                        completion,
                        ..Facts::default()
                    };
                    self.bind(n.clone(), facts, Origin::Local);
                }
                self.run_block(body);
                self.scopes.pop();
                Facts::default()
            }
            ExprKind::While { cond, body } => {
                self.scopes.push(BTreeMap::new());
                self.eval(cond);
                for (name, origin) in self.cond_bindings(cond) {
                    self.bind_origin(name, origin);
                }
                self.run_block(body);
                self.scopes.pop();
                Facts::default()
            }
            ExprKind::Loop { body } => {
                self.run_block(body);
                Facts::default()
            }
            ExprKind::Closure { params, body } => self.eval_closure(params, body, false),
            ExprKind::Range { lo, hi } => {
                let mut taint = None;
                let mut params = 0u32;
                for e in [lo, hi].into_iter().flatten() {
                    let f = self.eval(e);
                    taint = taint.or(f.taint);
                    params |= f.params;
                }
                Facts {
                    taint,
                    params,
                    ..Facts::default()
                }
            }
            ExprKind::Jump(v) => {
                if let Some(e) = v {
                    let f = self.eval(e);
                    // `return`/`break`-with-value contributes to what
                    // the function can hand back (over-approximating
                    // `break` inside closures is safe: bits only grow).
                    self.record_return(f);
                }
                Facts::default()
            }
            ExprKind::Unknown => Facts::default(),
        }
    }

    fn shift_gate(&mut self, by: i32) {
        if let Some(c) = self.check.as_mut() {
            c.gate_depth = c.gate_depth.wrapping_add_signed(by);
        }
    }

    /// Walks `e` for the dataflow half only.
    fn eval_value_only(&mut self, e: &Expr) -> Facts {
        self.value_only += 1;
        let f = self.eval(e);
        self.value_only -= 1;
        f
    }

    fn eval_assign(&mut self, lhs: &Expr, rhs: &Expr) {
        let r = self.eval(rhs);
        // Unit check against the target's declared name.
        let target_name = match &lhs.kind {
            ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
            ExprKind::Field { name, .. } => Some(name.clone()),
            _ => None,
        };
        if let (Some(name), Some(got)) = (&target_name, r.unit) {
            if let Some(want) = unit_from_name(name) {
                self.unit_mismatch(rhs, got, want, &format!("`{name}`"));
            }
        }
        if let Some(key) = lvalue_key(lhs) {
            let declared = target_name.as_deref().and_then(unit_from_name);
            let facts = Facts {
                unit: declared.or(r.unit),
                ..r
            };
            self.bind_facts(key, facts);
        } else {
            self.eval_place(lhs);
        }
        if self.value_only > 0 {
            return;
        }
        let resolved = self.origin_of(lhs);
        // A plain-path assignment rebinds a local or by-value parameter;
        // neither escapes the function. Writes count only through a
        // projection or deref.
        if !matches!(&lhs.kind, ExprKind::Path(_)) {
            self.check_frozen_config(lhs);
            self.record_write(&resolved, lhs, "assignment");
        } else if let Some((root, depth)) = resolved.root {
            // Still a capture-write if the rebound binding lives across
            // a thread boundary.
            self.capture_write(&root, depth, lhs);
        }
    }

    /// Walks an untracked assignment target: the dataflow half sees all
    /// of it; the write half only the index expressions, since the
    /// written place itself is classified by the caller.
    fn eval_place(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Field { recv, .. } | ExprKind::Unary { expr: recv } => self.eval_place(recv),
            ExprKind::Index { recv, index } => {
                self.eval_place(recv);
                self.eval(index);
            }
            _ => {
                self.eval_value_only(e);
            }
        }
    }

    fn eval_closure(&mut self, params: &[String], body: &Expr, cross: bool) -> Facts {
        if cross {
            self.next_boundary += 1;
            self.boundaries
                .push((self.scopes.len(), self.next_boundary));
        }
        self.scopes.push(BTreeMap::new());
        for p in params {
            let facts = Facts {
                unit: unit_from_name(p),
                ..Facts::default()
            };
            self.bind(p.clone(), facts, Origin::Local);
        }
        let f = self.eval(body);
        self.scopes.pop();
        if cross {
            self.boundaries.pop();
        }
        // The closure value itself carries its body's taint so
        // `sched.push(move || tainted)` still reports at the sink.
        Facts {
            taint: f.taint,
            params: f.params,
            ..Facts::default()
        }
    }

    fn eval_path(&mut self, e: &Expr, segs: &[String]) -> Facts {
        if segs.len() == 1 {
            if let Some((depth, f)) = self.lookup(&segs[0]) {
                self.check_capture(e, &segs[0], depth, f);
                return f;
            }
        }
        let last = segs.last().map(String::as_str).unwrap_or("");
        // A const reference: unit from the symbol table or its name.
        let unit = self
            .cx
            .symbols
            .const_units
            .get(last)
            .copied()
            .or_else(|| unit_from_name(last));
        Facts {
            unit,
            ..Facts::default()
        }
    }

    /// Reports a nondeterministic binding resolved from outside the
    /// innermost thread-crossing closure (i.e. captured across it).
    fn check_capture(&mut self, e: &Expr, name: &str, depth: usize, f: Facts) {
        if f.taint.is_none() && !f.hashy {
            return;
        }
        let Some(&(_, id)) = self.boundaries.iter().rev().find(|(bd, _)| depth < *bd) else {
            return;
        };
        let Some(c) = self.check.as_mut() else { return };
        if !c.reported_captures.insert((id, name.to_owned())) {
            return;
        }
        self.cross_thread(
            e,
            f,
            &format!("is captured (as `{name}`) by a closure that crosses a thread boundary"),
        );
    }

    /// Evaluates call/method arguments, opening a capture boundary
    /// around closure literals handed to thread-crossing callees.
    fn eval_args(&mut self, args: &[Expr], crosses: bool) -> Vec<Facts> {
        args.iter()
            .map(|a| match &a.kind {
                ExprKind::Closure { params, body } if crosses => {
                    self.eval_closure(params, body, true)
                }
                _ => {
                    let f = self.eval(a);
                    if crosses && (f.taint.is_some() || f.hashy) {
                        // Non-closure argument to spawn/scope/par_runs:
                        // the value itself travels to other threads.
                        self.cross_thread(a, f, "is passed to a thread-crossing call");
                    }
                    f
                }
            })
            .collect()
    }

    /// Applies a callee's taint summary at a call site: arguments whose
    /// summary bit reaches a sink are sinks *here*, and arguments whose
    /// bit reaches the return value flow into the result facts.
    #[allow(clippy::too_many_arguments)]
    fn apply_taint_summary(
        &mut self,
        e: &Expr,
        s: &FnSummary,
        recv: Option<(&Expr, Facts)>,
        args: &[Expr],
        arg_facts: &[Facts],
        offset: usize,
        name: &str,
    ) -> Facts {
        let mut res = Facts {
            taint: s.returns_taint.map(|kind| Taint {
                kind,
                origin_line: e.span.line,
            }),
            hashy: s.returns_hashy || self.cx.symbols.hash_fns.contains(name),
            // A unit suffix on the callee's own name wins; otherwise the
            // summarized unit of its return paths flows out, so a `_ms`
            // value laundered through a suffix-less helper still reaches
            // a µs sink carrying `Ms`.
            unit: unit_from_name(name).or(s.returns_unit),
            ..Facts::default()
        };
        let mut slots: Vec<(usize, &Expr, Facts)> = Vec::new();
        if let Some((recv_e, recv_f)) = recv {
            slots.push((0, recv_e, recv_f));
        }
        for (i, (arg, f)) in args.iter().zip(arg_facts).enumerate() {
            slots.push((i + offset, arg, *f));
        }
        for (idx, arg, f) in slots {
            let bit = 1u32 << idx.min(31);
            if s.param_to_sink & bit != 0 {
                self.sink_arg(arg, f, &format!("`{name}` (whose body schedules it)"));
            }
            if s.param_to_return & bit != 0 {
                res.taint = res.taint.or(f.taint);
                res.hashy |= f.hashy;
                res.params |= f.params;
                res.completion |= f.completion;
            }
        }
        res
    }

    fn eval_call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> Facts {
        let callee_name = match &callee.kind {
            ExprKind::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
            _ => "",
        };
        let crosses = CROSS_THREAD_FNS.contains(&callee_name);
        let arg_facts = self.eval_args(args, crosses);
        let summaries = self.cx.summaries;
        if self.value_only == 0 {
            if let Some(s) = summaries.get(callee_name).filter(|s| !s.is_pure()) {
                self.apply_write_summary(e, callee_name, s, None, args);
            }
        }
        let arg_taint = arg_facts.iter().find_map(|f| f.taint);
        let arg_params = arg_facts.iter().fold(0u32, |m, f| m | f.params);
        let ExprKind::Path(segs) = &callee.kind else {
            self.eval_value_only(callee);
            return Facts {
                taint: arg_taint,
                params: arg_params,
                ..Facts::default()
            };
        };
        let last = callee_name;
        let has = |name: &str| segs.iter().any(|s| s == name);

        // Nondeterminism sources.
        if (has("Instant") || has("SystemTime")) && last == "now" {
            return Facts::tainted(TaintKind::WallClock, e.span.line);
        }
        if last == "thread_rng" || last == "from_entropy" || (last == "random" && has("rand")) {
            return Facts::tainted(TaintKind::Rng, e.span.line);
        }
        if HASH_TYPES.iter().any(|t| has(t))
            && matches!(last, "new" | "with_capacity" | "default" | "from")
        {
            return Facts {
                hashy: true,
                ..Facts::default()
            };
        }

        // Channel construction: both endpoints of the returned pair.
        if last == "channel" || last == "sync_channel" {
            return Facts {
                channel: true,
                ..Facts::default()
            };
        }

        // SimTime/SimDuration construction: a unit- and taint-checked
        // sink. The bare tuple-struct form `SimTime(x)` takes µs.
        if has("SimTime") || has("SimDuration") {
            let expected = match last {
                "from_micros" | "from" => Some(Unit::Us),
                "from_millis" => Some(Unit::Ms),
                "from_secs" => Some(Unit::Secs),
                "SimTime" | "SimDuration" => Some(Unit::Us),
                _ => None,
            };
            if let Some(want) = expected {
                let ty = if has("SimTime") {
                    "SimTime"
                } else {
                    "SimDuration"
                };
                for (arg, f) in args.iter().zip(&arg_facts) {
                    if let Some(got) = f.unit {
                        self.unit_mismatch(arg, got, want, &format!("`{ty}::{last}`"));
                    }
                    self.sink_arg(arg, *f, &format!("`{ty}` construction"));
                }
                return Facts {
                    taint: arg_taint,
                    params: arg_params,
                    ..Facts::default()
                };
            }
        }

        // Free-function sinks (`schedule(at, ev)` helpers).
        if SINK_METHODS.contains(&last) {
            for (arg, f) in args.iter().zip(&arg_facts) {
                self.sink_arg(arg, *f, &format!("`{last}`"));
            }
        }

        // Workspace functions with unit-suffixed parameters.
        if let Some(units) = self.cx.symbols.param_units(last) {
            // Skip a leading `self` slot when signature and call-site
            // arities differ by one (free call of a method name).
            let offset = usize::from(units.len() == args.len() + 1);
            for (i, (arg, f)) in args.iter().zip(&arg_facts).enumerate() {
                if let (Some(Some(want)), Some(got)) = (units.get(i + offset), f.unit) {
                    self.unit_mismatch(arg, got, *want, &format!("parameter of `{last}`"));
                }
            }
        }

        // Interprocedural: consume the callee's summary. Direct sink
        // names were already handled above (skipping them avoids a
        // duplicate report when a workspace fn shares a sink's name).
        if !SINK_METHODS.contains(&last) {
            if let Some(s) = summaries.get(last) {
                let offset = usize::from(s.has_self && s.arity == args.len() + 1);
                return self.apply_taint_summary(e, s, None, args, &arg_facts, offset, last);
            }
        }

        Facts {
            taint: arg_taint,
            unit: unit_from_name(last),
            hashy: self.cx.symbols.hash_fns.contains(last),
            params: arg_params,
            ..Facts::default()
        }
    }

    fn eval_method(&mut self, e: &Expr, recv: &Expr, method: &str, args: &[Expr]) -> Facts {
        let r = self.eval(recv);
        let crosses = CROSS_THREAD_FNS.contains(&method);
        let arg_facts = self.eval_args(args, crosses);
        if self.value_only == 0 {
            self.method_writes(e, recv, method, args);
        }
        let arg_taint = arg_facts.iter().find_map(|f| f.taint);
        let arg_params = arg_facts.iter().fold(0u32, |m, f| m | f.params);

        // Channel sends are a thread crossing for the payload.
        if method == "send" {
            for (arg, f) in args.iter().zip(&arg_facts) {
                self.cross_thread(arg, *f, "is sent through a channel");
            }
        }

        // Completion-order aggregation: appending a channel-received
        // value means the aggregate's order depends on thread timing.
        if AGG_METHODS.contains(&method) {
            for (arg, f) in args.iter().zip(&arg_facts) {
                if f.completion {
                    self.report(
                        "shard-order-agg",
                        arg.span.line,
                        arg.span.col,
                        format!(
                            "fan-out result received in completion order is aggregated with \
                             `.{method}`; combine results by index (one slot per input) so the \
                             join is schedule-independent"
                        ),
                    );
                }
            }
        }

        // Sinks: scheduling/enqueueing a tainted value, or a tainted
        // timestamp, is the finding this rule exists for.
        if SINK_METHODS.contains(&method) {
            for (arg, f) in args.iter().zip(&arg_facts) {
                self.sink_arg(arg, *f, &format!("`{method}`"));
            }
        }

        // Channel receives yield completion-ordered values (so does
        // iterating the receiver).
        if RECV_METHODS.contains(&method)
            || (r.channel && matches!(method, "iter" | "try_iter" | "into_iter"))
        {
            return Facts {
                taint: r.taint,
                params: r.params,
                completion: true,
                ..Facts::default()
            };
        }

        // Unit-typed accessors on SimTime/SimDuration.
        let accessor_unit = match method {
            "as_micros" => Some(Unit::Us),
            "as_millis" | "as_millis_f64" => Some(Unit::Ms),
            "as_secs" | "as_secs_f64" | "as_secs_f32" => Some(Unit::Secs),
            _ => None,
        };
        if let Some(u) = accessor_unit {
            return Facts {
                taint: r.taint.or(arg_taint),
                unit: Some(u),
                params: r.params | arg_params,
                completion: r.completion,
                ..Facts::default()
            };
        }

        // Hash-order taint at the iteration boundary.
        if r.hashy && ORDER_SENSITIVE.contains(&method) {
            return Facts {
                taint: Some(Taint {
                    kind: TaintKind::HashIter,
                    origin_line: e.span.line,
                }),
                hashy: true,
                params: r.params,
                ..Facts::default()
            };
        }

        if UNIT_PRESERVING.contains(&method) {
            if let (Some(want), Some(arg), Some(got)) =
                (r.unit, args.first(), arg_facts.first().and_then(|f| f.unit))
            {
                self.unit_mismatch(
                    arg,
                    got,
                    want,
                    &format!("`.{method}` on a {} value", want.label()),
                );
            }
            return Facts {
                taint: r.taint.or(arg_taint),
                unit: r.unit.or_else(|| arg_facts.first().and_then(|f| f.unit)),
                hashy: r.hashy && method == "clone",
                params: r.params | arg_params,
                completion: r.completion,
                channel: r.channel && method == "clone",
            };
        }

        // Interprocedural: a workspace method with a known summary.
        // Sink/aggregation names were already handled directly above.
        if !SINK_METHODS.contains(&method) && !AGG_METHODS.contains(&method) {
            let summaries = self.cx.summaries;
            if let Some(s) = summaries.get(method).filter(|s| s.has_self) {
                return self.apply_taint_summary(
                    e,
                    s,
                    Some((recv, r)),
                    args,
                    &arg_facts,
                    1,
                    method,
                );
            }
        }

        // Generic propagation: taint and hashiness survive chaining
        // (`map`, `filter`, `collect`, `enumerate`, ...), and a call to
        // a workspace method known to return a hash collection makes
        // the result hashy (`self.index().keys()`).
        Facts {
            taint: r.taint.or(arg_taint),
            unit: None,
            hashy: r.hashy || self.cx.symbols.hash_fns.contains(method),
            params: r.params | arg_params,
            completion: r.completion,
            channel: r.channel,
        }
    }

    // ── the write half ───────────────────────────────────────────────

    /// Resolves what an lvalue (or reference expression) names. Walks
    /// through field projections, indexing, `&`/`*`, `?`, casts, and
    /// reference-projecting methods.
    fn origin_of(&self, e: &Expr) -> Resolved {
        match &e.kind {
            ExprKind::Path(segs) if segs.len() == 1 => {
                let name = &segs[0];
                if let Some((depth, origin)) = self.resolve(name) {
                    Resolved {
                        origin: Some(origin),
                        root: Some((name.clone(), depth)),
                    }
                } else {
                    Resolved {
                        origin: is_screaming(name).then(|| Origin::Static(name.clone())),
                        root: None,
                    }
                }
            }
            ExprKind::Field { recv, name } => {
                let mut r = self.origin_of(recv);
                if let Some(Origin::Param { field, .. }) = &mut r.origin {
                    if field.is_none() {
                        *field = Some(name.clone());
                    }
                }
                r
            }
            ExprKind::Index { recv, .. } => self.origin_of(recv),
            ExprKind::Unary { expr } | ExprKind::Try { expr } => self.origin_of(expr),
            ExprKind::Cast { expr, .. } => self.origin_of(expr),
            ExprKind::MethodCall { recv, method, .. }
                if PROJECTION_METHODS.contains(&method.as_str()) =>
            {
                self.origin_of(recv)
            }
            _ => Resolved {
                origin: None,
                root: None,
            },
        }
    }

    /// Classifies a composed write through parameter `idx` (first
    /// projection `field`, empty = the pointee itself).
    fn write_class(&self, idx: usize, field: &str) -> StateClass {
        if self.param_observer.get(idx).copied().unwrap_or(false) {
            return StateClass::Observer;
        }
        if field.is_empty() {
            StateClass::Sim
        } else {
            self.cx.model.field_class(field)
        }
    }

    fn gated(&self) -> bool {
        self.check
            .as_ref()
            .is_some_and(|c| c.families.sim && c.gate_depth > 0)
    }

    /// Reports a write to a binding that lives outside the innermost
    /// thread-crossing closure.
    fn capture_write(&mut self, root: &str, depth: usize, e: &Expr) {
        let crossing = self.check.as_ref().is_some_and(|c| c.families.shard)
            && self.boundaries.last().is_some_and(|(b, _)| depth < *b);
        if crossing {
            self.report_write(
                "shard-cross-thread",
                e.span.line,
                e.span.col,
                format!(
                    "closure passed to a thread-crossing call writes captured `{root}` — \
                     per-shard results must be merged by index, not by shared mutation"
                ),
            );
        }
    }

    /// Records a direct write through `resolved` at `e` (an assignment
    /// target or a mutated receiver), updating the summary and firing
    /// the check-mode rules.
    fn record_write(&mut self, resolved: &Resolved, e: &Expr, what: &str) {
        if let Some((root, depth)) = &resolved.root {
            self.capture_write(root, *depth, e);
        }
        match resolved.origin.clone() {
            Some(Origin::Param { idx, field }) => {
                let field = field.unwrap_or_default();
                if self.write_class(idx, &field) == StateClass::Sim {
                    if self.gated() {
                        let target = self.describe_param_write(idx, &field);
                        self.report_write(
                            "observer-purity",
                            e.span.line,
                            e.span.col,
                            format!(
                                "observation-gated code writes sim state {target} ({what}) — \
                                 observer layers must not perturb the simulation"
                            ),
                        );
                    }
                    self.summary.sim_writes.insert((idx, field));
                }
            }
            Some(Origin::Static(name)) => {
                if self.cx.model.static_class(&name) == StateClass::Sim {
                    if self.check.as_ref().is_some_and(|c| c.families.sim) {
                        self.report_write(
                            "shard-shared-state",
                            e.span.line,
                            e.span.col,
                            format!(
                                "static `{name}` is written here ({what}) — per-shard runs \
                                 must not communicate through process globals"
                            ),
                        );
                    }
                    if self.gated() {
                        self.report_write(
                            "observer-purity",
                            e.span.line,
                            e.span.col,
                            format!("observation-gated code writes static `{name}` ({what})"),
                        );
                    }
                    self.summary.sim_statics.insert(name);
                }
            }
            Some(Origin::Local) | None => {}
        }
    }

    fn describe_param_write(&self, idx: usize, field: &str) -> String {
        if idx == 0 && self.summary.has_self {
            if field.is_empty() {
                "`self`".to_owned()
            } else {
                format!("`self.{field}`")
            }
        } else if field.is_empty() {
            format!("parameter {idx}")
        } else {
            format!("`.{field}` of parameter {idx}")
        }
    }

    /// The write half of a method call: `.validate()` freezes a tracked
    /// config binding; a summarized method's writes compose onto the
    /// receiver and arguments; an unsummarized mutating method writes
    /// its receiver.
    fn method_writes(&mut self, e: &Expr, recv: &Expr, method: &str, args: &[Expr]) {
        if method == "validate" && args.is_empty() {
            if let (ExprKind::Path(segs), Some(c)) = (&recv.kind, self.check.as_mut()) {
                if let Some(frozen) = segs
                    .first()
                    .filter(|_| segs.len() == 1)
                    .and_then(|s| c.cfg_bindings.get_mut(s))
                {
                    *frozen = true;
                }
            }
        }
        let summaries = self.cx.summaries;
        match summaries.get(method) {
            Some(s) if s.has_self && !s.is_pure() => {
                self.apply_write_summary(e, method, s, Some(recv), args);
            }
            None if is_mutating_method(method, args.len()) => {
                let resolved = self.origin_of(recv);
                self.record_write(&resolved, e, &format!("`.{method}(..)`"));
            }
            _ => {}
        }
    }

    /// Applies a known callee's write effects at a call site: its
    /// parameter writes compose onto this call's receiver/arguments.
    fn apply_write_summary(
        &mut self,
        e: &Expr,
        callee_name: &str,
        s: &FnSummary,
        recv: Option<&Expr>,
        args: &[Expr],
    ) {
        let mut gated_hits: Vec<String> = Vec::new();
        let offset = usize::from(recv.is_some());
        for (j, f) in &s.sim_writes {
            let target: Option<&Expr> = if *j == 0 && recv.is_some() {
                recv
            } else {
                args.get(j - offset)
            };
            let Some(target) = target else { continue };
            match self.origin_of(target).origin {
                Some(Origin::Param { idx, field }) => {
                    // The caller's projection is the classification
                    // anchor: writing `callee(&mut self.stats)` where the
                    // callee touches `.count` is a write to `self.stats`.
                    let field = field
                        .or_else(|| (!f.is_empty()).then(|| f.clone()))
                        .unwrap_or_default();
                    if self.write_class(idx, &field) == StateClass::Sim {
                        if self.gated() {
                            gated_hits.push(self.describe_param_write(idx, &field));
                        }
                        self.summary.sim_writes.insert((idx, field));
                    }
                }
                Some(Origin::Static(name))
                    if self.cx.model.static_class(&name) == StateClass::Sim =>
                {
                    if self.gated() {
                        gated_hits.push(format!("static `{name}`"));
                    }
                    self.summary.sim_statics.insert(name);
                }
                // An unresolvable target (a temporary, an untracked
                // accessor return): conservatively assume the callee's
                // sim write lands somewhere real when observation-gated.
                None if self.gated() => {
                    gated_hits.push(format!("`{}`", describe_expr(target)));
                }
                _ => {}
            }
        }
        for name in &s.sim_statics {
            if self.cx.model.static_class(name) == StateClass::Sim {
                if self.gated() {
                    gated_hits.push(format!("static `{name}`"));
                }
                self.summary.sim_statics.insert(name.clone());
            }
        }
        if !gated_hits.is_empty() {
            gated_hits.dedup();
            let msg = format!(
                "observation-gated call to `{callee_name}` may write sim state ({}) — \
                 observer layers must not perturb the simulation",
                gated_hits.join(", ")
            );
            self.report_write("observer-purity", e.span.line, e.span.col, msg);
        }
    }

    /// Tracks `let` bindings that hold a `SystemConfig` for the
    /// frozen-config rule (by type ascription, constructor path, or a
    /// clone of an already-tracked binding).
    fn track_config_binding(&mut self, name: &str, ty: Option<&TypeRef>, init: Option<&Expr>) {
        if self.value_only > 0 {
            return;
        }
        let Some(c) = self.check.as_mut().filter(|c| c.families.sim) else {
            return;
        };
        let is_config = ty.is_some_and(|t| t.idents.iter().any(|i| i == "SystemConfig"))
            || init.is_some_and(|e| match &e.kind {
                ExprKind::Call { callee, .. } => match &callee.kind {
                    ExprKind::Path(segs) => segs.iter().any(|s| s == "SystemConfig"),
                    _ => false,
                },
                ExprKind::StructLit { path, .. } => path.iter().any(|s| s == "SystemConfig"),
                ExprKind::MethodCall { recv, method, .. } if method == "clone" => {
                    matches!(&recv.kind, ExprKind::Path(segs)
                        if segs.len() == 1 && c.cfg_bindings.contains_key(&segs[0]))
                }
                _ => false,
            });
        if is_config {
            c.cfg_bindings.insert(name.to_owned(), false);
        }
    }

    /// The frozen-config check for an assignment target: a field write
    /// into a validated binding, or through a stored config field.
    fn check_frozen_config(&mut self, lhs: &Expr) {
        let Some(c) = self.check.as_ref() else { return };
        if !c.families.sim || self.owner == Some("SystemConfig") {
            return;
        }
        let (root, fields) = field_chain(lhs);
        let Some((_, path)) = fields.split_last() else {
            return;
        };
        // The written field is the last element; everything before it
        // is the access path. A config anywhere on the path means the
        // write lands inside a stored (hence validated) config.
        let via_stored = path.iter().any(|f| self.cx.model.is_config_field(f));
        let via_frozen = root
            .as_ref()
            .and_then(|r| c.cfg_bindings.get(r))
            .copied()
            .unwrap_or(false);
        if via_stored || via_frozen {
            let target = fields.join(".");
            let why = if via_frozen {
                "after `validate()` returned"
            } else {
                "through a stored config (post-validate by construction)"
            };
            self.report_write(
                "frozen-config",
                lhs.span.line,
                lhs.span.col,
                format!(
                    "`SystemConfig` field `{target}` is mutated {why} — validated \
                     configs are frozen; build, then validate, then run"
                ),
            );
        }
    }

    /// Names bound by `if let` / `while let` conditions, with the
    /// origin of the unwrapped scrutinee: `if let Some(m) =
    /// self.metrics.as_mut()` binds `m` to `self.metrics`, so writes
    /// through `m` classify by the `metrics` field.
    fn cond_bindings(&self, cond: &Expr) -> Vec<(String, Origin)> {
        let mut out = Vec::new();
        self.collect_cond_bindings(cond, &mut out);
        out
    }

    fn collect_cond_bindings(&self, cond: &Expr, out: &mut Vec<(String, Origin)>) {
        match &cond.kind {
            ExprKind::LetCond { names, expr } => {
                // A binding unwrapped out of an observer-typed field
                // (`if let Some(m) = self.metrics.as_mut()`) IS the
                // observer: writes through it are observation state no
                // matter what class the field *name* resolves to under
                // the workspace-wide conflict rule.
                let mut origin = self.origin_of(expr).origin.unwrap_or(Origin::Local);
                if let Origin::Param { field: Some(f), .. } = &origin {
                    if self.cx.model.is_gate_field(f) {
                        origin = Origin::Local;
                    }
                }
                for n in names {
                    out.push((n.clone(), origin.clone()));
                }
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.collect_cond_bindings(lhs, out);
                self.collect_cond_bindings(rhs, out);
            }
            ExprKind::Unary { expr } => self.collect_cond_bindings(expr, out),
            _ => {}
        }
    }
}

/// A stable key for trackable assignment targets: plain locals and
/// `self.field` lvalues.
fn lvalue_key(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
        ExprKind::Field { recv, name } => match &recv.kind {
            ExprKind::Path(segs) if segs.len() == 1 && segs[0] == "self" => {
                Some(format!("self.{name}"))
            }
            _ => None,
        },
        _ => None,
    }
}

/// A short human label for an expression, used in dataflow messages.
fn describe(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(segs) => format!("`{}`", segs.join("::")),
        ExprKind::Lit(Lit::Num(n)) => format!("literal `{n}`"),
        ExprKind::Lit(_) => "a literal".to_owned(),
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) => format!("`{}(..)`", segs.join("::")),
            _ => "a call".to_owned(),
        },
        ExprKind::MethodCall { method, .. } => format!("`.{method}(..)`"),
        ExprKind::Field { name, .. } => format!("field `{name}`"),
        ExprKind::Binary { .. } => "an arithmetic result".to_owned(),
        ExprKind::Cast { expr, .. } => describe(expr),
        _ => "this value".to_owned(),
    }
}

/// Short rendering of a write target for write-rule messages.
fn describe_expr(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(segs) => segs.join("::"),
        ExprKind::Field { recv, name } => format!("{}.{name}", describe_expr(recv)),
        ExprKind::MethodCall { recv, method, .. } => {
            format!("{}.{method}(..)", describe_expr(recv))
        }
        ExprKind::Unary { expr } | ExprKind::Try { expr } => describe_expr(expr),
        ExprKind::Index { recv, .. } => format!("{}[..]", describe_expr(recv)),
        _ => "<expr>".to_owned(),
    }
}

/// Whether an unknown method mutates its receiver. `take` only counts
/// with no arguments (`Option::take`), not `Iterator::take(n)`.
fn is_mutating_method(method: &str, argc: usize) -> bool {
    if method == "take" {
        return argc == 0;
    }
    MUTATING_METHODS.contains(&method)
}

/// SCREAMING_CASE test for bare paths that name statics/consts.
fn is_screaming(name: &str) -> bool {
    name.len() > 1
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && name.chars().any(|c| c.is_ascii_uppercase())
}

/// Decomposes an lvalue into its root binding and field path, e.g.
/// `self.cfg.population` → (`Some("self")`, `["cfg", "population"]`).
fn field_chain(e: &Expr) -> (Option<String>, Vec<String>) {
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => (Some(segs[0].clone()), Vec::new()),
        ExprKind::Field { recv, name } => {
            let (root, mut fields) = field_chain(recv);
            fields.push(name.clone());
            (root, fields)
        }
        ExprKind::Index { recv, .. } | ExprKind::Unary { expr: recv } => field_chain(recv),
        _ => (None, Vec::new()),
    }
}

/// Whether a condition gates on observation being enabled: it reads a
/// `cfg.trace` / `cfg.metrics` / `cfg.prof` flag, or unwraps an
/// observer-classified optional field (`self.metrics.as_mut()`).
fn is_gated_cond(cond: &Expr, model: &StateModel) -> bool {
    let mut gated = false;
    walk_expr(cond, &mut |e| match &e.kind {
        ExprKind::Field { recv, name }
            if GATE_FLAGS.contains(&name.as_str()) && mentions_cfg(recv) =>
        {
            gated = true;
        }
        ExprKind::MethodCall { recv, method, .. }
            if matches!(method.as_str(), "as_mut" | "as_ref" | "is_some") =>
        {
            if let ExprKind::Field { name, .. } = &recv.kind {
                if model.is_gate_field(name) {
                    gated = true;
                }
            }
        }
        _ => {}
    });
    gated
}

/// Whether an expression mentions a config receiver (`cfg`, `self.cfg`,
/// `sim.model().cfg`, ...).
fn mentions_cfg(e: &Expr) -> bool {
    let mut found = false;
    walk_expr(e, &mut |sub| match &sub.kind {
        ExprKind::Path(segs) if segs.iter().any(|s| s == "cfg" || s == "config") => found = true,
        ExprKind::Field { name, .. } if name == "cfg" || name == "config" => found = true,
        _ => {}
    });
    found
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ast::{walk_fns, File};
    use crate::callgraph;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::symbols::{parse_state_annotations, parse_unit_annotations};

    /// Full single-file pipeline: symbols, state model, summaries, then
    /// the checker over every function under `families`. Returns the
    /// model, the summaries and both finding groups.
    pub(crate) fn pipeline(
        src: &str,
        families: FlowFamilies,
    ) -> (StateModel, Summaries, Vec<Finding>, Vec<Finding>) {
        let toks = lex(src);
        let file: File = parse_file(&toks);
        assert_eq!(file.recovered_skips, 0, "test source must parse");
        let (anns, bad) = parse_unit_annotations(&toks);
        assert!(bad.is_empty(), "{bad:?}");
        let (state_anns, bad) = parse_state_annotations(&toks);
        assert!(bad.is_empty(), "{bad:?}");
        let symbols = Symbols::build(&[(&file, &anns)]);
        let model = StateModel::build(&[(&file, &state_anns)]);
        let summaries = callgraph::build(&[(&file, &anns)], &symbols, &model);
        let cx = Context {
            symbols: &symbols,
            model: &model,
            summaries: &summaries,
        };
        let (mut flow, mut writes) = (Vec::new(), Vec::new());
        walk_fns(&file, &mut |owner, f| {
            let (fl, wr) = check_fn(f, owner, &anns, cx, families, "x.rs");
            flow.extend(fl);
            writes.extend(wr);
        });
        (model, summaries, flow, writes)
    }

    /// The dataflow findings of `src` in sim-crate scope.
    fn run(src: &str) -> Vec<Finding> {
        pipeline(src, FlowFamilies::all()).2
    }

    fn count(f: &[Finding], rule: &str) -> usize {
        f.iter().filter(|x| x.rule == rule).count()
    }

    fn taints(f: &[Finding]) -> usize {
        count(f, "nondet-taint")
    }

    fn units(f: &[Finding]) -> usize {
        count(f, "time-unit")
    }

    #[test]
    fn hash_iteration_into_schedule_is_tainted() {
        let f = run("pub struct S { pending: HashMap<u64, u64> }\n\
             impl S {\n\
               pub fn kick(&self, sched: &mut Sched) {\n\
                 for (id, t) in &self.pending {\n\
                   sched.schedule(*t, *id);\n\
                 }\n\
               }\n\
             }");
        assert!(taints(&f) >= 1, "{f:?}");
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let f = run("pub struct S { pending: BTreeMap<u64, u64> }\n\
             impl S {\n\
               pub fn kick(&self, sched: &mut Sched) {\n\
                 for (id, t) in &self.pending {\n\
                   sched.schedule(*t, *id);\n\
                 }\n\
               }\n\
             }");
        assert_eq!(taints(&f), 0, "{f:?}");
    }

    #[test]
    fn wall_clock_through_let_into_simtime_is_tainted() {
        let f = run("pub fn bad(sim: &mut Sim) {\n\
               let t0 = Instant::now();\n\
               let stamp = t0;\n\
               sim.push(SimTime::from_micros(stamp));\n\
             }");
        assert!(taints(&f) >= 1, "{f:?}");
    }

    #[test]
    fn rng_into_push_is_tainted() {
        let f = run("pub fn bad(q: &mut Q) {\n\
               let jitter = thread_rng();\n\
               q.push(jitter);\n\
             }");
        assert_eq!(taints(&f), 1, "{f:?}");
    }

    #[test]
    fn seeded_rng_is_clean() {
        let f = run("pub fn good(q: &mut Q, seed: u64) {\n\
               let rng = SmallRng::seed_from_u64(seed);\n\
               q.push(rng);\n\
             }");
        assert_eq!(taints(&f), 0, "{f:?}");
    }

    #[test]
    fn ms_const_into_from_micros_is_flagged() {
        let f = run("pub const WINDOW_MS: u64 = 50;\n\
             pub fn bad() -> SimTime { SimTime::from_micros(WINDOW_MS) }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn us_const_into_from_micros_is_clean() {
        let f = run("pub const WINDOW_US: u64 = 50_000;\n\
             pub fn good() -> SimTime { SimTime::from_micros(WINDOW_US) }");
        assert_eq!(units(&f), 0, "{f:?}");
    }

    #[test]
    fn annotation_beats_suffixless_name() {
        let f = run("// simlint::unit(ms)\n\
             pub const WINDOW: u64 = 50;\n\
             pub fn bad() -> SimTime { SimTime::from_micros(WINDOW) }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn mixed_additive_arithmetic_is_flagged() {
        let f = run("pub fn bad(a_us: u64, b_ms: u64) -> u64 { a_us + b_ms }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn comparison_across_units_is_flagged() {
        let f =
            run("pub fn bad(elapsed_us: u64, timeout_ms: u64) -> bool { elapsed_us > timeout_ms }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn multiplication_legitimately_converts() {
        let f = run(
            "pub fn good(window_ms: u64) -> SimTime { SimTime::from_micros(window_ms * 1_000) }",
        );
        assert_eq!(units(&f), 0, "{f:?}");
    }

    #[test]
    fn as_millis_accessor_carries_ms() {
        let f =
            run("pub fn bad(t: SimDuration) -> SimTime { SimTime::from_micros(t.as_millis()) }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn unit_suffixed_fn_param_is_checked_at_call_site() {
        let f = run("pub fn on_completion(rt_us: u64) {}\n\
             pub fn bad(rt_ms: u64) { on_completion(rt_ms); }\n\
             pub fn good(rt: u64) { on_completion(rt); }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn struct_field_units_are_checked() {
        let f = run("pub fn bad(wait_ms: u64) -> Cfg { Cfg { retransmit_wait_us: wait_ms } }");
        assert_eq!(units(&f), 1, "{f:?}");
    }

    #[test]
    fn tainted_self_field_assignment_is_tracked() {
        let f = run("pub struct S { stamp: u64 }\n\
             impl S {\n\
               pub fn bad(&mut self, sched: &mut Sched) {\n\
                 self.stamp = Instant::now();\n\
                 sched.schedule(self.stamp, 0);\n\
               }\n\
             }");
        assert!(taints(&f) >= 1, "{f:?}");
    }

    #[test]
    fn hash_returning_fn_chain_is_tainted() {
        let f = run("pub struct S { m: HashMap<u64, u64> }\n\
             impl S {\n\
               pub fn index(&self) -> &HashMap<u64, u64> { &self.m }\n\
               pub fn bad(&self, q: &mut Q) {\n\
                 for k in self.index().keys() { q.push(*k); }\n\
               }\n\
             }");
        assert!(taints(&f) >= 1, "{f:?}");
    }

    #[test]
    fn saturating_add_checks_and_preserves_units() {
        let f = run("pub fn bad(a_us: u64, b_ms: u64) -> u64 { a_us.saturating_add(b_ms) }");
        assert_eq!(units(&f), 1, "{f:?}");
        let f2 = run("pub fn good(a_us: u64, b_us: u64) -> SimTime {\n\
               SimTime::from_micros(a_us.saturating_add(b_us))\n\
             }");
        assert_eq!(units(&f2), 0, "{f2:?}");
    }

    // ── interprocedural ──────────────────────────────────────────────

    #[test]
    fn two_hop_helper_launders_taint_to_exactly_one_finding() {
        let f = run("pub fn hop2(v: u64) -> u64 { v }\n\
             pub fn hop1(v: u64) -> u64 { hop2(v) }\n\
             pub fn bad(sched: &mut Sched) {\n\
               let stamp = Instant::now();\n\
               sched.schedule(hop1(stamp), 0);\n\
             }");
        assert_eq!(taints(&f), 1, "{f:?}");
    }

    #[test]
    fn helper_that_drops_its_argument_is_clean() {
        let f = run("pub fn hop2(_v: u64) -> u64 { 0 }\n\
             pub fn hop1(v: u64) -> u64 { hop2(v) }\n\
             pub fn good(sched: &mut Sched) {\n\
               let stamp = Instant::now();\n\
               sched.schedule(hop1(stamp), 0);\n\
             }");
        assert_eq!(taints(&f), 0, "{f:?}");
    }

    #[test]
    fn helper_whose_body_schedules_makes_the_call_site_a_sink() {
        let f = run(
            "pub fn stamp_all(sched: &mut Sched, t: u64) { sched.schedule(t, 0); }\n\
             pub fn bad(sched: &mut Sched) {\n\
               stamp_all(sched, Instant::now());\n\
             }",
        );
        assert_eq!(taints(&f), 1, "{f:?}");
    }

    #[test]
    fn tainted_fn_return_value_reaches_a_sink() {
        let f = run("pub fn stamp() -> u64 { Instant::now() }\n\
             pub fn bad(q: &mut Q) { q.push(stamp()); }");
        assert_eq!(taints(&f), 1, "{f:?}");
    }

    #[test]
    fn recursion_and_mutual_calls_terminate_cleanly() {
        let f = run(
            "pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             pub fn odd(n: u64) -> bool { if n == 0 { false } else { even(n - 1) } }\n\
             pub fn rec(v: u64) -> u64 { if v > 1 { rec(v) } else { v } }",
        );
        assert_eq!(f.len(), 0, "{f:?}");
    }

    // ── shard safety ─────────────────────────────────────────────────

    #[test]
    fn tainted_capture_into_scoped_spawn_is_flagged_once() {
        let f = run("pub fn bad(work: u64) {\n\
               let t0 = Instant::now();\n\
               std::thread::scope(|s| {\n\
                 s.spawn(|| consume(t0, work));\n\
                 s.spawn(|| consume(t0, work));\n\
               });\n\
             }");
        // One finding per (boundary, name): two spawns, one capture each.
        assert_eq!(count(&f, "shard-cross-thread"), 2, "{f:?}");
    }

    #[test]
    fn hashy_capture_into_par_runs_is_flagged() {
        let f = run("pub fn bad(items: Vec<u64>) {\n\
               let m = HashMap::new();\n\
               par_runs(items, |k| m.len() + k);\n\
             }");
        assert_eq!(count(&f, "shard-cross-thread"), 1, "{f:?}");
    }

    #[test]
    fn untainted_captures_are_clean() {
        let f = run("pub fn good(cfg: u64, items: Vec<u64>) {\n\
               par_runs(items, |k| k + cfg);\n\
             }");
        assert_eq!(count(&f, "shard-cross-thread"), 0, "{f:?}");
    }

    #[test]
    fn taint_created_inside_the_closure_is_not_a_capture() {
        let f = run("pub fn good(items: Vec<u64>) {\n\
               par_runs(items, |k| {\n\
                 let start = Instant::now();\n\
                 k + start\n\
               });\n\
             }");
        assert_eq!(count(&f, "shard-cross-thread"), 0, "{f:?}");
    }

    #[test]
    fn sending_a_tainted_value_through_a_channel_is_flagged() {
        let f = run("pub fn bad(tx: Sender<u64>) {\n\
               let t = Instant::now();\n\
               tx.send(t);\n\
             }");
        assert_eq!(count(&f, "shard-cross-thread"), 1, "{f:?}");
    }

    #[test]
    fn completion_order_aggregation_is_flagged() {
        let f = run("pub fn bad(n: u64) -> Vec<u64> {\n\
               let (tx, rx) = channel();\n\
               let mut out = Vec::new();\n\
               for _ in 0..n {\n\
                 let v = rx.recv();\n\
                 out.push(v);\n\
               }\n\
               out\n\
             }");
        assert_eq!(count(&f, "shard-order-agg"), 1, "{f:?}");
    }

    #[test]
    fn indexed_join_is_clean() {
        let f = run("pub fn good(n: u64, out: &mut Vec<u64>) {\n\
               let (tx, rx) = channel();\n\
               for _ in 0..n {\n\
                 let (idx, v) = rx.recv();\n\
                 out[idx] = v;\n\
               }\n\
             }");
        assert_eq!(count(&f, "shard-order-agg"), 0, "{f:?}");
    }

    #[test]
    fn draining_a_channel_in_a_for_loop_carries_completion_order() {
        let f = run("pub fn bad(acc: &mut Vec<u64>) {\n\
               let (tx, rx) = channel();\n\
               for v in rx.iter() {\n\
                 acc.push(v);\n\
               }\n\
             }");
        assert_eq!(count(&f, "shard-order-agg"), 1, "{f:?}");
    }

    #[test]
    fn shard_family_gating_suppresses_taint_reports() {
        let (_, _, out, _) = pipeline(
            "pub fn bench(q: &mut Q) {\n\
               let t = Instant::now();\n\
               q.push(t);\n\
             }",
            FlowFamilies::shard_only(),
        );
        assert_eq!(out.len(), 0, "{out:?}");
    }

    // ── both halves at one call site ─────────────────────────────────

    #[test]
    fn gated_helper_that_taints_and_writes_is_reported_once_per_rule() {
        // `stamp` returns wall-clock time *and* bumps a sim counter; the
        // gated caller schedules its result. One walk must yield exactly
        // one `nondet-taint` (the value) and one `observer-purity` (the
        // write) at the helper's call site.
        let src = "\
            pub struct Cfg { pub trace: bool }\n\
            pub struct Sys { pub cfg: Cfg, pub ticks: u64 }\n\
            impl Sys {\n\
                fn stamp(&mut self) -> u64 {\n\
                    self.ticks += 1;\n\
                    Instant::now()\n\
                }\n\
                pub fn step(&mut self, sched: &mut Sched) {\n\
                    if self.cfg.trace {\n\
                        sched.schedule(self.stamp(), 0);\n\
                    }\n\
                }\n\
            }\n";
        let (_, summaries, flow, writes) = pipeline(src, FlowFamilies::all());
        let stamp = summaries.get("stamp").unwrap();
        assert_eq!(stamp.returns_taint, Some(TaintKind::WallClock));
        assert!(
            stamp.sim_writes.contains(&(0, "ticks".to_owned())),
            "{stamp:?}"
        );
        // The helper call `self.stamp()` on line 10.
        let col = src
            .lines()
            .nth(9)
            .and_then(|l| l.find("self.stamp()"))
            .unwrap()
            + 1;
        let all: Vec<&Finding> = flow
            .iter()
            .chain(&writes)
            .filter(|f| f.line == 10 && f.col as usize == col)
            .collect();
        assert_eq!(
            all.iter().filter(|f| f.rule == "nondet-taint").count(),
            1,
            "{flow:?}"
        );
        assert_eq!(
            all.iter().filter(|f| f.rule == "observer-purity").count(),
            1,
            "{writes:?}"
        );
        assert!(
            all.iter().any(|f| f.message.contains("`stamp`")),
            "{writes:?}"
        );
    }
}
