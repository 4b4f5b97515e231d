//! Per-function summaries and the one bottom-up engine that computes
//! them.
//!
//! For every function defined in the flow-analyzed crates this module
//! computes a [`FnSummary`] describing how values move *through* the
//! function and what it may *write*:
//!
//! * the taint lattices — which parameters flow to the return value,
//!   which reach an event-scheduling sink inside the body (directly or
//!   via further calls), whether the return value is itself a
//!   nondeterminism source or a hash-ordered collection, and which time
//!   unit it carries. A taint laundered through a helper —
//!   `sched.schedule(hop1(stamp), 0)` where `hop1` forwards to `hop2`
//!   which returns its argument — is therefore still reported at the
//!   one call site where the tainted value actually enters the flow;
//! * the write-effect sets — which parameters (by index and first
//!   projected field) and which statics the body may write, keeping
//!   only writes the state model classifies as **sim** state. The
//!   `observer-purity` rule reports a sim write once, at the outermost
//!   observation-gated call, instead of echoing it in the helper.
//!
//! Both halves come out of the same walk: `dataflow.rs` runs one body
//! walker in *summarize* mode per function per round.
//!
//! Like the rest of simlint's symbol layer, summaries are keyed by
//! *name*, not by resolved path: the hand-rolled parser has no type
//! information, so `Wheel::push` and `Vec::push` are the same node.
//! Names defined with conflicting arities are excluded outright and
//! counted ([`Summaries::dropped`]); callers fall back to the
//! conservative intra-procedural behavior. Same-arity same-name
//! definitions are merged by union, which over-approximates but never
//! misses a flow.
//!
//! Recursion and mutual calls terminate because summaries are computed
//! as a fixpoint over the call graph's strongly connected components:
//! Tarjan's algorithm (iterative, so adversarial call-chain depth
//! cannot overflow the stack) emits SCCs callees-first; single
//! functions are summarized once, and each cycle starts from the empty
//! summary and iterates until stable. Every summary field only ever
//! grows (bit-masks and sets union, flags latch), so the fixpoint is
//! reached in a bounded number of rounds.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_block_exprs, walk_fns, ExprKind, File, Func};
use crate::dataflow::{summarize_fn, Context, TaintKind};
use crate::effects::StateModel;
use crate::symbols::{Symbols, Unit, UnitAnnotations};

/// How values flow through one named function, and what it may write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Declared parameter count, `self` included.
    pub arity: usize,
    /// The first parameter is a `self` receiver.
    pub has_self: bool,
    /// Bitmask of parameters (bit *i* = param *i*, capped at 31) whose
    /// value can reach the function's return value.
    pub param_to_return: u32,
    /// Bitmask of parameters whose value can reach a scheduling sink
    /// (`schedule`/`push`/`SimTime` construction) inside the body,
    /// transitively through further calls.
    pub param_to_sink: u32,
    /// The return value originates from a nondeterminism source inside
    /// the body (wall clock, ambient RNG, hash-order iteration).
    pub returns_taint: Option<TaintKind>,
    /// The return value is (or contains) a hash-ordered collection.
    pub returns_hashy: bool,
    /// The declared time unit of the returned value, when every return
    /// path in the body agrees (a `_ms` local flowing out of a
    /// suffix-less helper). A unit in the function's own name wins at
    /// call sites; this fills the gap when there is none.
    pub returns_unit: Option<Unit>,
    /// `(parameter index, first projected field)` pairs the body may
    /// write, transitively. An empty field name means the parameter's
    /// own pointee (`*p = v`). Only **sim**-classified writes are
    /// recorded: observer writes are the whole point of the observer
    /// layers and carry no risk.
    pub sim_writes: BTreeSet<(usize, String)>,
    /// Names of sim statics the body may write, transitively.
    pub sim_statics: BTreeSet<String>,
}

impl FnSummary {
    /// The summary of a function that does nothing observable.
    pub(crate) fn empty(func: &Func) -> FnSummary {
        FnSummary {
            arity: func.params.len(),
            has_self: func
                .params
                .first()
                .is_some_and(|p| p.name.as_deref() == Some("self")),
            ..FnSummary::default()
        }
    }

    /// Union with another same-name definition (or with a recomputed
    /// iterate): the join only grows, which is what makes the SCC
    /// fixpoint terminate.
    fn join(&mut self, other: &FnSummary) {
        self.has_self |= other.has_self;
        self.param_to_return |= other.param_to_return;
        self.param_to_sink |= other.param_to_sink;
        self.returns_taint = self.returns_taint.or(other.returns_taint);
        self.returns_hashy |= other.returns_hashy;
        // First-wins keeps the join monotone; a genuine per-body
        // disagreement was already resolved to `None` by the walker.
        self.returns_unit = self.returns_unit.or(other.returns_unit);
        self.sim_writes.extend(other.sim_writes.iter().cloned());
        self.sim_statics.extend(other.sim_statics.iter().cloned());
    }

    /// No sim-state writes at all: safe to call from observation-gated
    /// code.
    pub fn is_pure(&self) -> bool {
        self.sim_writes.is_empty() && self.sim_statics.is_empty()
    }

    /// Short human rendering of the write-effect set, for the golden
    /// snapshot test.
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = self
            .sim_writes
            .iter()
            .map(|(i, f)| {
                if f.is_empty() {
                    format!("param {i}")
                } else if *i == 0 && self.has_self {
                    format!("self.{f}")
                } else {
                    format!("param {i}.{f}")
                }
            })
            .collect();
        parts.extend(self.sim_statics.iter().map(|s| format!("static {s}")));
        if parts.is_empty() {
            "pure".to_owned()
        } else {
            parts.join(", ")
        }
    }
}

/// Name-keyed function summaries. `None` marks a name excluded for
/// conflicting arities (mirroring `Symbols::fn_param_units`).
#[derive(Debug, Default)]
pub struct Summaries {
    map: BTreeMap<String, Option<FnSummary>>,
}

impl Summaries {
    /// The summary for `name`, if one exists and is unambiguous.
    pub fn get(&self, name: &str) -> Option<&FnSummary> {
        self.map.get(name).and_then(Option::as_ref)
    }

    /// Number of names excluded for conflicting arities. Exclusion is
    /// *correct* (callers degrade to intra-procedural analysis) but
    /// used to be silent; surfacing the count in the report keeps a
    /// creeping loss of interprocedural coverage visible.
    pub fn dropped(&self) -> usize {
        self.map.values().filter(|s| s.is_none()).count()
    }

    /// Stable text rendering of every write-effect summary, one
    /// `name: effects` line per function — the golden-snapshot surface.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, summary) in &self.map {
            match summary {
                Some(s) => out.push_str(&format!("{name}: {}\n", s.describe())),
                None => out.push_str(&format!("{name}: <conflicting arities>\n")),
            }
        }
        out
    }
}

/// One function definition as the engine sees it.
struct Def<'a> {
    /// The enclosing `impl` type, if any.
    owner: Option<&'a str>,
    func: &'a Func,
    anns: &'a UnitAnnotations,
}

/// Builds summaries for every function defined in `files` (skipping
/// `#[cfg(test)]` modules, like the symbol table does).
pub fn build(
    files: &[(&File, &UnitAnnotations)],
    symbols: &Symbols,
    model: &StateModel,
) -> Summaries {
    // 1. Collect definitions: name → [(owner, func, file's annotations)].
    let mut defs: BTreeMap<&str, Vec<Def<'_>>> = BTreeMap::new();
    for (file, anns) in files {
        walk_fns(file, &mut |owner, func| {
            defs.entry(func.name.as_str())
                .or_default()
                .push(Def { owner, func, anns });
        });
    }

    // 2. Exclude names whose definitions disagree on arity: a bitmask
    //    indexed by parameter position is meaningless across them, and
    //    deciding exclusion *before* the fixpoint keeps it monotone.
    let mut summaries = Summaries::default();
    let names: Vec<&str> = defs
        .iter()
        .filter(|(name, ds)| {
            let arities: BTreeSet<usize> = ds.iter().map(|d| d.func.params.len()).collect();
            if arities.len() > 1 {
                summaries.map.insert((**name).to_owned(), None);
                false
            } else {
                true
            }
        })
        .map(|(name, _)| *name)
        .collect();
    let index_of: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();

    // 3. Call edges at name granularity: every `name(..)` path call and
    //    `.name(..)` method call inside a body whose name we define.
    let adj: Vec<Vec<usize>> = names
        .iter()
        .map(|name| {
            let mut callees = BTreeSet::new();
            for d in &defs[name] {
                let Some(body) = &d.func.body else { continue };
                walk_block_exprs(body, &mut |e| {
                    let called = match &e.kind {
                        ExprKind::Call { callee, .. } => match &callee.kind {
                            ExprKind::Path(segs) => segs.last().map(String::as_str),
                            _ => None,
                        },
                        ExprKind::MethodCall { method, .. } => Some(method.as_str()),
                        _ => None,
                    };
                    if let Some(&j) = called.and_then(|c| index_of.get(c)) {
                        callees.insert(j);
                    }
                });
            }
            callees.into_iter().collect()
        })
        .collect();

    // 4. Summarize SCCs in reverse topological order; iterate within
    //    each SCC from the empty summary until stable. Bit-masks, sets
    //    and flags only grow, so each round either changes a summary or
    //    is the last; the bound is a safety net, not a budget that real
    //    code approaches.
    for scc in tarjan_sccs(&adj) {
        for &ni in &scc {
            let first = &defs[names[ni]][0];
            summaries
                .map
                .insert(names[ni].to_owned(), Some(FnSummary::empty(first.func)));
        }
        for _round in 0..64 {
            let mut changed = false;
            for &ni in &scc {
                let name = names[ni];
                let cx = Context {
                    symbols,
                    model,
                    summaries: &summaries,
                };
                let mut computed: Option<FnSummary> = None;
                for d in &defs[name] {
                    let s = summarize_fn(d.func, d.owner, d.anns, cx);
                    match computed.as_mut() {
                        Some(c) => c.join(&s),
                        None => computed = Some(s),
                    }
                }
                if let (Some(Some(current)), Some(computed)) =
                    (summaries.map.get_mut(name), computed)
                {
                    let before = current.clone();
                    current.join(&computed);
                    changed |= *current != before;
                }
            }
            if !changed {
                break;
            }
        }
    }
    summaries
}

/// Iterative Tarjan: returns SCCs in reverse topological order of the
/// condensation (every SCC appears after all SCCs it calls into have
/// been emitted), which is exactly the summarization order we need.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index: Vec<Option<u32>> = vec![None; n];
    let mut low: Vec<u32> = vec![0; n];
    let mut on_stack: Vec<bool> = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next: u32 = 0;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if index[start].is_some() {
            continue;
        }
        // Explicit DFS frames: (node, next-child cursor).
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = frames.last_mut() {
            let (v, ci) = *frame;
            if ci == 0 && index[v].is_none() {
                index[v] = Some(next);
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj[v].len() {
                frame.1 += 1;
                let w = adj[v][ci];
                if index[w].is_none() {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w].expect("visited node has an index"));
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if Some(low[v]) == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("SCC root is on the Tarjan stack");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::StateModel;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::symbols::{parse_state_annotations, parse_unit_annotations};

    fn summarize(src: &str) -> Summaries {
        let toks = lex(src);
        let file = parse_file(&toks);
        assert_eq!(file.recovered_skips, 0, "test source must parse");
        let (anns, bad) = parse_unit_annotations(&toks);
        assert!(bad.is_empty(), "{bad:?}");
        let (state_anns, bad) = parse_state_annotations(&toks);
        assert!(bad.is_empty(), "{bad:?}");
        let symbols = Symbols::build(&[(&file, &anns)]);
        let model = StateModel::build(&[(&file, &state_anns)]);
        build(&[(&file, &anns)], &symbols, &model)
    }

    #[test]
    fn identity_fn_maps_param_to_return() {
        let s = summarize("pub fn id(v: u64) -> u64 { v }");
        let sum = s.get("id").unwrap();
        assert_eq!(sum.param_to_return, 1);
        assert_eq!(sum.param_to_sink, 0);
    }

    #[test]
    fn two_hop_forwarding_composes() {
        let s = summarize(
            "pub fn hop2(v: u64) -> u64 { v }\n\
             pub fn hop1(v: u64) -> u64 { hop2(v) }",
        );
        assert_eq!(s.get("hop1").unwrap().param_to_return, 1);
    }

    #[test]
    fn sink_reaching_param_is_recorded_transitively() {
        let s = summarize(
            "pub fn inner(sched: &mut S, t: u64) { sched.schedule(t, 0); }\n\
             pub fn outer(sched: &mut S, t: u64) { inner(sched, t); }",
        );
        assert_eq!(s.get("inner").unwrap().param_to_sink, 0b10);
        assert_eq!(s.get("outer").unwrap().param_to_sink, 0b10);
    }

    #[test]
    fn source_in_body_marks_return_tainted() {
        let s = summarize("pub fn stamp() -> u64 { Instant::now() }");
        assert_eq!(
            s.get("stamp").unwrap().returns_taint,
            Some(TaintKind::WallClock)
        );
    }

    #[test]
    fn recursion_and_mutual_calls_terminate() {
        let s = summarize(
            "pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }\n\
             pub fn odd(n: u64) -> bool { if n == 0 { false } else { even(n - 1) } }\n\
             pub fn rec(v: u64) -> u64 { if v > 1 { rec(v) } else { v } }",
        );
        assert_eq!(s.get("rec").unwrap().param_to_return, 1);
        assert!(s.get("even").is_some());
    }

    #[test]
    fn conflicting_arities_are_excluded_and_counted() {
        let s = summarize(
            "pub fn f(a: u64) -> u64 { a }\n\
             pub mod inner { pub fn f(a: u64, b: u64) -> u64 { a + b } }\n\
             pub fn g(a: u64) -> u64 { a }",
        );
        assert!(s.get("f").is_none());
        assert!(s.get("g").is_some());
        assert_eq!(s.dropped(), 1, "the planted conflict must be counted");
    }

    #[test]
    fn return_unit_propagates_from_an_annotated_local() {
        let s = summarize(
            "pub fn current_window() -> u64 { let w_ms: u64 = 50; w_ms }\n\
             pub fn suffixed_ms() -> u64 { 50 }\n\
             pub fn unitless(v: u64) -> u64 { v }",
        );
        assert_eq!(
            s.get("current_window").unwrap().returns_unit,
            Some(Unit::Ms)
        );
        assert_eq!(s.get("unitless").unwrap().returns_unit, None);
    }

    #[test]
    fn conflicting_return_units_in_one_body_poison_to_none() {
        let s = summarize(
            "pub fn pick(flag: bool, a_ms: u64, b_us: u64) -> u64 {\n\
                 if flag { return a_ms; }\n\
                 b_us\n\
             }",
        );
        assert_eq!(s.get("pick").unwrap().returns_unit, None);
    }

    #[test]
    fn self_receiver_is_bit_zero() {
        let s = summarize(
            "pub struct W { q: Vec<u64> }\n\
             impl W { pub fn take(&mut self) -> Vec<u64> { self.q.clone() } }",
        );
        let sum = s.get("take").unwrap();
        assert!(sum.has_self);
        assert_eq!(sum.param_to_return & 1, 1);
    }

    #[test]
    fn cfg_test_fns_are_not_summarized() {
        let s = summarize("#[cfg(test)]\nmod tests { pub fn helper(v: u64) -> u64 { v } }");
        assert!(s.get("helper").is_none());
    }
}
