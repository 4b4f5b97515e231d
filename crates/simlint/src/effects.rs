//! The sim-vs-observer state model behind the write-effect rules.
//!
//! The golden-digest suite proves the observer layers (tracing, live
//! metrics, kernel profiling) are behavior-preserving *dynamically*, on
//! three lucky seeds. The static counterpart lives in `callgraph.rs` and
//! `dataflow.rs`: every function's summary records which parameters (by
//! index and first projected field) and which statics the body may
//! write, transitively. This module decides what each written location
//! *is*: **sim** state (anything that feeds the event stream) or
//! **observer** state (the `Tracer` / `LiveMetrics` / `KernelProfiler`
//! / `TraceLog` family, extensible via `// simlint::state(observer)`
//! annotations on a struct, field, or static). Like every other
//! simlint fact it is name-keyed: the parser has no type information.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{File, Item, ItemKind};
use crate::symbols::annotation_at;

/// The built-in observer types: state owned by these never feeds the
/// simulation, only reports on it.
pub const OBSERVER_TYPES: [&str; 4] = ["Tracer", "LiveMetrics", "KernelProfiler", "TraceLog"];

/// The sim-vs-observer classification of a piece of state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateClass {
    /// State the event stream depends on; writing it changes the run.
    Sim,
    /// Pure observation state; writing it must never change the run.
    Observer,
}

impl StateClass {
    /// Parses a `simlint::state(...)` argument.
    pub fn from_annotation(s: &str) -> Option<StateClass> {
        match s.trim() {
            "sim" => Some(StateClass::Sim),
            "observer" => Some(StateClass::Observer),
            _ => None,
        }
    }
}

/// Per-line `// simlint::state(<class>)` annotations, keyed by the
/// comment's 1-based line; covers a declaration on the same line or the
/// line below (same convention as `UnitAnnotations`).
pub type StateAnnotations = BTreeMap<u32, StateClass>;

/// The workspace's state classification: which types are observers,
/// what class each named field resolves to.
#[derive(Debug, Default)]
pub struct StateModel {
    /// Type names classified observer (built-ins plus annotated).
    observer_types: BTreeSet<String>,
    /// Field name → class. Same-named fields declared with conflicting
    /// classes resolve to `Sim`: a sim write must never hide behind a
    /// name it shares with an observer field.
    field_class: BTreeMap<String, StateClass>,
    /// Fields whose declared type mentions `SystemConfig` — writes
    /// *through* them are always post-validate (`frozen-config`).
    config_fields: BTreeSet<String>,
    /// Fields whose declared type mentions an observer type *somewhere*
    /// in the workspace. Kept separately from `field_class` because the
    /// name-granular conflict rule demotes shared names to `Sim` (sound
    /// for write classification) — but a `self.metrics.as_mut()` gate
    /// and the binding it produces are identified by the declaration's
    /// *type*, and must survive a sim field elsewhere sharing the name.
    gate_fields: BTreeSet<String>,
    /// Statics/consts annotated `simlint::state(observer)`.
    observer_statics: BTreeSet<String>,
}

impl StateModel {
    /// Builds the model from parsed files and their state annotations.
    pub fn build(files: &[(&File, &StateAnnotations)]) -> StateModel {
        let mut m = StateModel::default();
        m.observer_types
            .extend(OBSERVER_TYPES.iter().map(|s| (*s).to_owned()));
        // Pass 1: collect annotated observer types, so pass 2 can
        // classify fields whose type mentions them (declaration order
        // across files must not matter).
        for (file, anns) in files {
            collect_types(&file.items, anns, &mut m);
        }
        for (file, anns) in files {
            collect_fields(&file.items, anns, &mut m);
        }
        m
    }

    /// Whether `name` is a type whose state is observation-only.
    pub fn is_observer_type(&self, name: &str) -> bool {
        self.observer_types.contains(name)
    }

    /// The class of a named field anywhere in the workspace. Unknown
    /// fields are sim state: everything is load-bearing until proven
    /// observational.
    pub fn field_class(&self, name: &str) -> StateClass {
        self.field_class
            .get(name)
            .copied()
            .unwrap_or(StateClass::Sim)
    }

    /// Whether `name` is declared (anywhere) as a field of observer
    /// type, or resolves observer outright — the set of fields whose
    /// `as_mut`/`as_ref`/`is_some` unwrapping counts as an observation
    /// gate, and whose unwrapped binding is the observer itself.
    pub fn is_gate_field(&self, name: &str) -> bool {
        self.gate_fields.contains(name) || self.field_class(name) == StateClass::Observer
    }

    /// Whether `name` is declared (anywhere) as a `SystemConfig`-typed
    /// field.
    pub(crate) fn is_config_field(&self, name: &str) -> bool {
        self.config_fields.contains(name)
    }

    /// The class of a named static; unannotated statics are sim state.
    pub(crate) fn static_class(&self, name: &str) -> StateClass {
        if self.observer_statics.contains(name) {
            StateClass::Observer
        } else {
            StateClass::Sim
        }
    }
}

fn collect_types(items: &[Item], anns: &StateAnnotations, m: &mut StateModel) {
    for item in items {
        match &item.kind {
            ItemKind::Struct(st)
                if annotation_at(anns, item.span.line) == Some(StateClass::Observer) =>
            {
                m.observer_types.insert(st.name.clone());
            }
            ItemKind::Const(c) if annotation_at(anns, c.line) == Some(StateClass::Observer) => {
                m.observer_statics.insert(c.name.clone());
            }
            ItemKind::Mod(md) if !md.cfg_test => collect_types(&md.items, anns, m),
            _ => {}
        }
    }
}

fn collect_fields(items: &[Item], anns: &StateAnnotations, m: &mut StateModel) {
    for item in items {
        match &item.kind {
            ItemKind::Struct(st) => {
                let owner_observer = m.observer_types.contains(&st.name);
                for field in &st.fields {
                    if field.ty.idents.iter().any(|i| i == "SystemConfig") {
                        m.config_fields.insert(field.name.clone());
                    }
                    if field.ty.idents.iter().any(|i| m.observer_types.contains(i))
                        || annotation_at(anns, field.line) == Some(StateClass::Observer)
                    {
                        m.gate_fields.insert(field.name.clone());
                    }
                    let class = annotation_at(anns, field.line).unwrap_or({
                        let ty_observer =
                            field.ty.idents.iter().any(|i| m.observer_types.contains(i));
                        if owner_observer || ty_observer {
                            StateClass::Observer
                        } else {
                            StateClass::Sim
                        }
                    });
                    m.field_class
                        .entry(field.name.clone())
                        .and_modify(|c| {
                            if *c != class {
                                *c = StateClass::Sim;
                            }
                        })
                        .or_insert(class);
                }
            }
            ItemKind::Mod(md) if !md.cfg_test => collect_fields(&md.items, anns, m),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Summaries;
    use crate::dataflow::tests::pipeline;
    use crate::dataflow::FlowFamilies;
    use crate::report::Finding;

    /// Full single-file pipeline: model, summaries, then the checker with
    /// every family enabled; returns the write findings.
    fn run(src: &str) -> (StateModel, Summaries, Vec<Finding>) {
        let (model, table, _, writes) = pipeline(src, FlowFamilies::all());
        (model, table, writes)
    }

    #[test]
    fn conflicting_field_classes_resolve_to_sim() {
        let (model, _, _) = run("// simlint::state(observer)\n\
             pub struct Probe { pub depth: u64 }\n\
             pub struct Queue { pub depth: u64 }\n");
        assert!(model.is_observer_type("Probe"));
        // `depth` is observer state on Probe but sim state on Queue;
        // the name-granular model must keep the load-bearing class.
        assert_eq!(model.field_class("depth"), StateClass::Sim);
    }

    #[test]
    fn annotated_static_is_observer_and_its_writes_vanish() {
        let (model, table, _) = run("// simlint::state(observer)\n\
             pub static SAMPLE_COUNT: AtomicU64 = AtomicU64::new(0);\n\
             pub fn bump() {\n    SAMPLE_COUNT.fetch_add(1, Ordering::Relaxed);\n}\n");
        assert_eq!(model.static_class("SAMPLE_COUNT"), StateClass::Observer);
        assert_eq!(table.get("bump").unwrap().describe(), "pure");
    }

    #[test]
    fn frozen_config_follows_clones() {
        let (_, _, findings) = run("pub struct SystemConfig { pub retries: u64 }\n\
             pub fn setup() -> u64 {\n\
                 let cfg = SystemConfig { retries: 0 };\n\
                 let mut copy = cfg.clone();\n\
                 copy.validate();\n\
                 copy.retries = 3;\n\
                 copy.retries\n\
             }\n");
        let frozen: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "frozen-config")
            .collect();
        assert_eq!(frozen.len(), 1, "{findings:?}");
        assert_eq!(frozen[0].line, 6, "{frozen:?}");
    }

    #[test]
    fn gate_survives_a_name_conflict_with_sim_state() {
        // The workspace has `metrics` both as an observer handle
        // (`Option<LiveMetrics>`) and as plain config state
        // (`MetricsConfig` on `SystemConfig`). The name-granular class
        // demotes `metrics` to sim — but `self.metrics.as_mut()` must
        // stay an observation gate (declaration *type* decides), and
        // writes through the unwrapped binding must stay pure.
        let src = "\
            pub struct MetricsConfig { pub window_us: u64 }\n\
            pub struct SystemConfig { pub metrics: MetricsConfig }\n\
            pub struct Sys { pub metrics: Option<LiveMetrics>, pub ticks: u64 }\n\
            impl Sys {\n\
                fn step(&mut self) {\n\
                    self.ticks += 1;\n\
                }\n\
                pub fn sample(&mut self) {\n\
                    if let Some(m) = self.metrics.as_mut() {\n\
                        m.record(1);\n\
                        self.step();\n\
                    }\n\
                }\n\
            }\n";
        let (model, _, findings) = run(src);
        assert_eq!(model.field_class("metrics"), StateClass::Sim);
        assert!(model.is_gate_field("metrics"));
        let purity: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "observer-purity")
            .collect();
        // Exactly one finding: the gated `self.step()` helper call.
        // `m.record(1)` writes the observer and must not be flagged.
        assert_eq!(purity.len(), 1, "{findings:?}");
        assert!(purity[0].message.contains("step"), "{:?}", purity[0]);
    }

    #[test]
    fn render_marks_conflicting_arities() {
        let (_, table, _) = run("pub mod a { pub fn poll(x: u64) -> u64 { x } }\n\
             pub mod b { pub fn poll(x: u64, y: u64) -> u64 { x + y } }\n");
        assert!(table.get("poll").is_none());
        assert!(
            table.render().contains("poll: <conflicting arities>"),
            "{}",
            table.render()
        );
    }

    #[test]
    fn observer_impl_methods_may_not_write_sim_state() {
        // An observer type's own methods are observation context from
        // line one — no `cfg.trace` guard needed for their writes to
        // foreign sim state to count.
        let (_, _, findings) = run("pub struct Tracer { pub events: u64 }\n\
             pub struct Wheel { pub slots: u64 }\n\
             impl Tracer {\n\
                 pub fn poke(&mut self, w: &mut Wheel) {\n\
                     self.events += 1;\n\
                     w.slots += 1;\n\
                 }\n\
             }\n");
        let purity: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "observer-purity")
            .collect();
        assert_eq!(purity.len(), 1, "{findings:?}");
        assert!(purity[0].message.contains("slots"), "{:?}", purity[0]);
    }
}
