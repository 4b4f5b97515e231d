//! The traced per-layer measurement (`--trace 1` and `report`).
//!
//! Each workload is run untraced and again with the kernel profiler on
//! (`SystemConfig::prof`, byte-identical by the golden tests), in
//! alternating rounds. Shares are handler nanoseconds of a group of event
//! kinds divided by traced wall time; counts come from public accessors
//! of the untraced run. `paper_observed` additionally runs toggled twins
//! of `paper_unstable` with one observer on each, which give each
//! observer's overhead.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::LazyLock;

use mlb_ntier::events::Event;
use mlb_ntier::{MetricsConfig, SystemConfig, TraceConfig};
use mlb_simkernel::prof::{KernelProfile, Phase};

use crate::outcome::validity_gate;
use crate::result::{median, quantile, BenchResult, Report};
use crate::run::{measure, Measured};
use crate::workloads::Workload;

/// Where span files and reports are written: `out/` beside this
/// package's manifest.
pub static OUT_DIR: LazyLock<PathBuf> =
    LazyLock::new(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));

/// Alternating untraced/traced rounds per workload.
pub const ROUNDS: usize = 2;

/// Event kinds by the layer whose code handles them. Together the groups
/// cover every kind in `Event::KIND_NAMES` exactly once.
pub const LAYER_KINDS: [(&str, &[&str]); 6] = [
    ("workload.share", &["client_issue", "client_done"]),
    ("netmodel.share", &["arrive_apache", "client_retransmit"]),
    (
        "core.route_share",
        &[
            "route_request",
            "endpoint_retry",
            "arrive_probe",
            "probe_reply",
            "probe_timeout",
        ],
    ),
    (
        "osmodel.share",
        &[
            "apache_cpu_done",
            "tomcat_cpu_done",
            "mysql_cpu_done",
            "pdflush_wake",
            "flush_end",
            "gc_start",
            "gc_end",
        ],
    ),
    (
        "ntier.dispatch_share",
        &[
            "arrive_tomcat",
            "db_dispatch",
            "arrive_mysql",
            "db_reply",
            "apache_reply",
        ],
    ),
    ("metrics.monitor_share", &["monitor_sample"]),
];

/// One configuration measured once per round.
struct Series {
    label: &'static str,
    cfg: SystemConfig,
    runs: Vec<Measured>,
}

impl Series {
    fn new(label: &'static str, cfg: SystemConfig) -> Series {
        Series {
            label,
            cfg,
            runs: Vec::new(),
        }
    }

    fn wall_s(&self) -> f64 {
        self.runs.iter().map(|m| m.wall_s).sum()
    }

    fn median_wall(&self) -> f64 {
        median(&self.runs.iter().map(|m| m.wall_s).collect::<Vec<_>>())
    }
}

/// Measures the per-layer split of `workload` at `seed`.
pub fn per_layer(workload: Workload, seed: u64) -> Report {
    let cfg = workload.config(seed);
    let mut untraced = Series::new(
        "untraced",
        SystemConfig {
            prof: false,
            ..cfg.clone()
        },
    );
    let mut traced = Series::new("traced", SystemConfig { prof: true, ..cfg });
    // Toggled twins of paper_unstable, one observer each (paper_observed only).
    let mut twins = Vec::new();
    if workload == Workload::PaperObserved {
        let plain = Workload::PaperUnstable.config(seed);
        twins.push(Series::new("plain", plain.clone()));
        twins.push(Series::new(
            "trace",
            SystemConfig {
                trace: TraceConfig::enabled_default(),
                ..plain.clone()
            },
        ));
        twins.push(Series::new(
            "registry",
            SystemConfig {
                metrics: MetricsConfig::enabled_default(),
                ..plain.clone()
            },
        ));
        twins.push(Series::new(
            "prof",
            SystemConfig {
                prof: true,
                ..plain
            },
        ));
    }

    let mut result = BenchResult::default();
    let mut spans_jsonl = String::new();
    for round in 0..ROUNDS {
        for series in [&mut untraced, &mut traced]
            .into_iter()
            .chain(twins.iter_mut())
        {
            let m = measure(series.cfg.clone());
            let label = format!("{} {} round {}", workload.name(), series.label, round + 1);
            spans_jsonl.push_str(&m.spans.to_jsonl(&label));
            series.runs.push(m);
        }
        // Gates: each run is valid, the traced twin and every repeat
        // match the first untraced run, and observers never change the
        // simulated outcome.
        let reference = &untraced.runs[0].outcome;
        for series in [&untraced, &traced].into_iter().chain(twins.iter()) {
            let o = &series.runs[round].outcome;
            let mut violations = validity_gate(workload, o).err().unwrap_or_default();
            let same_observers = series.cfg.trace.enabled == untraced.cfg.trace.enabled
                && series.cfg.metrics.enabled == untraced.cfg.metrics.enabled;
            let same = if same_observers {
                o == reference
            } else {
                o.without_observers() == reference.without_observers()
            };
            if !same {
                violations.push("simulated outcome differs from the untraced run".into());
            }
            result.check(&format!("{} round {}", series.label, round + 1), violations);
        }
    }

    let u = &untraced.runs[0].outcome;
    let profile = summed_profile(&traced.runs);
    let traced_ns = traced.wall_s() * 1e9;
    let share = |ns: u64| 100.0 * ns as f64 / traced_ns;
    let kind_ns = |name: &str| {
        let i = Event::KIND_NAMES
            .iter()
            .position(|k| *k == name)
            .expect("grouped kinds are event kinds");
        profile.kind_wall_ns[i]
    };

    let untraced_events: u64 = untraced.runs.iter().map(|m| m.outcome.events).sum();
    let wheel = untraced.runs[0].wheel.unwrap_or_default();
    result.count("simkernel.events", u.events);
    result.push(
        "simkernel.ns_per_event",
        untraced.wall_s() * 1e9 / untraced_events as f64,
        "ns",
    );
    result.push(
        "simkernel.drain_share",
        share(profile.phase_ns(Phase::Drain)),
        "%",
    );
    result.push(
        "simkernel.schedule_share",
        share(profile.phase_ns(Phase::Schedule)),
        "%",
    );
    result.count("simkernel.pending_peak", untraced.runs[0].pending_peak);
    result.count("simkernel.wheel.cascade_entries", wheel.cascade_entries);
    result.count(
        "simkernel.wheel.cursor_sorted_inserts",
        wheel.cursor_sorted_inserts,
    );
    result.count("simkernel.wheel.max_bucket_len", wheel.max_bucket_len);
    result.count("simkernel.wheel.node_peak_live", wheel.node_peak_live);

    let mut covered = profile.phase_ns(Phase::Drain);
    for (name, kinds) in LAYER_KINDS {
        let ns: u64 = kinds.iter().map(|k| kind_ns(k)).sum();
        covered += ns;
        result.push(name, share(ns), "%");
    }
    result.count("ntier.arena.peak_live", u.arena_peak_live);
    result.count("ntier.arena.allocs", u.arena_allocs);
    for (i, kind) in Event::KIND_NAMES.iter().enumerate() {
        result.count(
            format!("ntier.kind.{kind}.count"),
            profile.kind_counts[i] / traced.runs.len() as u64,
        );
        result.push(
            format!("ntier.kind.{kind}.share"),
            share(profile.kind_wall_ns[i]),
            "%",
        );
    }

    result.count("core.selections", u.selections);
    result.count("core.retries_advised", u.retries_advised);
    result.count("core.giveups", u.giveups);
    result.count("core.no_candidate", u.no_candidate);
    result.count("netmodel.drops", u.drops);
    result.count("netmodel.retransmits", u.retransmits);
    result.count("netmodel.pool_exhaustions", u.pool_exhaustions);
    result.count("osmodel.millibottlenecks", u.millibottlenecks);
    result.count("workload.requests_issued", u.issued);
    result.push("workload.failed_pct", u.failed_pct(), "%");

    // Fidelity against the workload's Table I row: raw value beside gap.
    let reference = workload.reference();
    result.push("fidelity.vlrt_pct", u.vlrt_pct(), "%");
    result.push(
        "fidelity.vlrt_err_pp",
        (u.vlrt_pct() - reference.vlrt_pct).abs(),
        "pp",
    );
    result.push("fidelity.mean_rt_ms", u.mean_rt_ms, "ms");
    result.push(
        "fidelity.rt_err_pct",
        100.0 * (u.mean_rt_ms - reference.mean_rt_ms).abs() / reference.mean_rt_ms,
        "%",
    );

    // An observer that is off costs nothing; on paper_observed each
    // overhead is its toggled twin against the plain twin.
    let overhead = |label: &str| {
        let plain = twins.iter().find(|s| s.label == "plain");
        let twin = twins.iter().find(|s| s.label == label);
        match (plain, twin) {
            (Some(p), Some(t)) => 100.0 * (t.median_wall() / p.median_wall() - 1.0),
            _ => 0.0,
        }
    };
    result.push("metrics.trace.overhead_pct", overhead("trace"), "%");
    result.push("metrics.registry.overhead_pct", overhead("registry"), "%");
    result.push("metrics.prof.overhead_pct", overhead("prof"), "%");
    result.count("metrics.trace.vlrt_causes", u.vlrt_causes.unwrap_or(0));
    result.count("metrics.detector.flags", u.detector_flags.unwrap_or(0));
    result.push(
        "metrics.export_s",
        median(&untraced.runs.iter().map(|m| m.export_s).collect::<Vec<_>>()),
        "s",
    );

    result.push(
        "bench.trace_overhead_pct",
        100.0 * (traced.wall_s() / untraced.wall_s() - 1.0),
        "%",
    );
    result.push("bench.traced_coverage_pct", share(covered), "%");
    let slices: Vec<f64> = untraced
        .runs
        .iter()
        .flat_map(|m| m.slice_ms.iter().copied())
        .collect();
    result.push("bench.slice_ms_p50", median(&slices), "ms");
    result.push("bench.slice_ms_p99", quantile(&slices, 0.99), "ms");

    Report {
        result,
        spans_jsonl,
    }
}

/// The kernel profiles of `runs`, summed.
fn summed_profile(runs: &[Measured]) -> KernelProfile {
    let mut profiles = runs.iter().map(|m| {
        m.profile
            .as_ref()
            .expect("traced runs profile")
            .kernel
            .clone()
    });
    let mut sum = profiles.next().expect("at least one traced run");
    for p in profiles {
        for (a, b) in sum.kind_counts.iter_mut().zip(&p.kind_counts) {
            *a += b;
        }
        for (a, b) in sum.kind_wall_ns.iter_mut().zip(&p.kind_wall_ns) {
            *a += b;
        }
        for i in 0..3 {
            sum.phase_counts[i] += p.phase_counts[i];
            sum.phase_wall_ns[i] += p.phase_wall_ns[i];
        }
    }
    sum
}

/// Writes the per-layer report of every workload to
/// `OUT_DIR/report.json` and, as an ASCII table with one column per
/// workload, to `OUT_DIR/report.txt`. Returns the table.
///
/// # Errors
///
/// Returns the I/O error if the output directory or a file cannot be
/// written.
pub fn write_report(seed: u64, reports: &[(Workload, Report)]) -> std::io::Result<String> {
    let workloads: Vec<String> = reports
        .iter()
        .map(|(w, r)| {
            format!(
                "\"{}\": {{\"correct\": {}, \"metrics\": {}}}",
                w.name(),
                r.result.correct(),
                r.result.metrics_json()
            )
        })
        .collect();
    let json = format!(
        "{{\"seed\": {seed}, \"workloads\": {{{}}}}}\n",
        workloads.join(", ")
    );

    let mut txt = format!("per-layer report, seed {seed} (shares are % of traced wall)\n\n");
    let _ = write!(txt, "{:<40}", "metric");
    for (w, _) in reports {
        let _ = write!(txt, " {:>16}", w.name());
    }
    txt.push_str("  unit\n");
    if let Some((_, first)) = reports.first() {
        for m in &first.result.metrics {
            let _ = write!(txt, "{:<40}", m.name);
            for (_, r) in reports {
                let v = r.result.get(&m.name).unwrap_or(f64::NAN);
                let _ = write!(txt, " {v:>16.3}");
            }
            let _ = writeln!(txt, "  {}", m.unit);
        }
    }

    std::fs::create_dir_all(&*OUT_DIR)?;
    std::fs::write(OUT_DIR.join("report.json"), json)?;
    std::fs::write(OUT_DIR.join("report.txt"), &txt)?;
    Ok(txt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_groups_partition_the_event_kinds() {
        let mut grouped: Vec<&str> = LAYER_KINDS
            .iter()
            .flat_map(|(_, k)| k.iter().copied())
            .collect();
        grouped.sort_unstable();
        let mut kinds = Event::KIND_NAMES.to_vec();
        kinds.sort_unstable();
        assert_eq!(grouped, kinds);
    }
}
