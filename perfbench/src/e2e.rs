//! The untraced end-to-end measurement (`--trace 0`).
//!
//! One run of the benchmark repeats the workload's measured simulation
//! until `--seconds` have passed (at least twice), timing extra set-ups
//! before each repeat. Every repeat must pass the validity gate and
//! reproduce the first repeat's simulated outcome exactly.
//!
//! The host alternates between fast and slow phases lasting seconds, so
//! per-repeat times are bimodal and their median flips between the modes;
//! `wall_s_per_sim_s` is therefore total wall over total simulated time.

use std::time::{Duration, Instant};

use crate::outcome::{validity_gate, Outcome};
use crate::result::{median, BenchResult, Report};
use crate::run::{measure, time_setup};
use crate::workloads::Workload;

/// Fewest measured repeats in one run; two are needed for the
/// determinism gate.
pub const MIN_REPEATS: usize = 2;

/// Extra set-ups timed before each measured repeat. A single set-up of
/// the paper workloads takes ~2 ms and varies up to 2x from one to the
/// next; `setup_s` is the median over all of them and the repeats' own.
pub const EXTRA_SETUPS: usize = 24;

/// Runs the end-to-end measurement of `workload` at `seed` for about
/// `seconds` of wall time.
pub fn end_to_end(workload: Workload, seed: u64, seconds: u64) -> Report {
    let cfg = workload.config(seed);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut result = BenchResult::default();
    let mut setups = Vec::new();
    let (mut wall_s, mut sim_s, mut repeats) = (0.0, 0.0, 0);
    let mut first: Option<Outcome> = None;
    let mut spans_jsonl = String::new();
    loop {
        let started = Instant::now();
        for _ in 0..EXTRA_SETUPS {
            setups.push(time_setup(cfg.clone()));
        }
        let m = measure(cfg.clone());
        repeats += 1;
        let label = format!("{} repeat {repeats}", workload.name());
        spans_jsonl.push_str(&m.spans.to_jsonl(&label));
        setups.push(m.setup_s);
        wall_s += m.wall_s;
        sim_s += m.outcome.horizon_s;

        let mut violations = validity_gate(workload, &m.outcome)
            .err()
            .unwrap_or_default();
        match &first {
            None => first = Some(m.outcome),
            Some(f) if *f != m.outcome => violations.push(format!(
                "determinism: outcome differs from repeat 1 at seed {seed}"
            )),
            Some(_) => {}
        }
        result.check(&format!("repeat {repeats}"), violations);

        // Stop once the deadline is nearer than half a repeat away.
        let repeat = started.elapsed();
        if repeats >= MIN_REPEATS && Instant::now() + repeat / 2 >= deadline {
            break;
        }
    }

    let o = first.expect("at least one repeat ran");
    let reference = workload.reference();
    eprintln!(
        "{} seed {seed}: {} repeats of {} sim-s; completed {} failed {} ({:.4} %) \
         in flight {}; VLRT {:.3} % (Table I {}: {:.2} %); mean RT {:.3} ms (Table I: {:.2} ms); \
         steady {:.1}/s vs offered {:.1}/s",
        workload.name(),
        repeats,
        o.horizon_s,
        o.completed,
        o.failed,
        o.failed_pct(),
        o.inflight,
        o.vlrt_pct(),
        reference.label,
        reference.vlrt_pct,
        o.mean_rt_ms,
        reference.mean_rt_ms,
        o.steady_rps,
        o.offered_rps,
    );
    result.push("wall_s_per_sim_s", wall_s / sim_s, "s/s");
    result.push("setup_s", median(&setups), "s");
    result.push("peak_rss_mib", peak_rss_mib(), "MiB");
    result.push("completed_rps", o.steady_rps, "1/s");
    Report {
        result,
        spans_jsonl,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
