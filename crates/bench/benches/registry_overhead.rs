//! Hot-path cost of the streaming telemetry registry and the kernel
//! profiler.
//!
//! Runs the same short unstable smoke scenario with telemetry off and
//! on (registry + online detector, and additionally with full tracing),
//! and with only the kernel profiler on, and prints the relative
//! overheads. The registry hooks sit on the event-loop hot path
//! (`sim.events` is bumped per handled event) and the profiler counts
//! every drain, handler and push, so this is the honest worst case; the
//! acceptance bar is that both stay within a few percent of the
//! telemetry-off baseline.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlb_bench::history::{append_record, history_path, BenchMeta, HistoryPoint, HistoryRecord};
use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::run_experiment;
use mlb_ntier::metrics::MetricsConfig;
use mlb_ntier::trace::TraceConfig;

const BENCH_SECS: u64 = 2;

/// Overhead ceiling of every gated observer, in percent: generous, so
/// shared CI hosts do not flake, but a hot-path regression fails loudly.
const CEILING_PCT: f64 = 25.0;

/// Every observer off: the baseline.
fn off(_: &mut SystemConfig) {}

fn registry(cfg: &mut SystemConfig) {
    cfg.metrics = MetricsConfig::enabled_default();
}

fn registry_and_trace(cfg: &mut SystemConfig) {
    registry(cfg);
    cfg.trace = TraceConfig::enabled_default();
}

fn prof(cfg: &mut SystemConfig) {
    cfg.prof = true;
}

/// Runs the smoke scenario with `observers` applied to its config.
fn run(observers: fn(&mut SystemConfig)) -> u64 {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.duration = mlb_simkernel::time::SimDuration::from_secs(BENCH_SECS);
    observers(&mut cfg);
    let r = run_experiment(cfg).expect("smoke preset is valid");
    r.telemetry.response.total()
}

fn bench_registry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_overhead_2s");
    group.sample_size(10);
    group.bench_function("telemetry_off", |b| b.iter(|| black_box(run(off))));
    group.bench_function("registry_on", |b| b.iter(|| black_box(run(registry))));
    group.bench_function("registry_and_trace_on", |b| {
        b.iter(|| black_box(run(registry_and_trace)));
    });
    group.finish();
}

/// Prints the overhead percentages the CI bench gate greps for, and
/// enforces [`CEILING_PCT`] on each so a hot-path regression fails
/// loudly.
fn overhead_gate(_c: &mut Criterion) {
    // One warm-up run each, then `REPS` rounds that time every
    // configuration once, so a host slowdown lasting a few runs hits all
    // of them alike; each configuration's time is its median.
    const REPS: usize = 7;
    let configs: [fn(&mut SystemConfig); 3] = [off, registry, prof];
    let mut samples = [[0u128; REPS]; 3];
    for observers in configs {
        run(observers);
    }
    for rep in 0..REPS {
        for (i, observers) in configs.into_iter().enumerate() {
            let t0 = Instant::now();
            black_box(run(observers));
            samples[i][rep] = t0.elapsed().as_nanos();
        }
    }
    let [off_ns, registry_ns, prof_ns] = samples.map(|mut s| {
        s.sort_unstable();
        s[REPS / 2]
    });
    let ms = |ns: u128| ns as f64 / 1e6;
    let overhead = |name: &str, on_ns: u128| {
        let pct = 100.0 * (on_ns as f64 - off_ns as f64) / off_ns as f64;
        println!(
            "{name} overhead: telemetry off {:.1} ms, {name} on {:.1} ms => {pct:+.2}%",
            ms(off_ns),
            ms(on_ns)
        );
        pct
    };
    let overhead_pct = overhead("registry", registry_ns);
    let prof_overhead_pct = overhead("prof", prof_ns);
    // The smoke preset pins its own seed; record it with the trajectory.
    let mut record = HistoryRecord::new(&BenchMeta::capture(), "registry_overhead", vec![]);
    record.points.push(HistoryPoint::new(
        "smoke_2s",
        vec![
            ("overhead_pct", overhead_pct),
            ("off_ms", ms(off_ns)),
            ("on_ms", ms(registry_ns)),
            ("prof_overhead_pct", prof_overhead_pct),
        ],
    ));
    append_record(&history_path(), &record);
    assert!(
        overhead_pct < CEILING_PCT,
        "registry hot-path overhead regressed to {overhead_pct:.1}% (ceiling {CEILING_PCT}%)"
    );
    assert!(
        prof_overhead_pct < CEILING_PCT,
        "kernel profiler overhead regressed to {prof_overhead_pct:.1}% (ceiling {CEILING_PCT}%)"
    );
}

criterion_group!(benches, bench_registry_overhead, overhead_gate);
criterion_main!(benches);
