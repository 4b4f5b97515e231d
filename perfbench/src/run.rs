//! One timed run of the simulator, through its public API only:
//! `NTierSystem::build_simulation`, `Simulation::run_until` in one
//! simulated-second slices up to the horizon, then packaging and the
//! observers' export.
//!
//! The benchmark's own spans surround each of those calls. They stay in
//! memory and are written out by the caller when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use mlb_ntier::{NTierSystem, ProfileReport, SystemConfig};
use mlb_simkernel::queue::WheelStats;
use mlb_simkernel::time::{SimDuration, SimTime};

use crate::outcome::Outcome;

/// One timed interval of the benchmark's own code.
#[derive(Debug, Clone)]
struct Span {
    /// What the interval covers: `run`, `setup`, `slice` or `export`.
    name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Simulation events handled inside the span.
    events: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            events: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, in which `events` simulation events were
    /// handled, and returns its duration in seconds.
    pub fn close(&mut self, id: usize, events: u64) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.events = events;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// One JSON object per span, tagged with `label`.
    pub fn to_jsonl(&self, label: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{label}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"events\":{}}}",
                s.name, s.start_ns, s.end_ns, s.events
            );
        }
        out
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Measured {
    /// The simulated outcome.
    pub outcome: Outcome,
    /// `build_simulation` wall time (s).
    pub setup_s: f64,
    /// Wall time from the end of setup until results are packaged and
    /// exported (s).
    pub wall_s: f64,
    /// Wall time of packaging and export alone (s).
    pub export_s: f64,
    /// Wall time of each one-simulated-second slice (ms).
    pub slice_ms: Vec<f64>,
    /// Most events pending at any slice boundary.
    pub pending_peak: u64,
    /// Timer-wheel counters, when the queue is the wheel.
    pub wheel: Option<WheelStats>,
    /// The kernel profile and arena counters, when `cfg.prof` was on.
    pub profile: Option<ProfileReport>,
    /// The benchmark's spans around setup, slices and export.
    pub spans: Spans,
}

/// Builds a simulation and times it, without running it.
pub fn time_setup(cfg: SystemConfig) -> f64 {
    let start = Instant::now();
    let sim = NTierSystem::build_simulation(cfg).expect("benchmark configs are valid");
    let setup = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(sim));
    setup
}

/// Builds, runs to `cfg.duration` and packages one simulation.
pub fn measure(cfg: SystemConfig) -> Measured {
    let horizon_s = cfg.duration.as_micros() / 1_000_000;
    let mut spans = Spans::new();
    let run = spans.open("run", None);

    let setup = spans.open("setup", Some(run));
    let mut sim = NTierSystem::build_simulation(cfg).expect("benchmark configs are valid");
    let setup_s = spans.close(setup, 0);

    let mut slice_ms = Vec::with_capacity(horizon_s as usize);
    let mut pending_peak = sim.pending() as u64;
    for s in 1..=horizon_s {
        let slice = spans.open("slice", Some(run));
        let report = sim.run_until(SimTime::ZERO + SimDuration::from_secs(s));
        slice_ms.push(spans.close(slice, report.events_processed) * 1e3);
        pending_peak = pending_peak.max(sim.pending() as u64);
    }

    let export = spans.open("export", Some(run));
    let events = sim.events_processed();
    let wheel = sim.wheel_stats();
    let kernel = sim.profile_snapshot();
    let arena = sim.model().arena_stats();
    let profile = kernel.map(|kernel| ProfileReport { kernel, arena });
    // The profiler's own export is part of what the observers cost.
    if let Some(p) = &profile {
        std::hint::black_box(p.to_jsonl());
    }
    let outcome = Outcome::collect(sim.into_model(), events);
    let export_s = spans.close(export, 0);
    spans.close(run, events);
    let wall_s = (spans.spans[export].end_ns - spans.spans[setup].end_ns) as f64 / 1e9;

    Measured {
        outcome,
        setup_s,
        wall_s,
        export_s,
        slice_ms,
        pending_peak,
        wheel,
        profile,
        spans,
    }
}
