//! A finished run's simulated outcome, and the gates every run must pass.
//!
//! Everything here is a pure function of the simulation: at a given seed
//! an `Outcome` is identical on every host and every run, which is what
//! the determinism gates compare.

use mlb_metrics::registry::fnv1a;
use mlb_ntier::servers::ApacheServer;
use mlb_ntier::{MetricsReport, NTierSystem};
use mlb_simkernel::time::SimDuration;

use crate::workloads::Workload;

/// Start transient excluded from the steady-state completion rate: two
/// mean think times, by when the staggered first requests and their
/// replies have mixed into the steady closed loop.
pub const WARMUP_THINK_TIMES: u64 = 2;

/// Allowed gap between the steady completion rate and the closed-loop
/// offered load before a run counts as collapsed.
pub const THROUGHPUT_TOLERANCE: f64 = 0.10;

/// What one run simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Simulated seconds.
    pub horizon_s: f64,
    /// Events the kernel handled.
    pub events: u64,
    /// Requests clients issued.
    pub issued: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests that exhausted their retransmits or routing budget.
    pub failed: u64,
    /// Requests still in flight at the horizon.
    pub inflight: u64,
    /// Completed requests slower than 1 s.
    pub vlrt: u64,
    /// Mean response time of completed requests (ms).
    pub mean_rt_ms: f64,
    /// Completions per simulated second after the start transient.
    pub steady_rps: f64,
    /// Closed-loop offered load `clients / (think + service)`.
    pub offered_rps: f64,
    /// Accept-queue drops over all Apaches.
    pub drops: u64,
    /// TCP retransmissions.
    pub retransmits: u64,
    /// Connection-pool exhaustions over all Apaches.
    pub pool_exhaustions: u64,
    /// Millibottlenecks over all servers.
    pub millibottlenecks: u64,
    /// Balancer selections over all Apaches.
    pub selections: u64,
    /// get_endpoint "retry" answers over all Apaches.
    pub retries_advised: u64,
    /// get_endpoint give-ups over all Apaches.
    pub giveups: u64,
    /// Selections that found no candidate over all Apaches.
    pub no_candidate: u64,
    /// Request-arena inserts that grew the slot vector.
    pub arena_allocs: u64,
    /// Most simultaneously live requests.
    pub arena_peak_live: u64,
    /// FNV-1a digest of the telemetry the paper's figures are drawn from.
    pub telemetry_digest: u64,
    /// `TraceLog::digest`, when tracing was on.
    pub trace_digest: Option<u64>,
    /// VLRT cause records the trace attributed, when tracing was on.
    pub vlrt_causes: Option<u64>,
    /// `MetricsReport::digest`, when the registry was on.
    pub metrics_digest: Option<u64>,
    /// Detector flags raised, when the registry was on.
    pub detector_flags: Option<u64>,
}

impl Outcome {
    /// Collects the outcome of a finished system. Consumes the system so
    /// the observers' end-of-run export (trace log, registry report) is
    /// part of what the caller times.
    pub fn collect(system: NTierSystem, events: u64) -> Outcome {
        let cfg = system.config();
        let horizon = cfg.duration;
        let think = cfg.population.think_time_mean();
        let offered_rps = cfg.population.offered_load_rps(&cfg.mix);
        let apaches = system.apaches();
        let sum = |f: fn(&ApacheServer) -> u64| apaches.iter().map(f).sum::<u64>();
        let drops = sum(|a| a.accept_queue.drops());
        let pool_exhaustions = sum(|a| a.pools.iter().map(|p| p.exhaustions()).sum());
        let selections = sum(|a| a.balancer.stats().selections);
        let retries_advised = sum(|a| a.balancer.stats().retries_advised);
        let giveups = sum(|a| a.balancer.stats().giveups);
        let no_candidate = sum(|a| a.balancer.stats().no_candidate);
        let millibottlenecks = sum(|a| a.machine.millibottleneck_count())
            + system
                .tomcats()
                .iter()
                .map(|t| t.machine.millibottleneck_count())
                .sum::<u64>()
            + system.mysql().machine.millibottleneck_count();
        let arena = system.arena_stats();
        let inflight = system.inflight() as u64;
        let issued = system.requests_issued();
        let (telemetry, trace, metrics) = system.into_parts();

        let warmup = SimDuration::from_micros(WARMUP_THINK_TIMES * think.as_micros());
        let window = telemetry.rt_trace.window();
        let skip = (warmup.as_micros() / window.as_micros()) as usize;
        let steady: u64 = telemetry
            .rt_trace
            .windows()
            .iter()
            .skip(skip)
            .map(|w| w.count)
            .sum();
        let steady_s = horizon.as_secs_f64() - (skip as u64 * window.as_micros()) as f64 / 1e6;

        let mut words = vec![
            telemetry.response.total(),
            telemetry.response.vlrt_count(),
            telemetry.response.avg_ms().to_bits(),
            telemetry.response.max().as_micros(),
            telemetry.drops,
            telemetry.retransmits,
            telemetry.failed_requests,
            telemetry.routing_failures,
            telemetry.millibottlenecks,
        ];
        words.extend_from_slice(telemetry.histogram.buckets());
        words.extend_from_slice(telemetry.vlrt_per_window.counts());
        for w in telemetry.rt_trace.windows() {
            words.extend([w.count, w.sum.to_bits()]);
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();

        Outcome {
            horizon_s: horizon.as_secs_f64(),
            events,
            issued,
            completed: telemetry.response.total(),
            failed: telemetry.failed_requests,
            inflight,
            vlrt: telemetry.response.vlrt_count(),
            mean_rt_ms: telemetry.response.avg_ms(),
            steady_rps: steady as f64 / steady_s,
            offered_rps,
            drops,
            retransmits: telemetry.retransmits,
            pool_exhaustions,
            millibottlenecks,
            selections,
            retries_advised,
            giveups,
            no_candidate,
            arena_allocs: arena.allocs,
            arena_peak_live: arena.peak_live,
            telemetry_digest: fnv1a(&bytes),
            trace_digest: trace.as_ref().map(|t| t.digest()),
            vlrt_causes: trace.as_ref().map(|t| t.vlrt_causes().len() as u64),
            metrics_digest: metrics.as_ref().map(MetricsReport::digest),
            detector_flags: metrics.as_ref().map(|m| m.flags.len() as u64),
        }
    }

    /// Share of completed requests slower than 1 s (%).
    pub fn vlrt_pct(&self) -> f64 {
        100.0 * self.vlrt as f64 / self.completed.max(1) as f64
    }

    /// Share of issued requests that failed (%).
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.issued.max(1) as f64
    }

    /// The simulated outcome with the observer digests left out, for
    /// comparing runs of one seed with different observers switched on.
    pub fn without_observers(&self) -> Outcome {
        Outcome {
            trace_digest: None,
            vlrt_causes: None,
            metrics_digest: None,
            detector_flags: None,
            ..self.clone()
        }
    }
}

/// Checks that a run describes a valid, uncollapsed system. Returns
/// every violated gate.
pub fn validity_gate(workload: Workload, o: &Outcome) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    if o.issued != o.completed + o.failed + o.inflight {
        errors.push(format!(
            "conservation: issued {} != completed {} + failed {} + in flight {}",
            o.issued, o.completed, o.failed, o.inflight
        ));
    }
    let gap = (o.steady_rps - o.offered_rps) / o.offered_rps;
    if gap.abs() > THROUGHPUT_TOLERANCE {
        errors.push(format!(
            "throughput: {:.0} completions/s after warm-up is {:+.1} % off the offered {:.0}/s",
            o.steady_rps,
            100.0 * gap,
            o.offered_rps
        ));
    }
    if !workload.allows_failures() && o.failed != 0 {
        errors.push(format!("failures: {} failed requests", o.failed));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}
