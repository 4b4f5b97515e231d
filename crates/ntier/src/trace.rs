//! Per-request event tracing for the n-tier system.
//!
//! [`Tracer`] is the simulator-facing half of the milliScope-style
//! instrumentation: [`crate::system::NTierSystem`] hands it one
//! [`SpanKind`] record per lifecycle transition through
//! [`Tracer::record_span`], and the tracer assembles a
//! [`RequestTrace`](mlb_metrics::spans::RequestTrace) per in-flight
//! request, finalizing it into a [`TraceLog`] on completion or failure.
//! Millibottleneck windows (pdflush flushes, GC pauses) are recorded as
//! [`StallWindow`](mlb_metrics::spans::StallWindow)s so every
//! very-long-response-time request can be attributed to the freeze it
//! overlapped.
//!
//! Tracing is **off by default** ([`TraceConfig::disabled`]) and costs a
//! single branch per record when disabled: no allocation, no hashing, no
//! event is recorded, and the simulation's event stream is untouched
//! either way (tracing is purely observational — it never schedules or
//! perturbs anything).

use mlb_metrics::spans::{RequestTrace, SpanEvent, SpanKind, StallKind, TraceLog};
use mlb_metrics::summary::VLRT_THRESHOLD;
use mlb_simkernel::time::SimTime;

use crate::events::ServerRef;
use crate::request::RequestId;
use crate::slab::RequestArena;

/// Configuration of the per-request tracer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When off, every record is a single branch.
    pub enabled: bool,
    /// Completed traces retained in the ring (oldest evicted first).
    /// VLRT attribution is streaming and unaffected by this bound.
    pub recent_capacity: usize,
    /// Fully-reconstructed VLRT causal chains retained for rendering.
    pub vlrt_capacity: usize,
    /// 1-in-N deterministic request sampling: only requests whose id is
    /// divisible by `sample_every` are traced (1 = trace everything).
    /// Ids are issued sequentially, so a sampled run's traces are a
    /// strict subset — event for event — of the full-trace run's, and
    /// the selection is identical across platforms and reruns. Stall
    /// windows are always recorded; they are per-server, not
    /// per-request. Must be ≥ 1.
    pub sample_every: u64,
}

impl TraceConfig {
    /// Tracing off (the default; zero cost beyond one branch per record).
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            recent_capacity: 0,
            vlrt_capacity: 0,
            sample_every: 1,
        }
    }

    /// Tracing on with bounds suitable for the paper-scale runs: every
    /// completed trace of a smoke run is retained, and enough VLRT
    /// chains for any figure.
    pub fn enabled_default() -> Self {
        TraceConfig {
            enabled: true,
            recent_capacity: 1 << 20,
            vlrt_capacity: 4_096,
            sample_every: 1,
        }
    }

    /// Full tracing of every `every`-th request (production-scale runs
    /// where retaining every trace would be too heavy).
    pub fn sampled(every: u64) -> Self {
        TraceConfig {
            sample_every: every,
            ..TraceConfig::enabled_default()
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Assembles per-request traces from the system's lifecycle records.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// 1-in-N id sampling (see [`TraceConfig::sample_every`]).
    sample_every: u64,
    /// In-flight traces in a generational slab arena (O(1) keyed access,
    /// deterministic slot-index iteration). Keyed by `id / sample_every`:
    /// sampled ids are exact multiples, so arena keys stay dense and the
    /// sliding window tracks the live span even under heavy sampling.
    live: RequestArena<RequestTrace>,
    log: TraceLog,
    /// Event buffers recycled from retired traces (ring evictions), so
    /// steady-state tracing stops allocating span storage once the log
    /// ring is warm. Bounded by the in-flight population: each finalize
    /// banks at most one buffer and each new trace withdraws one.
    spare_events: Vec<Vec<SpanEvent>>,
}

impl Tracer {
    /// Builds a tracer from its configuration.
    pub fn new(cfg: &TraceConfig) -> Self {
        Tracer {
            enabled: cfg.enabled,
            sample_every: cfg.sample_every.max(1),
            live: RequestArena::new(),
            log: TraceLog::new(cfg.recent_capacity, cfg.vlrt_capacity),
            spare_events: Vec::new(),
        }
    }

    /// Event buffers currently banked for reuse (observability for the
    /// steady-state allocation tests).
    pub fn spare_event_buffers(&self) -> usize {
        self.spare_events.len()
    }

    /// Whether tracing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The trace log, if tracing is on.
    pub fn log(&self) -> Option<&TraceLog> {
        self.enabled.then_some(&self.log)
    }

    /// Consumes the tracer, returning the log if tracing was on.
    pub fn into_log(self) -> Option<TraceLog> {
        self.enabled.then_some(self.log)
    }

    /// Records one lifecycle transition of request `id` at `at`.
    /// `Completed` and `Failed` end the request: its trace is finalized
    /// into the log, and attributed if it is a VLRT.
    pub fn record_span(&mut self, id: RequestId, at: SimTime, kind: SpanKind) {
        if !self.enabled || !id.0.is_multiple_of(self.sample_every) {
            return;
        }
        // The arena key of a sampled id: exact multiples of
        // `sample_every` compress to consecutive keys, keeping the arena
        // window dense.
        let key = id.0 / self.sample_every;
        if let SpanKind::Completed { .. } | SpanKind::Failed { .. } = kind {
            if let Some(mut trace) = self.live.remove(key) {
                trace.push(at, kind);
                // Bank whatever buffer the log retires for the next
                // in-flight trace.
                if let Some(retired) = self.log.record(trace, VLRT_THRESHOLD) {
                    self.spare_events.push(retired.into_events());
                }
            }
            return;
        }
        let spare = &mut self.spare_events;
        if let Some(trace) = self.live.get_or_insert_with(key, || match spare.pop() {
            Some(events) => RequestTrace::recycled(id.0, events),
            None => RequestTrace::new(id.0),
        }) {
            trace.push(at, kind);
        }
    }

    /// A millibottleneck began on `server`, freezing it over
    /// `[start, end]`.
    pub fn stall(&mut self, server: ServerRef, kind: StallKind, start: SimTime, end: SimTime) {
        if !self.enabled {
            return;
        }
        self.log.record_stall(server.to_string(), kind, start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlb_metrics::spans::Segment;
    use mlb_simkernel::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    /// Request `raw`: issued at `raw` ms, completed 1 ms later.
    fn one_ms_request(tr: &mut Tracer, raw: u64) {
        let (id, client, apache) = (RequestId(raw), 0, 0);
        tr.record_span(id, t(raw), SpanKind::Issued { client, apache });
        tr.record_span(id, t(raw + 1), SpanKind::Completed { rt: ms(1) });
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(&TraceConfig::disabled());
        one_ms_request(&mut tr, 1);
        assert!(!tr.enabled());
        assert!(tr.log().is_none());
        assert!(tr.into_log().is_none());
    }

    #[test]
    fn full_lifecycle_assembles_ordered_trace() {
        use SpanKind::*;
        let mut tr = Tracer::new(&TraceConfig::enabled_default());
        let id = RequestId(4);
        let (client, apache, backend) = (9, 1, 1);
        let (wait, sleep, lb_value, queued) = (ms(1_000), ms(100), 17, true);
        for (at, kind) in [
            (0, Issued { client, apache }),
            (1, Dropped { attempt: 1 }),
            (1, RetransmitScheduled { attempt: 2, wait }),
            (1_001, Arrived { attempt: 2 }),
            (1_002, Admitted),
            (1_003, RoutingStarted),
            (1_003, EndpointBusy { backend: 0, sleep }),
            (1_103, EndpointGaveUp { backend: 0 }),
            (1_104, EndpointAcquired { backend, lb_value }),
            (1_105, ArrivedBackend { backend, queued }),
            (1_110, BackendStarted),
            (1_111, DbDispatched { remaining: 1 }),
            (1_120, Responding),
            (1_121, RepliedFrontend),
            (1_122, Completed { rt: ms(1_122) }),
        ] {
            tr.record_span(id, t(at), kind);
        }
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 1);
        assert_eq!(log.summary.vlrt_total, 1);
        let cause = &log.vlrt_causes()[0];
        assert_eq!(cause.dominant, Segment::RetransmitWait);
        // Ordered and monotone.
        let trace = log.recent().next().unwrap();
        assert!(trace.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(
            trace.segments_us().unwrap().iter().sum::<u64>(),
            trace.response_time().unwrap().as_micros()
        );
    }

    #[test]
    fn stalls_are_labelled_by_server() {
        let mut tr = Tracer::new(&TraceConfig::enabled_default());
        tr.stall(ServerRef::Tomcat(1), StallKind::Flush, t(10), t(200));
        tr.stall(ServerRef::Apache(0), StallKind::Gc, t(300), t(350));
        let log = tr.log().unwrap();
        assert_eq!(log.stalls[0].server, "tomcat2");
        assert_eq!(log.stalls[1].server, "apache1");
    }

    #[test]
    fn sampling_selects_exactly_the_divisible_ids() {
        let mut tr = Tracer::new(&TraceConfig::sampled(3));
        for raw in 0..10u64 {
            one_ms_request(&mut tr, raw);
        }
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 4); // ids 0, 3, 6, 9
        let ids: Vec<u64> = log.recent().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 3, 6, 9]);
    }

    #[test]
    fn stalls_are_recorded_regardless_of_sampling() {
        let mut tr = Tracer::new(&TraceConfig::sampled(1_000));
        tr.stall(ServerRef::MySql, StallKind::Flush, t(0), t(100));
        assert_eq!(tr.log().unwrap().stalls.len(), 1);
    }

    #[test]
    fn retired_traces_donate_their_event_buffers() {
        let mut cfg = TraceConfig::enabled_default();
        cfg.recent_capacity = 2;
        let mut tr = Tracer::new(&cfg);
        // Sequential requests: once the 2-deep ring is warm, every
        // finalize retires a trace whose buffer the next request reuses.
        for raw in 0..10u64 {
            one_ms_request(&mut tr, raw);
        }
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 10);
        assert_eq!(log.recent().count(), 2);
        // 8 evictions banked, 7 withdrawn by requests 3..10 (the first
        // withdrawal can only happen once an eviction has banked one).
        assert_eq!(tr.spare_event_buffers(), 1);
    }

    #[test]
    fn capacity_zero_log_recycles_every_buffer() {
        let mut cfg = TraceConfig::enabled_default();
        cfg.recent_capacity = 0;
        let mut tr = Tracer::new(&cfg);
        for raw in 0..5u64 {
            one_ms_request(&mut tr, raw);
        }
        let log = tr.log().unwrap();
        assert_eq!(log.completed, 5);
        assert_eq!(log.recent().count(), 0);
        assert_eq!(tr.spare_event_buffers(), 1);
    }

    #[test]
    fn failed_request_is_finalized_as_failed() {
        let mut tr = Tracer::new(&TraceConfig::enabled_default());
        let id = RequestId(2);
        let (client, apache) = (0, 0);
        tr.record_span(id, t(0), SpanKind::Issued { client, apache });
        tr.record_span(id, t(1), SpanKind::Dropped { attempt: 1 });
        tr.record_span(id, t(7_001), SpanKind::Failed { elapsed: ms(7_001) });
        let log = tr.log().unwrap();
        assert_eq!(log.failed, 1);
        assert_eq!(log.completed, 0);
    }
}
