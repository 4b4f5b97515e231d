//! `simprof` — deterministic kernel self-profiling.
//!
//! The paper's argument is that coarse monitoring hides millibottlenecks;
//! the simulator's own toolchain has the same blind spot one level down:
//! `BENCH_kernel.json` shows events/sec collapsing as the population
//! grows, but nothing says *where* kernel time goes. This module is the
//! kernel's answer: per-event-kind counts and wall-ns totals, per-phase
//! timing (drain vs. handler vs. schedule), and — via
//! [`crate::queue::WheelStats`] — the timer wheel's structural counters.
//!
//! # The byte-identity contract
//!
//! Profiling is **off by default** and enabling it must never change a
//! simulation's outcome. The contract is structural:
//!
//! * the profiler only ever *reads* the wall clock and *writes* its own
//!   counters — no value derived from a wall-clock read flows into
//!   [`crate::time::SimTime`], the event queue, or any model state;
//! * every hook is an `Option` check on the unprofiled path, so the
//!   event order, RNG draws, and telemetry of a profiled run are
//!   bit-identical to an unprofiled one (the seed-7/8/42 golden trace
//!   digests pin this end to end);
//! * counts and kind classifications are pure functions of the event
//!   stream, so the `.count` side of a profile is itself deterministic;
//!   only `.wall_ns` values vary run to run, and the export digest
//!   excludes them (`mlb-metrics::prof::deterministic_digest`).
//!
//! # Sampling
//!
//! Reading the clock costs about as much as a cheap event, so timing
//! every drain, handler and push would make the profile mostly measure
//! itself. Instead every *count* is exact while only a deterministic
//! 1-in-[`SAMPLE_EVERY`] sample reads the clock, in three independent
//! streams — drain batches, handled events and pushes — each indexed by
//! its own running count. Each block of `SAMPLE_EVERY` consecutive items
//! of a stream holds exactly one sampled item, at an offset taken from a
//! SplitMix64 hash of the block number (salted per stream), so periodic
//! event patterns cannot alias with the sample and every run of a seed
//! samples the same items.
//!
//! A sampled handler does not also time its own pushes: those clock
//! reads would land inside, and inflate, the handler's interval. Push
//! samples are only taken inside handlers that are not sampled.
//!
//! After a run of untimed items the clock's own code and data are out
//! of cache, so a sampled bracket first makes one discarded read and only
//! then stamps its start; the miss lands outside the interval. Every
//! interval still contains one warm clock read's worth of overhead.
//! [`KernelProfiler::snapshot`] calibrates that empty-bracket cost (the
//! median of back-to-back clock-read pairs), subtracts it from every
//! sample, and scales each sampled total up to the exact count:
//! `wall_ns = sampled_ns × count / sampled`, in `u128` integers. A kind
//! with fewer than `SAMPLE_EVERY` events may never be sampled and then
//! reports 0 ns.
//!
//! All wall-clock reads in the entire kernel live in this module — the
//! one `Instant::now()` below carries the only `no-wall-clock` simlint
//! carve-out in the workspace's simulation crates. Clock values never
//! leave it: the kernel brackets work with the crate-private
//! `KernelProfiler::begin` / `end` calls, which trade in an opaque
//! `Stamp`.

use std::time::Instant;

use crate::queue::WheelStats;
use crate::rng::splitmix_finalise;

/// One item in this many of each sample stream reads the clock.
pub const SAMPLE_EVERY: u64 = 64;

/// Back-to-back clock-read pairs timed to calibrate the empty-bracket
/// cost; odd, so the median is one of them.
const CALIBRATION_PAIRS: usize = 63;

/// The kernel phases the profiler attributes wall time to.
///
/// `Handle` brackets the whole model callback, so time spent inside
/// [`crate::sim::Scheduler`] push calls (`Schedule`) is a *subset* of
/// `Handle`, not disjoint from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Locating and draining the next instant out of the event queue
    /// (`peek_time` + `drain_instant`, including wheel cascades).
    Drain,
    /// The model's event handler, end to end.
    Handle,
    /// `Scheduler::at`/`after`/`immediately` pushes issued by the
    /// handler (included in `Handle` as well).
    Schedule,
}

impl Phase {
    /// All phases, in export order.
    pub const ALL: [Phase; 3] = [Phase::Drain, Phase::Handle, Phase::Schedule];

    /// Stable lowercase label used in `prof.*` metric names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Drain => "drain",
            Phase::Handle => "handle",
            Phase::Schedule => "schedule",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Drain => 0,
            Phase::Handle => 1,
            Phase::Schedule => 2,
        }
    }
}

/// The start of a sampled bracket. Opaque outside this module, so a
/// wall-clock value cannot be routed anywhere but back into
/// [`KernelProfiler::end`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp(u64);

/// One sample stream: the exact item count and the timed subset.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Per-stream hash salt, so the three streams sample independently.
    salt: u64,
    /// Items seen so far; also the running index of the next item.
    count: u64,
    /// Index of the next item to time.
    next_sample: u64,
    /// Items timed.
    sampled: u64,
    /// Wall nanoseconds of the timed items, clock cost included.
    sampled_ns: u64,
}

impl Stream {
    fn new(salt: u64) -> Stream {
        Stream {
            salt,
            count: 0,
            next_sample: sample_index(salt, 0),
            sampled: 0,
            sampled_ns: 0,
        }
    }

    fn is_sample(&self) -> bool {
        self.count == self.next_sample
    }

    /// Counts one item, `spent` nanoseconds when it was timed.
    fn close(&mut self, spent: Option<u64>) {
        if self.is_sample() {
            self.next_sample = sample_index(self.salt, self.count / SAMPLE_EVERY + 1);
        }
        self.count += 1;
        if let Some(ns) = spent {
            self.sampled += 1;
            self.sampled_ns += ns;
        }
    }
}

/// Hash salts of the drain, handle and push streams ([`Phase::ALL`]
/// order).
const STREAM_SALTS: [u64; 3] = [0xd1, 0x4a, 0x5c];

/// Whether item `index` of `phase`'s stream is in the sample.
#[cfg(test)]
pub(crate) fn is_sampled(phase: Phase, index: u64) -> bool {
    index == sample_index(STREAM_SALTS[phase.index()], index / SAMPLE_EVERY)
}

/// The sampled item of block `block` of the stream salted with `salt`.
fn sample_index(salt: u64, block: u64) -> u64 {
    block * SAMPLE_EVERY + splitmix_finalise(block ^ salt) % SAMPLE_EVERY
}

/// Scales a sampled total up to `count` items: `sampled_ns × count /
/// sampled` in `u128`, which a product of two `u64`s cannot overflow.
/// Zero samples give 0; a result beyond `u64` saturates.
fn estimate(sampled_ns: u64, count: u64, sampled: u64) -> u64 {
    if sampled == 0 {
        return 0;
    }
    let ns = u128::from(sampled_ns) * u128::from(count) / u128::from(sampled);
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Live profiling state owned by a [`crate::sim::Simulation`].
///
/// Constructed by `Simulation::enable_profiling`; all accumulators are
/// plain `u64`s. Wall time is measured as nanoseconds since the
/// profiler's construction anchor, so individual reads are cheap
/// monotonic deltas.
#[derive(Debug)]
pub struct KernelProfiler {
    /// The single wall-clock anchor; every measurement is an elapsed
    /// delta against it. See the module docs for the carve-out argument.
    anchor: Instant,
    kind_names: &'static [&'static str],
    kind_counts: Vec<u64>,
    kind_sampled: Vec<u64>,
    kind_sampled_ns: Vec<u64>,
    /// Sample streams, [`Phase::ALL`] order.
    streams: [Stream; 3],
    /// Whether the handler now running is timed; its pushes are not.
    in_sampled_handler: bool,
}

impl KernelProfiler {
    /// Creates a profiler over the model's event-kind vocabulary.
    //
    // This is the one sanctioned wall-clock read in the sim crates: the
    // elapsed-ns deltas taken against this anchor feed only `prof.*`
    // counters and never reach SimTime, the queue, or model state (the
    // seed-7/8/42 golden digests pin profiled == unprofiled
    // byte-for-byte).
    // simlint::allow(no-wall-clock): single profiler anchor; deltas feed prof.* counters only
    pub fn new(kind_names: &'static [&'static str]) -> Self {
        KernelProfiler {
            anchor: Instant::now(),
            kind_names,
            kind_counts: vec![0; kind_names.len()],
            kind_sampled: vec![0; kind_names.len()],
            kind_sampled_ns: vec![0; kind_names.len()],
            streams: STREAM_SALTS.map(Stream::new),
            in_sampled_handler: false,
        }
    }

    /// Nanoseconds since the profiler was created.
    fn clock_ns(&self) -> u64 {
        let ns = self.anchor.elapsed().as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX)
    }

    /// Opens the bracket around the next item of `phase`'s stream:
    /// a [`Stamp`] when that item is sampled, `None` otherwise (and
    /// always for a push inside a sampled handler). A bracket that is
    /// never closed counts nothing.
    #[inline]
    pub(crate) fn begin(&mut self, phase: Phase) -> Option<Stamp> {
        if !self.streams[phase.index()].is_sample() {
            return None;
        }
        match phase {
            Phase::Schedule if self.in_sampled_handler => return None,
            Phase::Handle => self.in_sampled_handler = true,
            _ => {}
        }
        // After a stretch of untimed items the clock's code and data are
        // out of cache; a first, discarded read takes that miss before
        // the bracket opens instead of inside it.
        let _ = self.clock_ns();
        Some(Stamp(self.clock_ns()))
    }

    /// Closes a drain or push bracket opened by [`KernelProfiler::begin`].
    #[inline]
    pub(crate) fn end(&mut self, phase: Phase, stamp: Option<Stamp>) {
        let spent = self.spent_since(stamp);
        self.streams[phase.index()].close(spent);
    }

    /// Closes a handler bracket: one handled event of `kind`.
    #[inline]
    pub(crate) fn end_event(&mut self, kind: usize, stamp: Option<Stamp>) {
        let spent = self.spent_since(stamp);
        let i = kind.min(self.kind_counts.len().saturating_sub(1));
        self.kind_counts[i] += 1;
        if let Some(ns) = spent {
            self.kind_sampled[i] += 1;
            self.kind_sampled_ns[i] += ns;
        }
        self.streams[Phase::Handle.index()].close(spent);
        self.in_sampled_handler = false;
    }

    /// Handled events timed per kind.
    #[cfg(test)]
    pub(crate) fn kind_sampled(&self) -> &[u64] {
        &self.kind_sampled
    }

    fn spent_since(&self, stamp: Option<Stamp>) -> Option<u64> {
        stamp.map(|Stamp(start)| self.clock_ns().saturating_sub(start))
    }

    /// The cost of an empty bracket: the median of back-to-back
    /// clock-read pairs.
    fn clock_cost_ns(&self) -> u64 {
        let mut pairs = [0u64; CALIBRATION_PAIRS];
        for pair in &mut pairs {
            let start = self.clock_ns();
            *pair = self.clock_ns().saturating_sub(start);
        }
        pairs.sort_unstable();
        pairs[CALIBRATION_PAIRS / 2]
    }

    /// Freezes the accumulators into a plain-data snapshot, attaching
    /// the queue's wheel statistics when the wheel backend ran. Wall
    /// times are the calibrated, scaled-up estimates of the module docs.
    pub fn snapshot(&self, wheel: Option<WheelStats>) -> KernelProfile {
        let cost = self.clock_cost_ns();
        let scaled = |sampled_ns: u64, count: u64, sampled: u64| {
            estimate(
                sampled_ns.saturating_sub(cost.saturating_mul(sampled)),
                count,
                sampled,
            )
        };
        let kind_wall_ns = (0..self.kind_names.len())
            .map(|i| {
                scaled(
                    self.kind_sampled_ns[i],
                    self.kind_counts[i],
                    self.kind_sampled[i],
                )
            })
            .collect();
        KernelProfile {
            kind_names: self.kind_names,
            kind_counts: self.kind_counts.clone(),
            kind_wall_ns,
            phase_counts: self.streams.map(|s| s.count),
            phase_wall_ns: self
                .streams
                .map(|s| scaled(s.sampled_ns, s.count, s.sampled)),
            wheel,
        }
    }
}

/// A finished profile: plain integers, no clock handles.
///
/// The `*_counts` fields (and [`KernelProfile::wheel`]) are pure
/// functions of the event stream and therefore deterministic for a fixed
/// seed; the `*_wall_ns` fields are host timing, scaled up from a
/// deterministic sample, and vary run to run.
/// Exporters must keep the two separable — `mlb-metrics` names them
/// `prof.….count` vs `prof.….wall_ns` and digests only the former.
#[derive(Debug, Clone, PartialEq, Eq)]
// simlint::state(observer)
pub struct KernelProfile {
    /// Event-kind vocabulary, in the model's declaration order.
    pub kind_names: &'static [&'static str],
    /// Events handled per kind (deterministic).
    pub kind_counts: Vec<u64>,
    /// Wall nanoseconds spent in handlers per kind, estimated from the
    /// sampled handlers (nondeterministic).
    pub kind_wall_ns: Vec<u64>,
    /// Measurements per phase, [`Phase::ALL`] order (deterministic).
    pub phase_counts: [u64; 3],
    /// Wall nanoseconds per phase, [`Phase::ALL`] order, estimated from
    /// the sampled items (nondeterministic).
    pub phase_wall_ns: [u64; 3],
    /// Timer-wheel structural counters (deterministic), when the run
    /// used the wheel backend.
    pub wheel: Option<WheelStats>,
}

impl KernelProfile {
    /// Total events recorded across all kinds.
    pub fn events_total(&self) -> u64 {
        self.kind_counts.iter().sum()
    }

    /// Count for a phase.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_counts[phase.index()]
    }

    /// Wall nanoseconds for a phase.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_wall_ns[phase.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_have_stable_labels_and_order() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["drain", "handle", "schedule"]);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn record_event_bumps_kind_and_handle_phase() {
        let mut p = KernelProfiler::new(&["a", "b"]);
        for kind in [1, 1, 0] {
            let stamp = p.begin(Phase::Handle);
            p.end_event(kind, stamp);
        }
        let s = p.snapshot(None);
        assert_eq!(s.kind_counts, vec![1, 2]);
        assert_eq!(s.events_total(), 3);
        assert_eq!(s.phase_count(Phase::Handle), 3);
        assert_eq!(s.phase_count(Phase::Drain), 0);
    }

    #[test]
    fn out_of_range_kind_clamps_to_last_bucket() {
        let mut p = KernelProfiler::new(&["only"]);
        p.end_event(99, None);
        assert_eq!(p.snapshot(None).kind_counts, vec![1]);
    }

    #[test]
    fn clock_is_monotonic_enough_for_deltas() {
        let p = KernelProfiler::new(&["e"]);
        let a = p.clock_ns();
        let b = p.clock_ns();
        assert!(b >= a, "elapsed-ns deltas must not go backwards");
    }

    #[test]
    fn phase_add_accumulates() {
        let mut p = KernelProfiler::new(&["e"]);
        for phase in [Phase::Drain, Phase::Drain, Phase::Schedule] {
            let stamp = p.begin(phase);
            p.end(phase, stamp);
        }
        let s = p.snapshot(None);
        assert_eq!(s.phase_count(Phase::Drain), 2);
        assert_eq!(s.phase_count(Phase::Schedule), 1);
    }

    #[test]
    fn every_block_of_a_stream_holds_exactly_one_sample() {
        let mut stream = Stream::new(0x4a);
        let mut sampled = Vec::new();
        for _ in 0..100 * SAMPLE_EVERY {
            if stream.is_sample() {
                sampled.push(stream.count);
            }
            stream.close(None);
        }
        assert_eq!(sampled.len(), 100);
        for (block, index) in sampled.iter().enumerate() {
            assert_eq!(index / SAMPLE_EVERY, block as u64);
        }
        // The offsets within blocks vary, so a period-N event pattern
        // cannot line up with the sample.
        let mut offsets: Vec<u64> = sampled.iter().map(|i| i % SAMPLE_EVERY).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert!(offsets.len() > 30, "offsets barely vary: {offsets:?}");
    }

    #[test]
    fn streams_are_salted_apart() {
        let first = |salt| (0..8).map(|b| sample_index(salt, b)).collect::<Vec<_>>();
        assert_ne!(first(0xd1), first(0x4a));
        assert_ne!(first(0x4a), first(0x5c));
    }

    #[test]
    fn pushes_inside_a_sampled_handler_are_not_timed() {
        let mut p = KernelProfiler::new(&["e"]);
        for _ in 0..10 * SAMPLE_EVERY {
            let handler = p.begin(Phase::Handle);
            for _ in 0..3 {
                let push = p.begin(Phase::Schedule);
                assert!(
                    handler.is_none() || push.is_none(),
                    "a timed push inside a timed handler"
                );
                p.end(Phase::Schedule, push);
            }
            p.end_event(0, handler);
        }
        let handle = p.streams[Phase::Handle.index()];
        let push = p.streams[Phase::Schedule.index()];
        assert_eq!(handle.sampled, 10);
        assert_eq!(push.count, 30 * SAMPLE_EVERY);
        // Every push block picks one push, but the picks inside the ten
        // timed handlers are skipped rather than timed.
        assert!(push.sampled <= 30 && push.sampled >= 20, "{}", push.sampled);
    }

    #[test]
    fn estimate_of_zero_samples_is_zero() {
        assert_eq!(estimate(0, 0, 0), 0);
        assert_eq!(estimate(u64::MAX, 1_000, 0), 0);
    }

    #[test]
    fn estimate_scales_sampled_time_to_the_count() {
        assert_eq!(estimate(500, 640, 10), 32_000);
        assert_eq!(estimate(7, 3, 2), 10, "integer division rounds down");
        assert_eq!(estimate(1_000, 10, 10), 1_000, "all sampled: no scaling");
    }

    #[test]
    fn estimate_cannot_overflow_in_u128() {
        // The u64 × u64 product fits in u128; only the quotient saturates.
        assert_eq!(estimate(u64::MAX, u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(estimate(u64::MAX, 2, 4), u64::MAX / 2);
        assert_eq!(estimate(u64::MAX, u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn unsampled_items_leave_wall_time_at_zero() {
        // A stream that never reached its first sampled index.
        let mut p = KernelProfiler::new(&["rare", "never"]);
        let first = p.streams[Phase::Handle.index()].next_sample;
        for _ in 0..first {
            let stamp = p.begin(Phase::Handle);
            assert!(stamp.is_none());
            p.end_event(0, stamp);
        }
        let s = p.snapshot(None);
        assert_eq!(s.kind_counts, vec![first, 0]);
        assert_eq!(s.kind_wall_ns, vec![0, 0]);
        assert_eq!(s.phase_ns(Phase::Handle), 0);
    }
}
