//! Deterministic streaming telemetry registry.
//!
//! A milliScope-style telemetry bus: typed instruments (counters, gauges,
//! log-scale histograms) are registered **by name** up front, every
//! recording is aggregated into fixed sub-50 ms windows using pure
//! integer-µs arithmetic (no float summation order hazards), and closed
//! windows are drained incrementally through pluggable [`MetricSink`]s —
//! a JSONL event stream for offline analysis, CSV for plotting, or an
//! in-memory vector for tests.
//!
//! Determinism is structural, not aspirational:
//!
//! * instruments live in a `Vec` indexed by registration order — there is
//!   no name hashing anywhere, so identical runs drain identical records
//!   in identical order;
//! * all accumulators are `u64` (counts, integer sums, mins, maxes,
//!   power-of-two histogram buckets), so window aggregates are exact and
//!   platform-independent;
//! * the JSONL export is hand-rolled with a fixed key order, making its
//!   FNV-1a digest a golden value that can be pinned in tests.
//!
//! The hot-path cost of a recording is one window-roll check plus a few
//! integer ops on a pre-allocated cell; `registry_overhead` in
//! `crates/bench` keeps the end-to-end cost honest.

use std::collections::VecDeque;

use mlb_simkernel::time::{SimDuration, SimTime};

use crate::csv::CsvTable;

/// The three instrument types the registry understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count; the window aggregate sums the increments.
    Counter,
    /// Sampled level (queue depth, dirty bytes); the window aggregate
    /// keeps min/max/last of the sampled values.
    Gauge,
    /// Streaming distribution of integer-µs (or byte) observations with
    /// log₂-scale buckets.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Opaque handle returned by registration; indexes the registry's
/// instrument table (registration order, no hashing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// One closed aggregation window for one instrument.
///
/// All fields are integers so the record is exact and its serialized
/// form is bit-stable across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRecord {
    /// Index of the instrument in registration order.
    pub metric: usize,
    /// Window ordinal (window `w` covers `[w·W, (w+1)·W)`).
    pub window: u64,
    /// Window start in integer µs (`w · W`).
    pub start_us: u64,
    /// Number of recordings that landed in the window.
    pub count: u64,
    /// Integer sum of recorded values (increments / samples / µs).
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Last recorded value (gauges: the level at window close).
    pub last: u64,
    /// Non-empty log₂ buckets as `(bit_width, count)` pairs, ascending.
    /// Bucket `b` holds values whose bit width is `b` (0 holds the value
    /// zero). Empty for counters and gauges.
    pub buckets: Vec<(u8, u64)>,
}

/// Receives closed windows as they are drained from the registry.
pub trait MetricSink {
    /// Called once per closed, non-empty (metric, window) pair, in
    /// deterministic order (window, then registration order).
    fn on_window(&mut self, name: &str, kind: MetricKind, record: &WindowRecord);
}

#[derive(Debug)]
struct MetricDef {
    name: String,
    kind: MetricKind,
}

/// Live accumulator for one instrument in the currently open window.
#[derive(Debug, Clone)]
struct Cell {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    last: u64,
    /// 65 buckets (bit widths 0..=64) for histograms, empty otherwise.
    buckets: Vec<u64>,
}

impl Cell {
    fn new(kind: MetricKind) -> Self {
        Cell {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            last: 0,
            buckets: match kind {
                MetricKind::Histogram => vec![0; 65],
                _ => Vec::new(),
            },
        }
    }

    fn reset(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.last = 0;
        for b in &mut self.buckets {
            *b = 0;
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
        if !self.buckets.is_empty() {
            let width = (u64::BITS - value.leading_zeros()) as usize;
            self.buckets[width] += 1;
        }
    }
}

/// The streaming registry: instruments, the open window, and the queue
/// of closed-but-undrained [`WindowRecord`]s.
#[derive(Debug)]
// simlint::state(observer)
pub struct Registry {
    window: SimDuration,
    defs: Vec<MetricDef>,
    cells: Vec<Cell>,
    /// Ordinal of the currently open window; `None` until first record.
    open: Option<u64>,
    pending: VecDeque<WindowRecord>,
    finished: bool,
}

impl Registry {
    /// Creates a registry aggregating into fixed windows of `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a zero-width window cannot bucket
    /// time.
    pub fn new(window: SimDuration) -> Self {
        assert!(
            window.as_micros() > 0,
            "registry window must be a positive duration"
        );
        Registry {
            window,
            defs: Vec::new(),
            cells: Vec::new(),
            open: None,
            pending: VecDeque::new(),
            finished: false,
        }
    }

    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no instruments are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Name of an instrument (registration order).
    pub fn name(&self, id: MetricId) -> &str {
        &self.defs[id.0].name
    }

    fn register(&mut self, name: &str, kind: MetricKind) -> MetricId {
        debug_assert!(
            !self.defs.iter().any(|d| d.name == name),
            "metric `{name}` registered twice"
        );
        self.defs.push(MetricDef {
            name: name.to_owned(),
            kind,
        });
        self.cells.push(Cell::new(kind));
        MetricId(self.defs.len() - 1)
    }

    /// Registers a counter.
    pub fn register_counter(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Counter)
    }

    /// Registers a gauge.
    pub fn register_gauge(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Gauge)
    }

    /// Registers a log₂-bucket streaming histogram.
    pub fn register_histogram(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Histogram)
    }

    /// Closes the open window (if any) and pushes its non-empty cells
    /// onto the pending queue in registration order.
    fn close_open(&mut self) {
        let Some(w) = self.open else { return };
        let start_us = w * self.window.as_micros();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if cell.count == 0 {
                continue;
            }
            let buckets: Vec<(u8, u64)> = cell
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(b, n)| (b as u8, *n))
                .collect();
            self.pending.push_back(WindowRecord {
                metric: i,
                window: w,
                start_us,
                count: cell.count,
                sum: cell.sum,
                min: cell.min,
                max: cell.max,
                last: cell.last,
                buckets,
            });
            cell.reset();
        }
    }

    /// Rolls the open window forward to the one containing `now`.
    fn roll(&mut self, now: SimTime) {
        let w = now.as_micros() / self.window.as_micros();
        match self.open {
            Some(open) if open == w => {}
            Some(open) => {
                debug_assert!(w > open, "registry time went backwards");
                self.close_open();
                self.open = Some(w);
            }
            None => self.open = Some(w),
        }
    }

    fn record(&mut self, id: MetricId, now: SimTime, value: u64) {
        debug_assert!(!self.finished, "recording into a finished registry");
        self.roll(now);
        self.cells[id.0].record(value);
    }

    /// Adds `n` to a counter at simulated time `now`.
    pub fn incr(&mut self, id: MetricId, now: SimTime, n: u64) {
        debug_assert_eq!(self.defs[id.0].kind, MetricKind::Counter);
        self.record(id, now, n);
    }

    /// Samples a gauge level at simulated time `now`.
    pub fn gauge_set(&mut self, id: MetricId, now: SimTime, value: u64) {
        debug_assert_eq!(self.defs[id.0].kind, MetricKind::Gauge);
        self.record(id, now, value);
    }

    /// Observes one integer value (µs, bytes, …) into a histogram.
    pub fn observe(&mut self, id: MetricId, now: SimTime, value: u64) {
        debug_assert_eq!(self.defs[id.0].kind, MetricKind::Histogram);
        self.record(id, now, value);
    }

    /// Closes the tail window. Call once when the run ends; further
    /// recordings are a logic error (debug-asserted).
    pub fn finish(&mut self) {
        self.close_open();
        self.open = None;
        self.finished = true;
    }

    /// Drains every pending closed window into `sink`, oldest first.
    /// Incremental: safe to call mid-run as often as desired.
    pub fn drain_into(&mut self, sink: &mut dyn MetricSink) {
        while let Some(rec) = self.pending.pop_front() {
            let def = &self.defs[rec.metric];
            sink.on_window(&def.name, def.kind, &rec);
        }
    }

    /// Number of closed windows waiting to be drained.
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }
}

/// Percentile estimate over a [`WindowRecord`]'s log₂ buckets.
///
/// `buckets` are ascending `(bit_width, count)` pairs as exported in
/// [`WindowRecord::buckets`]; `permille` is the rank in thousandths
/// (999 = p99.9), saturating at 1000. Returns the *upper bound* of the
/// bucket containing the rank — width `w` covers values of bit width
/// `w`, so the bound is `2^w − 1` (width 0 holds only the value zero;
/// width 64 saturates to `u64::MAX`). `None` for an empty histogram.
///
/// Integer-only on purpose: the rank is `⌈total · permille / 1000⌉`
/// computed in `u128`, so the estimate is exact and this file stays
/// free of float accumulation.
pub fn log2_percentile(buckets: &[(u8, u64)], permille: u32) -> Option<u64> {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    let permille = u128::from(permille.min(1000));
    let rank = (u128::from(total) * permille).div_ceil(1000).max(1);
    let mut cumulative: u128 = 0;
    let mut last_width = 0;
    for &(width, count) in buckets {
        cumulative += u128::from(count);
        last_width = width;
        if cumulative >= rank {
            break;
        }
    }
    Some(match last_width {
        0 => 0,
        w if w >= 64 => u64::MAX,
        w => (1u64 << w) - 1,
    })
}

/// FNV-1a over a byte slice — the kernel's hash, with the same constants
/// as `TraceLog::digest`, so golden values from every subsystem live in
/// one hash family.
pub use mlb_simkernel::rng::fnv1a;

/// Sink that renders each record as one JSON object per line.
///
/// The JSON is hand-rolled (the build environment has no serde): fixed
/// key order, integer-only values, no whitespace variance — so the
/// export is byte-stable and [`JsonlSink::digest`] can be pinned as a
/// golden value.
#[derive(Debug, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The export so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the export.
    pub fn into_string(self) -> String {
        self.out
    }

    /// FNV-1a digest of the export bytes.
    pub fn digest(&self) -> u64 {
        fnv1a(self.out.as_bytes())
    }
}

impl MetricSink for JsonlSink {
    fn on_window(&mut self, name: &str, kind: MetricKind, r: &WindowRecord) {
        use std::fmt::Write as _;
        let _ = write!(
            self.out,
            "{{\"window\":{},\"start_us\":{},\"metric\":\"{}\",\"kind\":\"{}\",\
             \"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"last\":{}",
            r.window,
            r.start_us,
            name,
            kind.label(),
            r.count,
            r.sum,
            r.min,
            r.max,
            r.last
        );
        if kind == MetricKind::Histogram {
            self.out.push_str(",\"buckets\":[");
            for (i, (b, n)) in r.buckets.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "[{b},{n}]");
            }
            self.out.push(']');
        }
        self.out.push_str("}\n");
    }
}

/// Sink that renders records as CSV rows (histogram buckets elided).
///
/// Writes its own integer-formatted rows rather than going through
/// [`CsvTable`] (whose cells are `f64`) so 64-bit sums stay exact.
#[derive(Debug)]
pub struct CsvSink {
    out: String,
}

impl Default for CsvSink {
    fn default() -> Self {
        Self::new()
    }
}

impl CsvSink {
    /// A sink holding only the header row.
    pub fn new() -> Self {
        CsvSink {
            out: "window,start_us,metric,kind,count,sum,min,max,last\n".to_owned(),
        }
    }

    /// The CSV text so far (header + one row per record).
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the CSV text.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl MetricSink for CsvSink {
    fn on_window(&mut self, name: &str, kind: MetricKind, r: &WindowRecord) {
        use std::fmt::Write as _;
        let _ = writeln!(
            self.out,
            "{},{},{},{},{},{},{},{},{}",
            r.window,
            r.start_us,
            name,
            kind.label(),
            r.count,
            r.sum,
            r.min,
            r.max,
            r.last
        );
    }
}

/// Sink that keeps every record in memory — for tests and for
/// programmatic post-run inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// `(name, kind, record)` in drain order.
    pub records: Vec<(String, MetricKind, WindowRecord)>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricSink for MemorySink {
    fn on_window(&mut self, name: &str, kind: MetricKind, r: &WindowRecord) {
        self.records.push((name.to_owned(), kind, r.clone()));
    }
}

/// Renders drained records into a [`CsvTable`] keyed by window start —
/// convenience for wiring registry output into the figure harness.
pub fn records_to_table(records: &[(String, MetricKind, WindowRecord)]) -> CsvTable {
    let mut table = CsvTable::with_columns(&["window", "start_us", "count", "sum", "min", "max"]);
    for (_, _, r) in records {
        table.push_row(vec![
            r.window as f64,
            r.start_us as f64,
            r.count as f64,
            r.sum as f64,
            r.min as f64,
            r.max as f64,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn windows_roll_and_aggregate_with_integer_math() {
        let mut reg = Registry::new(SimDuration::from_millis(25));
        let c = reg.register_counter("events");
        let g = reg.register_gauge("queue");
        let h = reg.register_histogram("rt_us");

        reg.incr(c, t(1_000), 1);
        reg.incr(c, t(2_000), 3);
        reg.gauge_set(g, t(3_000), 7);
        reg.observe(h, t(4_000), 1_500);
        // Crossing into window 1 closes window 0.
        reg.incr(c, t(26_000), 1);
        reg.finish();

        let mut mem = MemorySink::new();
        reg.drain_into(&mut mem);
        let names: Vec<&str> = mem.records.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["events", "queue", "rt_us", "events"]);

        let (_, _, ev0) = &mem.records[0];
        assert_eq!((ev0.window, ev0.count, ev0.sum), (0, 2, 4));
        assert_eq!((ev0.min, ev0.max, ev0.last), (1, 3, 3));

        let (_, _, rt) = &mem.records[2];
        // 1500 has bit width 11.
        assert_eq!(rt.buckets, vec![(11, 1)]);

        let (_, _, ev1) = &mem.records[3];
        assert_eq!((ev1.window, ev1.start_us, ev1.sum), (1, 25_000, 1));
    }

    #[test]
    fn jsonl_export_is_deterministic_and_digestible() {
        let build = || {
            let mut reg = Registry::new(SimDuration::from_millis(10));
            let h = reg.register_histogram("lat");
            reg.observe(h, t(0), 0);
            reg.observe(h, t(5), 9);
            reg.observe(h, t(12_000), 1024);
            reg.finish();
            let mut sink = JsonlSink::new();
            reg.drain_into(&mut sink);
            sink
        };
        let a = build();
        let b = build();
        assert_eq!(a.as_str(), b.as_str());
        assert_eq!(a.digest(), b.digest());
        assert!(a.as_str().starts_with("{\"window\":0,"));
        // Value 0 lands in bucket 0, 9 in bucket 4, 1024 in bucket 11.
        assert!(a.as_str().contains("\"buckets\":[[0,1],[4,1]]"));
        assert!(a.as_str().contains("\"buckets\":[[11,1]]"));
    }

    #[test]
    fn empty_windows_produce_no_records() {
        let mut reg = Registry::new(SimDuration::from_millis(10));
        let c = reg.register_counter("sparse");
        reg.incr(c, t(0), 1);
        // A long quiet gap: windows 1..99 must not appear.
        reg.incr(c, t(1_000_000), 1);
        reg.finish();
        let mut mem = MemorySink::new();
        reg.drain_into(&mut mem);
        assert_eq!(mem.records.len(), 2);
        assert_eq!(mem.records[0].2.window, 0);
        assert_eq!(mem.records[1].2.window, 100);
    }

    #[test]
    fn incremental_drain_matches_one_shot_drain() {
        let run = |drain_every: bool| {
            let mut reg = Registry::new(SimDuration::from_millis(10));
            let c = reg.register_counter("n");
            let mut sink = JsonlSink::new();
            for k in 0..50u64 {
                reg.incr(c, t(k * 7_000), 1);
                if drain_every {
                    reg.drain_into(&mut sink);
                }
            }
            reg.finish();
            reg.drain_into(&mut sink);
            sink.into_string()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn csv_sink_renders_integer_rows() {
        let mut reg = Registry::new(SimDuration::from_millis(10));
        let g = reg.register_gauge("dirty");
        reg.gauge_set(g, t(500), u64::from(u32::MAX));
        reg.finish();
        let mut sink = CsvSink::new();
        reg.drain_into(&mut sink);
        let text = sink.into_string();
        assert!(text.starts_with("window,start_us,metric,kind,"));
        assert!(text.contains("0,0,dirty,gauge,1,4294967295,4294967295,4294967295,4294967295"));
    }

    #[test]
    fn log2_percentile_of_empty_histogram_is_none() {
        assert_eq!(log2_percentile(&[], 500), None);
        assert_eq!(log2_percentile(&[(3, 0), (7, 0)], 999), None);
    }

    #[test]
    fn log2_percentile_of_single_sample_hits_its_bucket_at_every_rank() {
        // One value of bit width 5 (16..=31): every permille, including
        // the degenerate 0, lands in that bucket's upper bound.
        for permille in [0, 1, 500, 999, 1000] {
            assert_eq!(log2_percentile(&[(5, 1)], permille), Some(31));
        }
        // Width 0 is the value zero itself.
        assert_eq!(log2_percentile(&[(0, 1)], 999), Some(0));
    }

    #[test]
    fn log2_percentile_on_exact_bucket_boundary() {
        // 999 samples in width 4, 1 sample in width 10: rank(p99.9) =
        // ⌈1000·999/1000⌉ = 999 — exactly the last sample of the first
        // bucket, so p999 must NOT spill into the outlier bucket...
        let buckets = [(4u8, 999u64), (10u8, 1u64)];
        assert_eq!(log2_percentile(&buckets, 999), Some(15));
        // ...while one more thousandth of rank does.
        assert_eq!(log2_percentile(&buckets, 1000), Some(1023));
    }

    #[test]
    fn log2_percentile_saturates_at_the_top_bucket() {
        // Width 64 holds values ≥ 2^63; its bound saturates to u64::MAX
        // instead of overflowing 1 << 64.
        assert_eq!(log2_percentile(&[(64, 3)], 999), Some(u64::MAX));
        // Permille above 1000 clamps rather than over-ranking.
        assert_eq!(log2_percentile(&[(2, 4)], 5000), Some(3));
    }

    #[test]
    fn log2_percentile_matches_cell_bucketing() {
        // End to end: observe values through a real registry window and
        // check the percentile of the exported buckets.
        let mut reg = Registry::new(SimDuration::from_millis(10));
        let h = reg.register_histogram("rt");
        for v in [1u64, 2, 3, 900, 1_500] {
            reg.observe(h, t(100), v);
        }
        reg.finish();
        let mut sink = MemorySink::new();
        reg.drain_into(&mut sink);
        let buckets = &sink.records[0].2.buckets;
        // p50 → rank 3 → value 3 (width 2, bound 3).
        assert_eq!(log2_percentile(buckets, 500), Some(3));
        // p99.9 → rank 5 → 1500 (width 11, bound 2047).
        assert_eq!(log2_percentile(buckets, 999), Some(2047));
    }
}
