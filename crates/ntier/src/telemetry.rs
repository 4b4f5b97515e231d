//! Experiment telemetry.
//!
//! One [`Telemetry`] instance collects everything the paper's figures and
//! Table I need, at the paper's 50 ms granularity. It is a passive data
//! sink: [`crate::system::NTierSystem`] pushes samples into it, and the
//! figure harness reads the series back out.

use mlb_metrics::histogram::ResponseTimeHistogram;
use mlb_metrics::series::{WindowedCounter, WindowedSeries};
use mlb_metrics::spans::Segment;
use mlb_metrics::summary::ResponseStats;
use mlb_simkernel::time::{SimDuration, SimTime};

/// Where completed requests spent their time, averaged over the run.
///
/// The segments partition a request's response time end to end:
///
/// 1. `retransmit_wait` — from first transmission to the last arrival at
///    Apache (zero unless the request was dropped);
/// 2. `apache_admission` — accept-queue wait for a worker thread;
/// 3. `apache_cpu` — run-queue wait plus the parsing/proxy burst;
/// 4. `routing` — balancer selection, `get_endpoint` polling, probing;
/// 5. `backend` — endpoint acquisition to response at Apache (Tomcat
///    queueing + servlet + MySQL + AJP hops);
/// 6. `response` — Apache back to the client.
///
/// The paper's central claim is visible here directly: under the unstable
/// policies the tail lives in `retransmit_wait` and `routing`, not in
/// `backend` service.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Completed requests folded in.
    pub count: u64,
    /// Σ µs per segment, indexed by [`Segment::index`].
    pub sums_us: [u64; 6],
}

impl PhaseBreakdown {
    /// Mean microseconds per request for each segment, in the order
    /// documented on the type. Returns `None` if nothing was recorded.
    pub fn means_us(&self) -> Option<[f64; 6]> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        Some(self.sums_us.map(|sum| sum as f64 / n))
    }

    /// Renders a one-segment-per-line table of mean milliseconds.
    pub fn render(&self) -> String {
        let Some(means) = self.means_us() else {
            return "no completed requests".to_owned();
        };
        let total: f64 = means.iter().sum();
        let mut out = String::new();
        for (segment, mean) in Segment::ALL.iter().zip(means) {
            out.push_str(&format!(
                "  {:<22} {:>9.3} ms  ({:>5.1}%)
",
                segment.label(),
                mean / 1_000.0,
                if total > 0.0 {
                    mean / total * 100.0
                } else {
                    0.0
                }
            ));
        }
        out.push_str(&format!(
            "  {:<22} {:>9.3} ms
",
            "total",
            total / 1_000.0
        ));
        out
    }
}

/// All measurements of one experiment run.
#[derive(Debug)]
pub struct Telemetry {
    /// Table I statistics (all completed requests).
    pub response: ResponseStats,
    /// Fig. 4: response-time frequency histogram.
    pub histogram: ResponseTimeHistogram,
    /// Fig. 2a/6a/7a: VLRT (> 1 s) completions per 50 ms window.
    pub vlrt_per_window: WindowedCounter,
    /// Fig. 1/3: point-in-time response time (ms) per window.
    pub rt_trace: WindowedSeries,
    /// Fig. 2b/8/12: queued requests per Apache per window.
    pub apache_queues: Vec<WindowedSeries>,
    /// Fig. 2b/8/9a/10a/12/13a: queued requests per Tomcat per window.
    pub tomcat_queues: Vec<WindowedSeries>,
    /// Queued requests in MySQL per window.
    pub mysql_queue: WindowedSeries,
    /// Fig. 2c: per-Apache CPU utilization (busy fraction incl. iowait).
    pub apache_util: Vec<WindowedSeries>,
    /// Fig. 5/6b/7b: per-Tomcat CPU utilization (busy fraction incl. iowait).
    pub tomcat_util: Vec<WindowedSeries>,
    /// MySQL CPU utilization.
    pub mysql_util: WindowedSeries,
    /// Fig. 2d: per-Apache iowait fraction.
    pub apache_iowait: Vec<WindowedSeries>,
    /// Per-Tomcat iowait fraction.
    pub tomcat_iowait: Vec<WindowedSeries>,
    /// Fig. 2e: per-Apache dirty page-cache bytes.
    pub apache_dirty: Vec<WindowedSeries>,
    /// Per-Tomcat dirty page-cache bytes.
    pub tomcat_dirty: Vec<WindowedSeries>,
    /// Fig. 10b/11b: Apache1's lb_value per Tomcat, sampled per window.
    pub lb_values: Vec<WindowedSeries>,
    /// Fig. 6c/7c/9b/13b: requests assigned per (Apache, Tomcat) per
    /// window.
    pub distribution: Vec<Vec<WindowedCounter>>,
    /// Accept-queue drops per window (all Apaches).
    pub drops_per_window: WindowedCounter,
    /// Total accept-queue drops.
    pub drops: u64,
    /// Total TCP retransmissions issued.
    pub retransmits: u64,
    /// Requests that exhausted their RTO schedule or routing budget.
    pub failed_requests: u64,
    /// Requests that could not be routed within the routing budget.
    pub routing_failures: u64,
    /// Millibottlenecks (flushes) observed across all servers.
    pub millibottlenecks: u64,
    /// Where completed requests spent their time.
    pub phase_breakdown: PhaseBreakdown,

    sample_interval: SimDuration,
}

impl Telemetry {
    /// Creates an empty collector for `apaches` × `tomcats` (+1 MySQL),
    /// sampling at `sample_interval`.
    pub fn new(apaches: usize, tomcats: usize, sample_interval: SimDuration) -> Self {
        let wc = || WindowedCounter::new(sample_interval);
        let ws = || WindowedSeries::new(sample_interval);
        Telemetry {
            response: ResponseStats::new(),
            histogram: ResponseTimeHistogram::paper_buckets(),
            vlrt_per_window: wc(),
            rt_trace: ws(),
            apache_queues: (0..apaches).map(|_| ws()).collect(),
            tomcat_queues: (0..tomcats).map(|_| ws()).collect(),
            mysql_queue: ws(),
            apache_util: (0..apaches).map(|_| ws()).collect(),
            tomcat_util: (0..tomcats).map(|_| ws()).collect(),
            mysql_util: ws(),
            apache_iowait: (0..apaches).map(|_| ws()).collect(),
            tomcat_iowait: (0..tomcats).map(|_| ws()).collect(),
            apache_dirty: (0..apaches).map(|_| ws()).collect(),
            tomcat_dirty: (0..tomcats).map(|_| ws()).collect(),
            lb_values: (0..tomcats).map(|_| ws()).collect(),
            distribution: (0..apaches)
                .map(|_| (0..tomcats).map(|_| wc()).collect())
                .collect(),
            drops_per_window: wc(),
            drops: 0,
            retransmits: 0,
            failed_requests: 0,
            routing_failures: 0,
            millibottlenecks: 0,
            phase_breakdown: PhaseBreakdown::default(),
            sample_interval,
        }
    }

    /// The sampling window width.
    pub fn sample_interval(&self) -> SimDuration {
        self.sample_interval
    }

    /// Records one monitor tick into window `window`: the per-server
    /// `samples` in slot order and Apache 1's lb_value per Tomcat.
    pub(crate) fn record_tick(&mut self, window: u64, samples: &[ServerSample], lb_values: &[u64]) {
        let stamp = SimTime::from_micros(window * self.sample_interval.as_micros());
        let (apaches, rest) = samples.split_at(self.apache_util.len());
        let (tomcats, mysql) = rest.split_at(self.tomcat_util.len());
        for (i, s) in apaches.iter().enumerate() {
            let (util, iowait) = s.fractions(self.sample_interval);
            self.apache_queues[i].record(stamp, s.queue as f64);
            self.apache_dirty[i].record(stamp, s.dirty as f64);
            self.apache_util[i].record(stamp, util);
            self.apache_iowait[i].record(stamp, iowait);
        }
        for (i, s) in tomcats.iter().enumerate() {
            let (util, iowait) = s.fractions(self.sample_interval);
            self.tomcat_queues[i].record(stamp, s.queue as f64);
            self.tomcat_dirty[i].record(stamp, s.dirty as f64);
            self.tomcat_util[i].record(stamp, util);
            self.tomcat_iowait[i].record(stamp, iowait);
        }
        let (util, _) = mysql[0].fractions(self.sample_interval);
        self.mysql_queue.record(stamp, mysql[0].queue as f64);
        self.mysql_util.record(stamp, util);
        for (series, &v) in self.lb_values.iter_mut().zip(lb_values) {
            series.record(stamp, v as f64);
        }
    }

    /// Mean CPU utilization over the whole run for one series.
    pub fn mean_util(series: &WindowedSeries) -> f64 {
        let windows = series.windows();
        let mut sum = 0.0;
        let mut n = 0u64;
        for w in windows {
            if let Some(m) = w.mean() {
                // simlint::allow(no-float-accum): read-side index-order fold for a display-only mean; never feeds a digest
                sum += m;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// One server's state at a monitor tick.
///
/// `NTierSystem` reads every server once per tick into one of these, in
/// slot order (Apaches, then Tomcats, then MySQL), and hands the same
/// slice to [`Telemetry::record_tick`] and to the live metrics. The sample
/// keeps the cumulative CPU counters it was last advanced to, so the
/// per-window deltas are computed once, here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ServerSample {
    /// Cumulative busy core-µs at the latest tick.
    pub(crate) busy_cum_us: u64,
    /// Cumulative iowait core-µs at the latest tick.
    pub(crate) iowait_cum_us: u64,
    /// Busy core-µs over the window the latest tick closed.
    pub(crate) busy_us: u64,
    /// Iowait core-µs over the window the latest tick closed.
    pub(crate) iowait_us: u64,
    /// CPU cores.
    pub(crate) cores: usize,
    /// Queued requests. A Tomcat's count includes the requests committed
    /// to it but blocked in `get_endpoint`: the paper's log-derived
    /// per-server queues attribute those to the target server.
    pub(crate) queue: u64,
    /// Dirty page-cache bytes.
    pub(crate) dirty: u64,
}

impl ServerSample {
    /// Moves to the cumulative CPU counters read at this tick; the
    /// window deltas are their difference from the previous tick's.
    pub(crate) fn advance_cpu(&mut self, busy_cum_us: u64, iowait_cum_us: u64) {
        self.busy_us = busy_cum_us.saturating_sub(self.busy_cum_us);
        self.iowait_us = iowait_cum_us.saturating_sub(self.iowait_cum_us);
        self.busy_cum_us = busy_cum_us;
        self.iowait_cum_us = iowait_cum_us;
    }

    /// The (utilization, iowait) fractions of the window's core time.
    /// The paper's CPU plots show saturation during iowait, so
    /// utilization includes the iowait share; the iowait fraction
    /// isolates it.
    fn fractions(&self, window: SimDuration) -> (f64, f64) {
        let denom = (window.as_micros() * self.cores as u64) as f64;
        let busy = self.busy_us as f64 / denom;
        let iowait = self.iowait_us as f64 / denom;
        ((busy + iowait).min(1.0), iowait.min(1.0))
    }
}

/// The window a monitor tick closes: the tick at `k·interval` closes
/// window `k − 1`, so every sample it takes describes that window.
pub(crate) fn closed_window(now: SimTime, interval: SimDuration) -> u64 {
    (now.as_micros() / interval.as_micros()).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry() -> Telemetry {
        Telemetry::new(2, 2, SimDuration::from_millis(50))
    }

    /// Five slots (2 Apaches, 2 Tomcats, MySQL) with `cores` cores each.
    fn samples(cores: usize) -> Vec<ServerSample> {
        let s = ServerSample {
            cores,
            ..ServerSample::default()
        };
        vec![s; 5]
    }

    #[test]
    fn phase_breakdown_means_and_render() {
        let b = PhaseBreakdown {
            count: 2,
            sums_us: [2_000, 0, 500, 100, 4_000, 400],
        };
        let means = b.means_us().unwrap();
        assert_eq!(means[0], 1_000.0);
        assert_eq!(means[4], 2_000.0);
        let txt = b.render();
        assert!(txt.contains("retransmit wait"));
        assert!(txt.contains("total"));
        // Percentages must sum to ~100.
        let total: f64 = means.iter().sum();
        assert!((total - 3_500.0).abs() < 1e-9);
    }

    #[test]
    fn phase_breakdown_empty_is_graceful() {
        let b = PhaseBreakdown::default();
        assert!(b.means_us().is_none());
        assert_eq!(b.render(), "no completed requests");
    }

    #[test]
    fn cpu_sampling_differs_cumulative_counters() {
        let mut t = telemetry();
        let mut s = samples(2);
        let interval = 50_000u64; // 50 ms in micros
                                  // Slot 0 (apache 0), 2 cores: busy 25 ms of 100 core-ms → 25%.
        s[0].advance_cpu(25_000, 0);
        t.record_tick(0, &s, &[]);
        let w = t.apache_util[0]
            .window_at(SimTime::from_millis(49))
            .unwrap();
        assert!((w.mean().unwrap() - 0.25).abs() < 1e-9);
        // Next window: cumulative 35 ms → delta 10 ms → 10%.
        s[0].advance_cpu(35_000, interval);
        assert_eq!((s[0].busy_us, s[0].iowait_us), (10_000, interval));
        t.record_tick(1, &s, &[]);
        let w = t.apache_util[0]
            .window_at(SimTime::from_millis(99))
            .unwrap();
        // 10ms busy + 50ms iowait over 100 core-ms = 0.6.
        assert!((w.mean().unwrap() - 0.6).abs() < 1e-9);
        let io = t.apache_iowait[0]
            .window_at(SimTime::from_millis(99))
            .unwrap();
        assert!((io.mean().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cpu_sampling_routes_to_correct_tier() {
        let mut t = telemetry();
        let mut s = samples(4);
        s[2].advance_cpu(200_000, 0); // tomcat 0 @ 100%
        s[4].advance_cpu(100_000, 0); // mysql @ 50%
        t.record_tick(0, &s, &[]);
        let w = t.tomcat_util[0]
            .window_at(SimTime::from_millis(49))
            .unwrap();
        assert!((w.mean().unwrap() - 1.0).abs() < 1e-9);
        let w = t.mysql_util.window_at(SimTime::from_millis(49)).unwrap();
        assert!((w.mean().unwrap() - 0.5).abs() < 1e-9);
        let w = t.apache_util[1]
            .window_at(SimTime::from_millis(49))
            .unwrap();
        assert_eq!(w.mean(), Some(0.0));
    }

    #[test]
    fn window_stamp_lands_in_closed_window() {
        let interval = SimDuration::from_millis(50);
        assert_eq!(closed_window(SimTime::from_millis(50), interval), 0);
        assert_eq!(closed_window(SimTime::from_millis(100), interval), 1);
        assert_eq!(closed_window(SimTime::ZERO, interval), 0);
        // A tick's samples land in the window it closed.
        let mut t = telemetry();
        let mut s = samples(1);
        s[4].queue = 7;
        t.record_tick(
            closed_window(SimTime::from_millis(100), interval),
            &s,
            &[3, 4],
        );
        assert_eq!(t.mysql_queue.means(0.0), vec![0.0, 7.0]);
        assert_eq!(t.lb_values[1].means(0.0), vec![0.0, 4.0]);
    }

    #[test]
    fn mean_util_averages_nonempty_windows() {
        let mut s = WindowedSeries::new(SimDuration::from_millis(50));
        s.record(SimTime::from_millis(10), 0.2);
        s.record(SimTime::from_millis(110), 0.4);
        assert!((Telemetry::mean_util(&s) - 0.3).abs() < 1e-12);
    }
}
