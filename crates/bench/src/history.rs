//! The append-only perf-trajectory ledger (`BENCH_history.jsonl`).
//!
//! `BENCH_kernel.json` and `BENCH_policies.json` are snapshots — each CI
//! run overwrites the last, so a slow 6× events/sec collapse across ten
//! PRs looks identical to a fast one. The ledger fixes that: every bench
//! entry point appends exactly one schema-versioned line (bench id,
//! commit, host fingerprint, seed set, and per-point metrics), and the
//! `repro -- trend` subcommand renders the trajectory and gates on it.
//! The paper's moral — coarse snapshots hide millibottlenecks — applied
//! to the harness itself.
//!
//! The JSON here is hand-rolled (the workspace carries no serde): a
//! fixed-key-order writer here, and simlint's dependency-free reader
//! (`mlb_simlint::json`) for ledger lines, which tolerates unknown
//! keys, so old readers survive new fields.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mlb_simlint::json::{self, Value};

/// Version of the ledger line format. Bump when a reader of version N
/// could misinterpret a version N+1 line (adding keys is fine).
pub const SCHEMA_VERSION: u32 = 1;

/// Relative events/sec drop (in percent) at which the trend gate fails.
pub const GATE_REGRESSION_PCT: f64 = 10.0;

/// Shared provenance header for every BENCH artifact: who produced the
/// numbers, where, and under which schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchMeta {
    /// Ledger/report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Git commit of the tree that ran the bench (`"unknown"` outside a
    /// repository).
    pub commit: String,
    /// Coarse host fingerprint, e.g. `"linux-x86_64-8cpu"` — enough to
    /// tell apples from oranges in the trajectory without leaking
    /// hostnames into committed artifacts.
    pub host: String,
}

impl BenchMeta {
    /// Captures the current commit and host fingerprint.
    pub fn capture() -> Self {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        let cpus = std::thread::available_parallelism().map_or(0, usize::from);
        BenchMeta {
            schema_version: SCHEMA_VERSION,
            commit,
            host: format!(
                "{}-{}-{}cpu",
                std::env::consts::OS,
                std::env::consts::ARCH,
                cpus
            ),
        }
    }

    /// A fully pinned meta for tests and fixtures.
    pub fn fixed(commit: &str, host: &str) -> Self {
        BenchMeta {
            schema_version: SCHEMA_VERSION,
            commit: commit.to_owned(),
            host: host.to_owned(),
        }
    }

    /// The shared header fields as pretty-printed JSON lines (two-space
    /// indent, trailing comma) for embedding at the top of a
    /// `BENCH_*.json` object.
    pub fn json_header(&self) -> String {
        format!(
            "  \"schema_version\": {},\n  \"commit\": \"{}\",\n  \"host\": \"{}\",\n",
            self.schema_version,
            escape(&self.commit),
            escape(&self.host)
        )
    }
}

/// One measured point inside a ledger record: a stable key (e.g.
/// `"16x/wheel"`) plus named metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryPoint {
    /// Point identity within the bench, stable across runs.
    pub key: String,
    /// `(metric name, value)` pairs in emission order.
    pub metrics: Vec<(String, f64)>,
}

impl HistoryPoint {
    /// Convenience constructor.
    pub fn new(key: impl Into<String>, metrics: Vec<(&str, f64)>) -> Self {
        HistoryPoint {
            key: key.into(),
            metrics: metrics
                .into_iter()
                .map(|(n, v)| (n.to_owned(), v))
                .collect(),
        }
    }

    /// Value of a named metric, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// One appended ledger line: a bench invocation's full result.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Schema version the line was written under.
    pub schema_version: u32,
    /// Bench identity (`"kernel_scaling"`, `"registry_overhead"`,
    /// `"policy_tournament"`).
    pub bench: String,
    /// Git commit that produced the record.
    pub commit: String,
    /// Host fingerprint ([`BenchMeta::host`]).
    pub host: String,
    /// Seeds the bench fanned over.
    pub seeds: Vec<u64>,
    /// Measured points.
    pub points: Vec<HistoryPoint>,
}

impl HistoryRecord {
    /// Starts a record under `meta` for the named bench.
    pub fn new(meta: &BenchMeta, bench: &str, seeds: Vec<u64>) -> Self {
        HistoryRecord {
            schema_version: meta.schema_version,
            bench: bench.to_owned(),
            commit: meta.commit.clone(),
            host: meta.host.clone(),
            seeds,
            points: Vec::new(),
        }
    }

    /// The point with the given key, if present.
    pub fn point(&self, key: &str) -> Option<&HistoryPoint> {
        self.points.iter().find(|p| p.key == key)
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"bench\":\"{}\",\"commit\":\"{}\",\"host\":\"{}\",\"seeds\":[",
            self.schema_version,
            escape(&self.bench),
            escape(&self.commit),
            escape(&self.host)
        );
        for (i, s) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{s}");
        }
        out.push_str("],\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"key\":\"{}\",\"metrics\":{{", escape(&p.key));
            for (j, (name, value)) in p.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", escape(name), fmt_f64(*value));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape problem.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let obj = json::parse(line)?;
        if !matches!(obj, Value::Obj(_)) {
            return Err("record line is not an object".to_owned());
        }
        let schema_version = get_num(&obj, "schema_version")? as u32;
        let bench = get_str(&obj, "bench")?;
        let commit = get_str(&obj, "commit")?;
        let host = get_str(&obj, "host")?;
        let seeds = get(&obj, "seeds")?
            .as_arr()
            .ok_or("\"seeds\" is not an array")?
            .iter()
            .map(|v| v.as_num().map(|n| n as u64).ok_or("non-numeric seed"))
            .collect::<Result<Vec<u64>, _>>()?;
        let mut points = Vec::new();
        for p in get(&obj, "points")?
            .as_arr()
            .ok_or("\"points\" is not an array")?
        {
            if !matches!(p, Value::Obj(_)) {
                return Err("point is not an object".to_owned());
            }
            let key = get_str(p, "key")?;
            let Value::Obj(metrics) = get(p, "metrics")? else {
                return Err("\"metrics\" is not an object".to_owned());
            };
            let metrics = metrics
                .iter()
                .map(|(name, v)| {
                    v.as_num()
                        .map(|n| (name.clone(), n))
                        .ok_or_else(|| format!("metric {name} is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            points.push(HistoryPoint { key, metrics });
        }
        Ok(HistoryRecord {
            schema_version,
            bench,
            commit,
            host,
            seeds,
            points,
        })
    }
}

/// Formats a metric value compactly but round-trippably: integers as
/// integers, everything else with enough digits to reconstruct the
/// measurement.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        // The ledger is JSON; map the unrepresentable to null-ish zero.
        return "0".to_owned();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn get<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing key \"{key}\""))
}

fn get_str(obj: &Value, key: &str) -> Result<String, String> {
    get(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("\"{key}\" is not a string"))
}

fn get_num(obj: &Value, key: &str) -> Result<f64, String> {
    get(obj, key)?
        .as_num()
        .ok_or_else(|| format!("\"{key}\" is not a number"))
}

// ---------------------------------------------------------------------
// Ledger I/O
// ---------------------------------------------------------------------

/// The workspace root (compile-time anchored, like every bench writer).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// The ledger path: `$MLB_HISTORY` when set (scratch histories for CI
/// and tests), else `BENCH_history.jsonl` at the workspace root.
pub fn history_path() -> PathBuf {
    match std::env::var_os("MLB_HISTORY") {
        Some(p) => PathBuf::from(p),
        None => workspace_root().join("BENCH_history.jsonl"),
    }
}

/// Appends one record to the ledger at `path` (creating it if absent).
///
/// # Panics
///
/// Panics if the file cannot be opened or written — a bench that cannot
/// record its trajectory should fail loudly, not silently.
pub fn append_record(path: &Path, record: &HistoryRecord) {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("open {} for append: {e}", path.display()));
    writeln!(file, "{}", record.to_json_line())
        .unwrap_or_else(|e| panic!("append to {}: {e}", path.display()));
    eprintln!("  appended {} record to {}", record.bench, path.display());
}

/// Loads every parseable record from the ledger, in file order.
/// Unparseable lines are skipped with a warning on stderr (an append-only
/// file shared across commits must tolerate foreign lines).
pub fn load_history(path: &Path) -> Vec<HistoryRecord> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match HistoryRecord::from_json_line(line) {
            Ok(r) => records.push(r),
            Err(e) => eprintln!("  warning: {}:{}: {e}", path.display(), i + 1),
        }
    }
    records
}

// ---------------------------------------------------------------------
// Trend analysis
// ---------------------------------------------------------------------

/// One metric's trajectory across the ledger: every observation of
/// `(bench, point key, metric name)` in append order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSeries {
    /// Bench identity.
    pub bench: String,
    /// Point key within the bench.
    pub key: String,
    /// Metric name.
    pub metric: String,
    /// `(commit, value)` per observation, oldest first.
    pub values: Vec<(String, f64)>,
}

impl TrendSeries {
    /// Latest-vs-previous relative change in percent (positive = up),
    /// when at least two observations exist.
    pub fn latest_delta_pct(&self) -> Option<f64> {
        let n = self.values.len();
        if n < 2 {
            return None;
        }
        let prev = self.values[n - 2].1;
        let latest = self.values[n - 1].1;
        if prev.abs() < 1e-12 {
            return None;
        }
        Some((latest - prev) / prev * 100.0)
    }
}

/// Groups the ledger into per-metric trajectories, ordered by first
/// appearance (bench, then key, then metric).
pub fn trend_series(records: &[HistoryRecord]) -> Vec<TrendSeries> {
    let mut series: Vec<TrendSeries> = Vec::new();
    for r in records {
        for p in &r.points {
            for (metric, value) in &p.metrics {
                match series
                    .iter_mut()
                    .find(|s| s.bench == r.bench && s.key == p.key && s.metric.as_str() == metric)
                {
                    Some(s) => s.values.push((r.commit.clone(), *value)),
                    None => series.push(TrendSeries {
                        bench: r.bench.clone(),
                        key: p.key.clone(),
                        metric: metric.clone(),
                        values: vec![(r.commit.clone(), *value)],
                    }),
                }
            }
        }
    }
    series
}

/// One trend-gate failure: a gated metric regressed past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct GateBreach {
    /// Bench identity.
    pub bench: String,
    /// Point key that regressed.
    pub key: String,
    /// Gated metric name.
    pub metric: String,
    /// Previous observation.
    pub previous: f64,
    /// Latest observation.
    pub latest: f64,
    /// Relative drop in percent (positive number).
    pub drop_pct: f64,
}

/// Runs the trend gate: every `events_per_sec` series whose latest
/// observation dropped more than `threshold_pct` below the previous one
/// is a breach. Series with fewer than two observations pass (no
/// baseline yet).
pub fn trend_gate(records: &[HistoryRecord], threshold_pct: f64) -> Vec<GateBreach> {
    let mut breaches = Vec::new();
    for s in trend_series(records) {
        if s.metric != "events_per_sec" {
            continue;
        }
        if let Some(delta) = s.latest_delta_pct() {
            if delta < -threshold_pct {
                let n = s.values.len();
                breaches.push(GateBreach {
                    bench: s.bench,
                    key: s.key,
                    metric: s.metric,
                    previous: s.values[n - 2].1,
                    latest: s.values[n - 1].1,
                    drop_pct: -delta,
                });
            }
        }
    }
    breaches
}

/// Seven-level ASCII sparkline (` .:-=+*#` from min to max) of a value
/// series. Flat series render as all `-`.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            if !(max - min).is_normal() {
                '-'
            } else {
                let t = (v - min) / (max - min);
                LEVELS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Renders the ASCII trend dashboard: one row per metric trajectory with
/// its sparkline, latest value, and latest-vs-previous delta.
pub fn render_trend(records: &[HistoryRecord]) -> String {
    let series = trend_series(records);
    if series.is_empty() {
        return "perf trajectory: ledger is empty\n".to_owned();
    }
    let mut out = format!(
        "perf trajectory: {} record(s), {} series\n",
        records.len(),
        series.len()
    );
    let id_w = series
        .iter()
        .map(|s| s.bench.len() + 1 + s.key.len() + 1 + s.metric.len())
        .max()
        .unwrap_or(8);
    let spark_w = series.iter().map(|s| s.values.len()).max().unwrap_or(1);
    let mut table = mlb_metrics::ascii::Table::new(
        "  ",
        "  ",
        vec![
            (mlb_metrics::ascii::Align::Left, id_w),
            (mlb_metrics::ascii::Align::Left, spark_w),
            (mlb_metrics::ascii::Align::Right, 14),
            (mlb_metrics::ascii::Align::Right, 9),
        ],
    );
    for s in &series {
        let values: Vec<f64> = s.values.iter().map(|&(_, v)| v).collect();
        let latest = values[values.len() - 1];
        let delta = s
            .latest_delta_pct()
            .map_or_else(|| "n/a".to_owned(), |d| format!("{d:+.1}%"));
        table.row(&[
            format!("{}/{} {}", s.bench, s.key, s.metric),
            sparkline(&values),
            format!("{latest:.1}"),
            delta,
        ]);
    }
    out.push_str(table.as_str());
    out
}

/// Renders the dashboard's CSV twin: the full trajectory, one row per
/// observation.
pub fn trend_csv(records: &[HistoryRecord]) -> String {
    let mut out = String::from("bench,key,metric,seq,commit,value\n");
    for s in trend_series(records) {
        for (seq, (commit, value)) in s.values.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.bench,
                s.key,
                s.metric,
                seq,
                commit,
                fmt_f64(*value)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(commit: &str, eps_1x: f64, eps_4x: f64) -> HistoryRecord {
        let meta = BenchMeta::fixed(commit, "testhost-0cpu");
        let mut r = HistoryRecord::new(&meta, "kernel_scaling", vec![7, 8, 42]);
        r.points.push(HistoryPoint::new(
            "1x/wheel",
            vec![("events_per_sec", eps_1x), ("peak_queue_len", 70_000.0)],
        ));
        r.points.push(HistoryPoint::new(
            "4x/wheel",
            vec![("events_per_sec", eps_4x)],
        ));
        r
    }

    #[test]
    fn record_roundtrips_through_jsonl() {
        let r = record("abc123", 1_234_567.89, 987_654.3);
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let back = HistoryRecord::from_json_line(&line).expect("own output parses");
        assert_eq!(back.bench, "kernel_scaling");
        assert_eq!(back.seeds, vec![7, 8, 42]);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        let p = back.point("1x/wheel").unwrap();
        assert!((p.metric("events_per_sec").unwrap() - 1_234_567.89).abs() < 1e-3);
        assert_eq!(p.metric("peak_queue_len"), Some(70_000.0));
    }

    #[test]
    fn parser_tolerates_unknown_keys_and_foreign_lines() {
        let line = "{\"schema_version\":1,\"bench\":\"b\",\"commit\":\"c\",\"host\":\"h\",\
                    \"seeds\":[],\"points\":[],\"future_field\":{\"nested\":[true,null,1e3]}}";
        let r = HistoryRecord::from_json_line(line).expect("unknown keys are fine");
        assert_eq!(r.bench, "b");
        assert!(HistoryRecord::from_json_line("not json at all").is_err());
        assert!(HistoryRecord::from_json_line("{\"bench\":\"x\"}").is_err());
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let meta = BenchMeta::fixed("we\"ird\\commit", "host\nname");
        let mut r = HistoryRecord::new(&meta, "b", vec![]);
        r.points.push(HistoryPoint::new("k", vec![]));
        let back = HistoryRecord::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back.commit, "we\"ird\\commit");
        assert_eq!(back.host, "host\nname");
    }

    #[test]
    fn gate_fails_on_a_regression_beyond_threshold() {
        // The acceptance criterion's synthetic two-entry history: 1x
        // holds steady, 4x drops 20% — only 4x breaches a 10% gate.
        let history = vec![
            record("old", 1_000_000.0, 800_000.0),
            record("new", 990_000.0, 640_000.0),
        ];
        let breaches = trend_gate(&history, GATE_REGRESSION_PCT);
        assert_eq!(breaches.len(), 1);
        let b = &breaches[0];
        assert_eq!(b.key, "4x/wheel");
        assert!((b.drop_pct - 20.0).abs() < 1e-9);
        assert_eq!(b.previous, 800_000.0);
        assert_eq!(b.latest, 640_000.0);
    }

    #[test]
    fn gate_passes_small_dips_and_single_records() {
        let steady = vec![record("a", 100.0, 100.0), record("b", 95.0, 91.0)];
        assert!(trend_gate(&steady, GATE_REGRESSION_PCT).is_empty());
        let single = vec![record("only", 100.0, 100.0)];
        assert!(trend_gate(&single, GATE_REGRESSION_PCT).is_empty());
    }

    #[test]
    fn gate_ignores_non_events_metrics() {
        // peak_queue_len doubling is not a gated regression.
        let mut old = record("a", 100.0, 100.0);
        old.points[0].metrics[1].1 = 10.0;
        let mut new = record("b", 100.0, 100.0);
        new.points[0].metrics[1].1 = 1_000.0;
        assert!(trend_gate(&[old, new], GATE_REGRESSION_PCT).is_empty());
    }

    #[test]
    fn series_group_across_records_in_order() {
        let history = vec![record("a", 1.0, 2.0), record("b", 3.0, 4.0)];
        let series = trend_series(&history);
        let eps_1x = series
            .iter()
            .find(|s| s.key == "1x/wheel" && s.metric == "events_per_sec")
            .unwrap();
        assert_eq!(
            eps_1x.values,
            vec![("a".to_owned(), 1.0), ("b".to_owned(), 3.0)]
        );
        assert_eq!(eps_1x.latest_delta_pct(), Some(200.0));
    }

    #[test]
    fn sparkline_spans_min_to_max() {
        assert_eq!(sparkline(&[0.0, 1.0]), " #");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "---");
        assert_eq!(sparkline(&[0.0, 0.5, 1.0]).len(), 3);
    }

    #[test]
    fn dashboard_renders_every_series_and_csv_every_observation() {
        let history = vec![record("a", 1.0, 2.0), record("b", 3.0, 4.0)];
        let text = render_trend(&history);
        assert!(text.contains("kernel_scaling/1x/wheel events_per_sec"));
        assert!(text.contains("+200.0%"));
        let csv = trend_csv(&history);
        // 3 series × 2 observations + header.
        assert_eq!(csv.lines().count(), 1 + 6);
        assert!(csv.starts_with("bench,key,metric,seq,commit,value\n"));
        assert!(csv.contains("kernel_scaling,1x/wheel,events_per_sec,1,b,3"));
    }

    #[test]
    fn append_and_load_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("mlb_history_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scratch_history.jsonl");
        let _ = std::fs::remove_file(&path);
        append_record(&path, &record("a", 1.0, 2.0));
        append_record(&path, &record("b", 3.0, 4.0));
        // A foreign line must not poison the ledger.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "# not a record").unwrap();
        }
        let loaded = load_history(&path);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[1].commit, "b");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn committed_regression_fixture_trips_the_gate() {
        // CI runs `repro -- trend` against this fixture and requires a
        // non-zero exit; this test keeps the fixture honest (parseable,
        // and regressed past the threshold at exactly one point).
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/history_regression.jsonl");
        let records = load_history(&path);
        assert_eq!(records.len(), 2, "fixture is a two-entry history");
        let breaches = trend_gate(&records, GATE_REGRESSION_PCT);
        assert_eq!(breaches.len(), 1, "exactly one point regresses");
        assert_eq!(breaches[0].key, "16x/wheel");
        assert!(breaches[0].drop_pct > GATE_REGRESSION_PCT);
    }

    #[test]
    fn meta_header_is_shared_shape() {
        let meta = BenchMeta::fixed("deadbeef", "linux-x86_64-8cpu");
        let header = meta.json_header();
        assert!(header.contains("\"schema_version\": 1,"));
        assert!(header.contains("\"commit\": \"deadbeef\","));
        assert!(header.contains("\"host\": \"linux-x86_64-8cpu\","));
    }

    #[test]
    fn capture_produces_plausible_meta() {
        let meta = BenchMeta::capture();
        assert_eq!(meta.schema_version, SCHEMA_VERSION);
        assert!(!meta.commit.is_empty());
        assert!(meta.host.contains(std::env::consts::ARCH));
    }
}
