//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench report [--seed <n>]
//! ```
//!
//! The first form prints one JSON result as its last line: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. The
//! second writes the per-layer report of every workload to
//! `perfbench/out/report.{json,txt}`.

use std::process::ExitCode;

use perfbench::e2e::end_to_end;
use perfbench::layers::{per_layer, write_report, OUT_DIR};
use perfbench::workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <paper_unstable|paper_observed|scaled_4x> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench report [--seed <n>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("report") {
        let seed = flag(&args[1..], "--seed")?.unwrap_or(7);
        let reports: Vec<_> = Workload::ALL
            .into_iter()
            .map(|w| (w, per_layer(w, seed)))
            .collect();
        let ok = reports.iter().all(|(_, r)| r.result.correct());
        for (w, r) in &reports {
            write_spans(&format!("{}-seed{seed}-trace1", w.name()), &r.spans_jsonl)?;
            for e in &r.result.errors {
                eprintln!("{}: {e}", w.name());
            }
        }
        let table = write_report(seed, &reports).map_err(|e| e.to_string())?;
        println!("{table}");
        println!("wrote report.json and report.txt in {}", OUT_DIR.display());
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let name: String = flag(args, "--workload")?.ok_or("missing --workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed: u64 = flag(args, "--seed")?.ok_or("missing --seed")?;
    let seconds: u64 = flag(args, "--seconds")?.ok_or("missing --seconds")?;
    let trace: u8 = flag(args, "--trace")?.unwrap_or(0);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let report = match trace {
        0 => end_to_end(workload, seed, seconds),
        1 => per_layer(workload, seed),
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let path = OUT_DIR.join(format!(
        "{}-seed{seed}-trace{trace}.spans.jsonl",
        workload.name()
    ));
    std::fs::create_dir_all(&*OUT_DIR)
        .and_then(|()| std::fs::write(&path, &report.spans_jsonl))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let result = report.result;
    for m in &result.metrics {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &result.errors {
        eprintln!("gate failed: {e}");
    }
    println!("{}", result.to_json());
    Ok(ExitCode::SUCCESS)
}

/// Writes a run's spans to `OUT_DIR/<stem>.spans.jsonl`.
fn write_spans(stem: &str, jsonl: &str) -> Result<(), String> {
    let path = OUT_DIR.join(format!("{stem}.spans.jsonl"));
    std::fs::create_dir_all(&*OUT_DIR)
        .and_then(|()| std::fs::write(&path, jsonl))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The value after `name` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(i + 1).ok_or(format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("bad value {value:?} for {name}"))
}
