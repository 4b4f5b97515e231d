//! The validity gate tells a collapsed system from a valid one.
//!
//! The 4× topology with the paper's stock 4-core MySQL saturates the
//! database: completions stall near 27 k/s against an offered ~40 k/s and
//! requests pile up in flight. A benchmark that reported that run as
//! throughput would be measuring a collapse. `scaled_4x` gives MySQL 16
//! cores and must pass.

use mlb_simkernel::time::SimDuration;
use perfbench::outcome::{validity_gate, Outcome};
use perfbench::run::measure;
use perfbench::workloads::{scaled_4x, single_mysql_4x, Workload};

/// Long enough for 16 s of steady state after the 14 s warm-up.
const HORIZON_S: u64 = 30;

fn outcome(mut cfg: mlb_ntier::SystemConfig) -> Outcome {
    cfg.seed = 7;
    cfg.duration = SimDuration::from_secs(HORIZON_S);
    measure(cfg).outcome
}

#[test]
fn gate_rejects_single_mysql_4x_and_accepts_scaled_4x() {
    let collapsed = outcome(single_mysql_4x());
    let errors = validity_gate(Workload::Scaled4x, &collapsed)
        .expect_err("the stock 4-core MySQL at 4x must be rejected");
    eprintln!("single-MySQL 4x rejected: {errors:?}");
    assert!(
        errors.iter().any(|e| e.starts_with("throughput")),
        "rejected for the wrong reason: {errors:?}"
    );
    assert!(
        errors.iter().all(|e| !e.starts_with("conservation")),
        "a collapsed run still conserves requests: {errors:?}"
    );

    let valid = outcome(scaled_4x());
    assert_eq!(validity_gate(Workload::Scaled4x, &valid), Ok(()));

    let mut leaked = valid.clone();
    leaked.issued += 1;
    let errors = validity_gate(Workload::Scaled4x, &leaked).expect_err("a lost request");
    assert!(errors[0].starts_with("conservation"), "{errors:?}");

    let mut failing = valid;
    failing.failed += 1;
    failing.issued += 1;
    assert!(validity_gate(Workload::Scaled4x, &failing).is_err());
    assert!(validity_gate(Workload::PaperUnstable, &failing).is_ok());
}
