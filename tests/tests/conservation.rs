//! Cross-layer conservation: every request the clients issue is either
//! completed, failed or still in flight at the end, and the three
//! observers that count request outcomes — `Telemetry`, the trace log
//! and the metrics registry's JSONL export — agree on every count. A
//! transition reported to one observer but not another, or reported
//! twice, breaks an equality here.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_netmodel::retransmit::RtoSchedule;
use mlb_ntier::config::SystemConfig;
use mlb_ntier::experiment::{run_experiment, ExperimentResult};
use mlb_ntier::metrics::MetricsConfig;
use mlb_ntier::trace::TraceConfig;
use mlb_simkernel::time::SimDuration;
use mlb_simlint::json;

fn observed(policy: PolicyKind, mech: MechanismKind, rto: Option<RtoSchedule>) -> ExperimentResult {
    let mut cfg = SystemConfig::smoke(BalancerConfig::with(policy, mech));
    if let Some(rto) = rto {
        cfg.rto = rto;
    }
    // Full retention: every completed and failed trace stays in the log.
    cfg.trace = TraceConfig::enabled_default();
    cfg.metrics = MetricsConfig::enabled_default();
    run_experiment(cfg).expect("smoke config is valid")
}

/// Sum of the per-window `sum` field of `metric` over the JSONL export.
fn jsonl_sum(jsonl: &str, metric: &str) -> u64 {
    jsonl
        .lines()
        .map(|line| json::parse(line).expect("registry export is valid JSON"))
        .filter(|rec| rec.get("metric").and_then(json::Value::as_str) == Some(metric))
        .map(|rec| {
            rec.get("sum")
                .and_then(json::Value::as_num)
                .expect("every window record has a sum") as u64
        })
        .sum()
}

/// Asserts every conservation identity and returns `(completed, failed)`.
fn assert_conserved(r: &ExperimentResult) -> (u64, u64) {
    let t = &r.telemetry;
    let log = r.trace.as_ref().expect("tracing was enabled");
    let jsonl = &r.metrics.as_ref().expect("metrics were enabled").jsonl;
    let (completed, failed) = (t.response.total(), t.failed_requests);
    let label = &r.label;

    assert_eq!(
        r.requests_issued,
        completed + failed + r.inflight_at_end as u64,
        "{label}: issued != completed + failed + in flight"
    );
    assert_eq!(log.completed, completed, "{label}: trace completions");
    assert_eq!(log.failed, failed, "{label}: trace failures");
    assert_eq!(jsonl_sum(jsonl, "ntier.completions"), completed, "{label}");
    assert_eq!(jsonl_sum(jsonl, "ntier.failures"), failed, "{label}");
    assert_eq!(jsonl_sum(jsonl, "net.drops"), t.drops, "{label}");
    assert_eq!(
        jsonl_sum(jsonl, "net.retransmits"),
        t.retransmits,
        "{label}"
    );

    // Within Telemetry: the windowed views total the run totals, and
    // every drop was either retransmitted or ended its request.
    assert_eq!(t.histogram.count(), completed, "{label}: histogram");
    assert_eq!(t.phase_breakdown.count, completed, "{label}: phase sums");
    assert_eq!(t.drops_per_window.total(), t.drops, "{label}: drop windows");
    assert_eq!(
        t.vlrt_per_window.total(),
        t.response.vlrt_count(),
        "{label}: VLRT windows"
    );
    assert_eq!(
        t.drops - t.retransmits,
        failed - t.routing_failures,
        "{label}: drops without a retransmit must be exactly the RTO failures"
    );
    (completed, failed)
}

#[test]
fn unstable_and_remedied_runs_conserve_requests_across_observers() {
    for (policy, mech) in [
        (PolicyKind::TotalRequest, MechanismKind::Original),
        (PolicyKind::CurrentLoad, MechanismKind::SkipToBusy),
    ] {
        let r = observed(policy, mech, None);
        let (completed, _) = assert_conserved(&r);
        assert!(completed > 0, "{}: nothing completed", r.label);
    }
}

#[test]
fn failing_requests_are_conserved_across_observers() {
    // One 200 ms retransmission and then give up: under the unstable
    // policy, some requests exhaust the schedule, so the `Failed`
    // transition is exercised alongside drops and retransmits.
    let rto = RtoSchedule::new(vec![SimDuration::from_millis(200)]);
    let r = observed(PolicyKind::TotalRequest, MechanismKind::Original, Some(rto));
    let (_, failed) = assert_conserved(&r);
    assert!(failed > 0, "the short RTO schedule must fail some requests");
    assert!(r.telemetry.retransmits > 0);
}
