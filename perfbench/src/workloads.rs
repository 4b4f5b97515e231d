//! The benchmark's workloads, their configurations and their references.
//!
//! Every workload is closed-loop: each client waits for its reply, then
//! thinks for an exponentially distributed time with a 7 s mean before
//! issuing the next request. Configurations are built from public
//! `SystemConfig` fields only; the simulator receives nothing but them.

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_ntier::{MetricsConfig, SystemConfig, TraceConfig};
use mlb_simkernel::time::SimDuration;
use mlb_workload::clients::ClientPopulation;

/// One row of the paper's Table I: mean response time and VLRT share.
///
/// Values are the paper's column of Table I as transcribed in
/// `EXPERIMENTS.md` ("Table I — policies and remedies").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableRow {
    /// Row label as printed in the paper.
    pub label: &'static str,
    /// Mean response time over all completed requests (ms).
    pub mean_rt_ms: f64,
    /// Share of completed requests slower than 1 s (%).
    pub vlrt_pct: f64,
}

/// Table I row 1: Original `total_request` (EXPERIMENTS.md, Table I).
pub const TABLE_I_ROW_1: TableRow = TableRow {
    label: "Original total_request",
    mean_rt_ms: 41.00,
    vlrt_pct: 5.33,
};

/// Table I row 6: `current_load` + modified get_endpoint
/// (EXPERIMENTS.md, Table I).
pub const TABLE_I_ROW_6: TableRow = TableRow {
    label: "current_load + modified get_endpoint",
    mean_rt_ms: 3.60,
    vlrt_pct: 0.20,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 4/4/1 testbed under `total_request` + Original
    /// get_endpoint with Tomcat flushing on and every observer off: the
    /// headline pathology (balancer polling, accept-queue drops,
    /// 1/2/3 s retransmits, flush stalls).
    PaperUnstable,
    /// `PaperUnstable` with every observer on: request tracing, the
    /// metrics registry with its detector, and the kernel profiler.
    PaperObserved,
    /// 16/16/1 with a 16-core MySQL and 280 k clients under
    /// `current_load` + SkipToBusy: the paper's per-server operating
    /// point at 4× the pending set, without drops or retransmits.
    Scaled4x,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperUnstable,
        Workload::PaperObserved,
        Workload::Scaled4x,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperUnstable => "paper_unstable",
            Workload::PaperObserved => "paper_observed",
            Workload::Scaled4x => "scaled_4x",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds of one measured run. Long enough that the
    /// simulated outputs settle across seeds and one run spans several
    /// of the host's speed phases (NOTES.md).
    pub fn horizon_secs(self) -> u64 {
        match self {
            Workload::PaperUnstable | Workload::PaperObserved => 120,
            Workload::Scaled4x => 60,
        }
    }

    /// The Table I row whose response time and VLRT share this workload
    /// is scored against. `Scaled4x` matches the paper's per-server
    /// operating point under the remedies, not its testbed.
    pub fn reference(self) -> TableRow {
        match self {
            Workload::PaperUnstable | Workload::PaperObserved => TABLE_I_ROW_1,
            Workload::Scaled4x => TABLE_I_ROW_6,
        }
    }

    /// Whether the workload may fail requests at all.
    pub fn allows_failures(self) -> bool {
        self != Workload::Scaled4x
    }

    /// The simulator configuration for `seed`, observers as the workload
    /// defines them, kernel profiling off unless the workload turns it on.
    pub fn config(self, seed: u64) -> SystemConfig {
        let mut cfg = match self {
            Workload::PaperUnstable | Workload::PaperObserved => SystemConfig::paper_4x4(
                BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original),
            ),
            Workload::Scaled4x => scaled_4x(),
        };
        if self == Workload::PaperObserved {
            cfg.trace = TraceConfig::enabled_default();
            cfg.metrics = MetricsConfig::enabled_default();
            cfg.prof = true;
        }
        cfg.seed = seed;
        cfg.duration = SimDuration::from_secs(self.horizon_secs());
        cfg
    }
}

/// 16 Apache / 16 Tomcat / 1 MySQL at 4× the paper's population, with the
/// MySQL machine given 4× the paper's cores so the database tier keeps
/// the paper's per-core load.
pub fn scaled_4x() -> SystemConfig {
    let mut cfg = single_mysql_4x();
    cfg.mysql_machine.cores = 16;
    cfg
}

/// The 4× topology with the paper's stock 4-core MySQL machine: the
/// database saturates and the system collapses. The validity gate must
/// reject it.
pub fn single_mysql_4x() -> SystemConfig {
    let paper = SystemConfig::paper_4x4(BalancerConfig::with(
        PolicyKind::CurrentLoad,
        MechanismKind::SkipToBusy,
    ));
    let population = ClientPopulation::new(
        4 * paper.population.clients(),
        paper.population.think_time_mean(),
        4 * paper.apaches,
    );
    SystemConfig {
        apaches: 4 * paper.apaches,
        tomcats: 4 * paper.tomcats,
        population,
        ..paper
    }
}
