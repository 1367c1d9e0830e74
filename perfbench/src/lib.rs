//! The repository's benchmark: three workloads against the public APIs of
//! `service`, `insitu-core`, `mdsim`, `milp` and `certify`, each printing
//! its end-to-end metrics (untraced run) or per-layer metrics (traced
//! run) with units, after checking every output. See `README.md` in this
//! directory for the workloads, the layer → metric table and the known
//! gaps.

pub mod gen;
pub mod md;
pub mod report;
pub mod service_load;

use std::time::Instant;

use md::MdSize;
use report::Outcome;
use service_load::{ServiceSize, Traffic};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["hot_hits", "cold_misses", "insitu_md"];

/// End-to-end metrics `(name, unit)`, emitted by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, emitted by traced runs. A layer
/// that does no work in a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("service.hit_ratio", "frac"),
    ("service.solves_per_req", "count"),
    ("service.dedup_waits", "count"),
    ("service.evictions", "count"),
    ("service.self_us_per_req", "us"),
    ("certify.fingerprint_us", "us"),
    ("certify.replay_us", "us"),
    ("certify.certificate_us", "us"),
    ("certify.cut_proofs_per_cert", "count"),
    ("certify.cert_nodes_per_cert", "count"),
    ("certify.proved_frac", "frac"),
    ("types.validate_us", "us"),
    ("types.canonicalize_us", "us"),
    ("types.serialize_us", "us"),
    ("milp.solve_ms", "ms"),
    ("milp.presolve_ms", "ms"),
    ("milp.root_lp_ms", "ms"),
    ("milp.cut_sep_ms", "ms"),
    ("milp.search_ms", "ms"),
    ("milp.nodes_per_solve", "count"),
    ("milp.lp_pivots_per_solve", "count"),
    ("milp.cuts_applied_per_solve", "count"),
    ("milp.hint_accepted_frac", "frac"),
    ("core.place_us", "us"),
    ("core.build_us", "us"),
    ("core.advisor_ms", "ms"),
    ("runtime.sim_ms_per_step", "ms"),
    ("runtime.analysis_ms_per_step", "ms"),
    ("runtime.analyze_ms.A1", "ms"),
    ("runtime.analyze_ms.A2", "ms"),
    ("runtime.analyze_ms.A3", "ms"),
    ("runtime.analyze_ms.A4", "ms"),
    ("runtime.output_ms", "ms"),
    ("runtime.self_ms_per_step", "ms"),
    ("mdsim.advance_ms", "ms"),
    ("mdsim.force_ms", "ms"),
    ("mdsim.cell_rebuild_ms", "ms"),
    ("mdsim.integrate_ms", "ms"),
    ("mdsim.scratch_allocs", "count"),
    ("parallel.merge_ms", "ms"),
    ("parallel.chunks_per_call", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("accounting.unattributed_frac", "frac"),
    ("failed_frac", "frac"),
];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Timed seconds (split evenly between an untraced and a traced
    /// phase when `trace`).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Client threads (service workloads) or kernel threads (`insitu_md`).
    pub threads: usize,
}

/// Input sizes of all workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `hot_hits` and `cold_misses`.
    pub service: ServiceSize,
    /// `insitu_md`.
    pub md: MdSize,
}

/// The sizes the benchmark measures at.
pub const FULL: Sizes = Sizes {
    service: ServiceSize {
        universe: 24,
        warmup: 256,
        setups: 9,
        batch_requests: 500,
        max_requests: 400_000,
        reference_every: 4,
    },
    md: MdSize {
        particles: 1500,
        steps: 100,
        equilibrate: 20,
        setups: 9,
        expected: [
            2253.580316047427,
            -6507.596526316566,
            2571.5,
            1509.3,
            0.9544936025954067,
            0.19931322229703974,
        ],
    },
};

/// Tiny sizes for the self-test.
pub const SMOKE: Sizes = Sizes {
    service: ServiceSize {
        universe: 6,
        warmup: 6,
        setups: 2,
        batch_requests: 16,
        max_requests: 4_096,
        reference_every: 2,
    },
    md: MdSize {
        particles: 300,
        steps: 20,
        equilibrate: 2,
        setups: 2,
        expected: [
            470.56925871108194,
            -1067.676754128885,
            226.5,
            702.5,
            0.8839402394986744,
            // A4 does not run in 20 steps
            0.0,
        ],
    },
};

/// Runs `f` once and returns its value with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Seconds → microseconds.
pub fn us(s: f64) -> f64 {
    s * 1e6
}

/// Runs workload `name`, then keeps exactly the metrics the contract
/// names for the run's mode, in contract order; per-layer metrics a
/// workload does not produce read 0. `None` for an unknown workload.
pub fn run_workload(name: &str, cfg: &RunConfig, sizes: &Sizes) -> Option<Outcome> {
    let mut outcome = match name {
        "hot_hits" => service_load::run(Traffic::Hot, cfg, &sizes.service),
        "cold_misses" => service_load::run(Traffic::Cold, cfg, &sizes.service),
        "insitu_md" => md::run(cfg, &sizes.md),
        _ => return None,
    };
    let listed: &[(&'static str, &'static str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for m in &outcome.metrics.0 {
        let known = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .any(|(n, u)| *n == m.name && *u == m.unit);
        assert!(
            known,
            "metric {} [{}] is not in the contract lists",
            m.name, m.unit
        );
    }
    let mut kept = report::Metrics::default();
    for &(n, unit) in listed {
        kept.push(n, outcome.metrics.get(n).unwrap_or(0.0), unit);
    }
    outcome.metrics = kept;
    Some(outcome)
}
