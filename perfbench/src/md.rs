//! The `insitu_md` workload: the paper's LAMMPS case at laptop scale. A
//! water+ions `mdsim` system runs with A1–A4 coupled in under a schedule
//! that [`Advisor::recommend`] solves during setup from declared,
//! seed-generated profiles, so the executed work is the same every run.
//!
//! The timed phase repeats one [`run_coupled`] of a fixed number of steps,
//! each from the same equilibrated state, until the time is used up.
//! The start state is a constant of the workload, so every repetition is
//! checked against values recorded in this package: it must execute
//! exactly the schedule's analyze and output counts, its end state and
//! analysis results must match the recorded observables, and its end
//! state must equal, bit for bit, that of a bare simulation of the same
//! steps in the same process (so the coupler does not touch the state).

use std::collections::BTreeMap;
use std::time::Instant;

use insitu_core::runtime::{run_coupled, Analysis, CouplerConfig, RunReport, Simulator};
use insitu_core::{Advisor, AdvisorOptions};
use insitu_types::json::Value;
use insitu_types::{
    AnalysisProfile, KernelTelemetry, ResourceConfig, Schedule, ScheduleProblem, GIB,
};
use mdsim::analysis::{a1_hydronium_rdf, a2_ion_rdf, a3_vacf, a4_msd, Msd, Rdf, Vacf};
use mdsim::{water_ions, BuilderParams, System};
use parallel::Exec;

use crate::gen::{self, Rng};
use crate::report::{beyond, median, peak_rss_mb, quantile, Metrics, Outcome};
use crate::{timed, RunConfig};

/// Size knobs of `insitu_md`.
#[derive(Debug, Clone, Copy)]
pub struct MdSize {
    /// Particles in the water+ions box.
    pub particles: usize,
    /// Steps of one coupled run (the schedule's horizon).
    pub steps: usize,
    /// Steps run during setup before the state is frozen.
    pub equilibrate: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Recorded [`OBSERVABLES`] at the end of one coupled run.
    pub expected: [f64; 6],
}

/// Seed of the start state. Like the `hot_hits` universe it is a constant
/// of the workload, so the end state can be recorded once and checked on
/// every run; the run's seed draws the declared profiles.
const STATE_SEED: u64 = 2015_0817;

/// What the end-state check compares, in the order of
/// [`MdSize::expected`]: the final kinetic and potential energy, A1's and
/// A2's accumulated (hydronium|ion)–water pair counts per snapshot, the
/// mean of A3's last correlation curve, and A4's final MSD.
pub const OBSERVABLES: [&str; 6] = [
    "kinetic_energy",
    "potential_energy",
    "a1_pairs_per_sample",
    "a2_pairs_per_sample",
    "a3_vacf_mean",
    "a4_msd",
];

/// Relative tolerance of the end-state check. A one-ulp nudge to one
/// coordinate of the start state moves no observable by more than about
/// 1e-15 over a run, so summation-order changes in the kernels pass; a
/// changed force, integrator or analysis does not.
pub const OBSERVABLE_TOL: f64 = 1e-6;

/// Largest share of a traced run's wall time per step that the coupler
/// may leave outside its simulation and analysis brackets.
pub const UNATTRIBUTED_MAX: f64 = 0.05;

/// Analysis interval: each analysis may run at most every `ITV` steps.
const ITV: usize = 10;
/// Per-analysis short names, in schedule order.
const NAMES: [&str; 4] = ["A1", "A2", "A3", "A4"];

/// Declared profiles for A1–A4, in the shape of the paper's Table 5:
/// three cheap analyses and one expensive one, under a budget that holds
/// the cheap ones at full frequency and leaves the expensive one a few
/// runs. All values are dyadic; the seed moves them within ranges narrow
/// enough that the optimal counts do not change, so every seed executes
/// the same amount of work.
pub fn declared_problem(seed: u64, steps: usize) -> ScheduleProblem {
    let mut rng = Rng::derive(seed, gen::STREAM_MD_PROFILES, 0);
    let mut cheap = |name: &str| {
        AnalysisProfile::new(name)
            .with_compute(0.0625 + rng.range(0, 3) as f64 / 256.0, 0.1 * GIB)
            .with_output(1.0 / 128.0, 0.025 * GIB, 1)
            .with_interval(ITV)
            .with_weight(1.0 + rng.range(0, 3) as f64 / 8.0)
    };
    let analyses = vec![
        cheap("hydronium rdf (A1)"),
        cheap("ion rdf (A2)"),
        cheap("vacf (A3)"),
        AnalysisProfile::new("msd (A4)")
            .with_compute(1.0 + rng.range(0, 3) as f64 / 64.0, 2.0 * GIB)
            .with_output(0.25, 0.5 * GIB, 1)
            .with_interval(ITV)
            .with_weight(1.0 + rng.range(0, 3) as f64 / 8.0),
    ];
    // per 100 steps: A1–A3 at 10 runs each cost at most 2.82, which
    // leaves room for exactly three A4 runs (3 × 1.30 ≤ 4.0 < 4 × 1.25)
    let budget = 6.875 * steps as f64 / 100.0;
    ScheduleProblem::new(
        analyses,
        ResourceConfig::from_total_threshold(steps, budget, 64.0 * GIB, GIB),
    )
    .expect("declared problem must validate")
}

/// A1–A4, owned here and lent to the coupler, so that their results can
/// be read after a run.
struct Kernels {
    a1: Rdf,
    a2: Rdf,
    a3: Vacf,
    a4: Msd,
}

impl Kernels {
    fn new() -> Self {
        Kernels {
            a1: a1_hydronium_rdf(),
            a2: a2_ion_rdf(),
            a3: a3_vacf(16),
            a4: a4_msd(),
        }
    }

    fn hooks(&mut self) -> Vec<Box<dyn Analysis<System> + '_>> {
        vec![
            Box::new(Lent(&mut self.a1)),
            Box::new(Lent(&mut self.a2)),
            Box::new(Lent(&mut self.a3)),
            Box::new(Lent(&mut self.a4)),
        ]
    }

    /// The [`OBSERVABLES`] of a run that ended in `sys`.
    fn observables(&self, sys: &System) -> [f64; 6] {
        let pairs = |rdf: &Rdf| rdf.total_counts(0) as f64 / rdf.samples().max(1) as f64;
        let vacf = &self.a3.correlation;
        [
            sys.kinetic_energy(),
            sys.clone().compute_forces(),
            pairs(&self.a1),
            pairs(&self.a2),
            vacf.iter().sum::<f64>() / vacf.len().max(1) as f64,
            self.a4.compute(sys),
        ]
    }
}

/// An analysis lent to the coupler for one run.
struct Lent<'a, A>(&'a mut A);

impl<A: Analysis<System>> Analysis<System> for Lent<'_, A> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn setup(&mut self, state: &System) {
        self.0.setup(state)
    }

    fn per_step(&mut self, state: &System) {
        self.0.per_step(state)
    }

    fn analyze(&mut self, state: &System) {
        self.0.analyze(state)
    }

    fn output(&mut self, state: &System) {
        self.0.output(state)
    }
}

/// Bitwise checksum of the particle state (positions, velocities,
/// image counts).
pub fn checksum(sys: &System) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for d in 0..3 {
        sys.pos[d].iter().for_each(|x| eat(x.to_bits()));
        sys.vel[d].iter().for_each(|x| eat(x.to_bits()));
        sys.image[d].iter().for_each(|&x| eat(x as u64));
    }
    eat(sys.step_count as u64);
    h
}

/// The simulator as the coupler sees it, with the benchmark's clock on
/// each step boundary: the start of every `advance`, and (traced) its end.
struct Clocked {
    sys: System,
    starts: Vec<Instant>,
    advance_s: Option<f64>,
}

impl Simulator for Clocked {
    type State = System;

    fn state(&self) -> &System {
        &self.sys
    }

    fn advance(&mut self) {
        let t = Instant::now();
        self.starts.push(t);
        self.sys.step();
        if let Some(a) = &mut self.advance_s {
            *a += t.elapsed().as_secs_f64();
        }
    }

    fn kernel_telemetry(&self) -> Option<&KernelTelemetry> {
        self.sys.kernel_telemetry()
    }
}

/// What setup produces: the frozen start state and the solved schedule.
struct Prepared {
    start: System,
    problem: ScheduleProblem,
    schedule: Schedule,
    advisor_s: f64,
}

fn set_up(cfg: &RunConfig, size: &MdSize) -> Result<Prepared, String> {
    let mut start = water_ions(&BuilderParams {
        n_particles: size.particles,
        seed: STATE_SEED,
        ..BuilderParams::default()
    });
    start.exec = Exec::with_threads(cfg.threads);
    for _ in 0..size.equilibrate {
        start.step();
    }
    let problem = declared_problem(cfg.seed, size.steps);
    let (rec, advisor_s) = timed(|| Advisor::new(AdvisorOptions::default()).recommend(&problem));
    let rec = rec.map_err(|e| format!("advisor: {e}"))?;
    Ok(Prepared {
        start,
        problem,
        schedule: rec.schedule,
        advisor_s,
    })
}

/// One timed coupled run and what it measured.
struct Rep {
    wall_s: f64,
    step_latencies: Vec<f64>,
    report: RunReport,
    advance_s: f64,
    final_checksum: u64,
    observables: [f64; 6],
}

fn coupled_run(p: &Prepared, steps: usize, traced: bool) -> Rep {
    let mut sim = Clocked {
        sys: p.start.clone(),
        starts: Vec::with_capacity(steps),
        advance_s: traced.then_some(0.0),
    };
    let mut kernels = Kernels::new();
    let mut hooks = kernels.hooks();
    let cfg = CouplerConfig {
        steps,
        sim_output_every: 0,
    };
    let t0 = Instant::now();
    let report = run_coupled(&mut sim, &mut hooks, &p.schedule, &cfg);
    let end = Instant::now();
    drop(hooks);
    let wall_s = (end - t0).as_secs_f64();
    let step_latencies = sim
        .starts
        .iter()
        .zip(sim.starts.iter().skip(1).chain(std::iter::once(&end)))
        .map(|(a, b)| (*b - *a).as_secs_f64())
        .collect();
    Rep {
        wall_s,
        step_latencies,
        report,
        advance_s: sim.advance_s.unwrap_or(0.0),
        final_checksum: checksum(&sim.sys),
        observables: kernels.observables(&sim.sys),
    }
}

/// Checks one repetition: executed counts equal the schedule's, the
/// observables match the recorded ones, and the final state equals the
/// bare simulation's.
fn check(p: &Prepared, rep: &Rep, expected: &[f64; 6], reference: u64) -> Result<(), String> {
    for (i, (t, s)) in rep
        .report
        .analysis_times
        .iter()
        .zip(&p.schedule.per_analysis)
        .enumerate()
    {
        if t.analyze_count != s.count() || t.output_count != s.output_count() {
            return Err(format!(
                "{}: executed {}/{} analyze/output, scheduled {}/{}",
                NAMES[i],
                t.analyze_count,
                t.output_count,
                s.count(),
                s.output_count()
            ));
        }
    }
    let off = |(got, want): (&f64, &f64)| (got - want).abs() > OBSERVABLE_TOL * want.abs();
    if rep.observables.iter().zip(expected).any(off) {
        return Err(format!(
            "end state {OBSERVABLES:?} = {:?}, recorded {expected:?}",
            rep.observables
        ));
    }
    if rep.final_checksum != reference {
        return Err(format!(
            "final state checksum {:016x} != bare simulation {reference:016x}",
            rep.final_checksum
        ));
    }
    Ok(())
}

/// Repeats coupled runs until `seconds` of coupled time have elapsed.
fn timed_phase(p: &Prepared, steps: usize, seconds: f64, traced: bool) -> Vec<Rep> {
    let mut reps = Vec::new();
    let mut used = 0.0;
    while used < seconds || reps.is_empty() {
        let rep = coupled_run(p, steps, traced);
        used += rep.wall_s;
        reps.push(rep);
    }
    reps
}

/// Runs `insitu_md`.
pub fn run(cfg: &RunConfig, size: &MdSize) -> Outcome {
    let mut setup_times = Vec::new();
    let mut advisor_times = Vec::new();
    let mut prepared = None;
    let mut problems = Vec::new();
    for _ in 0..size.setups.max(1) {
        drop(prepared.take());
        let (r, s) = timed(|| set_up(cfg, size));
        setup_times.push(s);
        match r {
            Ok(p) => {
                advisor_times.push(p.advisor_s);
                prepared = Some(p);
            }
            Err(e) => {
                problems.push(format!("setup: {e}"));
                break;
            }
        }
    }
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        problems,
        metrics: Metrics::default(),
        facts: BTreeMap::new(),
        report: Vec::new(),
    };
    let Some(p) = prepared else {
        return outcome;
    };

    let plain_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = timed_phase(&p, size.steps, plain_s, false);
    let traced = cfg
        .trace
        .then(|| timed_phase(&p, size.steps, cfg.seconds - plain_s, true));

    // reference: the same steps with nothing coupled in
    let reference = {
        let mut bare = p.start.clone();
        for _ in 0..size.steps {
            bare.step();
        }
        checksum(&bare)
    };
    let all = plain.iter().chain(traced.iter().flatten());
    for rep in all {
        outcome.attempted += 1;
        if let Err(e) = check(&p, rep, &size.expected, reference) {
            outcome.failed += 1;
            if outcome.report.is_empty() {
                outcome.report.push(format!("first failure: {e}"));
            }
        }
    }

    let mut lat: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.step_latencies.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let wall: f64 = plain.iter().map(|r| r.wall_s).sum();
    let m = &mut outcome.metrics;
    m.push("ops_per_s", n as f64 / wall, "1/s");
    m.push("latency_p50_ms", quantile(&lat, 0.5) * 1e3, "ms");
    m.push("latency_p99_ms", quantile(&lat, 0.99) * 1e3, "ms");
    m.push("setup_s", median(&setup_times), "s");
    m.push(
        "failed_frac",
        outcome.failed as f64 / outcome.attempted as f64,
        "frac",
    );
    if let Some(t) = &traced {
        layer_metrics(&mut outcome, t, &plain, median(&advisor_times));
    }
    outcome.metrics.push("peak_rss_mb", peak_rss_mb(), "MB");

    let f = &mut outcome.facts;
    f.insert("client_threads".into(), Value::Number(1.0));
    f.insert("kernel_threads".into(), Value::Number(cfg.threads as f64));
    f.insert("particles".into(), Value::Number(size.particles as f64));
    f.insert("steps_per_run".into(), Value::Number(size.steps as f64));
    f.insert("coupled_runs".into(), Value::Number(plain.len() as f64));
    f.insert("latency_samples".into(), Value::Number(n as f64));
    f.insert(
        "p99_tail_samples".into(),
        Value::Number(beyond(n, 0.99) as f64),
    );
    f.insert("timed_s".into(), Value::Number(wall));
    f.insert("setups".into(), Value::Number(setup_times.len() as f64));
    f.insert(
        "counts".into(),
        Value::Array(
            p.schedule
                .per_analysis
                .iter()
                .map(|s| Value::Number(s.count() as f64))
                .collect(),
        ),
    );
    outcome.report.push(format!(
        "{} coupled runs x {} steps in {:.3} s; schedule counts {:?} (objective {}); setups {:?} s",
        plain.len(),
        size.steps,
        wall,
        p.schedule
            .per_analysis
            .iter()
            .map(|s| s.count())
            .collect::<Vec<_>>(),
        p.schedule.objective(&p.problem),
        setup_times
    ));
    outcome
}

/// Per-layer metrics of the traced repetitions, plus the accounting check.
fn layer_metrics(out: &mut Outcome, traced: &[Rep], plain: &[Rep], advisor_s: f64) {
    let m = &mut out.metrics;
    let steps: f64 = traced.iter().map(|r| r.step_latencies.len() as f64).sum();
    let wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let plain_steps: f64 = plain.iter().map(|r| r.step_latencies.len() as f64).sum();
    let plain_wall: f64 = plain.iter().map(|r| r.wall_s).sum();
    let sim: f64 = traced.iter().map(|r| r.report.sim_time).sum();
    let analysis: f64 = traced.iter().map(|r| r.report.total_analysis_time()).sum();
    let advance: f64 = traced.iter().map(|r| r.advance_s).sum();
    let mut kernels = KernelTelemetry::new();
    for r in traced {
        kernels.merge_from(&r.report.kernel_telemetry);
    }
    let kernel = |name: &str| kernels.get(name).copied().unwrap_or_default();
    let per_step_ms = |s: f64| s / steps * 1e3;
    let self_s = wall - sim - analysis;

    m.push("core.advisor_ms", advisor_s * 1e3, "ms");
    m.push("runtime.sim_ms_per_step", per_step_ms(sim), "ms");
    m.push("runtime.analysis_ms_per_step", per_step_ms(analysis), "ms");
    for (i, name) in NAMES.iter().enumerate() {
        let (time, calls) = traced.iter().fold((0.0, 0usize), |(t, c), r| {
            let a = &r.report.analysis_times[i];
            (t + a.analyze, c + a.analyze_count)
        });
        m.push(
            format!("runtime.analyze_ms.{name}"),
            if calls > 0 {
                time / calls as f64 * 1e3
            } else {
                0.0
            },
            "ms",
        );
    }
    let (out_time, out_calls) = traced
        .iter()
        .flat_map(|r| &r.report.analysis_times)
        .fold((0.0, 0usize), |(t, c), a| {
            (t + a.output, c + a.output_count)
        });
    m.push(
        "runtime.output_ms",
        if out_calls > 0 {
            out_time / out_calls as f64 * 1e3
        } else {
            0.0
        },
        "ms",
    );
    m.push("runtime.self_ms_per_step", per_step_ms(self_s), "ms");

    m.push("mdsim.advance_ms", per_step_ms(advance), "ms");
    m.push(
        "mdsim.force_ms",
        per_step_ms(kernel("md.force").wall_s),
        "ms",
    );
    m.push(
        "mdsim.cell_rebuild_ms",
        per_step_ms(kernel("md.cell_rebuild").wall_s),
        "ms",
    );
    m.push(
        "mdsim.integrate_ms",
        per_step_ms(kernel("md.integrate").wall_s),
        "ms",
    );
    m.push(
        "mdsim.scratch_allocs",
        kernel("md.force").scratch_allocs as f64 / traced.len() as f64,
        "count",
    );
    m.push(
        "parallel.merge_ms",
        per_step_ms(kernel("md.force").merge_s),
        "ms",
    );
    m.push(
        "parallel.chunks_per_call",
        kernel("md.force").chunks as f64,
        "count",
    );

    // the traced half adds only the benchmark's clock around `advance`, so
    // this is that cost plus the drift between the two halves
    let overhead = (wall / steps) / (plain_wall / plain_steps) - 1.0;
    m.push("obs.trace_overhead_frac", overhead, "frac");
    let unattributed = self_s / wall;
    m.push("accounting.unattributed_frac", unattributed, "frac");
    out.report.push(format!(
        "traced: {steps} steps, {:.3} ms/step = {:.3} sim ({:.3} advance) + {:.3} analysis + {:.3} coupler self; \
         unattributed {:.4} (max {UNATTRIBUTED_MAX}), trace overhead {:+.4}",
        wall / steps * 1e3,
        per_step_ms(sim),
        per_step_ms(advance),
        per_step_ms(analysis),
        per_step_ms(self_s),
        unattributed,
        overhead,
    ));
    if unattributed.abs() > UNATTRIBUTED_MAX {
        out.problems.push(format!(
            "accounting: {unattributed:.3} of insitu_md step time unattributed (max {UNATTRIBUTED_MAX})"
        ));
    }
}
