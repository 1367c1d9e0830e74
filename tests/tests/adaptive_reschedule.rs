//! The adaptive-vs-static budget-blowout scenario (the deliverable of
//! `docs/ADAPTIVE.md`, reproduction recipe in `EXPERIMENTS.md`).
//!
//! A 40-step run schedules two analyses from a *stale* calibration: the
//! "hog" is modeled at 1 ms/analyze but actually costs ≈ 20 ms. The
//! static schedule provably respects the 90 ms budget under the model
//! but blows through it in reality; the adaptive coupler catches the
//! blowout at the first hog run, re-solves for the remaining steps from
//! the measured costs, and finishes within the budget — with the
//! reschedule event in the exported timeline and the adopted schedule
//! certified.
//!
//! Every run here is timed on a modeled clock: `TickSim::now` returns
//! time that only the modeled costs advance. The costs are dyadic, so
//! every clock reading, bracket and sum is exact in binary floating
//! point and the asserted totals hold bit for bit.

use insitu_core::adaptive::{
    remaining_problem, schedule_tail, AdaptiveConfig, RescheduleRecord, TriggerReason,
};
use insitu_core::advisor::{Advisor, AdvisorOptions};
use insitu_core::attribution::attribute_with_predicted;
use insitu_core::runtime::{
    run_coupled_adaptive, run_coupled_traced, Analysis, AnalysisTimes, CouplerConfig, Simulator,
    EVENT_RESCHEDULE, SPAN_RESCHEDULE, SPAN_RUN,
};
use insitu_core::AdaptiveReport;
use insitu_types::json::Value;
use insitu_types::{AnalysisProfile, ResourceConfig, Schedule, ScheduleProblem};
use std::cell::Cell;
use std::sync::Arc;

const STEPS: usize = 40;
const BUDGET_S: f64 = 0.090;
/// 5/256 s ≈ 19.5 ms, what a hog analyze really costs.
const HOG_ACTUAL_S: f64 = 5.0 / 256.0;
/// 1/4096 s ≈ 0.24 ms, modeled accurately.
const LITE_S: f64 = 1.0 / 4096.0;

/// A simulator on a modeled clock: each step costs `step_s`, each
/// simulation output `output_s`, and analyses charge their own costs
/// through the state they are handed.
#[derive(Default)]
struct TickSim {
    step_s: f64,
    output_s: f64,
    clock: Cell<f64>,
}

impl TickSim {
    fn charge(&self, seconds: f64) {
        self.clock.set(self.clock.get() + seconds);
    }
}

impl Simulator for TickSim {
    type State = TickSim;
    fn state(&self) -> &TickSim {
        self
    }
    fn advance(&mut self) {
        self.charge(self.step_s);
    }
    fn write_output(&mut self) {
        self.charge(self.output_s);
    }
    fn now(&self) -> f64 {
        self.clock.get()
    }
}

/// An analysis that costs exactly its fixed (`ft`), per-step (`it`),
/// analyze (`ct`) and output (`ot`) seconds on the modeled clock.
#[derive(Default)]
struct Modeled {
    name: &'static str,
    ft: f64,
    it: f64,
    ct: f64,
    ot: f64,
}

impl Analysis<TickSim> for Modeled {
    fn name(&self) -> &str {
        self.name
    }
    fn setup(&mut self, sim: &TickSim) {
        sim.charge(self.ft);
    }
    fn per_step(&mut self, sim: &TickSim) {
        sim.charge(self.it);
    }
    fn analyze(&mut self, sim: &TickSim) {
        sim.charge(self.ct);
    }
    fn output(&mut self, sim: &TickSim) {
        sim.charge(self.ot);
    }
}

/// The stale calibration: the hog is modeled ≈ 20x cheaper than it runs.
fn modeled_problem() -> ScheduleProblem {
    ScheduleProblem::new(
        vec![
            AnalysisProfile::new("hog").with_compute(0.001, 0.0).with_interval(4),
            AnalysisProfile::new("lite").with_compute(LITE_S, 0.0).with_interval(4),
        ],
        ResourceConfig::from_total_threshold(STEPS, BUDGET_S, 1e9, 1e9),
    )
    .unwrap()
}

fn hog_and_lite() -> Vec<Box<dyn Analysis<TickSim>>> {
    vec![
        Box::new(Modeled { name: "hog", ct: HOG_ACTUAL_S, ..Modeled::default() }),
        Box::new(Modeled { name: "lite", ct: LITE_S, ..Modeled::default() }),
    ]
}

fn static_schedule(problem: &ScheduleProblem) -> Schedule {
    let rec = Advisor::default().recommend(problem).expect("solvable");
    // under the (stale) model both analyses fit at max frequency, and
    // the advisor proves it
    assert_eq!(rec.counts, vec![10, 10], "scenario baseline moved");
    assert_eq!(rec.verdict, certify::Verdict::Proved);
    rec.schedule
}

fn adaptive_run(adaptive: &AdaptiveConfig, trace: &obs::TraceHandle) -> AdaptiveReport {
    let problem = modeled_problem();
    let cfg = CouplerConfig { steps: STEPS, sim_output_every: 0 };
    let schedule = static_schedule(&problem);
    run_coupled_adaptive(
        &mut TickSim::default(),
        &mut hog_and_lite(),
        &problem,
        &schedule,
        &cfg,
        adaptive,
        trace,
    )
    .unwrap()
}

#[test]
fn adaptive_finishes_within_the_budget_the_static_schedule_blows() {
    // --- static leg: provably fine under the model, broke in reality ---
    let report = run_coupled_traced(
        &mut TickSim::default(),
        &mut hog_and_lite(),
        &static_schedule(&modeled_problem()),
        &CouplerConfig { steps: STEPS, sim_output_every: 0 },
        &obs::TraceHandle::disabled(),
    );
    let static_total = report.total_analysis_time();
    assert_eq!(static_total, 10.0 * HOG_ACTUAL_S + 10.0 * LITE_S);
    assert!(static_total > BUDGET_S);

    // --- adaptive leg: same workload, same stale model ---
    let tracer = Arc::new(obs::Tracer::with_capacity(4096));
    let adaptive = adaptive_run(&AdaptiveConfig::default(), &obs::TraceHandle::new(tracer.clone()));
    assert_eq!(adaptive.reschedules.len(), 1, "{:?}", adaptive.reschedules);
    let first = &adaptive.reschedules[0];
    assert_eq!(first.step, 4, "the first hog run trips the trigger");
    assert_eq!(first.reason, TriggerReason::Budget);
    assert_eq!(first.measured_cum, HOG_ACTUAL_S + LITE_S);
    assert!(first.adopted);
    assert_eq!(first.verdict, "PROVED", "adopted schedules are certified");
    assert!(first.new_objective < first.old_objective);
    // the hog is throttled to 3 more runs, the executed prefix is kept,
    // and lite stays at its maximum frequency
    assert_eq!(adaptive.schedule.per_analysis[0].analysis_steps[0], 4);
    assert_eq!(adaptive.schedule.per_analysis[0].count(), 4);
    assert_eq!(adaptive.schedule.per_analysis[1].count(), 10);
    let adaptive_total = adaptive.run.total_analysis_time();
    assert_eq!(adaptive_total, 4.0 * HOG_ACTUAL_S + 10.0 * LITE_S);
    assert!(adaptive_total <= BUDGET_S);
    // the spliced prediction holds the run to the *measured* baseline
    assert!(adaptive.predicted[first.step] >= first.measured_cum);

    // the timeline validates, and its JSON export keeps the event
    let tl = tracer.timeline();
    tl.validate().expect("well-formed timeline");
    let doc = Value::parse(&tl.to_json_string()).expect("timeline JSON re-parses");
    let events = doc.get("events").and_then(Value::as_array).expect("events");
    assert!(events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some(EVENT_RESCHEDULE)));

    // the reschedule span and event carry the v1 payload
    let span = tl.spans_named(SPAN_RESCHEDULE).next().expect("reschedule span");
    assert_eq!(span.tag_i64("step"), Some(4));
    assert_eq!(span.tag("adopted").and_then(|v| v.as_bool()), Some(true));
    let ev = tl.events_named(EVENT_RESCHEDULE).next().expect("reschedule event");
    assert_eq!(ev.tag("reason").and_then(|v| v.as_str()), Some("budget"));
    assert!(ev.tag_f64("solve_ms").is_some());

    // every adaptive span and event carries the run's deterministic trace
    // id (fingerprint-derived, so stable across reruns)
    let fingerprint = certify::fingerprint(&modeled_problem()).0;
    let expected = obs::TraceContext::derive(fingerprint, 0).trace_id;
    assert!(tl.spans.iter().all(|s| s.trace_id == Some(expected)));
    assert!(tl.events.iter().all(|e| e.trace_id == Some(expected)));

    // the reschedule/v1 export re-parses
    let rs = Value::parse(&adaptive.reschedules_json().to_string_pretty()).expect("re-parses");
    let schema = rs.as_array().and_then(|a| a[0].get("schema")).and_then(Value::as_str);
    assert_eq!(schema, Some("reschedule/v1"));

    // drift attribution lines the spliced prediction up with the run's
    // timeline step for step and ends within the budget. Spans keep the
    // tracer's wall clock, so the measured side is microseconds here
    // (and only the last step's whole budget is safe from a preempted
    // span); the stale-model violation on a wall-clock run is asserted
    // in `timeline_roundtrip`.
    let drift =
        attribute_with_predicted(&modeled_problem(), &adaptive.schedule, &tl, &adaptive.predicted)
            .expect("drift report");
    assert_eq!(drift.per_step.len(), STEPS);
    for d in &drift.per_step {
        assert_eq!(d.predicted_cum.to_bits(), adaptive.predicted[d.step].to_bits());
    }
    assert!(!drift.per_step[STEPS - 1].threshold_violated, "{}", drift.summary());
}

#[test]
fn reschedule_trigger_is_deterministic_across_solver_threads() {
    let run_with_threads = |threads: usize| {
        let solver = milp::SolveOptions { threads, ..Default::default() };
        let cfg = AdaptiveConfig { solver, ..AdaptiveConfig::default() };
        adaptive_run(&cfg, &obs::TraceHandle::disabled())
    };
    // every reschedule/v1 field but the re-solve's wall time
    let records = |r: &AdaptiveReport| -> Vec<RescheduleRecord> {
        r.reschedules.iter().map(|x| RescheduleRecord { solve_ms: 0.0, ..x.clone() }).collect()
    };
    let serial = run_with_threads(1);
    let parallel = run_with_threads(4);
    assert_eq!(serial.reschedules[0].step, 4);
    assert_eq!(records(&serial), records(&parallel));
    assert_eq!(serial.schedule, parallel.schedule);
    assert_eq!(serial.predicted, parallel.predicted);
}

/// The two entry points run one loop: an adaptive run whose triggers
/// never fire reports exactly what the static run reports, and emits the
/// same spans apart from its trace id.
#[test]
fn untriggered_adaptive_run_is_the_static_run() {
    // accurately modeled costs on every hook, and a budget no trigger
    // can reach
    const STEPS: usize = 16;
    let (ft, it, ct, ot) = (1.0 / 64.0, 1.0 / 1024.0, 1.0 / 128.0, 1.0 / 256.0);
    let problem = ScheduleProblem::new(
        vec![AnalysisProfile::new("a")
            .with_fixed(ft, 0.0)
            .with_per_step(it, 0.0)
            .with_compute(ct, 0.0)
            .with_output(ot, 0.0, 2)
            .with_interval(4)],
        ResourceConfig::from_total_threshold(STEPS, 1e3, 1e9, 1e9),
    )
    .unwrap();
    let schedule = Advisor::default().recommend(&problem).expect("solvable").schedule;
    assert!(schedule.per_analysis[0].output_steps.len() >= 2);
    let cfg = CouplerConfig { steps: STEPS, sim_output_every: 8 };
    let sim = || TickSim { step_s: 1.0 / 32.0, output_s: 1.0 / 16.0, ..TickSim::default() };
    let analyses = || -> Vec<Box<dyn Analysis<TickSim>>> {
        vec![Box::new(Modeled { name: "a", ft, it, ct, ot })]
    };

    let static_tracer = Arc::new(obs::Tracer::with_capacity(4096));
    let static_handle = obs::TraceHandle::new(static_tracer.clone());
    let static_run =
        run_coupled_traced(&mut sim(), &mut analyses(), &schedule, &cfg, &static_handle);
    let adaptive_tracer = Arc::new(obs::Tracer::with_capacity(4096));
    let adaptive = run_coupled_adaptive(
        &mut sim(),
        &mut analyses(),
        &problem,
        &schedule,
        &cfg,
        &AdaptiveConfig::default(),
        &obs::TraceHandle::new(adaptive_tracer.clone()),
    )
    .unwrap();
    assert!(adaptive.reschedules.is_empty());
    assert_eq!(adaptive.schedule, schedule);
    assert_eq!(adaptive.predicted.len(), STEPS + 1);
    assert_eq!(static_run.sim_time, 16.0 / 32.0 + 2.0 / 16.0);
    // `{:?}` prints every f64 in its shortest round-trip form, so equal
    // strings mean bitwise-equal times, counts, trace and telemetry
    assert_eq!(format!("{:?}", adaptive.run), format!("{static_run:?}"));

    // same coupler spans; only the adaptive run's trace id differs
    let mut tl = adaptive_tracer.timeline();
    for s in &mut tl.spans {
        s.trace_id = None;
        if s.name == SPAN_RUN {
            s.tags.retain(|(k, _)| *k != "trace_id");
        }
    }
    let static_tl = static_tracer.timeline();
    assert_eq!(tl.structural_fingerprint(), static_tl.structural_fingerprint());
}

/// The re-solve the adaptive run performs at step 4, frozen as a corpus
/// case: the suffix problem with the hog's *measured* cost and the
/// remaining budget, plus the schedule the advisor adopts. The corpus
/// replay (`certify_differential::corpus_replays_clean`) pushes it
/// through every oracle on every run.
#[test]
fn frozen_remaining_problem_matches_an_actual_resolve() {
    let text = std::fs::read_to_string(
        integration_tests::fuzz::corpus_dir().join("adaptive-remaining-budget.json"),
    )
    .expect("corpus case present");
    let (frozen, frozen_schedule, _) = integration_tests::fuzz::parse_case(&text).unwrap();
    let frozen_schedule = frozen_schedule.expect("case carries the adopted schedule");

    // the coupler's state when the trigger tripped after step 4, rebuilt
    // by hand (one run of each analysis, both active and set up since
    // step 1) around the live run's measured total
    let adaptive = adaptive_run(&AdaptiveConfig::default(), &obs::TraceHandle::disabled());
    let measured = |name: &str, ct: f64| AnalysisTimes {
        name: name.into(),
        analyze: ct,
        analyze_count: 1,
        ..AnalysisTimes::default()
    };
    let live = remaining_problem(
        &modeled_problem(),
        &[measured("hog", HOG_ACTUAL_S), measured("lite", LITE_S)],
        &[4, 4],
        &[true, true],
        4,
        adaptive.reschedules[0].measured_cum,
    )
    .unwrap();
    assert_eq!(frozen, live);
    assert_eq!(frozen_schedule, schedule_tail(&adaptive.schedule, 4));
    // and what the controller recorded from its own live state agrees:
    // the remaining horizon, and both objectives scored on the frozen
    // suffix problem
    let record = &adaptive.reschedules[0];
    assert_eq!(record.remaining_steps, STEPS - 4);
    let static_tail = schedule_tail(&static_schedule(&modeled_problem()), 4);
    assert_eq!(record.old_objective, static_tail.objective(&frozen));
    assert_eq!(record.new_objective, frozen_schedule.objective(&frozen));

    // the recorded schedule certifies against the suffix problem, and a
    // fresh advisor solve agrees with its counts: throttle the hog, keep
    // the cheap analysis at max
    let c = certify::certify(&frozen, &frozen_schedule, None);
    assert_ne!(c.verdict, certify::Verdict::Invalid, "{:?}", c.problems);
    let rec = Advisor::new(AdvisorOptions::default()).recommend(&frozen).unwrap();
    let counts: Vec<usize> = frozen_schedule.per_analysis.iter().map(|s| s.count()).collect();
    assert_eq!(rec.counts, counts);
}
