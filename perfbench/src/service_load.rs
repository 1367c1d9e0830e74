//! The two service workloads, `hot_hits` and `cold_misses`: closed-loop
//! client threads calling [`SolveService::solve_seq`] and rendering each
//! reply to the `service/v1` wire format, as a front end would.
//!
//! The timed phase runs in batches of a fixed number of requests, which
//! the clients claim one at a time and send back to back. Between
//! batches, with the clock stopped, the benchmark checks every reply and
//! (traced runs only) re-times each layer's public calls on that reply's
//! own inputs. Checking therefore never competes with serving, and the
//! replies held for checking take the same memory at any throughput.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use certify::{check_certificate, replay, Verdict};
use insitu_core::aggregate::{build_aggregate, solve_aggregate_counts};
use insitu_core::placement::place_schedule;
use insitu_types::canonical::{canonicalize, to_canonical};
use insitu_types::json::{self, Value};
use insitu_types::{ResponseSource, ScheduleProblem};
use milp::SolveOptions;
use service::{Reply, ServiceConfig, SolveService};

use crate::gen::{self, Zipf};
use crate::report::{beyond, median, peak_rss_mb, quantile, Metrics, Outcome};
use crate::{timed, us, RunConfig};

/// Which request stream to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Zipf draws over a universe solved during setup: every request hits.
    Hot,
    /// Distinct instances, never repeated: every request misses.
    Cold,
}

/// Size knobs of the service workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSize {
    /// `hot_hits` universe size.
    pub universe: usize,
    /// Instances solved into the `cold_misses` cache during setup.
    pub warmup: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests per timed batch.
    pub batch_requests: u64,
    /// Most requests timed in one phase (the latency sample buffer).
    pub max_requests: usize,
    /// `cold_misses`: one request in this many gets a cold reference solve.
    pub reference_every: u64,
}

/// Largest share of a traced run's mean latency that the named layers
/// may leave unattributed (`service.self_us_per_req`).
pub const UNATTRIBUTED_MAX: f64 = 0.20;

/// One served request, kept until its batch is checked.
struct Served {
    index: u64,
    /// Universe member (`hot_hits`) the request was drawn from.
    member: usize,
    problem: ScheduleProblem,
    latency_s: f64,
    reply: Result<Reply, String>,
}

/// Per-request results of checking (and, traced, re-timing) one reply.
#[derive(Default)]
struct Tally {
    requests: u64,
    failed: u64,
    first_failure: Option<String>,
    latency_sum_s: f64,
    proved: u64,
    cert_nodes: u64,
    cert_cuts: u64,
    certs: u64,
    references: u64,
    // re-timed layer calls, summed over requests (seconds)
    validate: f64,
    fingerprint: f64,
    canonicalize: f64,
    replay: f64,
    certificate: f64,
    serialize: f64,
    place: f64,
    build: f64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.requests += o.requests;
        self.failed += o.failed;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure;
        }
        self.latency_sum_s += o.latency_sum_s;
        self.proved += o.proved;
        self.cert_nodes += o.cert_nodes;
        self.cert_cuts += o.cert_cuts;
        self.certs += o.certs;
        self.references += o.references;
        self.validate += o.validate;
        self.fingerprint += o.fingerprint;
        self.canonicalize += o.canonicalize;
        self.replay += o.replay;
        self.certificate += o.certificate;
        self.serialize += o.serialize;
        self.place += o.place;
        self.build += o.build;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Layer time the benchmark attributes per request (seconds).
    fn attributed_per_req(&self) -> f64 {
        (self.validate
            + self.fingerprint
            + self.canonicalize
            + self.replay
            + self.certificate
            + self.serialize
            + self.place
            + self.build)
            / self.requests.max(1) as f64
    }
}

/// The workload state shared by client and checker threads.
struct Ctx {
    traffic: Traffic,
    seed: u64,
    size: ServiceSize,
    universe: Vec<ScheduleProblem>,
    zipf: Zipf,
    /// `hot_hits`: the setup solve's objective per universe member.
    reference: Vec<f64>,
}

impl Ctx {
    fn request(&self, index: u64) -> (usize, ScheduleProblem) {
        match self.traffic {
            Traffic::Hot => gen::hot_request(self.seed, index, &self.universe, &self.zipf),
            Traffic::Cold => (0, gen::cold_request(self.seed, index)),
        }
    }
}

fn same_objective(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Builds a service at `ServiceConfig::default()` and fills its cache;
/// returns it with the objective of each instance solved into the cache.
fn set_up(
    traffic: Traffic,
    seed: u64,
    size: &ServiceSize,
    clients: usize,
    universe: &[ScheduleProblem],
) -> Result<(SolveService, Vec<f64>), String> {
    let config = ServiceConfig::default();
    let fill = match traffic {
        Traffic::Hot if universe.len() > config.cache_capacity => {
            return Err(format!(
                "universe of {} does not fit the default cache of {}",
                universe.len(),
                config.cache_capacity
            ))
        }
        Traffic::Hot => universe.to_vec(),
        Traffic::Cold => (0..size.warmup as u64)
            .map(|i| gen::warmup_instance(seed, i))
            .collect(),
    };
    let svc = SolveService::new(config);
    let replies = svc.process_batch(&fill, clients);
    let mut reference = Vec::with_capacity(replies.len());
    for (i, r) in replies.into_iter().enumerate() {
        match r {
            Ok(reply) if reply.verdict != Verdict::Invalid => reference.push(reply.objective),
            Ok(_) => return Err(format!("setup instance {i}: INVALID verdict")),
            Err(e) => return Err(format!("setup instance {i}: {e}")),
        }
    }
    Ok((svc, reference))
}

/// One client's share of a batch. Each reply is kept whole, certificate
/// included, and dropped only after its batch is checked, so traced and
/// untraced phases time the same client code.
fn client_batch(svc: &SolveService, ctx: &Ctx, next: &AtomicU64, batch_end: u64) -> Vec<Served> {
    let mut out = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= batch_end {
            return out;
        }
        let (member, problem) = ctx.request(index);
        let t0 = Instant::now();
        let reply = svc.solve_seq(&problem, index).inspect(|reply| {
            std::hint::black_box(json::to_string(&reply.to_response(index)));
        });
        let latency_s = t0.elapsed().as_secs_f64();
        out.push(Served {
            index,
            member,
            problem,
            latency_s,
            reply: reply.map_err(|e| e.to_string()),
        });
    }
}

/// Checks one reply against its own instance and the reference; when
/// `retime`, also times each layer's public call on the same inputs.
fn check(ctx: &Ctx, s: &Served, retime: bool, tally: &mut Tally) {
    tally.requests += 1;
    tally.latency_sum_s += s.latency_s;
    let reply = match &s.reply {
        Ok(r) => r,
        Err(e) => return tally.fail(format!("request {}: {e}", s.index)),
    };
    if reply.verdict == Verdict::Invalid {
        return tally.fail(format!("request {}: INVALID verdict", s.index));
    }
    if reply.verdict == Verdict::Proved {
        tally.proved += 1;
    }
    let (report, replay_s) = timed(|| replay(&s.problem, &reply.schedule));
    match report {
        Ok(r) if r.is_feasible() && same_objective(r.objective.to_f64(), reply.objective) => {}
        Ok(r) if !r.is_feasible() => {
            return tally.fail(format!(
                "request {}: replay infeasible: {:?}",
                s.index,
                r.messages()
            ))
        }
        Ok(r) => {
            return tally.fail(format!(
                "request {}: replayed objective {} != served {}",
                s.index,
                r.objective.to_f64(),
                reply.objective
            ))
        }
        Err(e) => return tally.fail(format!("request {}: replay impossible: {e}", s.index)),
    }
    let reference = match ctx.traffic {
        Traffic::Hot => Some(ctx.reference[s.member]),
        Traffic::Cold if gen::in_reference_sample(ctx.seed, s.index, ctx.size.reference_every) => {
            let opts = SolveOptions {
                threads: 1,
                ..SolveOptions::default()
            };
            tally.references += 1;
            match solve_aggregate_counts(&s.problem, &opts) {
                Ok(sol) => Some(sol.objective),
                Err(e) => return tally.fail(format!("request {}: reference solve: {e}", s.index)),
            }
        }
        Traffic::Cold => None,
    };
    if let Some(want) = reference {
        if !same_objective(want, reply.objective) {
            return tally.fail(format!(
                "request {}: objective {} != reference {want}",
                s.index, reply.objective
            ));
        }
    }
    if !retime {
        return;
    }

    // --- traced run: re-time the layer calls the service made ---
    let cert = reply.certificate.as_ref();
    if let Some(c) = cert {
        tally.certs += 1;
        tally.cert_nodes += c.nodes.len() as u64;
        tally.cert_cuts += c.cuts.len() as u64;
    }
    let objective = reply.objective;
    tally.validate += timed(|| s.problem.validate()).1;
    tally.fingerprint += timed(|| certify::fingerprint(&s.problem)).1;
    let ((canon, perm), canon_s) = timed(|| canonicalize(&s.problem));
    tally.canonicalize += canon_s;
    tally.replay += replay_s;
    if let Some(c) = cert {
        tally.certificate += timed(|| check_certificate(c, objective)).1;
    }
    tally.serialize += timed(|| json::to_string(&reply.to_response(s.index))).1;
    if matches!(reply.source, ResponseSource::Fresh | ResponseSource::Warm) {
        // a miss also builds the model, places the counts and certifies
        // the canonical result before caching it
        tally.build += timed(|| build_aggregate(&canon)).1;
        let counts = to_canonical(&reply.counts, &perm);
        let outputs = to_canonical(&reply.output_counts, &perm);
        let (canon_schedule, place_s) = timed(|| place_schedule(&canon, &counts, &outputs));
        tally.place += place_s;
        tally.replay += timed(|| replay(&canon, &canon_schedule)).1;
        if let Some(c) = cert {
            tally.certificate += timed(|| check_certificate(c, objective)).1;
        }
    }
}

/// Registry counters and meter sums the per-layer metrics read, as
/// deltas over a timed phase.
const COUNTERS: [&str; 11] = [
    "service.requests",
    "service.hits",
    "service.misses",
    "service.dedup_waits",
    "service.evictions",
    "service.solves",
    "service.warm_starts",
    "milp.nodes_explored",
    "milp.lp_pivots",
    "milp.cuts.applied",
    "milp.hint_accepted",
];
const METERS: [&str; 4] = [
    "milp.presolve_s",
    "milp.root_lp_s",
    "milp.cuts.separation_s",
    "milp.search_s",
];

struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    fn read(svc: &SolveService) -> Self {
        let snap = svc.registry().snapshot();
        let counters = COUNTERS
            .iter()
            .map(|&n| (n, snap.counter(n).unwrap_or(0) as f64));
        let meters = METERS
            .iter()
            .map(|&n| (n, snap.meter(n).map_or(0.0, |m| m.sum)));
        Counters(counters.chain(meters).collect())
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&k, v)| (k, v - before.get(k)))
                .collect(),
        )
    }

    fn get(&self, name: &str) -> f64 {
        *self.0.get(name).expect("counter read by Counters::read")
    }
}

/// Latency samples of one phase in nanoseconds, in a buffer allocated and
/// touched once up front. The benchmark's own memory, and with it
/// `peak_rss_mb`, must not grow with the number of requests a faster
/// program completes; a phase ends early when the buffer is full.
struct Samples {
    ns: Vec<u32>,
    len: usize,
}

impl Samples {
    fn new(capacity: usize) -> Self {
        // a non-zero fill writes every page now, not when first used
        Samples {
            ns: vec![u32::MAX; capacity],
            len: 0,
        }
    }

    fn room(&self) -> usize {
        self.ns.len() - self.len
    }

    fn push(&mut self, seconds: f64) {
        self.ns[self.len] = (seconds * 1e9).min(u32::MAX as f64) as u32;
        self.len += 1;
    }

    /// The samples, sorted in place.
    fn sorted(&mut self) -> &[u32] {
        let filled = &mut self.ns[..self.len];
        filled.sort_unstable();
        filled
    }
}

/// Result of one timed phase.
struct Phase {
    latencies: Samples,
    wall_s: f64,
    tally: Tally,
    counters: Counters,
}

/// Sends batches until `seconds` of batch time have elapsed or the
/// sample buffer is full.
fn timed_phase(
    svc: &SolveService,
    ctx: &Ctx,
    clients: usize,
    seconds: f64,
    retime: bool,
    next: &AtomicU64,
) -> Phase {
    let before = Counters::read(svc);
    let mut latencies = Samples::new(ctx.size.max_requests);
    let mut wall_s = 0.0;
    let mut tally = Tally::default();
    while wall_s < seconds && latencies.room() >= ctx.size.batch_requests as usize {
        let batch_end = next.load(Ordering::Relaxed) + ctx.size.batch_requests;
        let t0 = Instant::now();
        let served: Vec<Vec<Served>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| scope.spawn(|| client_batch(svc, ctx, next, batch_end)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        wall_s += t0.elapsed().as_secs_f64();
        // each client's last claim overshot the batch
        next.store(batch_end, Ordering::Relaxed);
        // the clock is stopped: check (and re-time) each client's share
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = served
                .iter()
                .map(|part| {
                    scope.spawn(move || {
                        let mut t = Tally::default();
                        for s in part {
                            check(ctx, s, retime, &mut t);
                        }
                        t
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("checker thread"))
                .collect()
        });
        for t in tallies {
            tally.merge(t);
        }
        served
            .iter()
            .flatten()
            .for_each(|s| latencies.push(s.latency_s));
    }
    let counters = Counters::read(svc).since(&before);
    Phase {
        latencies,
        wall_s,
        tally,
        counters,
    }
}

/// Runs `hot_hits` or `cold_misses`.
pub fn run(traffic: Traffic, cfg: &RunConfig, size: &ServiceSize) -> Outcome {
    let clients = cfg.threads;
    let universe = match traffic {
        Traffic::Hot => gen::universe(size.universe),
        Traffic::Cold => Vec::new(),
    };
    let mut problems = Vec::new();
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..size.setups.max(1) {
        drop(built.take());
        let (r, s) = timed(|| set_up(traffic, cfg.seed, size, clients, &universe));
        setup_times.push(s);
        match r {
            Ok(b) => built = Some(b),
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
    let Some((svc, reference)) = built else {
        return outcome;
    };
    let ctx = Ctx {
        traffic,
        seed: cfg.seed,
        size: *size,
        zipf: Zipf::new(universe.len().max(1), gen::ZIPF_S),
        universe,
        reference,
    };
    let next = AtomicU64::new(0);

    // untraced phase: the whole run, or the first half of a traced run
    let plain_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut plain = timed_phase(&svc, &ctx, clients, plain_s, false, &next);
    let traced = cfg
        .trace
        .then(|| timed_phase(&svc, &ctx, clients, cfg.seconds - plain_s, true, &next));

    let sorted = plain.latencies.sorted();
    let (n, p50_ns, p99_ns) = (sorted.len(), quantile(sorted, 0.5), quantile(sorted, 0.99));
    for phase in std::iter::once(&plain).chain(&traced) {
        outcome.attempted += phase.tally.requests;
        outcome.failed += phase.tally.failed;
        if let Some(f) = &phase.tally.first_failure {
            outcome.report.push(format!("failure: {f}"));
        }
    }
    let m = &mut outcome.metrics;
    m.push("ops_per_s", n as f64 / plain.wall_s, "1/s");
    m.push("latency_p50_ms", p50_ns as f64 / 1e6, "ms");
    m.push("latency_p99_ms", p99_ns as f64 / 1e6, "ms");
    m.push("setup_s", median(&setup_times), "s");
    m.push(
        "failed_frac",
        outcome.failed as f64 / outcome.attempted as f64,
        "frac",
    );
    if let Some(t) = &traced {
        layer_metrics(&mut outcome, traffic, t, &plain);
    }
    outcome.metrics.push("peak_rss_mb", peak_rss_mb(), "MB");

    let f = &mut outcome.facts;
    f.insert("client_threads".into(), Value::Number(clients as f64));
    f.insert("kernel_threads".into(), Value::Number(1.0));
    f.insert("latency_samples".into(), Value::Number(n as f64));
    f.insert(
        "p99_tail_samples".into(),
        Value::Number(beyond(n, 0.99) as f64),
    );
    f.insert("timed_s".into(), Value::Number(plain.wall_s));
    f.insert("setups".into(), Value::Number(setup_times.len() as f64));
    f.insert("universe".into(), Value::Number(ctx.universe.len() as f64));
    f.insert(
        "reference_solves".into(),
        Value::Number(
            (plain.tally.references + traced.as_ref().map_or(0, |t| t.tally.references)) as f64,
        ),
    );
    outcome.report.push(format!(
        "{} requests in {:.3} s from {clients} clients; p50/p99 over {n} samples ({} beyond p99); setups {:?} s",
        n,
        plain.wall_s,
        beyond(n, 0.99),
        setup_times
    ));
    outcome
}

/// Per-layer metrics of a traced phase, plus the accounting check.
fn layer_metrics(out: &mut Outcome, traffic: Traffic, t: &Phase, plain: &Phase) {
    let m = &mut out.metrics;
    let c = &t.counters;
    let tl = &t.tally;
    let reqs = (tl.requests.max(1)) as f64;
    let mean_lat = tl.latency_sum_s / reqs;
    let plain_mean = plain.tally.latency_sum_s / plain.tally.requests.max(1) as f64;
    let solves = c.get("service.solves");
    let per_solve = |x: f64| if solves > 0.0 { x / solves } else { 0.0 };
    let milp_s = c.get("milp.presolve_s")
        + c.get("milp.root_lp_s")
        + c.get("milp.cuts.separation_s")
        + c.get("milp.search_s");
    let attributed = tl.attributed_per_req() + milp_s / reqs;
    let self_s = mean_lat - attributed;
    let requests = c.get("service.requests").max(1.0);

    m.push(
        "service.hit_ratio",
        c.get("service.hits") / requests,
        "frac",
    );
    m.push("service.solves_per_req", solves / requests, "count");
    m.push("service.dedup_waits", c.get("service.dedup_waits"), "count");
    m.push("service.evictions", c.get("service.evictions"), "count");
    m.push("service.self_us_per_req", us(self_s), "us");

    m.push("certify.fingerprint_us", us(tl.fingerprint / reqs), "us");
    m.push("certify.replay_us", us(tl.replay / reqs), "us");
    m.push("certify.certificate_us", us(tl.certificate / reqs), "us");
    let certs = tl.certs.max(1) as f64;
    m.push(
        "certify.cut_proofs_per_cert",
        tl.cert_cuts as f64 / certs,
        "count",
    );
    m.push(
        "certify.cert_nodes_per_cert",
        tl.cert_nodes as f64 / certs,
        "count",
    );
    m.push("certify.proved_frac", tl.proved as f64 / reqs, "frac");

    m.push("types.validate_us", us(tl.validate / reqs), "us");
    m.push("types.canonicalize_us", us(tl.canonicalize / reqs), "us");
    m.push("types.serialize_us", us(tl.serialize / reqs), "us");

    m.push("milp.solve_ms", per_solve(milp_s) * 1e3, "ms");
    m.push(
        "milp.presolve_ms",
        per_solve(c.get("milp.presolve_s")) * 1e3,
        "ms",
    );
    m.push(
        "milp.root_lp_ms",
        per_solve(c.get("milp.root_lp_s")) * 1e3,
        "ms",
    );
    m.push(
        "milp.cut_sep_ms",
        per_solve(c.get("milp.cuts.separation_s")) * 1e3,
        "ms",
    );
    m.push(
        "milp.search_ms",
        per_solve(c.get("milp.search_s")) * 1e3,
        "ms",
    );
    m.push(
        "milp.nodes_per_solve",
        per_solve(c.get("milp.nodes_explored")),
        "count",
    );
    m.push(
        "milp.lp_pivots_per_solve",
        per_solve(c.get("milp.lp_pivots")),
        "count",
    );
    m.push(
        "milp.cuts_applied_per_solve",
        per_solve(c.get("milp.cuts.applied")),
        "count",
    );
    let hinted = c.get("service.warm_starts");
    m.push(
        "milp.hint_accepted_frac",
        if hinted > 0.0 {
            c.get("milp.hint_accepted") / hinted
        } else {
            0.0
        },
        "frac",
    );

    m.push("core.place_us", us(tl.place / reqs), "us");
    m.push("core.build_us", us(tl.build / reqs), "us");

    // the program's own tracing is disabled in both halves, which run the
    // same client code, so this is the drift between the two halves
    let overhead = if plain_mean > 0.0 {
        mean_lat / plain_mean - 1.0
    } else {
        0.0
    };
    m.push("obs.trace_overhead_frac", overhead, "frac");
    let unattributed = if mean_lat > 0.0 {
        self_s / mean_lat
    } else {
        0.0
    };
    m.push("accounting.unattributed_frac", unattributed, "frac");
    out.report.push(format!(
        "traced: {} requests, mean latency {:.1} us = {:.1} us attributed ({:.1} us milp) + {:.1} us service self; \
         unattributed {:.3} (max {UNATTRIBUTED_MAX}), trace overhead {:+.3}",
        tl.requests,
        us(mean_lat),
        us(attributed),
        us(milp_s / reqs),
        us(self_s),
        unattributed,
        overhead
    ));
    if unattributed.abs() > UNATTRIBUTED_MAX {
        out.problems.push(format!(
            "accounting: {:.3} of {} latency unattributed (max {UNATTRIBUTED_MAX})",
            unattributed,
            match traffic {
                Traffic::Hot => "hot_hits",
                Traffic::Cold => "cold_misses",
            }
        ));
    }
}
