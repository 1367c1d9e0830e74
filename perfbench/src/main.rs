//! `perfbench --workload <hot_hits|cold_misses|insitu_md> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and a provenance line, then, as the
//! last line of standard output, the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`.

use perfbench::{report, run_workload, RunConfig, FULL, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <hot_hits|cold_misses|insitu_md> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let cfg = RunConfig {
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        threads: report::nproc().min(2),
    };
    Ok((workload, cfg))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run_workload(&workload, &cfg, &FULL).expect("workload validated by parse");
    for line in &outcome.report {
        println!("# {line}");
    }
    for p in &outcome.problems {
        println!("# problem: {p}");
    }
    println!(
        "{}",
        report::provenance(&workload, cfg.seed, cfg.trace, &outcome.facts)
    );
    println!("{}", outcome.result_json());
}
