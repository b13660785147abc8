//! The repository benchmark: one command that runs a workload of the
//! read-disturb simulator stack, checks its outputs, and prints every
//! metric by name and unit.
//!
//! ```text
//! perfbench --workload <replay-web|serve-mix|read-hammer|fleet-aging>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every public call into a layer and prints
//! the per-layer metrics. The last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! record the run (commit, host, seed, shape), the simulated fingerprint,
//! the checks, and the span summary.

mod common;
mod fleet_aging;
mod measure;
mod read_hammer;
mod replay_web;
mod serve_mix;
mod trace;

use std::process::Command;
use std::sync::atomic::Ordering;
use std::time::Duration;

use common::{Ctx, Report};

/// A run that has not finished by then is reported as hung and failed.
const WATCHDOG_S: u64 = 170;

const WORKLOADS: [&str; 4] = ["replay-web", "serve-mix", "read-hammer", "fleet-aging"];

/// Per-layer metrics and their units, in print order. A layer a workload
/// leaves idle reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.gen_ns_per_op", "ns"),
    ("engine.pool_wait_ns_per_op", "ns"),
    ("engine.flash_ns_per_op", "ns"),
    ("engine.timing_ns_per_op", "ns"),
    ("engine.coord_ns_per_op", "ns"),
    ("engine.stats_ms", "ms"),
    ("engine.rss_growth_mb", "MB"),
    ("ftl.read_ns.p50", "ns"),
    ("ftl.read_ns.tail", "ns"),
    ("ftl.read_ns.tail_pct", "%"),
    ("ftl.read_ns.n", "count"),
    ("ftl.write_ns.p50", "ns"),
    ("ftl.write_ns.tail", "ns"),
    ("ftl.write_ns.tail_pct", "%"),
    ("ftl.write_ns.n", "count"),
    ("ftl.gc_write_ns.p50", "ns"),
    ("ftl.gc_write_ns.tail", "ns"),
    ("ftl.gc_write_ns.tail_pct", "%"),
    ("ftl.gc_write_ns.n", "count"),
    ("ftl.gc_share", "fraction"),
    ("ftl.ladder_read_ns.p50", "ns"),
    ("ftl.ladder_read_ns.tail", "ns"),
    ("ftl.ladder_read_ns.tail_pct", "%"),
    ("ftl.ladder_read_ns.n", "count"),
    ("ftl.ladder_share", "fraction"),
    ("ftl.advance_ms_per_day", "ms"),
    ("serve.submit_ns.p50", "ns"),
    ("serve.submit_ns.tail", "ns"),
    ("serve.submit_ns.tail_pct", "%"),
    ("serve.submit_ns.n", "count"),
    ("serve.submit_share", "fraction"),
    ("serve.pool_wait_ns_per_op", "ns"),
    ("serve.flash_ns_per_op", "ns"),
    ("serve.timing_ns_per_op", "ns"),
    ("serve.accounting_ns_per_op", "ns"),
    ("serve.flush_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.replay_ref_ops_per_s", "1/s"),
    ("serve.overhead_frac", "fraction"),
    ("fleet.epoch_ms.p50", "ms"),
    ("fleet.epoch_ms.max", "ms"),
    ("fleet.epoch_ms.n", "count"),
    ("sim.ns_per_flash_op", "ns"),
    ("ftl.waf", "ratio"),
    ("ecc.escalated_frac", "fraction"),
    ("ecc.retry_reads_per_escalation", "ratio"),
    ("core.probe_reads_per_day", "count"),
    ("fleet.replacements", "count"),
    ("sim.p50_us", "us"),
    ("sim.p99_us", "us"),
    ("sim.kiops", "kIOPS"),
    ("sim.ops", "count"),
    ("sim.reads", "count"),
    ("sim.writes", "count"),
    ("sim.gc_writes", "count"),
    ("sim.refresh_writes", "count"),
    ("sim.recovered_reads", "count"),
    ("sim.uncorrectable_reads", "count"),
    ("run.failed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Output of a git query, if the working directory is the root of a git
/// checkout (an enclosing repository would report another commit).
fn git(args: &[&str]) -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git").args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A hung simulator (a wedged pool lane, a spinning admission window)
    // must still end the run, as a failure of every op it attempted.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(WATCHDOG_S));
        let attempted = common::ATTEMPTED.load(Ordering::Relaxed).max(1);
        println!("# check FAILED: run hung past {WATCHDOG_S} s");
        println!("{}", result_line(false, attempted, attempted, &[]));
        std::process::exit(3);
    });

    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "\"unknown\"".into(),
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        lanes,
        traced: args.traced,
        tracer: trace::Tracer::new(false),
    };
    let mut report: Report = match args.workload.as_str() {
        "replay-web" => replay_web::run(&mut ctx),
        "serve-mix" => serve_mix::run(&mut ctx),
        "read-hammer" => read_hammer::run(&mut ctx),
        "fleet-aging" => fleet_aging::run(&mut ctx),
        _ => unreachable!("validated in parse_args"),
    };
    println!(
        concat!(
            "# run {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"nproc\":{},\"commit\":\"{}\",\"dirty\":{},\"shape\":\"{}\"}}"
        ),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        lanes,
        commit,
        dirty,
        report.shape,
    );
    println!("# fingerprint {}", report.fingerprint);
    println!("# rounds {}", report.rounds);

    // The accuracy side-run runs outside every timed window, on every
    // workload, so each untraced run reports the full end-to-end metric
    // set. The traced run prints per-layer metrics only and skips it.
    let accuracy = if args.traced {
        common::Accuracy::default()
    } else {
        let started = std::time::Instant::now();
        let accuracy = common::guarded("accuracy side-run", || common::accuracy(args.seed, lanes));
        if let Err(e) = &accuracy {
            report.check(e, false);
        }
        let accuracy = accuracy.unwrap_or_default();
        println!("# accuracy {} in {:.3} s", accuracy.detail, started.elapsed().as_secs_f64());
        accuracy
    };

    let correct = report.checks.iter().all(|(_, ok)| *ok) && report.outcome.attempted > 0;
    for (name, ok) in &report.checks {
        println!("# check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    for line in ctx.tracer.summary_lines() {
        println!("{line}");
    }
    let mut outcome = report.outcome;
    if !correct {
        // A failed check voids every op of the run.
        outcome.failed = outcome.attempted;
    }
    let metrics: Vec<(&str, f64, &str)> = if args.traced {
        report.layer.insert("run.failed_frac", outcome.failed_frac());
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, report.layer.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        vec![
            ("ops_per_s", report.ops_per_s, "1/s"),
            ("setup_s", report.setup_s, "s"),
            ("peak_rss_mb", report.peak_rss_mb, "MB"),
            ("ok_frac", 1.0 - outcome.failed_frac(), "fraction"),
            ("uncorrectable_err_dec", accuracy.uncorrectable_err_dec, "decades"),
            ("escalated_err_dec", accuracy.escalated_err_dec, "decades"),
            ("rber_err_dec", accuracy.rber_err_dec, "decades"),
        ]
    };
    println!("{}", result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
