//! `read-hammer`: the paper's failure path. A 2×2 `BlockAggregate` array
//! worn to 10k P/E with an 8e-3 ECC line and the Vpass Tuning policy has
//! every logical page written during set-up, then serves simulated days of
//! read-only traffic folded onto a small hot set, with
//! `Engine::advance_time(1.0)` between days. ECC escalation, the recovery
//! ladder, the daily policy tick and refresh do the work; GC stays idle.

use std::time::Instant;

use rd_core::VpassTuningPolicy;
use rd_engine::{Engine, EngineConfig, EngineStats};
use rd_ftl::ReadFidelity;
use rd_workloads::{OpKind, TraceOp};

use crate::common::{self, Ctx, Replica, Report, Round};
use crate::measure;

/// Simulated days per round.
const DAYS: usize = 10;
/// Host reads per simulated day.
const READS_PER_DAY: usize = 400_000;
/// Engine-level logical pages the reads fold onto (a few hot blocks).
const HOT_PAGES: u64 = 64;
/// Prior wear on every block, P/E cycles.
const PE_CYCLES: u64 = 10_000;
/// ECC capability line (RBER): tight enough that disturbed hot pages
/// escalate into the recovery ladder.
const ECC_RBER: f64 = 8.0e-3;

fn config() -> EngineConfig {
    let mut config = common::engine_config(2, 2, ReadFidelity::BlockAggregate);
    config.die.ecc_capability_rber = ECC_RBER;
    config
}

/// The day-by-day read traffic: umass-web arrivals with every address
/// folded onto the hot set.
fn day_traces(seed: u64, config: &EngineConfig) -> Vec<Vec<TraceOp>> {
    let ops = common::profile_trace("umass-web", seed, config, DAYS * READS_PER_DAY);
    ops.chunks(READS_PER_DAY)
        .map(|day| {
            day.iter()
                .map(|op| TraceOp { kind: OpKind::Read, lpa: op.lpa % HOT_PAGES, ..*op })
                .collect()
        })
        .collect()
}

/// Builds, pre-wears and fills the array.
fn build(config: &EngineConfig, lanes: usize) -> Engine<VpassTuningPolicy> {
    let mut engine =
        Engine::with_policy(config.clone(), VpassTuningPolicy::default()).expect("engine");
    let blocks = config.die.geometry.blocks;
    for d in 0..config.topology.dies() {
        let chip = engine.die_mut(d).chip_mut();
        for b in 0..blocks {
            chip.cycle_block(b, PE_CYCLES).expect("block in range");
        }
    }
    for lpa in 0..engine.logical_pages() {
        engine.submit_write(lpa);
    }
    engine.run(lanes);
    engine.drain_completions();
    engine
}

/// Runs die 0's share of the whole round on a standalone die.
fn replica(
    config: &EngineConfig,
    days: &[Vec<TraceOp>],
    timed: bool,
) -> Replica<VpassTuningPolicy> {
    let mut r = Replica::new(config, VpassTuningPolicy::default(), timed).expect("replica die");
    for b in 0..config.die.geometry.blocks {
        r.die_mut().chip_mut().cycle_block(b, PE_CYCLES).expect("block in range");
    }
    let dies = u64::from(config.topology.dies());
    let fill: Vec<(OpKind, u64)> = (0..config.logical_pages())
        .step_by(dies as usize)
        .map(|lpa| (OpKind::Write, lpa / dies))
        .collect();
    r.apply_all(&fill);
    for day in days {
        r.apply_all(&common::die0_share(day, config));
        r.die_mut().advance_time(1.0).expect("daily maintenance");
    }
    r
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let config = config();
    let (seed, lanes) = (ctx.seed, ctx.lanes);
    let ops = (DAYS * READS_PER_DAY) as u64;
    let mut last: Option<EngineStats> = None;
    let mut layer_rounds: Vec<[f64; 2]> = Vec::new();
    let mut window_flash_ops = 0u64;

    let rounds = common::run_rounds(ctx, ops, |tr, _| {
        let t0 = Instant::now();
        let s = tr.begin("workloads::generate");
        let days = day_traces(seed, &config);
        let gen_ns = tr.end(s);
        let s = tr.begin("Engine::with_policy+pre-wear+fill");
        let mut engine = build(&config, lanes);
        tr.end(s);
        let before = engine.stats().totals();
        let setup_s = common::secs(t0);

        let t1 = Instant::now();
        let mut advance_ns = 0u64;
        for day in &days {
            let s = tr.begin("Engine::replay_stats_only");
            engine.replay_stats_only(day.iter().copied(), lanes);
            tr.end(s);
            let s = tr.begin("Engine::advance_time");
            engine.advance_time(1.0).map_err(|e| format!("advance_time: {e:?}"))?;
            advance_ns += tr.end(s);
        }
        let window_s = common::secs(t1);
        // The last replay's stats predate the last day's maintenance.
        let s = tr.begin("Engine::stats");
        let stats = engine.stats();
        tr.end(s);
        window_flash_ops = measure::flash_ops(&measure::stats_delta(&stats.totals(), &before));
        if tr.enabled() {
            layer_rounds.push([gen_ns as f64 / ops as f64, advance_ns as f64 / 1e6 / DAYS as f64]);
        }
        let round = Round {
            setup_s,
            window_s,
            ops,
            writes_failed: stats.writes_failed,
            fingerprint: common::engine_fingerprint(&stats),
            traced: false,
        };
        last = Some(stats);
        Ok(round)
    });

    let mut report = Report::from_rounds(
        &rounds,
        format!(
            "2x2 block-aggregate vpass-tuning, {PE_CYCLES} P/E, ecc {ECC_RBER:e}, \
             {DAYS} days x {READS_PER_DAY} reads on {HOT_PAGES} pages, {lanes} lanes"
        ),
    );
    let Some(stats) = last else {
        return report;
    };
    report.check(
        "read-hammer: reads escalated into the recovery ladder",
        stats.recovered_reads + stats.uncorrectable_reads > 0,
    );

    // The die replica runs in every run: its counters must match die 0.
    let traced = ctx.traced;
    let replica =
        common::guarded("die replica", || replica(&config, &day_traces(seed, &config), traced));
    match replica {
        Ok(mut replica) => {
            report.check(
                "read-hammer: die replica counters == engine die 0",
                replica.stats() == stats.per_die[0].ssd,
            );
            if traced {
                replica.metrics(&mut report.layer);
            }
        }
        Err(e) => report.check(&e, false),
    }

    if traced {
        let col = |k: usize| measure::column_median(&layer_rounds, k);
        let l = &mut report.layer;
        l.insert("workloads.gen_ns_per_op", col(0));
        l.insert("ftl.advance_ms_per_day", col(1));
        l.insert("sim.ns_per_flash_op", rounds.window_s() * 1e9 / window_flash_ops.max(1) as f64);
        l.insert("trace.overhead_frac", rounds.trace_overhead_frac());
        common::modelled_metrics(&stats, DAYS as f64, l);
    }
    report
}
