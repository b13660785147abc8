//! `replay-web`: bulk `Engine::replay_stats_only` of a umass-web trace
//! (85% reads, Zipf θ 0.75) on a fresh 4×4 `BlockAggregate` array with
//! no mitigation, warmed into steady GC first. Engine stages and FTL GC do
//! the work; the recovery ladder, serve and the policy stay idle.

use std::time::Instant;

use rd_engine::{Engine, EngineStats};
use rd_ftl::{NoMitigation, ReadFidelity};

use crate::common::{self, Ctx, Replica, Report, Round};
use crate::measure;

/// Warm-up ops replayed during set-up (about ten fills of the logical
/// space with writes, so the window starts in steady GC).
const WARM_OPS: usize = 200_000;
/// Ops replayed in each measured window.
const OPS: usize = 2_000_000;

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let config = common::engine_config(4, 4, ReadFidelity::BlockAggregate);
    let (seed, lanes) = (ctx.seed, ctx.lanes);
    let mut last: Option<EngineStats> = None;
    let mut window_flash_ops = 0u64;
    let mut layer_rounds: Vec<[f64; 6]> = Vec::new();
    let mut rss_growth = 0.0;

    let rounds = common::run_rounds(ctx, OPS as u64, |tr, i| {
        let t0 = Instant::now();
        let s = tr.begin("workloads::generate");
        let ops = common::profile_trace("umass-web", seed, &config, WARM_OPS + OPS);
        let gen_ns = tr.end(s);
        let s = tr.begin("Engine::new");
        let mut engine = Engine::new(config.clone()).map_err(|e| format!("{e:?}"))?;
        tr.end(s);
        let s = tr.begin("Engine::replay_stats_only(warm-up)");
        let warm = engine.replay_stats_only(ops[..WARM_OPS].iter().copied(), lanes);
        tr.end(s);
        let stage0 = engine.stage_ns();
        let setup_s = common::secs(t0);
        let rss_after_setup = measure::rss_mb();

        let t1 = Instant::now();
        let s = tr.begin("Engine::replay_stats_only");
        let stats = engine.replay_stats_only(ops[WARM_OPS..].iter().copied(), lanes);
        let replay_ns = tr.end(s);
        let window_s = common::secs(t1);

        if i == 0 {
            rss_growth = measure::peak_rss_mb() - rss_after_setup;
        }
        window_flash_ops =
            measure::flash_ops(&measure::stats_delta(&stats.totals(), &warm.totals()));
        if tr.enabled() {
            let s = tr.begin("Engine::stats");
            let again = engine.stats();
            let stats_ns = tr.end(s);
            if again != stats {
                return Err("Engine::stats() differs from the replay's own stats".into());
            }
            let stage = engine.stage_ns();
            let per_op = |ns: u64| ns as f64 / OPS as f64;
            let pool_wait = stage.pool_wait_ns - stage0.pool_wait_ns;
            let timing = stage.timing_ns - stage0.timing_ns;
            let coord = replay_ns.saturating_sub(pool_wait + timing + stats_ns);
            layer_rounds.push([
                gen_ns as f64 / (WARM_OPS + OPS) as f64,
                per_op(pool_wait),
                per_op(stage.flash_ns - stage0.flash_ns),
                per_op(timing),
                per_op(coord),
                stats_ns as f64 / 1e6,
            ]);
        }
        let round = Round {
            setup_s,
            window_s,
            ops: OPS as u64,
            writes_failed: stats.writes_failed - warm.writes_failed,
            fingerprint: common::engine_fingerprint(&stats),
            traced: false,
        };
        last = Some(stats);
        Ok(round)
    });

    let mut report =
        Report::from_rounds(&rounds, format!("4x4 block-aggregate no-mitigation, {lanes} lanes"));
    let Some(stats) = last else {
        return report;
    };

    // Pool-size independence: the same trace at one lane lands the same
    // statistics, digest included.
    let one_lane = common::guarded("one-lane replay", || {
        let ops = common::profile_trace("umass-web", seed, &config, WARM_OPS + OPS);
        let mut engine = Engine::new(config.clone()).expect("engine");
        engine.replay_stats_only(ops[..WARM_OPS].iter().copied(), 1);
        engine.replay_stats_only(ops[WARM_OPS..].iter().copied(), 1)
    });
    report.check("replay-web: 1-lane stats == nproc-lane stats", one_lane.as_ref() == Ok(&stats));

    if ctx.traced {
        let replica = common::guarded("die replica", || {
            let ops = common::profile_trace("umass-web", seed, &config, WARM_OPS + OPS);
            let share = common::die0_share(&ops, &config);
            let mut replica = Replica::new(&config, NoMitigation, true).expect("replica die");
            replica.apply_all(&share);
            replica
        });
        match replica {
            Ok(mut replica) => {
                report.check(
                    "replay-web: die replica counters == engine die 0",
                    replica.stats() == stats.per_die[0].ssd,
                );
                replica.metrics(&mut report.layer);
            }
            Err(e) => report.check(&e, false),
        }
        let col = |k: usize| measure::column_median(&layer_rounds, k);
        let l = &mut report.layer;
        l.insert("workloads.gen_ns_per_op", col(0));
        l.insert("engine.pool_wait_ns_per_op", col(1));
        l.insert("engine.flash_ns_per_op", col(2));
        l.insert("engine.timing_ns_per_op", col(3));
        l.insert("engine.coord_ns_per_op", col(4));
        l.insert("engine.stats_ms", col(5));
        l.insert("engine.rss_growth_mb", rss_growth);
        l.insert("sim.ns_per_flash_op", rounds.window_s() * 1e9 / window_flash_ops.max(1) as f64);
        l.insert("trace.overhead_frac", rounds.trace_overhead_frac());
        common::modelled_metrics(&stats, 0.0, l);
    }
    report
}
