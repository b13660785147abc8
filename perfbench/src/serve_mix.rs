//! `serve-mix`: rd-serve with the 4-tenant mix (web, fin, mail, eng; about
//! 53% reads) on the 4×4 `BlockAggregate` array, 2 shards, `nproc` pool
//! lanes. The window runs from the first `Service::submit` through
//! `Service::report`, since a run's result is its report. Front-end
//! routing, admission, shard pipelining and tenant accounting run only
//! here.

use std::time::Instant;

use rd_engine::{Engine, ReqKind};
use rd_ftl::{NoMitigation, ReadFidelity};
use rd_serve::{ServeConfig, Service, ServiceOp, TenantConfig, Traffic};
use rd_workloads::{OpKind, TraceOp};

use crate::common::{self, Ctx, Replica, Report, Round};
use crate::measure;

/// Ops served in each measured window.
const OPS: usize = 2_000_000;

fn tenants() -> Vec<TenantConfig> {
    vec![
        TenantConfig::new("web", "umass-web", 6000.0),
        TenantConfig::new("fin", "umass-fin1", 4000.0),
        TenantConfig::new("mail", "postmark", 2500.0),
        TenantConfig::new("eng", "msr-src12", 1500.0),
    ]
}

/// The arrivals as a batch trace (same order, same lpas).
fn as_trace(ops: &[ServiceOp]) -> Vec<TraceOp> {
    ops.iter()
        .map(|op| TraceOp {
            time_s: op.time_s,
            kind: match op.kind {
                ReqKind::Read => OpKind::Read,
                ReqKind::Write => OpKind::Write,
            },
            lpa: op.lpa,
        })
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let lanes = ctx.lanes;
    let seed = ctx.seed;
    let config = ServeConfig {
        engine: common::engine_config(4, 4, ReadFidelity::BlockAggregate),
        shards: 2,
        batch_ops: 1024,
        max_inflight_batches: 4,
        pool_threads: lanes,
    };
    let mut last = None;
    let mut submit_ns: Vec<u64> = Vec::new();
    let mut layer_rounds: Vec<[f64; 8]> = Vec::new();
    let mut rss_growth = 0.0;
    let mut flash_ops = 0u64;

    let rounds = common::run_rounds(ctx, OPS as u64, |tr, i| {
        let t0 = Instant::now();
        let s = tr.begin("Service::start");
        let mut service =
            Service::start(config.clone(), tenants()).map_err(|e| format!("{e:?}"))?;
        tr.end(s);
        let s = tr.begin("workloads::generate");
        let ops: Vec<ServiceOp> = service.traffic(seed).take(OPS).collect();
        let gen_ns = tr.end(s);
        let setup_s = common::secs(t0);
        let rss_after_setup = measure::rss_mb();

        let t1 = Instant::now();
        let s = tr.begin("Service::submit*");
        let mut round_submit_ns = 0u64;
        if tr.enabled() {
            for op in &ops {
                let t = Instant::now();
                service.submit(*op);
                let ns = t.elapsed().as_nanos() as u64;
                submit_ns.push(ns);
                round_submit_ns += ns;
            }
        } else {
            for op in &ops {
                service.submit(*op);
            }
        }
        tr.end(s);
        let s = tr.begin("Service::flush");
        service.flush();
        let flush_ns = tr.end(s);
        let s = tr.begin("Service::report");
        let report = service.report(common::secs(t1));
        let report_ns = tr.end(s);
        let window_s = common::secs(t1);

        if i == 0 {
            rss_growth = measure::peak_rss_mb() - rss_after_setup;
        }
        let s = tr.begin("Service::drop");
        drop(service);
        tr.end(s);
        if report.stats.ops != OPS as u64 {
            return Err(format!("served {} of {OPS} ops", report.stats.ops));
        }
        if report.tenants.iter().map(|t| t.ops).sum::<u64>() != OPS as u64 {
            return Err("tenant accounting lost ops".into());
        }
        flash_ops = measure::flash_ops(&report.stats.totals());
        if tr.enabled() {
            let per_op = |ns: u64| ns as f64 / OPS as f64;
            let st = report.stage;
            layer_rounds.push([
                gen_ns as f64 / OPS as f64,
                round_submit_ns as f64 / (window_s * 1e9),
                per_op(st.pool_wait_ns),
                per_op(st.flash_ns),
                per_op(st.timing_ns),
                per_op(st.accounting_ns),
                flush_ns as f64 / 1e6,
                report_ns as f64 / 1e6,
            ]);
        }
        let round = Round {
            setup_s,
            window_s,
            ops: OPS as u64,
            writes_failed: report.stats.writes_failed,
            fingerprint: common::engine_fingerprint(&report.stats),
            traced: false,
        };
        last = Some(report.stats);
        Ok(round)
    });

    let mut report = Report::from_rounds(
        &rounds,
        format!("4x4 block-aggregate, 2 shards, 4 tenants, {lanes} lanes"),
    );
    let Some(stats) = last else {
        return report;
    };

    // Digest parity: the same arrivals batch-replayed through one
    // monolithic engine land the same data. Its wall time is the serve
    // reference throughput.
    let reference = common::guarded("monolithic replay", || {
        let e = &config.engine;
        let traffic =
            Traffic::new(&tenants(), seed, e.logical_pages(), e.die.geometry.pages_per_block());
        let trace = as_trace(&traffic.take(OPS).collect::<Vec<_>>());
        let mut engine = Engine::new(config.engine.clone()).expect("engine");
        let t = Instant::now();
        let replayed = engine.replay_stats_only(trace.iter().copied(), lanes);
        (replayed, OPS as f64 / common::secs(t), trace)
    });
    let (ref_ops_per_s, trace) = match reference {
        Ok((replayed, ops_per_s, trace)) => {
            report.check(
                "serve-mix: service digest == monolithic batch replay",
                replayed.data_digest == stats.data_digest
                    && replayed.ops == stats.ops
                    && replayed.uncorrectable_reads == stats.uncorrectable_reads,
            );
            (ops_per_s, trace)
        }
        Err(e) => {
            report.check(&e, false);
            (0.0, Vec::new())
        }
    };

    if ctx.traced {
        let replica = common::guarded("die replica", || {
            let share = common::die0_share(&trace, &config.engine);
            let mut replica =
                Replica::new(&config.engine, NoMitigation, true).expect("replica die");
            replica.apply_all(&share);
            replica
        });
        match replica {
            Ok(mut replica) => {
                report.check(
                    "serve-mix: die replica counters == service die 0",
                    replica.stats() == stats.per_die[0].ssd,
                );
                replica.metrics(&mut report.layer);
            }
            Err(e) => report.check(&e, false),
        }
        let submit = measure::summarize(&mut submit_ns);
        let col = |k: usize| measure::column_median(&layer_rounds, k);
        let l = &mut report.layer;
        l.insert("workloads.gen_ns_per_op", col(0));
        l.insert("serve.submit_ns.p50", submit.p50);
        l.insert("serve.submit_ns.tail", submit.tail);
        l.insert("serve.submit_ns.tail_pct", submit.tail_pct);
        l.insert("serve.submit_ns.n", submit.n as f64);
        l.insert("serve.submit_share", col(1));
        l.insert("serve.pool_wait_ns_per_op", col(2));
        l.insert("serve.flash_ns_per_op", col(3));
        l.insert("serve.timing_ns_per_op", col(4));
        l.insert("serve.accounting_ns_per_op", col(5));
        l.insert("serve.flush_ms", col(6));
        l.insert("serve.report_ms", col(7));
        l.insert("serve.replay_ref_ops_per_s", ref_ops_per_s);
        l.insert("serve.overhead_frac", 1.0 - common::ratio(rounds.ops_per_s(), ref_ops_per_s));
        l.insert("engine.rss_growth_mb", rss_growth);
        l.insert("sim.ns_per_flash_op", rounds.window_s() * 1e9 / flash_ops.max(1) as f64);
        l.insert("trace.overhead_frac", rounds.trace_overhead_frac());
        common::modelled_metrics(&stats, 0.0, l);
    }
    report
}
