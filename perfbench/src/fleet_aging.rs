//! `fleet-aging`: rd-fleet's epoch and replacement loop in the
//! `FleetConfig::quick` shape (four 2×2 drives, write-heavy profile at 95%
//! writes, 30-day retention dwell per epoch, 200 P/E endurance) with longer
//! epochs than quick mode. Traffic is generated inside each epoch, so
//! generation counts toward ops/s here.

use std::time::Instant;

use rd_engine::{Engine, EngineConfig};
use rd_fleet::variation::{drive_seed, sample_drive, traffic_seed};
use rd_fleet::{Fleet, FleetConfig, FleetRow};
use rd_ftl::NoMitigation;

use crate::common::{self, Ctx, Replica, Report, Round};
use crate::measure;

/// Host ops per drive per epoch.
const OPS_PER_EPOCH: u64 = 100_000;
/// Epochs per round.
const EPOCHS: u32 = 2;

fn config(seed: u64) -> FleetConfig {
    FleetConfig { seed, ops_per_epoch: OPS_PER_EPOCH, ..FleetConfig::quick() }
}

fn fingerprint(row: &FleetRow) -> String {
    format!(
        concat!(
            "{{\"digest\":\"{:016x}\",\"epoch\":{},\"host_reads\":{},\"host_writes\":{},",
            "\"replacements\":{},\"uncorrectable\":{},\"waf\":{},\"refresh_amp\":{},",
            "\"uber\":{}}}"
        ),
        row.digest,
        row.epoch,
        row.host_reads,
        row.host_writes,
        row.replacements,
        row.uncorrectable,
        row.waf,
        row.refresh_amp,
        row.fleet_uber,
    )
}

/// The engine config of drive (slot 0, generation 0), derived from the
/// fleet config the way rd-fleet's public variation functions define it.
fn drive0_config(fc: &FleetConfig) -> EngineConfig {
    let v = sample_drive(&fc.engine.die.chip_params, &fc.spread, fc.seed, 0, 0, fc.endurance_pe);
    let mut ec = fc.engine.clone();
    ec.die.chip_params = v.chip_params;
    ec.die.seed = fc.engine.die.seed ^ drive_seed(fc.seed, 0, 0);
    ec
}

/// Replays drive 0's first epoch on a rebuilt engine and on a die replica
/// of its die 0 (timed). Returns whether the replica's counters match.
fn replica_check(fc: &FleetConfig, lanes: usize, layer: &mut common::Metrics) -> bool {
    let ec = drive0_config(fc);
    let mut engine = Engine::new(ec.clone()).expect("drive engine");
    let ops = common::profile_trace(
        &fc.profile,
        traffic_seed(fc.seed, 0, 0, 0),
        &ec,
        fc.ops_per_epoch as usize,
    );
    engine.replay_stats_only(ops.iter().copied(), lanes);
    engine.advance_time(fc.epoch_days).expect("epoch dwell");
    let mut replica = Replica::new(&ec, NoMitigation, true).expect("replica die");
    replica.apply_all(&common::die0_share(&ops, &ec));
    replica.die_mut().advance_time(fc.epoch_days).expect("epoch dwell");
    replica.metrics(layer);
    replica.stats() == engine.stats().per_die[0].ssd
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Report {
    let (seed, lanes) = (ctx.seed, ctx.lanes);
    let fc = config(seed);
    let ops = u64::from(fc.drives) * OPS_PER_EPOCH * u64::from(EPOCHS);
    let mut epoch_ns: Vec<u64> = Vec::new();
    let mut last: Option<FleetRow> = None;
    let mut restored_ok = true;

    let rounds = common::run_rounds(ctx, ops, |tr, _| {
        let t0 = Instant::now();
        let s = tr.begin("Fleet::new");
        let mut fleet = Fleet::new(fc.clone())?;
        tr.end(s);
        // Warm-up: one epoch fills every drive before the window opens.
        let s = tr.begin("Fleet::epoch(warm-up)");
        fleet.epoch(lanes);
        tr.end(s);
        let setup_s = common::secs(t0);

        let t1 = Instant::now();
        let mut row = fleet.row();
        for _ in 0..EPOCHS {
            let s = tr.begin("Fleet::epoch");
            row = fleet.epoch(lanes);
            let ns = tr.end(s);
            if tr.enabled() {
                epoch_ns.push(ns);
            }
        }
        let window_s = common::secs(t1);

        // Checkpoint round trip: a restored fleet reports the same row.
        let s = tr.begin("Fleet::snapshot+restore");
        let bytes = fleet.snapshot().map_err(|e| format!("snapshot: {e:?}"))?;
        let restored = Fleet::restore(&bytes).map_err(|e| format!("restore: {e:?}"))?;
        tr.end(s);
        restored_ok &= restored.row() == row;
        let round = Round {
            setup_s,
            window_s,
            ops,
            // rd-fleet's rows carry no failed-write count.
            writes_failed: 0,
            fingerprint: fingerprint(&row),
            traced: false,
        };
        last = Some(row);
        Ok(round)
    });

    let mut report = Report::from_rounds(
        &rounds,
        format!(
            "fleet of {} 2x2 block-aggregate drives, write-heavy, {OPS_PER_EPOCH} ops/drive/epoch, \
             {EPOCHS} epochs, {lanes} lanes",
            fc.drives
        ),
    );
    let Some(row) = last else {
        return report;
    };
    report.check("fleet-aging: snapshot -> restore gives an equal row()", restored_ok);

    if ctx.traced {
        let mut layer = common::Metrics::new();
        match common::guarded("die replica", || replica_check(&fc, lanes, &mut layer)) {
            Ok(ok) => report.check("fleet-aging: die replica counters == drive 0 die 0", ok),
            Err(e) => report.check(&e, false),
        }
        let max_epoch_ns = epoch_ns.iter().copied().max().unwrap_or(0);
        let epoch = measure::summarize(&mut epoch_ns);
        let l = &mut report.layer;
        l.extend(layer);
        l.insert("fleet.epoch_ms.p50", epoch.p50 / 1e6);
        l.insert("fleet.epoch_ms.max", max_epoch_ns as f64 / 1e6);
        l.insert("fleet.epoch_ms.n", epoch.n as f64);
        l.insert("fleet.replacements", row.replacements as f64);
        l.insert("ftl.waf", row.waf);
        // rd-fleet reports host ops and WAF, not per-kind flash counters:
        // the denominator is host reads plus every write the WAF implies.
        let flash_ops = row.host_reads as f64 + row.waf * row.host_writes as f64;
        l.insert("sim.ns_per_flash_op", rounds.window_s() * 1e9 / flash_ops.max(1.0));
        l.insert("sim.ops", (row.host_reads + row.host_writes) as f64);
        l.insert("sim.reads", row.host_reads as f64);
        l.insert("sim.writes", row.host_writes as f64);
        l.insert("sim.uncorrectable_reads", row.uncorrectable as f64);
        l.insert("trace.overhead_frac", rounds.trace_overhead_frac());
    }
    report
}
