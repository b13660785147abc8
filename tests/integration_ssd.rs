//! End-to-end SSD integration: trace replay across the full stack
//! (workload generator → FTL → chip → ECC accounting).

use readdisturb::prelude::*;
use readdisturb::workloads::OpKind;

fn config(seed: u64) -> SsdConfig {
    SsdConfig {
        chip: readdisturb::flash::chips::DEFAULT_CHIP.to_string(),
        geometry: readdisturb::flash::Geometry {
            blocks: 16,
            wordlines_per_block: 8,
            bitlines: 2048,
            bits_per_cell: 2,
        },
        overprovision: 0.25,
        gc_free_threshold: 2,
        refresh_interval_days: 7.0,
        ecc_capability_rber: 2.0e-3,
        seed,
        chip_params: ChipParams::default(),
    }
}

/// Replay a thinned trace for `days`; returns the SSD for inspection.
fn replay(seed: u64, days: f64, profile: &str) -> Die {
    let mut ssd = Die::new(config(seed)).unwrap();
    let profile = WorkloadProfile::by_name(profile).unwrap();
    let logical = ssd.map().logical_pages();
    let mut gen = profile.generator(seed, ssd.config().geometry.pages_per_block());
    let mut clock_s = 0.0;
    let mut n = 0u64;
    while clock_s < days * 86_400.0 {
        let op = gen.next().unwrap();
        n += 1;
        clock_s = op.time_s;
        if !n.is_multiple_of(1000) {
            continue; // thin the trace: keep the mix, bound the runtime
        }
        ssd.advance_time((op.time_s / 86_400.0 - ssd.clock_days()).max(0.0)).unwrap();
        let lpa = op.lpa % logical;
        match op.kind {
            OpKind::Write => ssd.write(lpa).unwrap(),
            OpKind::Read => match ssd.read(lpa) {
                Ok(_) | Err(readdisturb::ftl::FtlError::NotWritten { .. }) => {}
                Err(e) => panic!("read failed: {e}"),
            },
        }
    }
    ssd
}

#[test]
fn two_weeks_of_postmark_stays_healthy() {
    let ssd = replay(1, 14.0, "postmark");
    let stats = ssd.stats();
    assert!(stats.host_writes > 100, "trace produced {} writes", stats.host_writes);
    assert!(stats.host_reads > 50);
    assert_eq!(stats.uncorrectable_reads, 0, "healthy young device lost data");
    // With this write intensity no data survives 7 days, so refresh stays
    // idle — GC must be doing the reclamation instead.
    assert!(stats.erases > 0, "GC never reclaimed a block");
    assert!(ssd.map().check_consistency());
}

#[test]
fn refresh_bounds_block_data_age() {
    let ssd = replay(3, 12.0, "msr-hm0");
    let interval = ssd.config().refresh_interval_days;
    for b in ssd.valid_blocks() {
        let age = ssd.chip().block_status(b).unwrap().age_days;
        assert!(age <= interval + 1.5, "block {b} data is {age:.1} days old (interval {interval})");
    }
}

#[test]
fn wear_leveling_keeps_wear_spread_tight() {
    let ssd = replay(5, 10.0, "write-heavy");
    let wear: Vec<u64> = (0..ssd.config().geometry.blocks)
        .map(|b| ssd.chip().block_status(b).unwrap().pe_cycles)
        .collect();
    let max = *wear.iter().max().unwrap();
    let min = *wear.iter().min().unwrap();
    assert!(max > 0, "no wear accumulated");
    assert!(max - min <= max / 2 + 3, "wear spread too wide: {wear:?}");
}

#[test]
fn full_stack_determinism() {
    let a = replay(9, 5.0, "cello99").stats();
    let b = replay(9, 5.0, "cello99").stats();
    assert_eq!(a, b);
}

#[test]
fn read_reclaim_policy_on_full_stack() {
    let mut ssd = Die::with_policy(config(7), ReadReclaim { read_threshold: 2_000 }).unwrap();
    for lpa in 0..8 {
        ssd.write(lpa).unwrap();
    }
    // Hammer one logical page; reclaim must relocate its block.
    for _ in 0..2_500 {
        ssd.read(3).unwrap();
    }
    assert!(ssd.stats().reclaims >= 1);
    assert_eq!(ssd.stats().uncorrectable_reads, 0);
    assert!(ssd.map().check_consistency());
}
