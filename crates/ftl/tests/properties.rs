//! Property-based tests of FTL invariants under random operation sequences.

use proptest::prelude::*;
use rd_ftl::{Die, FtlError, SsdConfig};

fn tiny_config(seed: u64) -> SsdConfig {
    SsdConfig {
        chip: rd_flash::chips::DEFAULT_CHIP.to_string(),
        geometry: rd_flash::Geometry {
            blocks: 8,
            wordlines_per_block: 4,
            bitlines: 256,
            bits_per_cell: 2,
        },
        overprovision: 0.45,
        gc_free_threshold: 2,
        refresh_interval_days: 7.0,
        ecc_capability_rber: 8.0e-3,
        seed,
        chip_params: rd_flash::ChipParams::default(),
    }
}

/// A random host operation.
#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Read(u64),
    Advance(f64),
}

fn arb_op(logical_pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..logical_pages).prop_map(Op::Write),
        (0..logical_pages).prop_map(Op::Read),
        (0.05f64..2.0).prop_map(Op::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any op sequence: the map stays consistent, written data stays
    /// readable, and reads of never-written pages keep failing cleanly.
    #[test]
    fn ftl_invariants_hold_under_random_ops(
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_op(35), 1..120),
    ) {
        let mut ssd = Die::new(tiny_config(seed)).unwrap();
        let mut written = std::collections::HashSet::new();
        for op in ops {
            match op {
                Op::Write(lpa) => {
                    ssd.write(lpa).unwrap();
                    written.insert(lpa);
                }
                Op::Read(lpa) => match ssd.read(lpa) {
                    Ok(_) => prop_assert!(written.contains(&lpa)),
                    Err(FtlError::NotWritten { .. }) => prop_assert!(!written.contains(&lpa)),
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                },
                Op::Advance(days) => ssd.advance_time(days).unwrap(),
            }
            prop_assert!(ssd.map().check_consistency());
        }
        // Every written page is still mapped and readable at the end.
        for lpa in written {
            prop_assert!(ssd.map().lookup(lpa).is_some());
            prop_assert!(ssd.read(lpa).is_ok());
        }
    }

    /// Write amplification is always >= 1 once the host has written, and
    /// physical writes equal host + relocation writes.
    #[test]
    fn waf_accounting(seed in any::<u64>(), writes in 1usize..200) {
        let mut ssd = Die::new(tiny_config(seed)).unwrap();
        for i in 0..writes {
            ssd.write((i % 35) as u64).unwrap();
        }
        let stats = ssd.stats();
        prop_assert!(stats.waf() >= 1.0);
        prop_assert_eq!(
            stats.total_writes(),
            stats.host_writes + stats.gc_writes + stats.refresh_writes + stats.reclaim_writes
        );
        prop_assert_eq!(stats.host_writes, writes as u64);
    }
}
