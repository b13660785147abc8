//! Measurement helpers shared by every workload: order statistics, the
//! decades error against the cell-exact reference, failure accounting,
//! the modelled-flash-operation denominator, and process memory.

use rd_ftl::SsdStats;

/// Candidate tail percentiles, highest first. A timing reports the highest
/// one that still has at least [`TAIL_MIN_BEYOND`] samples beyond it.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of column `k` over per-round metric rows.
pub fn column_median<const N: usize>(rows: &[[f64; N]], k: usize) -> f64 {
    median(&rows.iter().map(|r| r[k]).collect::<Vec<_>>())
}

/// 1-based nearest rank of percentile `p` (0–100) in `n` samples. The
/// tolerance keeps binary rounding (99.9 is not exact) from pushing an
/// exact rank one sample up.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` of an ascending-sorted sample.
fn rank_percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Summary of one per-call timing histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Samples recorded.
    pub n: u64,
    /// Median, ns.
    pub p50: f64,
    /// The tail percentile reported (see [`TAIL_LADDER`]); 0 when even the
    /// median lacks enough samples beyond it.
    pub tail_pct: f64,
    /// Value at `tail_pct`, ns.
    pub tail: f64,
    /// Sum of all samples, ns.
    pub total: f64,
}

/// Summarises per-call samples: the median and the highest ladder
/// percentile with at least [`TAIL_MIN_BEYOND`] samples strictly beyond
/// its rank. Sorts `samples` in place.
pub fn summarize(samples: &mut [u64]) -> TimingSummary {
    let n = samples.len();
    let total = samples.iter().map(|&s| s as f64).sum();
    if n == 0 {
        return TimingSummary { n: 0, p50: 0.0, tail_pct: 0.0, tail: 0.0, total };
    }
    samples.sort_unstable();
    let p50 = rank_percentile(samples, 50.0) as f64;
    let tail_pct =
        TAIL_LADDER.iter().copied().find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND).unwrap_or(0.0);
    let tail = if tail_pct > 0.0 { rank_percentile(samples, tail_pct) as f64 } else { 0.0 };
    TimingSummary { n: n as u64, p50, tail_pct, tail, total }
}

/// Error of a simulated quantity against the cell-exact reference, in
/// decades: `|log10((tier + 1) / (exact + 1))|`. The +1 keeps a zero count
/// on either side finite (a tier that reports 0 of 313 reads 2.50 decades
/// off, not infinitely off).
pub fn err_decades(tier: f64, exact: f64) -> f64 {
    ((tier + 1.0) / (exact + 1.0)).log10().abs()
}

/// The [`err_decades`] form for rates far below 1 (block RBER): both sides
/// are scaled to errors per 10^9 bits first, so the +1 smoothing stays
/// negligible next to the measured rates.
pub fn rate_err_decades(tier: f64, exact: f64) -> f64 {
    err_decades(tier * 1e9, exact * 1e9)
}

/// Failure accounting over a run: host ops attempted, and ops the
/// simulator failed on. A round that panics or fails a check forfeits all
/// of its ops; inside a passing round only rejected writes count (an
/// uncorrectable read is model output, not a simulator failure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Host ops attempted.
    pub attempted: u64,
    /// Host ops failed.
    pub failed: u64,
}

impl Outcome {
    /// Records a round that completed and passed its checks.
    pub fn passed(&mut self, ops: u64, writes_failed: u64) {
        self.attempted += ops;
        self.failed += writes_failed.min(ops);
    }

    /// Records a round that panicked, hung, or failed a check.
    pub fn forfeited(&mut self, ops: u64) {
        self.attempted += ops;
        self.failed += ops;
    }

    /// `failed ÷ attempted` (0 before anything was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Flash operations the model simulated: host reads that reached the array,
/// host writes, GC/refresh/reclaim relocation writes, recovery-ladder retry
/// reads, policy probe reads, and erases. `sim.ns_per_flash_op` divides
/// wall time by this, so a change in modelled work is told apart from a
/// change in simulator speed.
pub fn flash_ops(s: &SsdStats) -> u64 {
    s.host_reads
        + s.host_writes
        + s.gc_writes
        + s.refresh_writes
        + s.reclaim_writes
        + s.recovery_reads
        + s.policy_probe_reads
        + s.erases
}

/// Counter deltas `after - before` (the counters are monotone).
pub fn stats_delta(after: &SsdStats, before: &SsdStats) -> SsdStats {
    SsdStats {
        host_writes: after.host_writes - before.host_writes,
        gc_writes: after.gc_writes - before.gc_writes,
        refresh_writes: after.refresh_writes - before.refresh_writes,
        reclaim_writes: after.reclaim_writes - before.reclaim_writes,
        erases: after.erases - before.erases,
        host_reads: after.host_reads - before.host_reads,
        uncorrectable_reads: after.uncorrectable_reads - before.uncorrectable_reads,
        recovered_reads: after.recovered_reads - before.recovered_reads,
        recovery_steps: after.recovery_steps - before.recovery_steps,
        recovery_reads: after.recovery_reads - before.recovery_reads,
        policy_probe_reads: after.policy_probe_reads - before.policy_probe_reads,
        corrected_bits: after.corrected_bits - before.corrected_bits,
        data_loss_relocations: after.data_loss_relocations - before.data_loss_relocations,
        refreshes: after.refreshes - before.refreshes,
        reclaims: after.reclaims - before.reclaims,
    }
}

/// Reads one `kB` field of `/proc/self/status` in MB; 0 where the file or
/// field is unavailable.
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process high-water resident set, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Process current resident set, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99.9 has 1 beyond, p99 exactly 10 -> p99.
        let mut s: Vec<u64> = (1..=1000).collect();
        let t = summarize(&mut s);
        assert_eq!(t.n, 1000);
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.tail, 990.0);
        assert_eq!(t.p50, 500.0);
        // 999 samples: p99 has only 9 beyond -> falls back to p90.
        let mut s: Vec<u64> = (1..=999).collect();
        assert_eq!(summarize(&mut s).tail_pct, 90.0);
        // 10 000 samples reach p99.9.
        let mut s: Vec<u64> = (1..=10_000).collect();
        let t = summarize(&mut s);
        assert_eq!((t.tail_pct, t.tail), (99.9, 9990.0));
        // 19 samples: even the median has only 9 beyond.
        let mut s: Vec<u64> = (1..=19).collect();
        let t = summarize(&mut s);
        assert_eq!((t.tail_pct, t.tail), (0.0, 0.0));
        assert_eq!(summarize(&mut []).n, 0);
    }

    #[test]
    fn summarize_is_order_free_and_totals() {
        let mut a: Vec<u64> = (0..500).map(|i| (i * 7919) % 500).collect();
        let mut b: Vec<u64> = (0..500).collect();
        assert_eq!(summarize(&mut a), summarize(&mut b));
        assert_eq!(summarize(&mut b).total, (0..500).sum::<u64>() as f64);
    }

    #[test]
    fn decades_error_smooths_zero_counts() {
        // 0 uncorrectable reads against 313 at CellExact -> 2.50 decades.
        assert!((err_decades(0.0, 313.0) - 2.4969).abs() < 1e-3);
        // Escalations 777 vs 283 + 313 = 596 -> 0.115.
        assert!((err_decades(777.0, 596.0) - 0.1147).abs() < 1e-3);
        // Symmetric, zero on agreement, finite on double zero.
        assert_eq!(err_decades(5.0, 5.0), 0.0);
        assert_eq!(err_decades(0.0, 0.0), 0.0);
        assert_eq!(err_decades(99.0, 9.0), err_decades(9.0, 99.0));
        assert!((err_decades(99.0, 9.0) - 1.0).abs() < 1e-12);
        // Rates: a 10x RBER gap reads as ~1 decade despite the smoothing.
        assert!((rate_err_decades(1e-4, 1e-5) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn failure_accounting() {
        let mut o = Outcome::default();
        assert_eq!(o.failed_frac(), 0.0);
        o.passed(1000, 0);
        o.passed(1000, 5);
        assert_eq!(o, Outcome { attempted: 2000, failed: 5 });
        // A failed round forfeits every op it attempted.
        o.forfeited(2000);
        assert_eq!(o, Outcome { attempted: 4000, failed: 2005 });
        assert!((o.failed_frac() - 2005.0 / 4000.0).abs() < 1e-12);
        // Failed writes never exceed the round's ops.
        let mut o = Outcome::default();
        o.passed(3, 7);
        assert_eq!(o.failed, 3);
    }

    #[test]
    fn flash_op_denominator_counts_background_work() {
        let s = SsdStats {
            host_reads: 100,
            host_writes: 10,
            gc_writes: 30,
            refresh_writes: 4,
            reclaim_writes: 1,
            recovery_reads: 50,
            policy_probe_reads: 5,
            erases: 3,
            // Not flash operations: outcomes and tallies.
            uncorrectable_reads: 9,
            recovered_reads: 9,
            recovery_steps: 9,
            corrected_bits: 999,
            ..SsdStats::default()
        };
        assert_eq!(flash_ops(&s), 203);
        let d = stats_delta(&s, &SsdStats { host_reads: 40, erases: 1, ..SsdStats::default() });
        assert_eq!(flash_ops(&d), 162);
    }
}
