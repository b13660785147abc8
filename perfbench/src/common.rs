//! Machinery every workload shares: the run context, the measured round
//! loop, the FTL die replica, and the read-hammer accuracy side-run.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rd_engine::{Engine, EngineConfig, EngineStats, Timing, Topology};
use rd_ftl::{ControllerPolicy, Die, FtlError, ReadFidelity, ReadResolution, SsdConfig};
use rd_workloads::{OpKind, TraceOp, WorkloadProfile};

use crate::measure::{self, Outcome};
use crate::trace::Tracer;

/// Base seed of every die's RNG streams (the system under test, not its
/// input; the workload seed drives the generators).
pub const DIE_SEED: u64 = 2015;

/// Rounds a run measures at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 4;

/// Host ops attempted so far, readable by the hang watchdog.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);

/// Per-run inputs and the span recorder.
pub struct Ctx {
    /// Workload seed: feeds every generator.
    pub seed: u64,
    /// Measured window per run, seconds (summed over rounds).
    pub seconds: f64,
    /// Worker-pool lanes (`nproc`).
    pub lanes: usize,
    /// Traced run: alternate rounds record spans and per-call histograms.
    pub traced: bool,
    /// Span recorder (enabled only during traced rounds).
    pub tracer: Tracer,
}

/// Per-layer metric values by name (units live in `main`'s table).
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Median host ops per wall second over the untraced rounds.
    pub ops_per_s: f64,
    /// Median set-up seconds over all rounds.
    pub setup_s: f64,
    /// Process high-water RSS after the workload, before the side-run, MB.
    pub peak_rss_mb: f64,
    /// Failure accounting.
    pub outcome: Outcome,
    /// Named checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Simulated-statistics fingerprint (identical across runs, pools and
    /// rounds for a given seed).
    pub fingerprint: String,
    /// Per-layer metrics (traced run).
    pub layer: Metrics,
    /// Human-readable topology / tier description.
    pub shape: String,
    /// Per-round figures, one JSON object.
    pub rounds: String,
}

impl Report {
    /// The end-to-end figures of a run's rounds; failed rounds become
    /// failed checks.
    pub fn from_rounds(rounds: &Rounds, shape: String) -> Self {
        let mut report = Report {
            ops_per_s: rounds.ops_per_s(),
            setup_s: rounds.setup_s(),
            peak_rss_mb: measure::peak_rss_mb(),
            outcome: rounds.outcome,
            fingerprint: rounds.fingerprint(),
            shape,
            rounds: rounds.summary(),
            ..Report::default()
        };
        for e in &rounds.errors {
            report.check(e, false);
        }
        report
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }
}

/// One measured round.
#[derive(Debug, Clone)]
pub struct Round {
    /// Set-up seconds (build, generate, warm up, pre-stress).
    pub setup_s: f64,
    /// Measured-window seconds.
    pub window_s: f64,
    /// Host ops in the window.
    pub ops: u64,
    /// Writes the simulator rejected in the window.
    pub writes_failed: u64,
    /// The round's simulated fingerprint.
    pub fingerprint: String,
    /// Whether the round ran with tracing on.
    pub traced: bool,
}

impl Round {
    /// Host ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.window_s
    }
}

/// The measured rounds of a run.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Every completed round, in order.
    pub all: Vec<Round>,
    /// Failure accounting.
    pub outcome: Outcome,
    /// Failed checks and panics.
    pub errors: Vec<String>,
}

impl Rounds {
    fn of(&self, traced: bool) -> Vec<f64> {
        self.all.iter().filter(|r| r.traced == traced).map(Round::ops_per_s).collect()
    }

    /// Median ops/s over untraced rounds.
    pub fn ops_per_s(&self) -> f64 {
        measure::median(&self.of(false))
    }

    /// Median set-up seconds over every round.
    pub fn setup_s(&self) -> f64 {
        measure::median(&self.all.iter().map(|r| r.setup_s).collect::<Vec<_>>())
    }

    /// Median window seconds over untraced rounds.
    pub fn window_s(&self) -> f64 {
        let w: Vec<f64> = self.all.iter().filter(|r| !r.traced).map(|r| r.window_s).collect();
        measure::median(&w)
    }

    /// `1 - traced ÷ untraced` median ops/s (0 without traced rounds).
    pub fn trace_overhead_frac(&self) -> f64 {
        let traced = self.of(true);
        if traced.is_empty() {
            return 0.0;
        }
        1.0 - measure::median(&traced) / self.ops_per_s()
    }

    /// Every round's ops/s and set-up seconds, as one JSON object.
    pub fn summary(&self) -> String {
        let list = |f: &dyn Fn(&Round) -> f64| {
            self.all.iter().map(|r| format!("{:.6}", f(r))).collect::<Vec<_>>().join(",")
        };
        format!(
            "{{\"rounds\":{},\"traced\":[{}],\"ops_per_s\":[{}],\"setup_s\":[{}]}}",
            self.all.len(),
            self.all.iter().map(|r| u8::from(r.traced).to_string()).collect::<Vec<_>>().join(","),
            list(&Round::ops_per_s),
            list(&|r: &Round| r.setup_s),
        )
    }

    /// The fingerprint every round agreed on.
    pub fn fingerprint(&self) -> String {
        self.all.first().map(|r| r.fingerprint.clone()).unwrap_or_default()
    }
}

/// Runs rounds until their measured windows add up to `ctx.seconds` (and at
/// least [`MIN_ROUNDS`] ran). In a traced run every second round records
/// spans; the others give the untraced reference for the overhead. A round
/// that panics, fails its check, or disagrees with the first round's
/// fingerprint forfeits `planned_ops` and ends the loop.
pub fn run_rounds(
    ctx: &mut Ctx,
    planned_ops: u64,
    mut body: impl FnMut(&mut Tracer, usize) -> Result<Round, String>,
) -> Rounds {
    let mut out = Rounds::default();
    let mut measured = 0.0;
    let mut i = 0;
    while measured < ctx.seconds || i < MIN_ROUNDS {
        let traced = ctx.traced && i % 2 == 1;
        ctx.tracer.set_enabled(traced);
        ATTEMPTED.fetch_add(planned_ops, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx.tracer, i)));
        ctx.tracer.set_enabled(false);
        let failure = match result {
            Ok(Ok(mut round)) => {
                let first = out.all.first().map(|r| r.fingerprint.clone());
                match first {
                    Some(first) if first != round.fingerprint => Some(format!(
                        "round {i} fingerprint {} differs from round 0 {first}",
                        round.fingerprint
                    )),
                    _ => {
                        round.traced = traced;
                        out.outcome.passed(round.ops, round.writes_failed);
                        measured += round.window_s;
                        out.all.push(round);
                        None
                    }
                }
            }
            Ok(Err(msg)) => Some(format!("round {i}: {msg}")),
            Err(panic) => Some(format!("round {i} panicked: {}", panic_text(&panic))),
        };
        if let Some(msg) = failure {
            out.outcome.forfeited(planned_ops);
            out.errors.push(msg);
            break;
        }
        i += 1;
    }
    out
}

/// Runs an out-of-window check, turning a panic into a failed check.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|panic| format!("{what} panicked: {}", panic_text(&panic)))
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The engine shape the array workloads share: `channels × dies` dies of
/// the engine-scale geometry at `fidelity`, queue depth 16.
pub fn engine_config(channels: u32, dies_per_channel: u32, fidelity: ReadFidelity) -> EngineConfig {
    EngineConfig {
        topology: Topology { channels, dies_per_channel },
        die: SsdConfig::engine_scale(DIE_SEED),
        timing: Timing::default(),
        queue_depth: 16,
        capture_read_data: false,
        die_index_offset: 0,
    }
    .with_fidelity(fidelity)
}

/// `n` ops of a named profile, generated from `seed` on `config`'s block
/// layout.
pub fn profile_trace(profile: &str, seed: u64, config: &EngineConfig, n: usize) -> Vec<TraceOp> {
    let profile = WorkloadProfile::by_name(profile).expect("profile in the suite");
    profile.generator(seed, config.die.geometry.pages_per_block()).take(n).collect()
}

/// Fingerprint of an engine run: digest, op mix, background writes,
/// ladder outcomes, and simulated latency (exact bits).
pub fn engine_fingerprint(s: &EngineStats) -> String {
    let t = s.totals();
    format!(
        concat!(
            "{{\"digest\":\"{:016x}\",\"ops\":{},\"reads\":{},\"writes\":{},",
            "\"gc_writes\":{},\"refresh_writes\":{},\"recovered\":{},\"uncorrectable\":{},",
            "\"recovery_reads\":{},\"probe_reads\":{},\"p50_us\":{},\"p99_us\":{}}}"
        ),
        s.data_digest,
        s.ops,
        s.reads,
        s.writes,
        t.gc_writes,
        t.refresh_writes,
        s.recovered_reads,
        s.uncorrectable_reads,
        s.recovery_reads,
        t.policy_probe_reads,
        s.latency_p50_us,
        s.latency_p99_us,
    )
}

/// Modelled per-layer values of an engine run: identical for speed-only
/// changes, so they double as an accuracy and identity check.
pub fn modelled_metrics(s: &EngineStats, days: f64, layer: &mut Metrics) {
    let t = s.totals();
    let escalated = s.recovered_reads + s.uncorrectable_reads;
    layer.insert("ftl.waf", t.waf());
    layer.insert("ecc.escalated_frac", ratio(escalated as f64, t.host_reads as f64));
    layer
        .insert("ecc.retry_reads_per_escalation", ratio(s.recovery_reads as f64, escalated as f64));
    layer.insert("core.probe_reads_per_day", ratio(t.policy_probe_reads as f64, days));
    layer.insert("sim.p50_us", s.latency_p50_us);
    layer.insert("sim.p99_us", s.latency_p99_us);
    layer.insert("sim.kiops", s.iops() / 1e3);
    layer.insert("sim.ops", s.ops as f64);
    layer.insert("sim.reads", s.reads as f64);
    layer.insert("sim.writes", s.writes as f64);
    layer.insert("sim.gc_writes", t.gc_writes as f64);
    layer.insert("sim.refresh_writes", t.refresh_writes as f64);
    layer.insert("sim.recovered_reads", s.recovered_reads as f64);
    layer.insert("sim.uncorrectable_reads", s.uncorrectable_reads as f64);
}

/// `a ÷ b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The engine-level ops that land on die 0, as `(kind, die-local lpa)` —
/// the same fold and striping the engine applies.
pub fn die0_share(ops: &[TraceOp], config: &EngineConfig) -> Vec<(OpKind, u64)> {
    let logical = config.logical_pages();
    let dies = u64::from(config.topology.dies());
    ops.iter()
        .filter_map(|op| {
            let lpa = op.lpa % logical;
            lpa.is_multiple_of(dies).then_some((op.kind, lpa / dies))
        })
        .collect()
}

/// A standalone [`Die`] built exactly like an engine's die 0, running die
/// 0's share of the engine's ops. Its counters must equal the engine's
/// `per_die[0].ssd`; when timed, every `Die::read` / `Die::write` lands in
/// a per-call histogram, split by what the call did (GC, recovery ladder).
pub struct Replica<P: ControllerPolicy> {
    die: Die<P>,
    timed: bool,
    /// Reads answered without the ladder, ns per call.
    read_ns: Vec<u64>,
    /// Reads that entered the recovery ladder, ns per call.
    ladder_read_ns: Vec<u64>,
    /// Writes that triggered no GC, ns per call.
    write_ns: Vec<u64>,
    /// Writes that ran GC (relocations or erases), ns per call.
    gc_write_ns: Vec<u64>,
}

impl<P: ControllerPolicy> Replica<P> {
    /// Builds die 0 of `config` with `policy`.
    pub fn new(config: &EngineConfig, policy: P, timed: bool) -> Result<Self, FtlError> {
        let mut die_cfg = config.die.clone();
        die_cfg.seed = config.die_seed(0);
        Ok(Self {
            die: Die::with_policy(die_cfg, policy)?,
            timed,
            read_ns: Vec::new(),
            ladder_read_ns: Vec::new(),
            write_ns: Vec::new(),
            gc_write_ns: Vec::new(),
        })
    }

    /// The die.
    pub fn die_mut(&mut self) -> &mut Die<P> {
        &mut self.die
    }

    /// Applies one die-local op (results are model output and ignored, as
    /// the engine's flash phase only tallies them).
    pub fn apply(&mut self, kind: OpKind, lpa: u64) {
        if !self.timed {
            match kind {
                OpKind::Read => {
                    let _ = self.die.read(lpa);
                }
                OpKind::Write => {
                    let _ = self.die.write(lpa);
                }
            }
            return;
        }
        match kind {
            OpKind::Read => {
                let t = Instant::now();
                let r = self.die.read(lpa);
                let ns = t.elapsed().as_nanos() as u64;
                let ladder = match &r {
                    Ok(read) => matches!(read.resolution, ReadResolution::Recovered { .. }),
                    Err(e) => matches!(e, FtlError::Uncorrectable { .. }),
                };
                if ladder {
                    self.ladder_read_ns.push(ns);
                } else {
                    self.read_ns.push(ns);
                }
            }
            OpKind::Write => {
                let before = self.die.stats_ref();
                let (gc, erases) = (before.gc_writes, before.erases);
                let t = Instant::now();
                let _ = self.die.write(lpa);
                let ns = t.elapsed().as_nanos() as u64;
                let after = self.die.stats_ref();
                if after.gc_writes != gc || after.erases != erases {
                    self.gc_write_ns.push(ns);
                } else {
                    self.write_ns.push(ns);
                }
            }
        }
    }

    /// Applies a sequence of die-local ops.
    pub fn apply_all(&mut self, ops: &[(OpKind, u64)]) {
        for &(kind, lpa) in ops {
            self.apply(kind, lpa);
        }
    }

    /// The die's counters.
    pub fn stats(&self) -> rd_ftl::SsdStats {
        self.die.stats()
    }

    /// Per-layer FTL metrics from the recorded calls.
    pub fn metrics(&mut self, layer: &mut Metrics) {
        let mut total = 0.0;
        let mut put = |name: [&'static str; 4], samples: &mut Vec<u64>| {
            let s = measure::summarize(samples);
            layer.insert(name[0], s.p50);
            layer.insert(name[1], s.tail);
            layer.insert(name[2], s.tail_pct);
            layer.insert(name[3], s.n as f64);
            total += s.total;
            s.total
        };
        put(
            ["ftl.read_ns.p50", "ftl.read_ns.tail", "ftl.read_ns.tail_pct", "ftl.read_ns.n"],
            &mut self.read_ns,
        );
        put(
            ["ftl.write_ns.p50", "ftl.write_ns.tail", "ftl.write_ns.tail_pct", "ftl.write_ns.n"],
            &mut self.write_ns,
        );
        let gc = put(
            [
                "ftl.gc_write_ns.p50",
                "ftl.gc_write_ns.tail",
                "ftl.gc_write_ns.tail_pct",
                "ftl.gc_write_ns.n",
            ],
            &mut self.gc_write_ns,
        );
        let ladder = put(
            [
                "ftl.ladder_read_ns.p50",
                "ftl.ladder_read_ns.tail",
                "ftl.ladder_read_ns.tail_pct",
                "ftl.ladder_read_ns.n",
            ],
            &mut self.ladder_read_ns,
        );
        layer.insert("ftl.gc_share", ratio(gc, total));
        layer.insert("ftl.ladder_share", ratio(ladder, total));
    }
}

/// Post-run (RBER, programmed bits) of every valid block, keyed by
/// (die, block).
fn block_rbers<P: ControllerPolicy>(engine: &Engine<P>) -> BTreeMap<(u32, u32), (f64, f64)> {
    let mut out = BTreeMap::new();
    for d in 0..engine.config().topology.dies() {
        let die = engine.die(d);
        let bits_per_page = die.chip().geometry().bits_per_page() as f64;
        for block in die.valid_blocks() {
            let rber = die.chip().block_rber_rate(block).expect("valid block");
            let pages = die.chip().block_status(block).expect("valid block").programmed_pages;
            out.insert((d, block), (rber, f64::from(pages) * bits_per_page));
        }
    }
    out
}

/// Accuracy side-run shape: a reduced copy of the recovery-path scenario
/// (2×2 dies worn to 10k P/E, every logical page written, then 1M read
/// disturbs on every data block and a tight ECC line).
const SIDE_PE: u64 = 10_000;
const SIDE_DISTURBS: u64 = 1_000_000;
const SIDE_ECC_RBER: f64 = 8.0e-3;
/// Reads replayed per side-run copy: umass-web addresses, all read, as on
/// read-hammer. With no writes there is no GC, so both tiers compare the
/// same pre-stressed blocks whatever the seed.
const SIDE_OPS: usize = 2_500;
/// Independent copies (distinct derived seeds) pooled per tier, so the
/// decades errors rest on more reads than one copy gives.
const SIDE_COPIES: u64 = 8;

/// Accuracy of the aggregate tier against `CellExact` on the read-hammer
/// failure path, in decades.
#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    /// Uncorrectable reads.
    pub uncorrectable_err_dec: f64,
    /// Reads that entered the recovery ladder.
    pub escalated_err_dec: f64,
    /// Post-run block RBER: each block's error, averaged with the block's
    /// expected raw bit errors as weight.
    pub rber_err_dec: f64,
    /// Raw pooled figures behind the errors, as one JSON object.
    pub detail: String,
}

/// One side-run copy at one tier.
struct SideCopy {
    uncorrectable: u64,
    escalated: u64,
    block_rber: BTreeMap<(u32, u32), (f64, f64)>,
}

fn side_copy(fidelity: ReadFidelity, trace_seed: u64) -> SideCopy {
    let mut config = engine_config(2, 2, fidelity);
    config.die.ecc_capability_rber = SIDE_ECC_RBER;
    let mut engine = Engine::new(config).expect("side-run engine");
    let dies = engine.config().topology.dies();
    let blocks = engine.config().die.geometry.blocks;
    for d in 0..dies {
        let chip = engine.die_mut(d).chip_mut();
        for b in 0..blocks {
            chip.cycle_block(b, SIDE_PE).expect("block in range");
        }
    }
    for lpa in 0..engine.logical_pages() {
        engine.submit_write(lpa);
    }
    engine.run(1);
    engine.drain_completions();
    for d in 0..dies {
        let die = engine.die_mut(d);
        for b in die.valid_blocks() {
            die.chip_mut().apply_read_disturbs(b, SIDE_DISTURBS).expect("block in range");
        }
    }
    let ops: Vec<TraceOp> = profile_trace("umass-web", trace_seed, engine.config(), SIDE_OPS)
        .into_iter()
        .map(|op| TraceOp { kind: OpKind::Read, ..op })
        .collect();
    let s = engine.replay_stats_only(ops, 1);
    SideCopy {
        uncorrectable: s.uncorrectable_reads,
        escalated: s.recovered_reads + s.uncorrectable_reads,
        block_rber: block_rbers(&engine),
    }
}

/// The trace seed of side-run copy `copy`: derived from the workload seed,
/// never the repository's calibration seed 2015.
fn side_seed(seed: u64, copy: u64) -> u64 {
    let s = (seed ^ 0xACC0_5EED).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ copy;
    if s == DIE_SEED {
        s ^ (1 << 63)
    } else {
        s
    }
}

/// Runs the side-run at both tiers, outside any timed window, spreading
/// the copies over `lanes` threads (each copy runs single-lane, so the
/// results do not depend on the split).
pub fn accuracy(seed: u64, lanes: usize) -> Accuracy {
    let copies: Vec<(SideCopy, SideCopy)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..lanes.max(1) as u64)
            .map(|lane| {
                scope.spawn(move || {
                    (0..SIDE_COPIES)
                        .filter(|c| c % lanes.max(1) as u64 == lane)
                        .map(|c| {
                            let s = side_seed(seed, c);
                            (
                                c,
                                side_copy(ReadFidelity::CellExact, s),
                                side_copy(ReadFidelity::BlockAggregate, s),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<_> =
            workers.into_iter().flat_map(|w| w.join().expect("side-run worker panicked")).collect();
        all.sort_by_key(|(c, _, _)| *c);
        all.into_iter().map(|(_, exact, tier)| (exact, tier)).collect()
    });
    let (mut unc, mut esc) = ([0u64; 2], [0u64; 2]);
    // Bit-weighted RBER sums per tier: (errors, bits).
    let mut rber = [(0.0f64, 0.0f64); 2];
    // Per-block decades error, weighted by the block's expected raw bit
    // errors under CellExact, so a lightly written block whose few sampled
    // errors are mostly noise cannot dominate.
    let (mut err_sum, mut weight_sum) = (0.0f64, 0.0f64);
    for (exact, tier) in &copies {
        for (k, c) in [exact, tier].into_iter().enumerate() {
            unc[k] += c.uncorrectable;
            esc[k] += c.escalated;
            for &(r, bits) in c.block_rber.values() {
                rber[k].0 += r * bits;
                rber[k].1 += bits;
            }
        }
        for (key, &(exact_rber, bits)) in &exact.block_rber {
            if let Some(&(tier_rber, _)) = tier.block_rber.get(key) {
                let weight = exact_rber * bits;
                err_sum += weight * measure::rate_err_decades(tier_rber, exact_rber);
                weight_sum += weight;
            }
        }
    }
    let mean_rber = rber.map(|(errors, bits)| ratio(errors, bits));
    Accuracy {
        uncorrectable_err_dec: measure::err_decades(unc[1] as f64, unc[0] as f64),
        escalated_err_dec: measure::err_decades(esc[1] as f64, esc[0] as f64),
        rber_err_dec: ratio(err_sum, weight_sum),
        detail: format!(
            concat!(
                "{{\"copies\":{},\"ops_per_copy\":{},",
                "\"cell_exact\":{{\"uncorrectable\":{},\"escalated\":{},\"mean_block_rber\":{:e}}},",
                "\"block_aggregate\":{{\"uncorrectable\":{},\"escalated\":{},",
                "\"mean_block_rber\":{:e}}}}}"
            ),
            SIDE_COPIES,
            SIDE_OPS,
            unc[0],
            esc[0],
            mean_rber[0],
            unc[1],
            esc[1],
            mean_rber[1]
        ),
    }
}
