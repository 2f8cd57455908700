//! `soundness-sweep`: the engine's worker pool runs all six families ×
//! {honest, every cheat} × a few small sizes × trials, in-process, with
//! no wire. Instance generation, the adversary provers and the pool do
//! the work; serve and wire do none.
//!
//! Sizing: the series-parallel `hide-extra-edges` cheat prover re-tests
//! connectivity per candidate edge per pass, so its cost grows roughly
//! as n³ (~0.05 s at n = 256, ~0.2–0.3 s at 512, ~2 s at 1024). The
//! largest size is 512, so that cheat is a large share of the job time
//! without any single job setting a round's makespan.

use crate::checks::{self, Checks, Expect};
use crate::recorder::Durations;
use crate::report::Outcome;
use crate::roundtrip::{
    check_corrupt_refused, check_witness, corrupt, mix, round_trip, to_wire, Job, CORRUPTIONS,
};
use crate::stats::{self, median, ms};
use pdip_engine::{
    no_instance, Engine, Family, Prover, ProverSpec, SweepOutcome, SweepSpec, YesInstance, FAMILIES,
};
use pdip_graph::sp_tree;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SIZES: [usize; 3] = [64, 256, 512];
/// Trials per cell in one round (one engine call).
const TRIALS_PER_ROUND: u64 = 4;
/// Engine rounds per second of `--seconds`, so that a run measures for
/// about `--seconds` on the reference machine.
const ROUNDS_PER_SECOND: f64 = 1.35;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn spec(seed: u64, round: u64) -> SweepSpec {
    SweepSpec {
        families: FAMILIES.to_vec(),
        sizes: SIZES.to_vec(),
        provers: vec![ProverSpec::Honest, ProverSpec::AllCheats],
        trials: TRIALS_PER_ROUND,
        base_seed: mix(seed, round),
        ..SweepSpec::default()
    }
}

/// Index of the series-parallel `hide-extra-edges` cheat.
fn hide_cheat() -> Option<usize> {
    Family::SeriesParallel.cheat_names().iter().position(|c| c == "hide-extra-edges")
}

/// The set-up: regenerates every honest planar job's instance of the
/// run to check its witness rotation against Euler's formula, and
/// generates the wire samples: one honest transcript's instance per
/// family and size.
fn setup(seed: u64, rounds: u64, checks: &mut Checks) -> Vec<Job> {
    for r in 0..rounds {
        for job in spec(seed, r).expand() {
            let c = job.coords;
            let planar = matches!(c.family, Family::Planarity | Family::EmbeddedPlanarity);
            if planar && c.prover == Prover::Honest {
                check_witness(&YesInstance::generate(c.family, c.n, job.gen_seed), checks);
            }
        }
    }
    let mut samples = Vec::new();
    for fam in FAMILIES {
        for n in SIZES {
            let gen_seed = mix(seed, 20_000 + samples.len() as u64);
            samples.push(Job {
                instance: to_wire(YesInstance::generate(fam, n, gen_seed)),
                family: fam,
                prover: 0,
                gen_seed,
                run_seed: mix(gen_seed, 1),
                expect: Expect::Accept,
            });
        }
    }
    samples
}

/// Wire round trips of the samples, spread over the run: after engine
/// call `r`, samples `3r, 3r + 1, 3r + 2` (mod their count), so each
/// gets several repetitions between calls rather than a burst at set-up.
/// The first repetition of each also checks re-encoding and that a
/// corrupted copy is refused.
#[derive(Default)]
struct WireSamples {
    prove_ms: Vec<Vec<f64>>,
    verify_ms: Vec<Vec<f64>>,
    bytes: usize,
    nodes: usize,
}

const SAMPLES_PER_CALL: usize = 3;

impl WireSamples {
    fn new(count: usize) -> Self {
        WireSamples {
            prove_ms: vec![Vec::new(); count],
            verify_ms: vec![Vec::new(); count],
            ..Self::default()
        }
    }

    fn round_trip(&mut self, samples: &[Job], i: usize, checks: &mut Checks) {
        let first = self.prove_ms[i].is_empty();
        match round_trip(samples[i].clone(), first, checks) {
            Ok((rt, blob)) => {
                self.prove_ms[i].push(ms(rt.prove()));
                self.verify_ms[i].push(ms(rt.verify()));
                if first {
                    self.bytes += rt.bytes;
                    self.nodes += rt.n;
                    let class = i % CORRUPTIONS.len();
                    let bad = corrupt(&blob, class, mix(samples[i].gen_seed, 3));
                    check_corrupt_refused(&bad, CORRUPTIONS[class], checks);
                }
            }
            Err(e) => checks.require(false, || format!("wire sample {i} failed to decode: {e}")),
        }
    }
}

/// Per-cell tallies of cheat rejections: (family, n, cheat) → (rejected, trials).
type Cells = BTreeMap<(Family, usize, usize), (u64, u64)>;

/// Checks one engine call's records and folds them into `cells`.
fn check_records(outcome: &SweepOutcome, cells: &mut Cells, checks: &mut Checks) {
    for r in &outcome.records {
        match r.prover {
            Prover::Honest => {
                checks.require(checks::verdict_ok(Expect::Accept, verdict(r.accepted)), || {
                    format!("{} n={} honest job {} rejected", r.family.name(), r.actual_n, r.index)
                });
                checks.require_ok(checks::label_bits_within(
                    r.family,
                    r.actual_n,
                    &r.per_round_max_bits,
                ));
            }
            Prover::Cheat(s) => {
                let cell = cells.entry((r.family, r.n, s)).or_default();
                cell.0 += u64::from(!r.accepted);
                cell.1 += 1;
            }
            Prover::PanicInjection => {}
        }
    }
}

fn verdict(accepted: bool) -> checks::Verdict {
    if accepted {
        checks::Verdict::Accept
    } else {
        checks::Verdict::Reject
    }
}

fn check_cells(cells: &Cells, checks: &mut Checks) {
    for (&(fam, n, s), &(rejected, trials)) in cells {
        checks.require(checks::soundness_ok(rejected, trials), || {
            format!("{} n={n} cheat {s}: rejected {rejected}/{trials}, below 2/3", fam.name())
        });
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let rounds = ((seconds as f64 * ROUNDS_PER_SECOND).round() as u64).max(1);
    let mut setup_s = Vec::new();
    let mut samples = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        samples = setup(seed, rounds, &mut out.checks);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let engine = Engine::with_threads(nproc);
    let mut cells = Cells::new();
    let mut job_ms = Vec::new();
    let mut wall = Duration::ZERO;
    let mut wire = WireSamples::new(samples.len());
    for r in 0..rounds {
        let t0 = Instant::now();
        let outcome = engine.run(&spec(seed, r));
        wall += t0.elapsed();
        out.attempted += outcome.metrics.jobs;
        out.failed += outcome.failures.len() as u64;
        job_ms.extend(outcome.records.iter().map(|r| ms(r.wall)));
        check_records(&outcome, &mut cells, &mut out.checks);
        for j in 0..SAMPLES_PER_CALL {
            let i = (SAMPLES_PER_CALL * r as usize + j) % samples.len();
            wire.round_trip(&samples, i, &mut out.checks);
        }
    }
    // Short runs: every sample at least once.
    for i in 0..samples.len() {
        if wire.prove_ms[i].is_empty() {
            wire.round_trip(&samples, i, &mut out.checks);
        }
    }
    check_cells(&cells, &mut out.checks);

    let (tail, tail_what) = stats::tail(&job_ms);
    out.note(format!(
        "soundness-sweep: {rounds} rounds of {} jobs, {nproc} threads, sizes {SIZES:?}; \
         latency_tail_ms is the {tail_what}",
        out.attempted / rounds
    ));
    out.metric("setup_s", "s", median(&setup_s));
    out.metric("peak_rss_mb", "MB", stats::peak_rss_mb());
    out.metric("ops_per_s", "1/s", job_ms.len() as f64 / wall.as_secs_f64());
    out.metric("latency_p50_ms", "ms", median(&job_ms));
    out.metric("latency_tail_ms", "ms", tail);
    out.metric("prove_ms", "ms", stats::sum_of_medians(&wire.prove_ms));
    out.metric("verify_ms", "ms", stats::sum_of_medians(&wire.verify_ms));
    out.metric("transcript_bytes_per_node", "B", wire.bytes as f64 / wire.nodes as f64);
    out
}

/// Untraced and traced engine calls alternate after a warm-up, so the
/// overhead figure compares warm runs of the same round.
const OVERHEAD_PAIRS: usize = 2;

/// The traced run: one round with a benchmark-owned recorder collecting
/// the pool's queue waits, alternated with untraced runs of the same
/// round for the overhead figure.
pub fn traced(seed: u64, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(seed, 0);
    let engine = Engine::with_threads(nproc);
    let mut cells = Cells::new();
    check_records(&engine.run(&spec), &mut cells, &mut out.checks);

    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    for _ in 0..OVERHEAD_PAIRS {
        let t0 = Instant::now();
        let plain = engine.run(&spec);
        plain_s += t0.elapsed().as_secs_f64();
        check_records(&plain, &mut cells, &mut out.checks);
        let rec = Durations::default();
        let t0 = Instant::now();
        let traced = engine.run_traced(&spec, &rec);
        traced_s += t0.elapsed().as_secs_f64();
        check_records(&traced, &mut cells, &mut out.checks);
        last = Some((traced, rec));
    }
    check_cells(&cells, &mut out.checks);
    let (traced, rec) = last.expect("at least one traced round");
    out.attempted = traced.metrics.jobs;
    out.failed = traced.failures.len() as u64;

    let hide = hide_cheat();
    out.checks.require(hide.is_some(), || "series-parallel has no hide-extra-edges cheat".into());
    let (mut honest, mut cheat) = (Vec::new(), Vec::new());
    let (mut hide_ms, mut all_ms) = (0.0, 0.0);
    for r in &traced.records {
        let t = ms(r.wall);
        all_ms += t;
        match r.prover {
            Prover::Honest => honest.push(t),
            Prover::Cheat(s) => {
                cheat.push(t);
                if r.family == Family::SeriesParallel && Some(s) == hide {
                    hide_ms += t;
                }
            }
            Prover::PanicInjection => {}
        }
    }
    out.metric("engine.job_ms.honest", "ms", median(&honest));
    out.metric("engine.job_ms.cheat", "ms", median(&cheat));
    out.metric("engine.spa_hide_share", "ratio", hide_ms / all_ms);
    out.metric("engine.queue_wait_ms", "ms", rec.mean_ms("engine/queue-wait"));

    let jobs = spec.expand();
    let t0 = Instant::now();
    for job in &jobs {
        let c = job.coords;
        match c.prover {
            Prover::Honest => drop(black_box(YesInstance::generate(c.family, c.n, job.gen_seed))),
            _ => drop(black_box(no_instance(c.family, c.n, job.gen_seed))),
        }
    }
    out.metric("graph.gen_sweep_ms", "ms", ms(t0.elapsed()) / jobs.len() as f64);

    let largest = SIZES[SIZES.len() - 1];
    let g = match no_instance(Family::SeriesParallel, largest, mix(seed, 30_000)) {
        YesInstance::Spa(i) => i.graph,
        _ => unreachable!("series-parallel instance"),
    };
    let sp: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sp_tree(black_box(&g)));
            ms(t0.elapsed())
        })
        .collect();
    out.metric("graph.sp_tree_ms", "ms", median(&sp));

    out.note(format!(
        "soundness-sweep traced: {} jobs; hide-extra-edges is {:.1}% of summed job time",
        traced.metrics.jobs,
        100.0 * hide_ms / all_ms
    ));
    out.note(format!(
        "tracing overhead, soundness-sweep: {:.1} jobs/s untraced, {:.1} jobs/s traced \
         ({:+.1}% wall time, {OVERHEAD_PAIRS} warm pairs)",
        (OVERHEAD_PAIRS as u64 * traced.metrics.jobs) as f64 / plain_s,
        (OVERHEAD_PAIRS as u64 * traced.metrics.jobs) as f64 / traced_s,
        100.0 * (traced_s / plain_s - 1.0)
    ));
    out
}
