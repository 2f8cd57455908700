//! `prove-verify-large`: an honest Theorem 1.5 planarity instance at
//! n = 10⁵ is recorded and encoded, then decoded and replay-verified,
//! in-process. Protocol, graph, field and transcript-size work dominate;
//! there is no per-request overhead.
//!
//! Each round also carries one wire round trip of an honest
//! series-parallel and one of an honest treewidth-2 transcript, sized
//! past the decoder's cap on captured rounds (`MAX_ROUNDS` = 2¹⁶ in
//! `crates/wire/src/format.rs`). Both families capture rounds linearly
//! in n, so today both are refused at decode and count as failed; no
//! timing metric includes them, so mending the cap lowers the failed
//! count and moves no timing.

use crate::checks::{Checks, Expect};
use crate::recorder::Durations;
use crate::report::Outcome;
use crate::roundtrip::{
    check_corrupt_refused, check_witness, corrupt, mix, round_trip, to_wire, Job, RoundTrip,
};
use crate::stats::{self, median, ms, usage};
use pdip_core::DipProtocol;
use pdip_engine::{Family, YesInstance};
use pdip_field::{multiset_poly_eval, smallest_prime_above, Fp};
use pdip_graph::is_planar;
use pdip_protocols::{Planarity, PopParams, Transport};
use pdip_wire::WireInstance;
use std::hint::black_box;
use std::time::Instant;

/// Nodes of the planarity instance.
const N: usize = 100_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Honest planarity round trips per round. The first of each round warms
/// the allocator and page cache after the set-up and is left out of the
/// timings; the medians are over the rest.
const PLANAR_PER_ROUND: u64 = 9;
/// Nominal seconds of one round on the reference machine.
const ROUND_SECONDS: f64 = 30.0;
/// The round trips past the decoder cap: family and requested size
/// (≈ 70k and ≈ 87k captured rounds). Their inputs do not depend on
/// `--seed`, so they fail identically in every run.
const CAPPED: [(Family, usize); 2] =
    [(Family::SeriesParallel, 40_000), (Family::Treewidth2, 40_000)];
const CAPPED_SEED: u64 = 0x5eed_0ca9;
/// Untraced/traced pairs of the honest round in the traced run.
const OVERHEAD_PAIRS: usize = 2;
/// The 13 stopwatch stages of one planarity round, in round order.
const ROUND_STAGES: [&str; 13] = [
    "round/rotation",
    "round/instance-prep",
    "round/spanning-tree",
    "round/reduction",
    "round/path-commit",
    "round/lr-orientation",
    "round/nesting",
    "round/lr-coins",
    "round/lr-labels",
    "round/lr-commit",
    "round/lr-msets",
    "round/transcript",
    "round/lr-decide",
];

struct Inputs {
    planar: WireInstance,
    gen_seed: u64,
    gen_ms: f64,
    capped: Vec<(Family, WireInstance)>,
}

fn setup(seed: u64, checks: &mut Checks) -> Inputs {
    let gen_seed = mix(seed, 1);
    let t0 = Instant::now();
    let inst = YesInstance::generate(Family::Planarity, N, gen_seed);
    let gen_ms = ms(t0.elapsed());
    check_witness(&inst, checks);
    let capped = CAPPED
        .iter()
        .map(|&(fam, n)| (fam, to_wire(YesInstance::generate(fam, n, CAPPED_SEED))))
        .collect();
    Inputs { planar: to_wire(inst), gen_seed, gen_ms, capped }
}

/// One honest planarity round trip. The first of a run also checks that
/// the blob re-encodes identically and that a corrupted copy is refused;
/// neither check is timed.
fn planar_round_trip(
    inputs: &Inputs,
    round: u64,
    first: bool,
    checks: &mut Checks,
) -> Option<RoundTrip> {
    let job = Job {
        instance: inputs.planar.clone(),
        family: Family::Planarity,
        prover: 0,
        gen_seed: inputs.gen_seed,
        run_seed: mix(inputs.gen_seed, 2 + round),
        expect: Expect::Accept,
    };
    match round_trip(job, first, checks) {
        Ok((rt, blob)) => {
            if first {
                let bad = corrupt(&blob, 0, mix(inputs.gen_seed, 99));
                check_corrupt_refused(&bad, "planarity n=1e5 bit-flip", checks);
            }
            Some(rt)
        }
        Err(e) => {
            checks.require(false, || format!("planarity n={N} transcript failed to decode: {e}"));
            None
        }
    }
}

/// A round's honest planarity round trips.
struct PlanarRound {
    /// The timed round trips (all but the warm-up).
    timed: Vec<RoundTrip>,
    failed: u64,
    /// Kernel CPU milliseconds and minor faults over the timed ones.
    sys_ms: f64,
    minor_faults: u64,
}

fn planar_round(inputs: &Inputs, round: u64, checks: &mut Checks) -> PlanarRound {
    let mut out = PlanarRound { timed: Vec::new(), failed: 0, sys_ms: 0.0, minor_faults: 0 };
    let mut before = usage();
    for i in 0..PLANAR_PER_ROUND {
        let k = round * PLANAR_PER_ROUND + i;
        if i == 1 {
            before = usage();
        }
        match planar_round_trip(inputs, k, k == 0, checks) {
            Some(rt) if i > 0 => out.timed.push(rt),
            Some(_) => {}
            None => out.failed += 1,
        }
    }
    let after = usage();
    out.sys_ms = (after.sys_s - before.sys_s) * 1e3;
    out.minor_faults = after.minor_faults - before.minor_faults;
    out
}

/// The capped round trips; returns a note for each that failed.
fn capped_round_trips(inputs: &Inputs, checks: &mut Checks) -> Vec<String> {
    let mut failed = Vec::new();
    for (fam, inst) in &inputs.capped {
        let job = Job {
            instance: inst.clone(),
            family: *fam,
            prover: 0,
            gen_seed: CAPPED_SEED,
            run_seed: CAPPED_SEED + 1,
            expect: Expect::Accept,
        };
        let n = inst.n();
        if let Err(e) = round_trip(job, false, checks) {
            let e = e.to_string();
            let cause = if e.starts_with("round count") {
                ": the decoder caps captured rounds at MAX_ROUNDS = 65536 \
                 (crates/wire/src/format.rs), and this family captures rounds linearly in n"
            } else {
                ""
            };
            failed.push(format!(
                "FAILED {} n={n} honest round trip: decode refused it ({e}){cause}",
                fam.name()
            ));
        }
    }
    failed
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let rounds = ((seconds as f64 / ROUND_SECONDS).round() as u64).max(1);
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let fresh = setup(seed, &mut out.checks);
        setup_s.push(t0.elapsed().as_secs_f64());
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");

    let (mut prove, mut verify, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes_per_node = 0.0;
    for r in 0..rounds {
        out.attempted += PLANAR_PER_ROUND + inputs.capped.len() as u64;
        let round = planar_round(&inputs, r, &mut out.checks);
        out.failed += round.failed;
        for rt in &round.timed {
            prove.push(ms(rt.prove()));
            verify.push(ms(rt.verify()));
            total.push(ms(rt.prove() + rt.verify()));
            bytes_per_node = rt.bytes as f64 / rt.n as f64;
        }
        let capped = capped_round_trips(&inputs, &mut out.checks);
        out.failed += capped.len() as u64;
        if r == 0 {
            out.notes.extend(capped);
        }
    }

    let (tail, tail_what) = stats::tail(&total);
    out.note(format!(
        "prove-verify-large: planarity n={N}, {rounds} round(s) of {PLANAR_PER_ROUND} round \
         trips (the first untimed) and {} capped ones; latency_tail_ms is the {tail_what}",
        inputs.capped.len()
    ));
    out.metric("setup_s", "s", median(&setup_s));
    out.metric("peak_rss_mb", "MB", stats::peak_rss_mb());
    out.metric("ops_per_s", "1/s", total.len() as f64 / (total.iter().sum::<f64>() / 1e3));
    out.metric("latency_p50_ms", "ms", median(&total));
    out.metric("latency_tail_ms", "ms", tail);
    out.metric("prove_ms", "ms", median(&prove));
    out.metric("verify_ms", "ms", median(&verify));
    out.metric("transcript_bytes_per_node", "B", bytes_per_node);
    out
}

/// The traced run: each call of the round trips timed on its own, the
/// round's stopwatch stages collected by a benchmark-owned recorder, and
/// the graph and field kernels the round leans on. With `primary`, the
/// capped round trips run too, so the operation counts match a round of
/// the untraced run.
pub fn traced(seed: u64, primary: bool) -> Outcome {
    let mut out = Outcome::default();
    let inputs = setup(seed, &mut out.checks);
    out.metric("graph.gen_large_ms", "ms", inputs.gen_ms);

    out.attempted += PLANAR_PER_ROUND;
    let round = planar_round(&inputs, 0, &mut out.checks);
    out.failed += round.failed;
    let calls = |f: fn(&RoundTrip) -> std::time::Duration| {
        median(&round.timed.iter().map(|rt| ms(f(rt))).collect::<Vec<_>>())
    };
    out.metric("protocols.record_ms", "ms", calls(|rt| rt.record));
    out.metric("wire.encode_ms", "ms", calls(|rt| rt.encode));
    out.metric("wire.decode_ms", "ms", calls(|rt| rt.decode));
    out.metric("protocols.replay_ms", "ms", calls(|rt| rt.replay));
    let ops = round.timed.len().max(1) as f64;
    out.metric("proc.sys_ms_per_op", "ms", round.sys_ms / ops);
    out.metric("proc.minor_faults_per_op", "count", round.minor_faults as f64 / ops);
    if primary {
        out.attempted += inputs.capped.len() as u64;
        let capped = capped_round_trips(&inputs, &mut out.checks);
        out.failed += capped.len() as u64;
        out.notes.extend(capped);
    }

    let WireInstance::Pl(pl) = &inputs.planar else { unreachable!("planarity instance") };
    let run_seed = mix(inputs.gen_seed, 2);
    let protocol = Planarity::new(pl, PopParams::default(), Transport::Native);
    // Untraced and traced rounds alternate after the round trips above
    // warmed the allocator, so the overhead compares like with like.
    let rec = Durations::default();
    let (mut untraced_ms, mut round_ms) = (0.0, 0.0);
    for _ in 0..OVERHEAD_PAIRS {
        let t0 = Instant::now();
        let plain = black_box(protocol.run_honest(run_seed));
        untraced_ms += ms(t0.elapsed());
        let t0 = Instant::now();
        let traced = black_box(protocol.run_honest_traced(run_seed, &rec));
        round_ms += ms(t0.elapsed());
        out.checks.require(plain.accepted() && traced.accepted(), || {
            "honest planarity round rejected when run directly".into()
        });
    }
    let pairs = OVERHEAD_PAIRS as f64;
    let (untraced_ms, round_ms) = (untraced_ms / pairs, round_ms / pairs);
    let mut staged = 0.0;
    for stage in ROUND_STAGES {
        let v = rec.total_ms(stage) / pairs;
        staged += v;
        let name = stage.trim_start_matches("round/");
        out.metric(format!("protocols.round.{name}_ms"), "ms", v);
    }
    out.metric("protocols.round.unattributed_ms", "ms", round_ms - staged);
    out.note(format!(
        "prove-verify-large traced: round/* stages cover {:.1}% of the {round_ms:.1} ms round",
        100.0 * staged / round_ms
    ));
    out.note(format!(
        "tracing overhead, prove-verify-large: honest round {untraced_ms:.1} ms untraced, \
         {round_ms:.1} ms traced ({:+.1}%, mean of {OVERHEAD_PAIRS} pairs)",
        100.0 * (round_ms / untraced_ms - 1.0)
    ));

    let planar: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let ok = black_box(is_planar(black_box(&pl.graph)));
            out.checks.require(ok, || "is_planar refused a planar yes-instance".into());
            ms(t0.elapsed())
        })
        .collect();
    out.metric("graph.lr_planarity_ms", "ms", median(&planar));

    let fp = Fp::new(smallest_prime_above((N as u64).pow(3)));
    let elems: Vec<u64> = (0..N as u64).map(|i| mix(seed, i) % fp.modulus()).collect();
    let z = mix(seed, u64::MAX) % fp.modulus();
    let evals: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            black_box(multiset_poly_eval(&fp, black_box(&elems).iter().copied(), z));
            t0.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    out.metric("field.multiset_eval_ns", "ns", median(&evals));
    out
}
