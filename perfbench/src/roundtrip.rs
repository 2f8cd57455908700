//! One wire round trip — record, encode, decode, replay-verify — timed
//! call by call from outside, with the output checks every workload
//! applies to a transcript.

use crate::checks::{self, Checks, Expect, Verdict};
use pdip_engine::{Family, YesInstance};
use pdip_protocols::{PopParams, Transport};
use pdip_wire::{Transcript, VerifyOutcome, WireError, WireInstance};
use std::time::{Duration, Instant};

/// SplitMix64 finalizer over `(seed, k)`: the benchmark's own seed
/// stream, so inputs depend on `--seed` alone.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The wire form of a generated instance.
pub fn to_wire(inst: YesInstance) -> WireInstance {
    match inst {
        YesInstance::Pop(i) => WireInstance::Pop(i),
        YesInstance::Op(i) => WireInstance::Op(i),
        YesInstance::Emb(i) => WireInstance::Emb(i),
        YesInstance::Pl(i) => WireInstance::Pl(i),
        YesInstance::Spa(i) => WireInstance::Spa(i),
        YesInstance::Tw2(i) => WireInstance::Tw2(i),
    }
}

/// Checks Euler's formula on a yes-instance's witness rotation, for the
/// families whose instances carry one.
pub fn check_witness(inst: &YesInstance, checks: &mut Checks) {
    let (g, rho) = match inst {
        YesInstance::Emb(i) => (&i.graph, &i.rho),
        YesInstance::Pl(i) => match &i.witness_rho {
            Some(rho) => (&i.graph, rho),
            None => return,
        },
        _ => return,
    };
    checks.require_ok(checks::euler_holds(g, rho));
}

/// The verdict a replay verification reached.
pub fn verdict_of(outcome: &VerifyOutcome) -> Verdict {
    match outcome {
        VerifyOutcome::Accepted(_) => Verdict::Accept,
        VerifyOutcome::VerifierRejected(_) | VerifyOutcome::ReplayMismatch { .. } => {
            Verdict::Reject
        }
    }
}

/// The timed calls of one completed round trip.
#[derive(Debug, Clone)]
pub struct RoundTrip {
    /// Nodes of the instance.
    pub n: usize,
    /// Bytes of the encoded transcript.
    pub bytes: usize,
    /// `Transcript::record`.
    pub record: Duration,
    /// `Transcript::encode`.
    pub encode: Duration,
    /// `Transcript::decode`.
    pub decode: Duration,
    /// `Transcript::verify` (replay).
    pub replay: Duration,
}

impl RoundTrip {
    /// Record plus encode.
    pub fn prove(&self) -> Duration {
        self.record + self.encode
    }

    /// Decode plus replay verify.
    pub fn verify(&self) -> Duration {
        self.decode + self.replay
    }
}

/// What to record and what to expect of it.
#[derive(Clone)]
pub struct Job {
    /// The instance to prove.
    pub instance: WireInstance,
    /// Its family.
    pub family: Family,
    /// 0 = honest, `k` = cheat strategy `k − 1`.
    pub prover: u8,
    /// Seed the instance came from (stored as provenance).
    pub gen_seed: u64,
    /// Seed of the run's public coins.
    pub run_seed: u64,
    /// The verdict the run must reach.
    pub expect: Expect,
}

/// Records and encodes `job`: the prover's side alone.
pub fn prove(job: Job) -> Vec<u8> {
    Transcript::record(
        job.instance,
        PopParams::default(),
        Transport::Native,
        job.prover,
        job.gen_seed,
        job.run_seed,
    )
    .encode()
}

/// Records, encodes, decodes and replay-verifies `job`, timing each
/// call. Checks the verdict and, for honest runs, the label-bit
/// envelope; with `reencode`, also that the decoded transcript encodes
/// back to the same bytes. Returns the timings and the encoded blob; a
/// decode error is returned as the failure of the operation, not as a
/// check violation.
pub fn round_trip(
    job: Job,
    reencode: bool,
    checks: &mut Checks,
) -> Result<(RoundTrip, Vec<u8>), WireError> {
    let n = job.instance.n();
    let t0 = Instant::now();
    // Not `prove`: the label-bit check reads the recorded stats.
    let t = Transcript::record(
        job.instance,
        PopParams::default(),
        Transport::Native,
        job.prover,
        job.gen_seed,
        job.run_seed,
    );
    let t1 = Instant::now();
    let blob = t.encode();
    let t2 = Instant::now();
    if job.expect == Expect::Accept {
        checks.require_ok(checks::label_bits_within(job.family, n, &t.stats.per_round_max_bits));
    }
    drop(t);
    let t3 = Instant::now();
    let decoded = Transcript::decode(&blob)?;
    let t4 = Instant::now();
    let outcome = decoded.verify();
    let t5 = Instant::now();
    let got = verdict_of(&outcome);
    checks.require(checks::verdict_ok(job.expect, got), || {
        format!(
            "{} n={n} prover={}: expected {:?}, got {got:?}",
            job.family.name(),
            job.prover,
            job.expect
        )
    });
    if reencode {
        checks.require_ok(checks::same_bytes(&blob, &decoded.encode()));
    }
    let rt = RoundTrip {
        n,
        bytes: blob.len(),
        record: t1 - t0,
        encode: t2 - t1,
        decode: t4 - t3,
        replay: t5 - t4,
    };
    Ok((rt, blob))
}

/// The corruption classes applied to blobs: a flipped bit, a cut, and a
/// length field stamped to 0xffff_ffff.
pub const CORRUPTIONS: [&str; 3] = ["bit-flip", "truncate", "oversized-length"];

/// `blob` corrupted by class `class % 3` at a position drawn from `r`.
pub fn corrupt(blob: &[u8], class: usize, r: u64) -> Vec<u8> {
    let mut bad = blob.to_vec();
    let at = (r % bad.len().max(1) as u64) as usize;
    match class % 3 {
        0 => bad[at] ^= 1 << ((r >> 32) % 8),
        1 => bad.truncate(at),
        _ => {
            let at = at.min(bad.len().saturating_sub(4));
            for b in bad.iter_mut().skip(at).take(4) {
                *b = 0xff;
            }
        }
    }
    bad
}

/// A corrupted blob must not be accepted: it either fails to decode or
/// replay-verifies to a rejection.
pub fn check_corrupt_refused(bad: &[u8], what: &str, checks: &mut Checks) {
    let verdict = match Transcript::decode(bad) {
        Err(_) => Verdict::Malformed,
        Ok(t) => verdict_of(&t.verify()),
    };
    checks.require(checks::verdict_ok(Expect::NotAccept, verdict), || {
        format!("corrupted blob ({what}) was accepted")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn honest_job(expect: Expect) -> Job {
        Job {
            instance: to_wire(YesInstance::generate(Family::Outerplanar, 24, 5)),
            family: Family::Outerplanar,
            prover: 0,
            gen_seed: 5,
            run_seed: 6,
            expect,
        }
    }

    #[test]
    fn round_trip_passes_its_checks() {
        let mut checks = Checks::default();
        let (rt, blob) = round_trip(honest_job(Expect::Accept), true, &mut checks).unwrap();
        assert!(checks.ok(), "{:?}", checks.violations());
        assert_eq!(rt.bytes, blob.len());
        for class in 0..CORRUPTIONS.len() {
            check_corrupt_refused(
                &corrupt(&blob, class, mix(1, class as u64)),
                "test",
                &mut checks,
            );
        }
        assert!(checks.ok(), "{:?}", checks.violations());
    }

    #[test]
    fn planted_wrong_verdict_fires_in_round_trip() {
        let mut checks = Checks::default();
        round_trip(honest_job(Expect::Reject), false, &mut checks).unwrap();
        assert_eq!(checks.violations().len(), 1, "an accepted run expected to be rejected");
    }

    #[test]
    fn planted_accepted_corrupt_blob_fires() {
        let mut checks = Checks::default();
        let (_, blob) = round_trip(honest_job(Expect::Accept), false, &mut checks).unwrap();
        check_corrupt_refused(&blob, "not corrupted at all", &mut checks);
        assert!(!checks.ok(), "an intact blob passed off as corrupted is accepted");
    }
}
