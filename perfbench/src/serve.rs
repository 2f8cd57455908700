//! `serve-mixed`: a long-lived in-process server driven over loopback
//! by a closed loop of `nproc` connections, each keeping one request
//! outstanding, replaying a seeded request list over all six families.
//!
//! Per-request framing, decode, queue hand-off and the metrics registry
//! are a visible share of each request here. Cheat sizes stay small so
//! no single request dominates the list: the series-parallel
//! `hide-extra-edges` cheat costs ~1 ms at n = 64 but ~2 s at n = 1024,
//! and that cost belongs to `soundness-sweep`.
//!
//! Between passes, while no request is outstanding, the list's
//! transcripts are round-tripped in-process once. That spreads the
//! `prove_ms`/`verify_ms` samples over the whole run instead of a
//! second of set-up, where a burst of load on the host would move them.

use crate::checks::{self, Checks, Expect, Verdict};
use crate::report::Outcome;
use crate::roundtrip::{self, check_witness, corrupt, mix, prove, round_trip, to_wire, Job};
use crate::stats::{self, median, ms};
use pdip_engine::serve::REQ_VERIFY;
use pdip_engine::{
    decode_response, no_instance, read_frame, spawn_server, write_frame, ServeConfig, ServeObs,
    ServerHandle, Status, YesInstance, FAMILIES,
};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Honest request sizes, trials per size, and the cheat instance size.
const HONEST_SIZES: [usize; 2] = [32, 128];
const TRIALS: u64 = 2;
const CHEAT_N: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Passes over the request list per second of `--seconds`, so that a
/// run measures for about `--seconds` on the reference machine.
const PASSES_PER_SECOND: f64 = 0.5;
/// Passes of the traced run.
const TRACE_PASSES: usize = 8;

struct Request {
    label: String,
    expect: Expect,
    frame: Vec<u8>,
}

/// The request list, and the jobs its honest and cheat transcripts
/// were recorded from.
struct Inputs {
    requests: Vec<Request>,
    jobs: Vec<Job>,
}

fn frame(blob: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(blob.len() + 1);
    f.push(REQ_VERIFY);
    f.extend_from_slice(blob);
    f
}

/// Builds the seeded request list: honest transcripts (accept), every
/// cheat strategy on no-instances (reject), and one corrupted copy of
/// each honest blob (never accept).
fn build(seed: u64, checks: &mut Checks) -> Inputs {
    let mut jobs = Vec::new();
    let mut labels = Vec::new();
    let mut k = 0u64;
    for fam in FAMILIES {
        for n in HONEST_SIZES {
            for _ in 0..TRIALS {
                k += 1;
                let gen_seed = mix(seed, k);
                let inst = YesInstance::generate(fam, n, gen_seed);
                check_witness(&inst, checks);
                jobs.push(Job {
                    instance: to_wire(inst),
                    family: fam,
                    prover: 0,
                    gen_seed,
                    run_seed: mix(gen_seed, 1),
                    expect: Expect::Accept,
                });
                labels.push(format!("{} n={n} honest", fam.name()));
            }
        }
    }
    for fam in FAMILIES {
        for _ in 0..TRIALS {
            k += 1;
            let gen_seed = mix(seed, k);
            let inst = to_wire(no_instance(fam, CHEAT_N, gen_seed));
            for s in 0..inst.cheat_count() {
                jobs.push(Job {
                    instance: inst.clone(),
                    family: fam,
                    prover: (s + 1) as u8,
                    gen_seed,
                    run_seed: mix(gen_seed, 2 + s as u64),
                    expect: Expect::Reject,
                });
                labels.push(format!("{} cheat {s}", fam.name()));
            }
        }
    }
    let mut requests: Vec<Request> = jobs
        .iter()
        .zip(labels)
        .map(|(job, label)| Request {
            label,
            expect: job.expect,
            frame: frame(&prove(job.clone())),
        })
        .collect();
    let honest = jobs.iter().filter(|j| j.expect == Expect::Accept).count();
    for i in 0..honest {
        let bad = corrupt(&requests[i].frame[1..], i, mix(seed, 10_000 + i as u64));
        let label = format!("{} ({})", requests[i].label, roundtrip::CORRUPTIONS[i % 3]);
        requests.push(Request { label, expect: Expect::NotAccept, frame: frame(&bad) });
    }
    Inputs { requests, jobs }
}

/// What the closed loop observed.
#[derive(Default)]
struct Loop {
    rtt_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    accepted: u64,
    /// Wall time of the passes, without the slots between them.
    wall: Duration,
}

/// One connection's share of a pass: requests `c, c + conns, …` of the
/// list, one outstanding at a time. A lost connection fails the rest of
/// its share and is not reopened.
fn send_share(
    stream: &mut Option<TcpStream>,
    share: &[&Request],
    seq: &mut u64,
    out: &mut Loop,
    checks: &mut Checks,
) {
    for (i, req) in share.iter().enumerate() {
        out.attempted += 1;
        let Some(s) = stream.as_mut() else {
            out.failed += 1;
            continue;
        };
        let t0 = Instant::now();
        let resp = write_frame(s, &req.frame)
            .and_then(|()| read_frame(s))
            .map(|f| f.and_then(|p| decode_response(&p)));
        let rtt = t0.elapsed();
        let Ok(Some(resp)) = resp else {
            checks.require(false, || format!("connection lost at request {}", *seq));
            *stream = None;
            out.failed += (share.len() - i) as u64;
            out.attempted += (share.len() - i - 1) as u64;
            return;
        };
        checks.require(resp.seq == *seq, || format!("response seq {} for request {seq}", resp.seq));
        *seq += 1;
        let verdict = match resp.status {
            Status::Accept => Verdict::Accept,
            Status::Reject => Verdict::Reject,
            Status::Malformed => Verdict::Malformed,
            _ => {
                out.failed += 1;
                continue;
            }
        };
        out.accepted += u64::from(verdict == Verdict::Accept);
        checks.require(checks::verdict_ok(req.expect, verdict), || {
            format!(
                "served {}: expected {:?}, got {verdict:?} ({})",
                req.label, req.expect, resp.detail
            )
        });
        out.rtt_ms.push(ms(rtt));
    }
}

/// Runs the closed loop against `port`: `conns` connections, `passes`
/// passes over the list. After each pass, with every connection idle,
/// `between` runs on this thread.
fn drive(
    port: u16,
    reqs: &[Request],
    conns: usize,
    passes: usize,
    checks: &mut Checks,
    mut between: impl FnMut(),
) -> Loop {
    let barrier = Barrier::new(conns + 1);
    let mut all = Loop::default();
    let parts: Vec<(Loop, Checks)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let (mut l, mut ch) = (Loop::default(), Checks::default());
                    let share: Vec<&Request> = reqs.iter().skip(c).step_by(conns).collect();
                    let mut stream = match TcpStream::connect(("127.0.0.1", port)) {
                        Ok(s) => {
                            let _unused = s.set_nodelay(true);
                            Some(s)
                        }
                        Err(e) => {
                            ch.require(false, || format!("connection {c}: connect failed: {e}"));
                            None
                        }
                    };
                    let mut seq = 0;
                    for _ in 0..passes {
                        barrier.wait();
                        send_share(&mut stream, &share, &mut seq, &mut l, &mut ch);
                        barrier.wait();
                    }
                    (l, ch)
                })
            })
            .collect();
        for _ in 0..passes {
            barrier.wait();
            let t0 = Instant::now();
            barrier.wait();
            all.wall += t0.elapsed();
            between();
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    for (l, ch) in parts {
        all.rtt_ms.extend(l.rtt_ms);
        all.attempted += l.attempted;
        all.failed += l.failed;
        all.accepted += l.accepted;
        checks.merge(ch);
    }
    all
}

fn start(obs: &Arc<ServeObs>) -> std::io::Result<ServerHandle> {
    spawn_server(ServeConfig { obs: Some(Arc::clone(obs)), ..ServeConfig::default() })
}

fn stop(server: ServerHandle, checks: &mut Checks) {
    match server.stop() {
        Ok(stats) => checks.require(stats.panics == 0 && stats.io_errors == 0, || {
            format!("server drained with {} panics, {} I/O errors", stats.panics, stats.io_errors)
        }),
        Err(e) => checks.require(false, || format!("server stop failed: {e}")),
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let passes = ((seconds as f64 * PASSES_PER_SECOND).round() as usize).max(1);
    let obs = Arc::new(ServeObs::new());
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let inputs = build(seed, &mut out.checks);
        let server = match start(&obs) {
            Ok(s) => s,
            Err(e) => {
                out.checks.require(false, || format!("server failed to start: {e}"));
                return out;
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, old)) = last.replace((inputs, server)) {
            stop(old, &mut out.checks);
        }
    }
    let (inputs, server) = last.expect("at least one set-up");

    // Per transcript, its record + encode and decode + verify times, one
    // sample per pass; the first pass also checks re-encoding.
    let mut prove_ms = vec![Vec::new(); inputs.jobs.len()];
    let mut verify_ms = vec![Vec::new(); inputs.jobs.len()];
    let mut slot_checks = Checks::default();
    let mut first = true;
    let lp = drive(server.port(), &inputs.requests, nproc, passes, &mut out.checks, || {
        for (i, job) in inputs.jobs.iter().enumerate() {
            match round_trip(job.clone(), first, &mut slot_checks) {
                Ok((rt, _)) => {
                    prove_ms[i].push(ms(rt.prove()));
                    verify_ms[i].push(ms(rt.verify()));
                }
                Err(e) => {
                    slot_checks.require(false, || format!("request {i} failed to decode: {e}"))
                }
            }
        }
        first = false;
    });
    out.checks.merge(slot_checks);
    stop(server, &mut out.checks);
    let served = obs.snapshot().counter("requests_total{status=\"accept\"}").unwrap_or(0);
    out.checks.require(served == lp.accepted, || {
        format!("server counted {served} accepts, clients saw {}", lp.accepted)
    });

    let (bytes, nodes) = inputs
        .requests
        .iter()
        .zip(&inputs.jobs)
        .fold((0, 0), |(b, n), (r, j)| (b + r.frame.len() - 1, n + j.instance.n()));
    out.attempted = lp.attempted;
    out.failed = lp.failed;
    let (tail, tail_what) = stats::tail(&lp.rtt_ms);
    out.note(format!(
        "serve-mixed: {} requests per pass ({} honest, {} cheat, {} corrupted), {passes} passes, \
         {nproc} connections; latency_tail_ms is the {tail_what}",
        inputs.requests.len(),
        inputs.requests.iter().filter(|r| r.expect == Expect::Accept).count(),
        inputs.requests.iter().filter(|r| r.expect == Expect::Reject).count(),
        inputs.requests.iter().filter(|r| r.expect == Expect::NotAccept).count(),
    ));
    out.metric("setup_s", "s", median(&setup_s));
    out.metric("peak_rss_mb", "MB", stats::peak_rss_mb());
    out.metric("ops_per_s", "1/s", lp.rtt_ms.len() as f64 / lp.wall.as_secs_f64());
    out.metric("latency_p50_ms", "ms", median(&lp.rtt_ms));
    out.metric("latency_tail_ms", "ms", tail);
    out.metric("prove_ms", "ms", stats::sum_of_medians(&prove_ms));
    out.metric("verify_ms", "ms", stats::sum_of_medians(&verify_ms));
    out.metric("transcript_bytes_per_node", "B", bytes as f64 / nodes as f64);
    out
}

/// The traced run: the server's own stage histograms, read from the
/// shared registry, split each request's round trip.
pub fn traced(seed: u64, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let obs = Arc::new(ServeObs::new());
    let inputs = build(seed, &mut out.checks);
    let server = match start(&obs) {
        Ok(s) => s,
        Err(e) => {
            out.checks.require(false, || format!("server failed to start: {e}"));
            return out;
        }
    };
    let lp = drive(server.port(), &inputs.requests, nproc, TRACE_PASSES, &mut out.checks, || {});
    stop(server, &mut out.checks);
    out.attempted = lp.attempted;
    out.failed = lp.failed;

    let snap = obs.snapshot();
    let requests = lp.rtt_ms.len().max(1) as f64;
    // Histogram totals over requests: a malformed request has no verify
    // stage, so per-request shares add up where per-stage means do not.
    let per_request =
        |name: &str| snap.histogram(name).map_or(0.0, |h| h.total_nanos() as f64 / 1e6 / requests);
    let stages = [
        ("serve.queue_wait_ms", per_request("latency_queue_wait_ns")),
        ("serve.decode_ms", per_request("latency_decode_ns")),
        ("serve.verify_ms", per_request("latency_verify_ns")),
        ("serve.write_ms", per_request("latency_write_ns")),
    ];
    let rtt = stats::mean(&lp.rtt_ms);
    let attributed: f64 = stages.iter().map(|(_, v)| v).sum();
    for (name, v) in stages {
        out.metric(name, "ms", v);
    }
    out.metric("serve.unattributed_ms", "ms", rtt - attributed);
    out.metric("serve.client_rtt_ms", "ms", rtt);
    out.note(format!(
        "serve-mixed traced: {} requests; server stages {attributed:.4} ms + unattributed {:.4} ms \
         = client mean RTT {rtt:.4} ms; the registry is always on, so this run adds no tracing",
        lp.rtt_ms.len(),
        rtt - attributed
    ));
    out
}
