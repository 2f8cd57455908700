//! Output checks made apart from the program: each one recomputes a
//! property from first principles (Euler's formula, the expected verdict
//! of a prover, byte identity, the label-bit envelope, the soundness
//! rate) instead of comparing against a saved copy of earlier output.

use pdip_engine::Family;
use pdip_graph::{Graph, RotationSystem};

/// Lowest rejection rate a cheating prover may get away with per cell:
/// the DIP soundness condition (a no-instance is accepted with
/// probability at most 1/3).
pub const MIN_REJECT_RATE: f64 = 2.0 / 3.0;

/// Accumulates check violations; a run is correct when there are none.
#[derive(Debug, Default)]
pub struct Checks {
    violations: Vec<String>,
    passed: u64,
}

impl Checks {
    /// Records one check: `ok`, or a violation described by `what`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.violations.push(what());
        }
    }

    /// Records a check that returns its violation as an error.
    pub fn require_ok(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.passed += 1,
            Err(e) => self.violations.push(e),
        }
    }

    /// Folds another set of checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.passed += other.passed;
        self.violations.extend(other.violations);
    }

    /// Whether every check held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Checks that held.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Descriptions of the checks that did not hold.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// The verdict a request or job is expected to get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Honest prover on a yes-instance: accepted (perfect completeness).
    Accept,
    /// Cheating prover on a no-instance: rejected.
    Reject,
    /// Corrupted blob: anything but accepted.
    NotAccept,
}

/// A verdict as observed from outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Accepted.
    Accept,
    /// Rejected by the verifier or by replay.
    Reject,
    /// Refused as malformed.
    Malformed,
}

/// Whether `got` is the verdict `want` calls for. A cheating prover must
/// be rejected by the verifier proper, not refused as malformed: its
/// transcript is well-formed.
pub fn verdict_ok(want: Expect, got: Verdict) -> bool {
    match want {
        Expect::Accept => got == Verdict::Accept,
        Expect::Reject => got == Verdict::Reject,
        Expect::NotAccept => got != Verdict::Accept,
    }
}

/// Faces of the embedding `rho` induces on `g`, counted by tracing dart
/// orbits: leaving `v` along `e` and arriving at `w`, a face continues
/// along the edge after `e` in `w`'s clockwise order. An isolated node
/// is a component with one face of its own.
pub fn face_count(g: &Graph, rho: &RotationSystem) -> Result<usize, String> {
    let m = g.m();
    // Dart 2e leaves edge e's `u` end, dart 2e + 1 its `v` end.
    let dart = |e: usize, from: usize| 2 * e + usize::from(g.edge(e).u != from);
    let mut pos = vec![usize::MAX; 2 * m];
    for v in 0..g.n() {
        let order = rho.order_at(v);
        if order.len() != g.degree(v) {
            return Err(format!(
                "rotation at node {v} lists {} of {} edges",
                order.len(),
                g.degree(v)
            ));
        }
        for (i, &e) in order.iter().enumerate() {
            let edge = g.edge(e);
            if edge.u != v && edge.v != v {
                return Err(format!("rotation at node {v} lists edge {e}, not incident to it"));
            }
            pos[dart(e, v)] = i;
        }
    }
    if pos.contains(&usize::MAX) {
        return Err("rotation system misses an edge end".into());
    }
    let mut seen = vec![false; 2 * m];
    let mut faces = (0..g.n()).filter(|&v| g.degree(v) == 0).count();
    for start in 0..2 * m {
        if seen[start] {
            continue;
        }
        faces += 1;
        let mut d = start;
        while !seen[d] {
            seen[d] = true;
            let e = d / 2;
            let edge = g.edge(e);
            let from = if d % 2 == 0 { edge.u } else { edge.v };
            let to = edge.other(from);
            let order = rho.order_at(to);
            let next = order[(pos[dart(e, to)] + 1) % order.len()];
            d = dart(next, to);
        }
    }
    Ok(faces)
}

/// Connected components of `g`, isolated nodes included.
pub fn components(g: &Graph) -> usize {
    let mut parent: Vec<usize> = (0..g.n()).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    let mut count = g.n();
    for e in g.edges() {
        let (a, b) = (find(&mut parent, e.u), find(&mut parent, e.v));
        if a != b {
            parent[a] = b;
            count -= 1;
        }
    }
    count
}

/// Euler's formula for a planar embedding: n − m + f = 2 per component.
pub fn euler_holds(g: &Graph, rho: &RotationSystem) -> Result<(), String> {
    let f = face_count(g, rho)?;
    let c = components(g);
    let lhs = g.n() as i64 - g.m() as i64 + f as i64;
    if lhs == 2 * c as i64 {
        Ok(())
    } else {
        Err(format!(
            "Euler's formula fails: n={} m={} faces={f} components={c}, n-m+f={lhs} != {}",
            g.n(),
            g.m(),
            2 * c
        ))
    }
}

/// Whether re-encoding a decoded blob gave back the same bytes; the
/// error names the first differing offset.
pub fn same_bytes(original: &[u8], reencoded: &[u8]) -> Result<(), String> {
    if original == reencoded {
        return Ok(());
    }
    let at = original.iter().zip(reencoded).position(|(a, b)| a != b);
    Err(match at {
        Some(i) => format!("re-encoded blob differs at byte {i} of {}", original.len()),
        None => {
            format!("re-encoded blob has {} bytes, original {}", reencoded.len(), original.len())
        }
    })
}

/// Slope `C` of the per-round label-bit envelope `C·⌈log₂ n⌉`: a loose
/// ceiling over the theorems' O(log log n) labels. The embedded-planarity
/// reduction simulates five copies per node and planarity adds an
/// O(log Δ) rotation term, hence their larger slope.
pub fn envelope_slope(family: Family) -> usize {
    match family {
        Family::EmbeddedPlanarity | Family::Planarity => 384,
        _ => 64,
    }
}

/// Every prover round's largest label stays within `C·⌈log₂ n⌉` bits.
pub fn label_bits_within(
    family: Family,
    n: usize,
    per_round_max_bits: &[usize],
) -> Result<(), String> {
    let log2n = n.max(2).next_power_of_two().trailing_zeros() as usize;
    let cap = envelope_slope(family) * log2n;
    match per_round_max_bits.iter().position(|&b| b > cap) {
        None => Ok(()),
        Some(r) => Err(format!(
            "{} n={n}: round {r} label of {} bits exceeds {cap} = {}·⌈log₂ n⌉",
            family.name(),
            per_round_max_bits[r],
            envelope_slope(family)
        )),
    }
}

/// A cheat cell is rejected at least at the rate soundness allows.
pub fn soundness_ok(rejected: u64, trials: u64) -> bool {
    trials > 0 && rejected as f64 >= MIN_REJECT_RATE * trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_engine::YesInstance;
    use pdip_protocols::{PopParams, Transport};
    use pdip_wire::{Transcript, WireInstance};

    fn planar_instance(n: usize, seed: u64) -> (Graph, RotationSystem) {
        match YesInstance::generate(Family::Planarity, n, seed) {
            YesInstance::Pl(i) => (i.graph, i.witness_rho.expect("generator gives a witness")),
            _ => unreachable!(),
        }
    }

    #[test]
    fn euler_holds_on_generated_witnesses() {
        for seed in 0..5 {
            let (g, rho) = planar_instance(60, seed);
            euler_holds(&g, &rho).expect("a generated witness is planar");
            assert_eq!(face_count(&g, &rho).unwrap(), rho.face_count(&g));
        }
    }

    #[test]
    fn euler_counts_isolated_nodes_and_components() {
        // Two disjoint triangles plus an isolated node: n=7, m=6, f=2+2+1.
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let rho = RotationSystem::port_order(&g);
        assert_eq!(face_count(&g, &rho).unwrap(), 5);
        assert_eq!(components(&g), 3);
        euler_holds(&g, &rho).unwrap();
    }

    #[test]
    fn planted_wrong_face_count_fires() {
        let (g, mut rho) = planar_instance(60, 3);
        let v = (0..g.n()).find(|&v| g.degree(v) >= 3).expect("a node of degree 3");
        rho.swap_positions(v, 0, 1);
        let err = euler_holds(&g, &rho).expect_err("a swapped rotation is not planar");
        assert!(err.contains("Euler"), "{err}");
    }

    #[test]
    fn planted_flipped_verdict_fires() {
        assert!(verdict_ok(Expect::Accept, Verdict::Accept));
        assert!(!verdict_ok(Expect::Accept, Verdict::Reject), "honest rejection");
        assert!(verdict_ok(Expect::Reject, Verdict::Reject));
        assert!(!verdict_ok(Expect::Reject, Verdict::Accept), "cheat accepted");
        assert!(!verdict_ok(Expect::Reject, Verdict::Malformed), "cheat refused as malformed");
        assert!(verdict_ok(Expect::NotAccept, Verdict::Malformed));
        assert!(!verdict_ok(Expect::NotAccept, Verdict::Accept), "corrupted blob accepted");
    }

    #[test]
    fn planted_differing_reencoded_byte_fires() {
        let inst = match YesInstance::generate(Family::PathOuterplanar, 24, 1) {
            YesInstance::Pop(i) => WireInstance::Pop(i),
            _ => unreachable!(),
        };
        let t = Transcript::record(inst, PopParams::default(), Transport::Native, 0, 1, 2);
        let blob = t.encode();
        let back = Transcript::decode(&blob).expect("decodes").encode();
        same_bytes(&blob, &back).expect("round trip is byte-identical");
        let mut bad = back.clone();
        bad[blob.len() / 2] ^= 0x01;
        let err = same_bytes(&blob, &bad).expect_err("one differing byte");
        assert!(err.contains(&format!("byte {}", blob.len() / 2)), "{err}");
        assert!(same_bytes(&blob, &back[..back.len() - 1]).is_err());
    }

    #[test]
    fn planted_oversized_label_and_low_rejection_fire() {
        assert!(label_bits_within(Family::Outerplanar, 1000, &[40, 600]).is_ok());
        assert!(label_bits_within(Family::Outerplanar, 1000, &[40, 641]).is_err());
        assert!(soundness_ok(4, 6));
        assert!(!soundness_ok(3, 6));
        assert!(!soundness_ok(0, 0));
    }

    #[test]
    fn checks_collect_violations() {
        let mut c = Checks::default();
        c.require(true, || unreachable!());
        c.require(false, || "broken".into());
        c.require_ok(Err("also broken".into()));
        assert!(!c.ok());
        assert_eq!(c.passed(), 1);
        assert_eq!(c.violations().len(), 2);
    }
}
