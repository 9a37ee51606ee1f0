//! The correctness gate: every answer a run receives is compared with a
//! reference computed off the clock. A mismatch fails the run; it is
//! never counted as a slow or failed request.

use pspc_graph::SpcAnswer;

/// Checked-operation tallies of one thread (merged at the end).
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted (requests, builds, oracle pairs).
    pub attempted: u64,
    /// Operations the program refused or that errored.
    pub failed: u64,
    /// Operations whose output differed from the reference.
    pub mismatched: u64,
    /// The first mismatch, for the error report.
    pub first_mismatch: Option<String>,
}

impl Gate {
    /// Records one operation whose output must equal `want`. Returns
    /// whether it did.
    pub fn check(&mut self, what: &str, got: &[SpcAnswer], want: &[SpcAnswer]) -> bool {
        self.attempted += 1;
        if got == want {
            return true;
        }
        self.mismatch(|| match got.iter().zip(want).position(|(g, w)| g != w) {
            Some(i) => format!("{what}: answer {i} is {:?}, expected {:?}", got[i], want[i]),
            None => format!("{what}: {} answers, expected {}", got.len(), want.len()),
        });
        false
    }

    /// Records one operation that must have produced an equal pair of
    /// outputs (for example two label arenas).
    pub fn check_eq<T: PartialEq>(&mut self, what: &str, got: &T, want: &T) -> bool {
        self.attempted += 1;
        if got == want {
            return true;
        }
        self.mismatch(|| format!("{what}: outputs differ"));
        false
    }

    /// Records one operation the program refused or failed.
    pub fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: failed: {what}");
    }

    fn mismatch(&mut self, describe: impl FnOnce() -> String) {
        self.mismatched += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(describe());
        }
    }

    /// Folds another thread's tallies into this one.
    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }

    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.mismatched == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SpcAnswer = SpcAnswer { dist: 3, count: 2 };
    const B: SpcAnswer = SpcAnswer { dist: 3, count: 5 };

    #[test]
    fn a_wrong_answer_trips_the_gate() {
        let mut gate = Gate::default();
        assert!(gate.check("ok", &[A, B], &[A, B]));
        assert!(gate.correct());
        assert!(!gate.check("req 7", &[A, A], &[A, B]));
        assert!(!gate.correct());
        assert_eq!((gate.attempted, gate.failed, gate.mismatched), (2, 0, 1));
        let msg = gate.first_mismatch.clone().expect("mismatch described");
        assert!(msg.starts_with("req 7: answer 1"), "{msg}");
    }

    #[test]
    fn truncated_answers_and_merges_are_caught() {
        let mut a = Gate::default();
        assert!(!a.check("short", &[A], &[A, B]));
        let mut b = Gate::default();
        b.fail("rejected");
        assert!(b.correct(), "a refusal is a failure, not a wrong answer");
        b.merge(a);
        assert!(!b.correct());
        assert_eq!((b.attempted, b.failed, b.mismatched), (2, 1, 1));
        assert!(!Gate::default().check_eq("arena", &1, &2));
    }
}
