//! System parameters and quorum arithmetic.

use bgla_codec::{CodecError, Reader, Wire, Writer};

/// Static parameters of one agreement instance: `n` processes of which at
/// most `f` are Byzantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Total number of processes.
    pub n: usize,
    /// Upper bound on Byzantine processes.
    pub f: usize,
}

impl SystemConfig {
    /// Creates a configuration, checking the paper's resilience bound
    /// `n ≥ 3f + 1` (Theorem 1 proves it necessary).
    pub fn new(n: usize, f: usize) -> Self {
        #[allow(clippy::int_plus_one)] // paper notation: n >= 3f + 1
        {
            // bgla-lint: allow(byzantine-panic, "precondition on locally chosen params; Wire::decode builds the struct directly and never calls new")
            assert!(
                n >= 3 * f + 1,
                "Byzantine LA requires n >= 3f+1 (got n={n}, f={f})"
            );
        }
        SystemConfig { n, f }
    }

    /// Creates a configuration **without** the resilience check — used
    /// only by the `3f+1`-necessity runs (`tests/necessity.rs`), which deliberately
    /// runs the protocol under-provisioned to exhibit a violation.
    pub fn new_unchecked(n: usize, f: usize) -> Self {
        SystemConfig { n, f }
    }

    /// The maximum `f` for a given `n`: `⌊(n−1)/3⌋`.
    pub fn max_f(n: usize) -> usize {
        (n - 1) / 3
    }

    /// The Byzantine quorum used throughout the paper:
    /// `⌊(n + f)/2⌋ + 1` acks commit a proposal.
    pub fn quorum(&self) -> usize {
        (self.n + self.f) / 2 + 1
    }

    /// Disclosure-phase threshold: proceed after `n − f` disclosures.
    pub fn disclosure_threshold(&self) -> usize {
        self.n - self.f
    }

    /// Minimum number of *correct* processes.
    pub fn min_correct(&self) -> usize {
        self.n - self.f
    }
}

/// Decoding deliberately skips the `n ≥ 3f + 1` assert: snapshots of the
/// `3f+1`-necessity runs carry under-provisioned configs on
/// purpose. Only `n == 0` (meaningless everywhere) is rejected.
impl Wire for SystemConfig {
    fn encode(&self, w: &mut Writer) {
        let Self { n, f } = self;
        w.usize(*n);
        w.usize(*f);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.usize()?;
        let f = r.usize()?;
        if n == 0 {
            return Err(CodecError::Invalid("config n == 0"));
        }
        Ok(SystemConfig { n, f })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_values_match_paper() {
        // n=4, f=1: floor(5/2)+1 = 3.
        assert_eq!(SystemConfig::new(4, 1).quorum(), 3);
        // n=7, f=2: floor(9/2)+1 = 5.
        assert_eq!(SystemConfig::new(7, 2).quorum(), 5);
        // n=10, f=3: floor(13/2)+1 = 7.
        assert_eq!(SystemConfig::new(10, 3).quorum(), 7);
    }

    #[test]
    fn quorum_intersects_in_correct_process() {
        // Any two quorums of size floor((n+f)/2)+1 intersect in at least
        // f+1 processes, hence in one correct process.
        for n in 4..40 {
            let f = SystemConfig::max_f(n);
            let c = SystemConfig::new(n, f);
            let q = c.quorum();
            let intersection = 2 * q as i64 - n as i64;
            assert!(
                intersection >= f as i64 + 1,
                "n={n} f={f} q={q}: quorums may miss each other"
            );
        }
    }

    #[test]
    fn max_f_matches_bound() {
        assert_eq!(SystemConfig::max_f(4), 1);
        assert_eq!(SystemConfig::max_f(6), 1);
        assert_eq!(SystemConfig::max_f(7), 2);
        assert_eq!(SystemConfig::max_f(100), 33);
    }

    #[test]
    #[should_panic(expected = "n >= 3f+1")]
    fn rejects_overloaded_f() {
        let _ = SystemConfig::new(6, 2);
    }

    #[test]
    fn unchecked_allows_underprovisioning_for_e1() {
        let c = SystemConfig::new_unchecked(3, 1);
        assert_eq!(c.quorum(), 3);
    }
}
