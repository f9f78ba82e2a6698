//! Order statistics and failure accounting shared by the timed and traced
//! runs.

use std::time::Duration;

/// Nearest-rank percentile of an ascending sample, `q` in `[0, 1]`
/// (`None` for an empty sample).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// How many samples of a sample of `n` lie strictly beyond the
/// nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 0.5)
}

/// An ascending copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Why a request or update did not count as a success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Admission refused the request (backpressure).
    Rejected,
    /// The server resolved the request without an answer (lost,
    /// poisoned, or deadline expired).
    Unanswered,
    /// Answered, but below the exact rung of the resilience ladder.
    Degraded,
    /// Answered exactly, but more than the tolerance away from every
    /// oracle value it may legitimately match.
    Wrong,
    /// An update batch that failed to apply.
    UpdateFailed,
}

/// Absolute tolerance of the oracle comparison.
pub const TOLERANCE: f64 = 1e-9;

/// Checks an exact answer against its oracle value.
pub fn check_answer(answer: f64, expected: f64) -> Result<(), Failure> {
    if (answer - expected).abs() <= TOLERANCE {
        Ok(())
    } else {
        Err(Failure::Wrong)
    }
}

/// Attempted/failed counts, with the failures broken down by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Rejected requests.
    pub rejected: u64,
    /// Requests resolved without an answer.
    pub unanswered: u64,
    /// Requests answered below the exact rung.
    pub degraded: u64,
    /// Answers off the oracle.
    pub wrong: u64,
    /// Update batches that failed.
    pub update_failed: u64,
}

impl Tally {
    /// Records one attempted operation and its result.
    pub fn record(&mut self, result: Result<(), Failure>) {
        self.attempted += 1;
        match result {
            Ok(()) => {}
            Err(Failure::Rejected) => self.rejected += 1,
            Err(Failure::Unanswered) => self.unanswered += 1,
            Err(Failure::Degraded) => self.degraded += 1,
            Err(Failure::Wrong) => self.wrong += 1,
            Err(Failure::UpdateFailed) => self.update_failed += 1,
        }
    }

    /// Operations that failed, of any kind.
    pub fn failed(&self) -> u64 {
        self.rejected + self.unanswered + self.degraded + self.wrong + self.update_failed
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        self.unanswered += other.unanswered;
        self.degraded += other.degraded;
        self.wrong += other.wrong;
        self.update_failed += other.update_failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn samples_beyond_p99_need_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn answers_match_the_oracle_within_tolerance() {
        assert_eq!(check_answer(0.5, 0.5), Ok(()));
        assert_eq!(check_answer(0.5 + 5e-10, 0.5), Ok(()));
        assert_eq!(check_answer(0.5 - 2e-9, 0.5), Err(Failure::Wrong));
        assert_eq!(check_answer(f64::NAN, 0.5), Err(Failure::Wrong));
    }

    #[test]
    fn tally_counts_every_failure_kind_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err(Failure::Rejected));
        t.record(Err(Failure::Unanswered));
        t.record(Err(Failure::Degraded));
        t.record(Err(Failure::Wrong));
        t.record(Err(Failure::UpdateFailed));
        t.record(Ok(()));
        assert_eq!(t.attempted, 7);
        assert_eq!(t.failed(), 5);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.attempted, 14);
        assert_eq!(sum.failed(), 10);
    }
}
