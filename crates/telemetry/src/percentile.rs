//! Shared percentile math: exact nearest-rank over sorted samples, and a
//! bounded most-recent sample window for sliding percentiles.
//!
//! This is the code the registry's [`Summary`](crate::Summary) is built
//! on — kept here so every component that reports percentiles agrees on
//! the definition (nearest-rank: the smallest sample whose rank is at
//! least `⌈q·n⌉`).

use std::collections::VecDeque;

/// Nearest-rank percentile of an ascending-sorted slice: the element at
/// rank `⌈q·n⌉` (1-based), clamped into the slice. Returns 0 for an empty
/// slice — callers render "no data yet" as zero.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A bounded ring of the **most recent** samples, for sliding-window
/// percentiles: a long-running server's p50/p95/p99 describe current
/// traffic, never startup traffic, and memory stays bounded.
///
/// Not internally synchronized — wrap in a `Mutex` when shared (the
/// registry's [`Summary`](crate::Summary) does).
#[derive(Debug, Clone)]
pub struct SampleWindow {
    samples: VecDeque<u64>,
    capacity: usize,
}

impl SampleWindow {
    /// A window retaining the most recent `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0` (a window must hold a sample).
    pub fn new(capacity: usize) -> SampleWindow {
        assert!(capacity >= 1, "sample window must hold a sample");
        SampleWindow {
            samples: VecDeque::new(),
            capacity,
        }
    }

    /// Records one sample, displacing the oldest once full.
    pub fn push(&mut self, sample: u64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The retained window, oldest first (allocates a copy).
    pub fn to_vec(&self) -> Vec<u64> {
        self.samples.iter().copied().collect()
    }

    /// The retained window, ascending-sorted (allocates a copy).
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.to_vec();
        v.sort_unstable();
        v
    }

    /// Nearest-rank percentiles for each requested quantile, computed over
    /// one shared sort of the window.
    pub fn percentiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        let sorted = self.sorted();
        qs.map(|q| nearest_rank(&sorted, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = [10, 20, 30, 40, 50, 60];
        assert_eq!(nearest_rank(&s, 0.50), 30);
        assert_eq!(nearest_rank(&s, 0.95), 60);
        assert_eq!(nearest_rank(&s, 0.0), 10, "q=0 clamps to the first rank");
        assert_eq!(nearest_rank(&s, 1.0), 60);
        assert_eq!(nearest_rank(&[], 0.5), 0, "empty renders as zero");
        assert_eq!(nearest_rank(&[7], 0.99), 7, "single sample is every rank");
    }

    #[test]
    fn window_retains_most_recent_samples() {
        let mut w = SampleWindow::new(4);
        for s in [1, 1, 1, 1] {
            w.push(s);
        }
        assert_eq!(w.percentiles([0.99]), [1]);
        for s in [900, 900, 900, 900] {
            w.push(s);
        }
        assert_eq!(w.percentiles([0.50, 0.99]), [900, 900]);
        w.push(7);
        w.push(8);
        // Window is now [900, 900, 7, 8] → sorted [7, 8, 900, 900].
        assert_eq!(w.len(), 4);
        assert_eq!(w.percentiles([0.50, 0.99]), [8, 900]);
    }

    #[test]
    #[should_panic(expected = "hold a sample")]
    fn zero_capacity_window_is_rejected() {
        SampleWindow::new(0);
    }
}
