//! Shared percentile math: exact nearest-rank over sorted samples, and a
//! bounded most-recent sample window for sliding percentiles.
//!
//! This is the code the registry's [`Summary`](crate::Summary) is built
//! on — kept here so every component that reports percentiles agrees on
//! the definition (nearest-rank: the smallest sample whose rank is at
//! least `⌈q·n⌉`).

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
/// The ring is allocated once, at its full capacity, when the window is
/// created; recording a sample never allocates, so the window's memory
/// does not grow with traffic.
///
/// Not internally synchronized — wrap in a `Mutex` when shared (the
/// registry's [`Summary`](crate::Summary) does).
#[derive(Debug, Clone)]
pub struct SampleWindow {
    /// The ring; `samples[next]` is the oldest sample once the ring is full.
    samples: Vec<u64>,
    /// Slot the next sample overwrites.
    next: usize,
    /// Whether every slot holds a sample.
    full: bool,
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
            samples: vec![0; capacity],
            next: 0,
            full: false,
        }
    }

    /// Records one sample, displacing the oldest once full.
    pub fn push(&mut self, sample: u64) {
        self.samples[self.next] = sample;
        self.next += 1;
        if self.next == self.samples.len() {
            self.next = 0;
            self.full = true;
        }
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        if self.full {
            self.samples.len()
        } else {
            self.next
        }
    }

    /// Whether no samples were recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots the backing ring holds — fixed at the requested capacity.
    pub fn capacity(&self) -> usize {
        self.samples.capacity()
    }

    /// The retained window, oldest first (allocates a copy).
    pub fn to_vec(&self) -> Vec<u64> {
        if self.full {
            let (newer, older) = self.samples.split_at(self.next);
            [older, newer].concat()
        } else {
            self.samples[..self.next].to_vec()
        }
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
    fn ring_is_allocated_once_and_keeps_the_newest_samples() {
        let window = 64;
        let mut w = SampleWindow::new(window);
        assert_eq!(w.capacity(), window);
        assert!(w.is_empty());
        for s in 0..10 * window as u64 {
            w.push(s);
            assert_eq!(w.capacity(), window, "the ring never grows");
        }
        assert_eq!(w.len(), window);
        // The newest `window` samples, oldest first.
        let newest: Vec<u64> = (9 * window as u64..10 * window as u64).collect();
        assert_eq!(w.to_vec(), newest);
        assert_eq!(
            w.percentiles([0.0, 0.50, 1.0]),
            [newest[0], newest[window / 2 - 1], newest[window - 1]]
        );
    }

    #[test]
    #[should_panic(expected = "hold a sample")]
    fn zero_capacity_window_is_rejected() {
        SampleWindow::new(0);
    }
}
