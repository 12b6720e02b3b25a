//! Seeded inputs and the order statistics every metric is built from.

/// SplitMix64: a small, fully specified generator, so a seed reproduces
/// the same schedule and inputs on any build of the benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scheduled open-loop request: when it is due (seconds after the
/// phase starts) and which pooled input it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub input: usize,
}

/// Poisson arrivals at `rate` per second over `duration_s`, each carrying
/// a pooled input drawn uniformly from `pool` — a pure function of `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, duration_s: f64, pool: usize) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            input: rng.below(pool),
        });
    }
}

/// Nearest-rank percentile of an ascending slice: the element at rank
/// `⌈q·n⌉` (1-based). The same definition the program's telemetry uses.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the `q` nearest-rank percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples support reporting the `q` percentile: at least ten
/// samples must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= 10
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered correctly, this many milliseconds after it was due.
    Ok(f64),
    /// Answered with a wrong result, a typed failure, or never answered.
    Failed,
    /// Rejected at admission (queue full, overloaded, shutting down).
    Refused,
}

impl Outcome {
    /// The latency that enters the percentiles: a failed or refused
    /// request misses every limit, so it sorts past every answer.
    pub fn latency_ms(&self) -> f64 {
        match self {
            Outcome::Ok(ms) => *ms,
            Outcome::Failed | Outcome::Refused => f64::INFINITY,
        }
    }
}

/// Latency percentiles over every attempted request, failures included.
pub fn latency_percentiles(outcomes: &[Outcome], qs: &[f64]) -> Vec<f64> {
    let mut lat: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    qs.iter().map(|&q| nearest_rank(&lat, q)).collect()
}

/// Splits a phase of `phase_s` seconds into whole windows of about
/// `window_s` (one window when the phase is shorter) and returns the
/// window length and how many there are.
pub fn windows(phase_s: f64, window_s: f64) -> (f64, usize) {
    let n = ((phase_s / window_s).floor() as usize).max(1);
    (phase_s / n as f64, n)
}

/// Splits a schedule into the segments of [`windows`]`(phase_s, segment_s)`:
/// each arrival goes to the segment its due time falls in, with its due time
/// made relative to that segment's start. Returns the segment length too.
pub fn split_schedule(
    schedule: &[Arrival],
    phase_s: f64,
    segment_s: f64,
) -> (f64, Vec<Vec<Arrival>>) {
    let (len, n) = windows(phase_s, segment_s);
    let mut segments = vec![Vec::new(); n];
    for a in schedule {
        let k = ((a.due_s / len) as usize).min(n - 1);
        segments[k].push(Arrival {
            due_s: a.due_s - k as f64 * len,
            input: a.input,
        });
    }
    (len, segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        // p99 needs a thousand samples, the median twenty.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn seeded_schedule_reproduces_exactly() {
        let a = poisson_schedule(7, 450.0, 2.0, 64);
        let b = poisson_schedule(7, 450.0, 2.0, 64);
        assert_eq!(a, b);
        let c = poisson_schedule(8, 450.0, 2.0, 64);
        assert_ne!(a, c);
        // Sorted, inside the phase, and close to the offered rate.
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|r| r.due_s < 2.0 && r.input < 64));
        assert!((800..1000).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn failed_and_refused_requests_miss_every_limit() {
        let mut o = vec![Outcome::Ok(1.0); 5];
        o.extend([Outcome::Failed, Outcome::Refused, Outcome::Failed]);
        o.extend([Outcome::Ok(2.0), Outcome::Ok(2.0)]);
        // 7 of 10 answered; the three failures sort past every answer, so
        // any percentile above 0.7 misses whatever limit it is held to.
        let p = latency_percentiles(&o, &[0.5, 0.7, 0.8]);
        assert_eq!(p[0], 1.0);
        assert_eq!(p[1], 2.0);
        assert!(p[2].is_infinite());
    }

    #[test]
    fn schedule_splits_into_whole_segments() {
        assert_eq!(windows(10.0, 1.0), (1.0, 10));
        assert_eq!(windows(2.5, 1.0), (1.25, 2));
        // A phase shorter than a segment is one segment.
        assert_eq!(windows(0.5, 1.0), (0.5, 1));
        let sched = poisson_schedule(3, 200.0, 2.5, 64);
        let (len, segs) = split_schedule(&sched, 2.5, 1.0);
        assert_eq!((len, segs.len()), (1.25, 2));
        let rejoined: Vec<Arrival> = segs
            .iter()
            .enumerate()
            .flat_map(|(k, seg)| {
                seg.iter().map(move |a| Arrival {
                    due_s: a.due_s + k as f64 * len,
                    input: a.input,
                })
            })
            .collect();
        assert_eq!(rejoined.len(), sched.len());
        for (a, b) in rejoined.iter().zip(&sched) {
            assert!((a.due_s - b.due_s).abs() < 1e-12 && a.input == b.input);
        }
        assert!(segs.iter().flatten().all(|a| (0.0..len).contains(&a.due_s)));
    }
}
