//! Host-speed calibration.
//!
//! The shared 2-vCPU hosts this benchmark runs on switch between a fast and
//! a slow mode, up to 1.8× apart, for stretches of seconds to minutes: ten
//! identical serving runs in a row read 870/s or 1420/s depending on the
//! mode they fell in. The benchmark therefore times a fixed kernel of its
//! own — a naive 64×64 f32 matmul, code the program never touches — on
//! every CPU at once, each thread pinned to its CPU, before and after every
//! measured segment. The kernel's mean time over its time on the reference
//! host in the fast mode is the host's *dilation*. Every time the benchmark
//! reports is divided by the mean dilation on either side of its segment,
//! and every rate multiplied by it: the metrics read as on the reference
//! host in its fast mode. The measured values and the dilation are in the
//! manifest.

use crate::median;
use std::time::Instant;

const N: usize = 64;
/// Matmuls per timed round.
const REPS: usize = 10;
/// Timed rounds per CPU; the median round counts.
const ROUNDS: usize = 5;
/// Time of one round on the reference host (2-vCPU Xeon at 2.1 GHz) in its
/// fast mode, ms.
pub const REFERENCE_MS: f64 = 1.7;

fn matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..N {
        for j in 0..N {
            let mut s = 0.0f32;
            for k in 0..N {
                s += a[i * N + k] * b[k * N + j];
            }
            c[i * N + j] = s;
        }
    }
}

/// Linux `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to `cpu`; false when the kernel refuses.
fn pin(cpu: usize) -> bool {
    let mut mask = CpuSet([0; 16]);
    mask.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask is a valid, initialised `cpu_set_t` of the size
    // passed, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// Median round time of the kernel on one CPU, ms.
fn round_ms(cpu: usize) -> f64 {
    pin(cpu);
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.1).collect();
    let mut c = vec![0.0f32; N * N];
    matmul(&a, &b, &mut c);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..REPS {
            matmul(std::hint::black_box(&a), std::hint::black_box(&b), &mut c);
            std::hint::black_box(&c);
        }
        rounds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&rounds)
}

/// The host's dilation now: 1 on the reference host in its fast mode.
fn dilation() -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cpus)
            .map(|cpu| s.spawn(move || round_ms(cpu)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64 / REFERENCE_MS
}

/// Dilation samples taken between measured segments.
pub struct Track(Vec<f64>);

impl Track {
    /// Calibrates once, before the first segment.
    pub fn start() -> Track {
        Track(vec![dilation()])
    }

    /// Calibrates after a segment and returns that segment's dilation: the
    /// mean of the samples on either side of it.
    pub fn mark(&mut self) -> f64 {
        let before = *self.0.last().expect("a track starts with a sample");
        let after = dilation();
        self.0.push(after);
        (before + after) / 2.0
    }

    /// Median of every sample so far.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}
