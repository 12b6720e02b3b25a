//! # qcn-tensor
//!
//! Dense `f32` tensor substrate for the Q-CapsNets reproduction (Marchisio
//! et al., DAC 2020). Provides the n-dimensional array type, broadcasting
//! arithmetic, matrix products, im2col convolution, reductions, and the
//! CapsNet-specific nonlinearities (softmax, squash) together with their
//! analytic backward passes.
//!
//! Everything is pure Rust with no external dependencies. The hot kernels
//! (matrix products, convolution) run cache-blocked and multi-threaded via
//! the [`parallel`] module; determinism is a design requirement, so every
//! kernel produces bit-identical results for every thread count (see
//! `QCN_NUM_THREADS`) and, given a seeded RNG, quantization experiments
//! are exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use qcn_tensor::Tensor;
//!
//! // A batch of two 3-D capsule vectors, squashed to length < 1.
//! let caps = Tensor::from_vec(vec![3.0, 0.0, 4.0, 0.1, 0.2, 0.2], [2, 3])?;
//! let squashed = caps.squash_axis(1);
//! let lengths = squashed.norm_axis(1);
//! assert!(lengths.data().iter().all(|&l| l < 1.0));
//! # Ok::<(), qcn_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod conv;
mod error;
mod init;
mod linalg;
pub mod nn;
pub mod parallel;
pub mod reduce;
pub mod shape;
mod tensor;

pub use error::TensorError;
pub use linalg::{batched_gemm, GemmElem, RowEpilogue};
pub use shape::Shape;
pub use tensor::Tensor;

/// Fused multiply-add `a·b + acc` where the hardware provides it, plain
/// multiply-then-add otherwise.
///
/// On FMA targets (`target_feature = "fma"`, enabled by the repository's
/// `target-cpu=native` build config on any x86-64 since Haswell and all
/// aarch64) this compiles to a single fused instruction: twice the
/// floating-point throughput and one rounding instead of two. Without the
/// feature it falls back to `acc + a * b` rather than the correctly-rounded
/// (but libm-slow) `f32::mul_add`. Results are therefore bit-identical
/// across thread counts on any one build, but may differ in the last ulp
/// between FMA and non-FMA builds.
#[inline(always)]
pub fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}
