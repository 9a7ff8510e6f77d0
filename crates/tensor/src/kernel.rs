//! The instruction-set tier the compute kernels are compiled for.
//!
//! Every kernel in this crate keeps **one fold order per output
//! element**: each `C[i][j]` of a GEMM is a serial left-fold whose term
//! order never depends on the micro-tile shape, the lane width or the
//! thread count. Vectorization only maps *independent* element folds onto
//! SIMD lanes — IEEE-754 `f32` mul/add are exactly rounded at any lane
//! width — so each kernel has one path, held by `to_bits` to a plain
//! per-element oracle: `gemm` (and through it `conv2d_im2col`) to
//! `gemm::gemm_reference`, and the dataflow executors to
//! `conv_ref::conv2d_channel_staged` and `conv2d_winograd`.
//!
//! Which instruction set those bodies are *compiled for* is a run-time
//! question answered in one place: [`Isa::detect`].

/// The widest vector instruction set the running CPU offers to the
/// kernels. Each kernel compiles one `#[inline(always)]` body into
/// `#[target_feature]` clones and picks the clone by this tier; a wider
/// tier only puts more *independent* element folds into one instruction
/// (and never enables FMA), so every tier produces the same bits.
/// Ordered narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The build's baseline features — the only tier off `x86_64`.
    Portable,
    /// 256-bit vectors (`avx2`).
    Avx2,
    /// 512-bit vectors (`avx512f`).
    Avx512,
}

impl Isa {
    /// Run-time detection. [`Isa::Avx2`] and [`Isa::Avx512`] are
    /// returned only when the CPU reports the feature — the fact every
    /// `unsafe` call into a `#[target_feature]` clone cites.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Self::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Self::Avx2;
            }
        }
        Self::Portable
    }
}
