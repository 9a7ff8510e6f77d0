//! The two compute-kernel tiers: the vector path every default entry
//! point runs, and the scalar path the tests hold it to.
//!
//! Every kernel in this crate keeps **one fold order per output
//! element**: each `C[i][j]` of a GEMM is a serial left-fold whose term
//! order never depends on the path, the micro-tile shape, or the thread
//! count. Vectorization only maps *independent* element folds onto SIMD
//! lanes — IEEE-754 `f32` mul/add are exactly rounded at any lane width,
//! so the vector path is **bit-identical** to the scalar one
//! (property-tested in `tests/proptest_kernels.rs`, diffed end-to-end in
//! the workspace determinism suite).
//!
//! [`KernelPath`] is not a runtime mode. `gemm` and `conv2d_im2col`
//! always run [`KernelPath::Vector`]; the scalar tier is the test oracle,
//! reached only through the explicit `*_with_path` functions, whose
//! output the tests diff against the vector path's by `to_bits` and
//! against `conv2d_reference`. `conv2d_winograd` has one path, and so do
//! the dataflow executors: they are held by `to_bits` to oracles outside
//! them (`conv_ref::conv2d_channel_staged` and `conv2d_winograd`).
//!
//! Which instruction set the vector path's bodies are *compiled for* is
//! a separate, run-time question answered in one place: [`Isa::detect`].

/// Which compute-kernel implementation the tensor crate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// The reference micro-kernels: plain element loops, the seed
    /// implementation every other path is diffed against.
    Scalar,
    /// Array-chunked, autovectorizer-targeted micro-kernels (wider
    /// micro-tile, fixed-width lane accumulators, unrolled K-steps),
    /// each compiled once per [`Isa`] tier and dispatched to the widest
    /// one the CPU has.
    Vector,
}

/// The widest vector instruction set the running CPU offers to the
/// vector-path kernels. Each kernel compiles one `#[inline(always)]`
/// body into `#[target_feature]` clones and picks the clone by this
/// tier; a wider tier only puts more *independent* element folds into
/// one instruction (and never enables FMA), so every tier produces the
/// same bits. Ordered narrowest to widest.
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
