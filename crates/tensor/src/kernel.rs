//! Runtime switch between the scalar and vectorized compute-kernel
//! paths (`IOLB_KERNEL=scalar|vector`).
//!
//! Every kernel in this crate keeps **one fold order per output
//! element**: each `C[i][j]` (GEMM) or transform coefficient (Winograd)
//! is a serial left-fold whose term order never depends on the path,
//! the micro-tile shape, or the thread count. Vectorization only maps
//! *independent* element folds onto SIMD lanes — IEEE-754 `f32`/`f64`
//! mul/add are exactly rounded at any lane width, so the vector path is
//! **bit-identical** to the scalar one (property-tested in
//! `tests/proptest_kernels.rs`, diffed end-to-end in the workspace
//! determinism suite).
//!
//! The switch exists so that contract stays enforceable forever: tests
//! and the `tune-bench kernels` sweep run both paths and diff them, and
//! an operator can pin `IOLB_KERNEL=scalar` to rule the vector tier out
//! when bisecting a numerical surprise.
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

impl KernelPath {
    /// Environment variable consulted by [`KernelPath::from_env`].
    pub const ENV: &'static str = "IOLB_KERNEL";

    /// Parses `"scalar"` / `"vector"` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("scalar") {
            Some(Self::Scalar)
        } else if s.eq_ignore_ascii_case("vector") {
            Some(Self::Vector)
        } else {
            None
        }
    }

    /// Reads `IOLB_KERNEL`. Unset, empty, or unrecognised values select
    /// [`KernelPath::Vector`] — the default path; it is bit-identical
    /// to scalar, so falling forward is always safe.
    pub fn from_env() -> Self {
        match std::env::var(Self::ENV) {
            Ok(v) => Self::parse(&v).unwrap_or(Self::Vector),
            Err(_) => Self::Vector,
        }
    }

    /// Stable lowercase label (CLI/JSON field value).
    pub fn label(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Vector => "vector",
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_labels_any_case() {
        assert_eq!(KernelPath::parse("scalar"), Some(KernelPath::Scalar));
        assert_eq!(KernelPath::parse("SCALAR"), Some(KernelPath::Scalar));
        assert_eq!(KernelPath::parse("vector"), Some(KernelPath::Vector));
        assert_eq!(KernelPath::parse("Vector"), Some(KernelPath::Vector));
        assert_eq!(KernelPath::parse("simd"), None);
        assert_eq!(KernelPath::parse(""), None);
    }

    #[test]
    fn labels_round_trip() {
        for p in [KernelPath::Scalar, KernelPath::Vector] {
            assert_eq!(KernelPath::parse(p.label()), Some(p));
        }
    }
}
