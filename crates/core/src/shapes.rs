//! Convolution problem shapes and derived quantities.
//!
//! Everything in the lower-bound theory is expressed in terms of the
//! convolution geometry: input `W_in x H_in x C_in`, `C_out` kernels of
//! `W_ker x H_ker x C_in` weights, stride `mu`, producing a
//! `W_out x H_out x C_out` output image (paper §2.2). This module holds that
//! geometry plus the derived quantities the theory keeps reusing: output
//! dims, FLOP counts, and the maximum input-reuse factor
//! `R = W_ker * H_ker / mu^2` (Eq. 13).

/// Shape of a (possibly batched) 2-D convolution.
///
/// All dimensions are in elements, not bytes. `pad` is symmetric zero
/// padding on both spatial borders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Batch size (number of input images). The paper's single-image
    /// analysis corresponds to `batch == 1`; Figure 10 sweeps this.
    pub batch: usize,
    /// Input channels `C_in`.
    pub cin: usize,
    /// Input height `H_in`.
    pub hin: usize,
    /// Input width `W_in`.
    pub win: usize,
    /// Output channels `C_out` (= number of kernels).
    pub cout: usize,
    /// Kernel height `H_ker`.
    pub kh: usize,
    /// Kernel width `W_ker`.
    pub kw: usize,
    /// Stride `mu` (same in both spatial directions, as in the paper).
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl ConvShape {
    /// Unbatched convenience constructor (batch = 1).
    #[allow(clippy::too_many_arguments)] // mirrors the paper's 8 conv parameters
    pub fn new(
        cin: usize,
        hin: usize,
        win: usize,
        cout: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Self { batch: 1, cin, hin, win, cout, kh, kw, stride, pad }
    }

    /// Square-image convenience constructor used by the evaluation sweeps
    /// (`H_in = W_in`, `H_ker = W_ker`).
    pub fn square(
        cin: usize,
        hw_in: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Self::new(cin, hw_in, hw_in, cout, k, k, stride, pad)
    }

    /// With a different batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Validates the shape: all dims positive, kernel fits into the padded
    /// input, stride positive, and the padded extents and every derived
    /// count ([`output_elems`](Self::output_elems),
    /// [`input_elems`](Self::input_elems),
    /// [`weight_elems`](Self::weight_elems), [`macs`](Self::macs),
    /// [`flops`](Self::flops)) representable. A shape that passes can be
    /// asked for any of them without overflow, so decoders of untrusted
    /// input call this before anything else.
    pub fn validate(&self) -> Result<(), ShapeError> {
        if self.batch == 0
            || self.cin == 0
            || self.hin == 0
            || self.win == 0
            || self.cout == 0
            || self.kh == 0
            || self.kw == 0
        {
            return Err(ShapeError::ZeroDim);
        }
        if self.stride == 0 {
            return Err(ShapeError::ZeroStride);
        }
        let padded = |n: usize| self.pad.checked_mul(2).and_then(|p| n.checked_add(p));
        let (Some(hp), Some(wp)) = (padded(self.hin), padded(self.win)) else {
            return Err(ShapeError::Overflow);
        };
        if hp < self.kh || wp < self.kw {
            return Err(ShapeError::KernelTooLarge);
        }
        // Every factor is positive, so a product that fits has every
        // partial product fit: the FLOP count covers `output_elems`,
        // `weight_elems` and `macs` too.
        let product =
            |factors: &[usize]| factors.iter().try_fold(1u64, |acc, &f| acc.checked_mul(f as u64));
        let (hout, wout) = ((hp - self.kh) / self.stride + 1, (wp - self.kw) / self.stride + 1);
        let counts = [
            product(&[self.batch, self.cin, self.hin, self.win]),
            product(&[self.batch, self.cout, hout, wout, self.kh, self.kw, self.cin, 2]),
        ];
        if counts.contains(&None) {
            return Err(ShapeError::Overflow);
        }
        Ok(())
    }

    /// Output height `H_out = (H_in + 2*pad - H_ker)/mu + 1`.
    pub fn hout(&self) -> usize {
        (self.hin + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width `W_out = (W_in + 2*pad - W_ker)/mu + 1`.
    pub fn wout(&self) -> usize {
        (self.win + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Total number of output elements across the batch.
    pub fn output_elems(&self) -> u64 {
        self.batch as u64 * self.cout as u64 * self.hout() as u64 * self.wout() as u64
    }

    /// Total number of input elements across the batch (unpadded).
    pub fn input_elems(&self) -> u64 {
        self.batch as u64 * self.cin as u64 * self.hin as u64 * self.win as u64
    }

    /// Total number of weight elements (`C_out` kernels).
    pub fn weight_elems(&self) -> u64 {
        self.cout as u64 * self.cin as u64 * self.kh as u64 * self.kw as u64
    }

    /// Multiply-accumulate count of the direct algorithm: each output is an
    /// inner product of length `W_ker*H_ker*C_in`.
    pub fn macs(&self) -> u64 {
        self.output_elems() * self.kh as u64 * self.kw as u64 * self.cin as u64
    }

    /// FLOP count of the direct algorithm (2 flops per MAC).
    pub fn flops(&self) -> u64 {
        2 * self.macs()
    }

    /// Maximum reuse factor of each input element by different sliding
    /// windows, `R = W_ker*H_ker / mu^2` (Eq. 13). Real-valued because the
    /// stride need not divide the kernel extent.
    pub fn reuse_factor(&self) -> f64 {
        (self.kw * self.kh) as f64 / (self.stride * self.stride) as f64
    }

    /// Whether the shape admits a Winograd implementation with the given
    /// tile: square kernel `r x r`, unit stride.
    pub fn supports_winograd(&self, tile: WinogradTile) -> bool {
        self.kh == self.kw && self.kh == tile.r && self.stride == 1
    }
}

/// Winograd tile parameters `F(e x e, r x r)`: `e^2` outputs produced per
/// tile from an `(e+r-1) x (e+r-1)` input patch (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WinogradTile {
    /// Output tile edge `e` (2, 3 or 4 in practice).
    pub e: usize,
    /// Kernel edge `r` (`W_ker = H_ker = r`).
    pub r: usize,
}

impl WinogradTile {
    /// `F(2x2, 3x3)` — the most common configuration.
    pub const F2X3: WinogradTile = WinogradTile { e: 2, r: 3 };
    /// `F(4x4, 3x3)` — larger tile, more aggressive multiplication savings.
    pub const F4X3: WinogradTile = WinogradTile { e: 4, r: 3 };

    pub fn new(e: usize, r: usize) -> Self {
        Self { e, r }
    }

    /// Input tile edge `a = e + r - 1`.
    pub fn a(&self) -> usize {
        self.e + self.r - 1
    }
}

/// Errors from [`ConvShape::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// Some dimension is zero.
    ZeroDim,
    /// Stride is zero.
    ZeroStride,
    /// Kernel larger than padded input.
    KernelTooLarge,
    /// A padded extent or a derived element, MAC or FLOP count does not
    /// fit in its integer type.
    Overflow,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::ZeroDim => write!(f, "shape has a zero dimension"),
            ShapeError::ZeroStride => write!(f, "stride must be positive"),
            ShapeError::KernelTooLarge => write!(f, "kernel larger than padded input"),
            ShapeError::Overflow => write!(f, "shape's extents or counts overflow"),
        }
    }
}

impl std::error::Error for ShapeError {}

impl std::fmt::Display for ConvShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conv[n={} {}x{}x{} -> {}x{}x{} k={}x{} s={} p={}]",
            self.batch,
            self.cin,
            self.hin,
            self.win,
            self.cout,
            self.hout(),
            self.wout(),
            self.kh,
            self.kw,
            self.stride,
            self.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dims_match_formula() {
        let s = ConvShape::new(3, 227, 227, 96, 11, 11, 4, 0);
        assert_eq!(s.hout(), 55);
        assert_eq!(s.wout(), 55);
    }

    #[test]
    fn output_dims_with_padding() {
        let s = ConvShape::new(96, 27, 27, 256, 5, 5, 1, 2);
        assert_eq!(s.hout(), 27);
        assert_eq!(s.wout(), 27);
    }

    #[test]
    fn same_padding_3x3() {
        let s = ConvShape::square(256, 56, 128, 3, 1, 1);
        assert_eq!(s.hout(), 56);
        assert_eq!(s.wout(), 56);
    }

    #[test]
    fn flops_count() {
        let s = ConvShape::new(2, 4, 4, 3, 3, 3, 1, 0);
        // hout = wout = 2, outputs = 3*2*2 = 12, macs/out = 2*9 = 18.
        assert_eq!(s.hout(), 2);
        assert_eq!(s.macs(), 12 * 18);
        assert_eq!(s.flops(), 2 * 12 * 18);
    }

    #[test]
    fn batch_scales_counts() {
        let s = ConvShape::square(8, 16, 8, 3, 1, 1);
        let b = s.with_batch(4);
        assert_eq!(b.output_elems(), 4 * s.output_elems());
        assert_eq!(b.macs(), 4 * s.macs());
        assert_eq!(b.weight_elems(), s.weight_elems()); // weights shared
    }

    #[test]
    fn reuse_factor_matches_eq13() {
        let s = ConvShape::square(256, 56, 128, 3, 1, 1);
        assert!((s.reuse_factor() - 9.0).abs() < 1e-12);
        let s2 = ConvShape::square(256, 56, 128, 3, 2, 1);
        assert!((s2.reuse_factor() - 2.25).abs() < 1e-12);
        let s4 = ConvShape::square(256, 56, 128, 3, 4, 1);
        assert!((s4.reuse_factor() - 9.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert_eq!(ConvShape::new(0, 4, 4, 1, 3, 3, 1, 0).validate(), Err(ShapeError::ZeroDim));
        assert_eq!(ConvShape::new(1, 4, 4, 1, 3, 3, 0, 0).validate(), Err(ShapeError::ZeroStride));
        assert_eq!(
            ConvShape::new(1, 2, 2, 1, 5, 5, 1, 0).validate(),
            Err(ShapeError::KernelTooLarge)
        );
        assert!(ConvShape::new(1, 2, 2, 1, 5, 5, 1, 2).validate().is_ok());
    }

    #[test]
    fn validation_refuses_overflowing_shapes() {
        // `hin + 2 * pad` wraps: in a debug build computing it panics, in
        // release it wrapped to a small extent and the shape was accepted.
        let pad = ConvShape::new(1, 4, 4, 1, 3, 3, 1, 1 << 63);
        assert_eq!(pad.validate(), Err(ShapeError::Overflow));
        assert_eq!(ConvShape { pad: usize::MAX, ..pad }.validate(), Err(ShapeError::Overflow));
        // Every extent fits, but batch * cout is 2^64: the element and
        // MAC counts wrapped to zero.
        let wide = ConvShape::new(1 << 32, 1, 1, 1 << 32, 1, 1, 1, 0).with_batch(1 << 32);
        assert_eq!(wide.validate(), Err(ShapeError::Overflow));
        // Input elements alone overflow (outputs stay small at stride 4).
        let input = ConvShape::new(1 << 31, 1 << 17, 1 << 17, 1, 1, 1, 1 << 17, 0);
        assert_eq!(input.validate(), Err(ShapeError::Overflow));
        // Weights fit but MACs do not.
        let macs = ConvShape::new(1 << 20, 1 << 12, 1 << 12, 1 << 20, 1, 1, 1, 0);
        assert_eq!(macs.validate(), Err(ShapeError::Overflow));
        // The largest layers of the zoo are far inside the limits.
        let big = ConvShape::square(1024, 224, 1024, 11, 1, 5).with_batch(128);
        assert!(big.validate().is_ok());
        assert!(big.flops() > 0);
    }

    #[test]
    fn winograd_tile_input_edge() {
        assert_eq!(WinogradTile::F2X3.a(), 4);
        assert_eq!(WinogradTile::F4X3.a(), 6);
    }

    #[test]
    fn winograd_support_requires_square_unit_stride() {
        let ok = ConvShape::square(64, 28, 64, 3, 1, 1);
        assert!(ok.supports_winograd(WinogradTile::F2X3));
        let strided = ConvShape::square(64, 28, 64, 3, 2, 1);
        assert!(!strided.supports_winograd(WinogradTile::F2X3));
        let wrong_r = ConvShape::square(64, 28, 64, 5, 1, 2);
        assert!(!wrong_r.supports_winograd(WinogradTile::F2X3));
    }

    #[test]
    fn display_is_informative() {
        let s = ConvShape::square(256, 56, 128, 3, 1, 1);
        let d = format!("{s}");
        assert!(d.contains("256x56x56"));
        assert!(d.contains("s=1"));
    }
}
