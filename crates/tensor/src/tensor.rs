//! Dense 4-D tensors (batch x channel x height x width) backed by a single
//! `Vec<f32>`, with selectable in-image layout.

use crate::layout::Layout;
use rand::Rng;

/// A dense batched image tensor.
///
/// The batch axis is always outermost; the per-image axis order is governed
/// by [`Layout`]. Weights use the same container with `batch = C_out`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    data: Vec<f32>,
    /// Batch size `N` (or `C_out` for weight tensors).
    pub n: usize,
    /// Channels per image.
    pub c: usize,
    /// Image height.
    pub h: usize,
    /// Image width.
    pub w: usize,
    /// In-image axis order.
    pub layout: Layout,
}

impl Tensor4 {
    /// Zero-filled tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self::zeros_with_layout(n, c, h, w, Layout::Chw)
    }

    /// Zero-filled tensor with an explicit layout.
    pub fn zeros_with_layout(n: usize, c: usize, h: usize, w: usize, layout: Layout) -> Self {
        assert!(n > 0 && c > 0 && h > 0 && w > 0, "tensor dims must be positive");
        Self { data: vec![0.0; n * c * h * w], n, c, h, w, layout }
    }

    /// Tensor filled by `f(n, c, h, w)`.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut t = Self::zeros(n, c, h, w);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        *t.at_mut(ni, ci, hi, wi) = f(ni, ci, hi, wi);
                    }
                }
            }
        }
        t
    }

    /// Uniformly random tensor in `[-1, 1)` from the given RNG.
    pub fn random(n: usize, c: usize, h: usize, w: usize, rng: &mut impl Rng) -> Self {
        let mut t = Self::zeros(n, c, h, w);
        for v in &mut t.data {
            *v = rng.gen_range(-1.0..1.0);
        }
        t
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no data (never: dims are positive).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n, "batch index {n} out of {}", self.n);
        n * self.c * self.h * self.w + self.layout.offset(c, h, w, self.c, self.h, self.w)
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.index(n, c, h, w)]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.index(n, c, h, w);
        &mut self.data[i]
    }

    /// Element accessor with zero padding outside the spatial extent:
    /// `h`/`w` may be negative or past the edge.
    #[inline]
    pub fn at_padded(&self, n: usize, c: usize, h: isize, w: isize) -> f32 {
        if h < 0 || w < 0 || h as usize >= self.h || w as usize >= self.w {
            0.0
        } else {
            self.at(n, c, h as usize, w as usize)
        }
    }

    /// [`Self::at_padded`] a row at a time: loads the `rows x cols` window
    /// of channel `c` of image `n` that starts at `(iy0, ix0)` and steps
    /// `stride` pixels in both directions into `dst` (row-major), so
    /// `dst[ty * cols + tx] = at_padded(n, c, iy0 + ty*stride, ix0 + tx*stride)`.
    ///
    /// Every element of `dst` is written: what lies in the padding is
    /// zero-filled, the in-image span of a row is one `copy_from_slice`
    /// when `stride` and the layout's `w` stride are both 1, and a strided
    /// gather otherwise. The executors stage their halo tiles with
    /// `stride = 1`; `im2col` unrolls one matrix row with the conv stride.
    pub fn padded_window(
        &self,
        n: usize,
        c: usize,
        (iy0, ix0): (isize, isize),
        stride: usize,
        (rows, cols): (usize, usize),
        dst: &mut [f32],
    ) {
        assert_eq!(dst.len(), rows * cols, "window buffer size mismatch");
        assert!(stride > 0, "window stride must be positive");
        let (sc, sh, sw) = self.layout.strides(self.c, self.h, self.w);
        let image_len = self.c * self.h * self.w;
        let image = &self.data[n * image_len..][..image_len];
        let s = stride as isize;
        // The first window column at or past image column `edge`: columns
        // `lo..hi` of every row lie inside the image.
        let first_from = |edge: isize| ((edge - ix0).max(0) + s - 1) / s;
        let lo = first_from(0).min(cols as isize) as usize;
        let hi = first_from(self.w as isize).min(cols as isize) as usize;
        let step = stride * sw;
        for (ty, row) in dst.chunks_exact_mut(cols).enumerate() {
            let iy = iy0 + ty as isize * s;
            if iy < 0 || iy >= self.h as isize || lo >= hi {
                row.fill(0.0);
                continue;
            }
            row[..lo].fill(0.0);
            row[hi..].fill(0.0);
            let start = c * sc + iy as usize * sh + (ix0 + lo as isize * s) as usize * sw;
            let span = &mut row[lo..hi];
            // Sliced to the span's last element, so the gather's index
            // checks fold into this one.
            let src = &image[start..][..(span.len() - 1) * step + 1];
            if step == 1 {
                span.copy_from_slice(src);
            } else {
                for (i, v) in span.iter_mut().enumerate() {
                    *v = src[i * step];
                }
            }
        }
    }

    /// Raw storage (layout-ordered).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Re-materialises the tensor in a different layout (copying).
    pub fn to_layout(&self, layout: Layout) -> Tensor4 {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = Tensor4::zeros_with_layout(self.n, self.c, self.h, self.w, layout);
        for n in 0..self.n {
            for c in 0..self.c {
                for h in 0..self.h {
                    for w in 0..self.w {
                        *out.at_mut(n, c, h, w) = self.at(n, c, h, w);
                    }
                }
            }
        }
        out
    }

    /// Maximum absolute elementwise difference against another tensor of
    /// identical logical shape (layouts may differ).
    pub fn max_abs_diff(&self, other: &Tensor4) -> f32 {
        assert_eq!(
            (self.n, self.c, self.h, self.w),
            (other.n, other.c, other.h, other.w),
            "shape mismatch"
        );
        let mut worst = 0.0f32;
        for n in 0..self.n {
            for c in 0..self.c {
                for h in 0..self.h {
                    for w in 0..self.w {
                        let d = (self.at(n, c, h, w) - other.at(n, c, h, w)).abs();
                        if d > worst {
                            worst = d;
                        }
                    }
                }
            }
        }
        worst
    }

    /// Relative-tolerance comparison suitable for f32 accumulation error:
    /// passes when `max|a-b| <= atol + rtol * max|a|`.
    pub fn approx_eq(&self, other: &Tensor4, rtol: f32, atol: f32) -> bool {
        let scale = self
            .data
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(other.data.iter().fold(0.0f32, |m, v| m.max(v.abs())));
        self.max_abs_diff(other) <= atol + rtol * scale
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_fn_and_at_roundtrip() {
        for layout in Layout::ALL {
            let mut t = Tensor4::zeros_with_layout(2, 3, 4, 5, layout);
            for n in 0..2 {
                for c in 0..3 {
                    for h in 0..4 {
                        for w in 0..5 {
                            *t.at_mut(n, c, h, w) = (n * 1000 + c * 100 + h * 10 + w) as f32;
                        }
                    }
                }
            }
            for n in 0..2 {
                for c in 0..3 {
                    for h in 0..4 {
                        for w in 0..5 {
                            assert_eq!(
                                t.at(n, c, h, w),
                                (n * 1000 + c * 100 + h * 10 + w) as f32,
                                "{layout} ({n},{c},{h},{w})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn layout_conversion_preserves_values() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor4::random(2, 3, 5, 4, &mut rng);
        for layout in Layout::ALL {
            let converted = t.to_layout(layout);
            assert_eq!(converted.layout, layout);
            assert_eq!(t.max_abs_diff(&converted), 0.0);
            // Round trip back.
            let back = converted.to_layout(t.layout);
            assert_eq!(back.as_slice(), t.as_slice());
        }
    }

    #[test]
    fn padded_access_returns_zero_outside() {
        let t = Tensor4::from_fn(1, 1, 2, 2, |_, _, h, w| (h * 2 + w + 1) as f32);
        assert_eq!(t.at_padded(0, 0, -1, 0), 0.0);
        assert_eq!(t.at_padded(0, 0, 0, -3), 0.0);
        assert_eq!(t.at_padded(0, 0, 2, 0), 0.0);
        assert_eq!(t.at_padded(0, 0, 1, 1), 4.0);
    }

    /// `padded_window` is `at_padded` element for element, into a buffer
    /// that held garbage: every layout, stride 1..=4, origins from wholly
    /// before the image to wholly past it, windows narrower and wider than
    /// the image, image index past the first.
    #[test]
    fn padded_window_matches_at_padded() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = Tensor4::random(2, 2, 5, 7, &mut rng);
        for layout in Layout::ALL {
            let t = base.to_layout(layout);
            for stride in 1..=4 {
                for (rows, cols) in [(1, 1), (3, 4), (6, 9)] {
                    for iy0 in -8..7 {
                        for ix0 in -10..9 {
                            let mut dst = vec![f32::NAN; rows * cols];
                            t.padded_window(1, 1, (iy0, ix0), stride, (rows, cols), &mut dst);
                            for ty in 0..rows {
                                for tx in 0..cols {
                                    let s = stride as isize;
                                    let (iy, ix) = (iy0 + ty as isize * s, ix0 + tx as isize * s);
                                    assert_eq!(
                                        dst[ty * cols + tx].to_bits(),
                                        t.at_padded(1, 1, iy, ix).to_bits(),
                                        "{layout} s={stride} {rows}x{cols} at ({iy0},{ix0}): \
                                         ({ty},{tx})"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn approx_eq_tolerates_small_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor4::random(1, 2, 3, 3, &mut rng);
        let mut b = a.clone();
        for v in b.as_mut_slice() {
            *v += 1e-6;
        }
        assert!(a.approx_eq(&b, 1e-4, 1e-5));
        *b.at_mut(0, 0, 0, 0) += 1.0;
        assert!(!a.approx_eq(&b, 1e-4, 1e-5));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_rejects_shape_mismatch() {
        let a = Tensor4::zeros(1, 1, 2, 2);
        let b = Tensor4::zeros(1, 1, 2, 3);
        let _ = a.max_abs_diff(&b);
    }

    #[test]
    fn norm_of_unit_vector() {
        let mut t = Tensor4::zeros(1, 1, 1, 4);
        *t.at_mut(0, 0, 0, 0) = 3.0;
        *t.at_mut(0, 0, 0, 1) = 4.0;
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }
}
