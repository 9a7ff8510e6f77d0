//! Memory layouts for image tensors.
//!
//! The paper's searching domain (Table 1) includes the layout of the input
//! image — `CHW`, `CWH` or `HWC` — because it changes which global-memory
//! accesses coalesce. We implement all three for single-image tensors; the
//! batch dimension is always outermost.

/// Axis order of the three image dimensions within one batch element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// channel-major, then rows, then columns (PyTorch's NCHW).
    #[default]
    Chw,
    /// channel-major, then columns, then rows.
    Cwh,
    /// rows, then columns, then channels (TensorFlow's NHWC).
    Hwc,
}

impl Layout {
    /// All layouts in the Table 1 searching domain.
    pub const ALL: [Layout; 3] = [Layout::Chw, Layout::Cwh, Layout::Hwc];

    /// Linear offset of element `(c, h, w)` within one image of extent
    /// `(channels, height, width)`.
    #[inline]
    pub fn offset(
        &self,
        c: usize,
        h: usize,
        w: usize,
        channels: usize,
        height: usize,
        width: usize,
    ) -> usize {
        debug_assert!(c < channels && h < height && w < width);
        match self {
            Layout::Chw => (c * height + h) * width + w,
            Layout::Cwh => (c * width + w) * height + h,
            Layout::Hwc => (h * width + w) * channels + c,
        }
    }

    /// Strides `(stride_c, stride_h, stride_w)` for the given extents.
    #[inline]
    pub fn strides(&self, channels: usize, height: usize, width: usize) -> (usize, usize, usize) {
        match self {
            Layout::Chw => (height * width, width, 1),
            Layout::Cwh => (width * height, 1, height),
            Layout::Hwc => (1, width * channels, channels),
        }
    }

    /// The innermost (stride-1) axis: 'c', 'h' or 'w'. Consecutive threads
    /// reading along this axis coalesce into few memory transactions.
    pub fn unit_stride_axis(&self) -> char {
        match self {
            Layout::Chw => 'w',
            Layout::Cwh => 'h',
            Layout::Hwc => 'c',
        }
    }

    /// Short name as in the paper's Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Layout::Chw => "CHW",
            Layout::Cwh => "CWH",
            Layout::Hwc => "HWC",
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Layout {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // No allocation on the accepting path: every record and every
        // wire result line parses one of these.
        Layout::ALL
            .into_iter()
            .find(|layout| layout.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown layout {:?}", s.to_ascii_uppercase()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn offsets_are_bijective() {
        let (c, h, w) = (3, 4, 5);
        for layout in Layout::ALL {
            let mut seen = HashSet::new();
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        let off = layout.offset(ci, hi, wi, c, h, w);
                        assert!(off < c * h * w, "{layout}: offset out of range");
                        assert!(seen.insert(off), "{layout}: duplicate offset {off}");
                    }
                }
            }
            assert_eq!(seen.len(), c * h * w);
        }
    }

    #[test]
    fn strides_agree_with_offsets() {
        let (c, h, w) = (3, 4, 5);
        for layout in Layout::ALL {
            let (sc, sh, sw) = layout.strides(c, h, w);
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        assert_eq!(
                            layout.offset(ci, hi, wi, c, h, w),
                            ci * sc + hi * sh + wi * sw,
                            "{layout} at ({ci},{hi},{wi})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unit_stride_axis_matches_strides() {
        let (c, h, w) = (3, 4, 5);
        for layout in Layout::ALL {
            let (sc, sh, sw) = layout.strides(c, h, w);
            let axis = layout.unit_stride_axis();
            let s = match axis {
                'c' => sc,
                'h' => sh,
                'w' => sw,
                _ => unreachable!(),
            };
            assert_eq!(s, 1, "{layout}: unit axis {axis} has stride {s}");
        }
    }

    #[test]
    fn roundtrip_names() {
        for layout in Layout::ALL {
            let parsed: Layout = layout.name().parse().unwrap();
            assert_eq!(parsed, layout);
        }
        assert!("NQR".parse::<Layout>().is_err());
    }
}
