//! Named convolution layers.

use iolb_core::shapes::{ConvShape, WinogradTile};

/// A named conv layer with an occurrence count (identical layers inside a
/// network are folded with `repeat > 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvLayer {
    /// Diagnostic name, e.g. `"conv3"` or `"fire5.expand3x3"`.
    pub name: String,
    /// The layer geometry.
    pub shape: ConvShape,
    /// How many times the layer occurs in the network.
    pub repeat: usize,
}

impl ConvLayer {
    pub fn new(name: impl Into<String>, shape: ConvShape) -> Self {
        Self { name: name.into(), shape, repeat: 1 }
    }

    pub(crate) fn repeated(name: impl Into<String>, shape: ConvShape, repeat: usize) -> Self {
        assert!(repeat >= 1);
        Self { name: name.into(), shape, repeat }
    }

    /// Total multiply-accumulate work contributed by this layer.
    pub(crate) fn total_macs(&self) -> u64 {
        self.shape.macs() * self.repeat as u64
    }

    /// Whether the planner's Winograd tiles (`F(2x2,3x3)`, `F(4x4,3x3)`)
    /// apply: a square 3x3 kernel at unit stride.
    pub fn winograd_eligible(&self) -> bool {
        self.shape.supports_winograd(WinogradTile::F2X3)
    }
}

/// A network: a list of conv layers (non-conv layers contribute no conv
/// time and are omitted, as in the paper's Fig. 12 accounting).
#[derive(Debug, Clone)]
pub struct Network {
    pub name: &'static str,
    pub layers: Vec<ConvLayer>,
}

impl Network {
    /// Total conv MACs of the network.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(ConvLayer::total_macs).sum()
    }
}

/// Networks register directly with the tuning service: the layer shapes,
/// in network order.
impl iolb_service::register::LayerSource for Network {
    fn layer_shapes(&self) -> Vec<&ConvShape> {
        self.layers.iter().map(|l| &l.shape).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_macs_scale_with_repeat() {
        let shape = ConvShape::square(64, 56, 64, 3, 1, 1);
        let single = ConvLayer::new("a", shape);
        let triple = ConvLayer::repeated("b", shape, 3);
        assert_eq!(triple.total_macs(), 3 * single.total_macs());
    }

    #[test]
    fn winograd_eligibility() {
        assert!(ConvLayer::new("a", ConvShape::square(64, 56, 64, 3, 1, 1)).winograd_eligible());
        assert!(!ConvLayer::new("s", ConvShape::square(64, 56, 64, 3, 2, 1)).winograd_eligible());
        assert!(!ConvLayer::new("k", ConvShape::square(64, 56, 64, 1, 1, 0)).winograd_eligible());
        // Rectangular (Inception 1x7) kernels are not Winograd candidates.
        assert!(
            !ConvLayer::new("r", ConvShape::new(64, 17, 17, 64, 1, 7, 1, 3)).winograd_eligible()
        );
    }
}
