//! # iolb-tensor — convolution numerics substrate
//!
//! The CPU compute substrate for the PPoPP'21 reproduction: everything
//! needed to *actually run* the convolutions whose I/O behaviour the rest
//! of the workspace analyses.
//!
//! * [`layout`] — the CHW / CWH / HWC image layouts from the paper's
//!   Table 1 searching domain.
//! * [`tensor`] — dense batched 4-D `f32` tensors with layout-aware
//!   indexing, approximate comparison, and the one zero-padded window
//!   loader (`padded_window`) that im2col and the dataflow executors share.
//! * [`conv_ref`] — the golden-reference direct convolution (the oracle
//!   every other path is tested against).
//! * [`gemm`] — blocked, multi-threaded `f32` GEMM (rayon workers over
//!   disjoint row bands) with scalar and vectorized micro-kernels.
//! * [`kernel`] — the two bit-identical kernel paths: vector (what runs)
//!   and scalar (the oracle tests diff it against).
//! * [`im2col`] — the cuDNN-style image-to-column convolution path built on
//!   the GEMM (the paper's direct-convolution baseline).
//! * [`ops`] — standalone ReLU / max-pool epilogue passes, the unfused
//!   reference composition fused conv→epilogue chains are diffed against.
//! * [`winograd_math`] — Cook–Toom generation of the `A`/`B`/`G` (the
//!   paper's `A`/`B`/`L`) transform matrices for arbitrary `F(e, r)`.
//! * [`winograd_conv`] — the full 4-step Winograd convolution (Fig. 2).
//!
//! All convolution paths are cross-validated against [`conv_ref`]; property
//! tests live in the crate's `tests/` directory.
//!
//! ```
//! use iolb_tensor::conv_ref::{conv2d_reference, ConvParams};
//! use iolb_tensor::im2col::conv2d_im2col;
//! use iolb_tensor::tensor::Tensor4;
//!
//! // The im2col+GEMM path agrees with the reference convolution.
//! let input = Tensor4::from_fn(1, 2, 5, 5, |n, c, h, w| (n + c + h * w) as f32 * 0.25);
//! let weights = Tensor4::from_fn(3, 2, 3, 3, |o, c, kh, kw| (o + c + kh + kw) as f32 * 0.5);
//! let params = ConvParams::new(1, 1);
//! let reference = conv2d_reference(&input, &weights, params);
//! let im2col = conv2d_im2col(&input, &weights, params, 1);
//! assert!(reference.approx_eq(&im2col, 1e-5, 1e-6));
//! ```

#![allow(clippy::needless_range_loop)] // index loops read clearer in numeric kernels
pub mod conv_ref;
pub mod gemm;
pub mod im2col;
pub mod kernel;
pub mod layout;
pub mod ops;
pub mod tensor;
pub mod winograd_conv;
pub mod winograd_math;

pub use conv_ref::{conv2d_reference, ConvParams};
pub use im2col::conv2d_im2col;
pub use kernel::KernelPath;
pub use layout::Layout;
pub use tensor::Tensor4;
pub use winograd_conv::{conv2d_winograd, WinogradPlan};
