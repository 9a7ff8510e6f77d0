//! # iolb-cnn — CNN layer inventories and end-to-end inference timing
//!
//! The workload side of the evaluation: exact conv-layer inventories for
//! AlexNet, SqueezeNet, VGG-19, ResNet-18/34 and Inception-v3
//! ([`models`]), and the per-layer algorithm selection + timing pipeline
//! behind the paper's Fig. 12 end-to-end comparison ([`inference`]). A
//! network is timed two ways: with the analytic plan
//! ([`inference::time_network`]), or with the configurations a tuning
//! backend serves ([`inference::time_network_with_backend`] over any
//! `iolb_service::Backend` — the embedded [`TuningService`] wrapper is
//! [`inference::time_network_with_service`]; a `SocketBackend` runs the
//! same session against a resident shard-server daemon, over its Unix
//! socket or TCP). [`fusion`]
//! reconstructs each network's conv→relu(→pool) operator stream and
//! segments it into fusable blocks served as composite workloads.
//!
//! [`TuningService`]: iolb_service::TuningService
//!
//! ```
//! use iolb_cnn::models;
//!
//! // Layer inventories carry exact geometry; repeats fold duplicates.
//! let net = models::alexnet();
//! assert_eq!(net.name, "AlexNet");
//! assert!(net.layers.len() >= 5 && net.total_macs() > 0);
//! let conv3 = net.layers.iter().find(|l| l.name == "conv3").unwrap();
//! assert_eq!(conv3.shape.cout, 384);
//! ```

pub mod fusion;
pub mod inference;
pub mod layers;
pub mod models;

pub use inference::{
    time_network, time_network_with_backend, time_network_with_service, LayerTime, NetworkTime,
    ServiceEconomics,
};
pub use layers::{ConvLayer, Network};
