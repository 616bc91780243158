//! # piql-predict
//!
//! The PIQL SLO compliance prediction framework (§6 of the paper): operator
//! latency models as per-interval histograms (Figure 5a), plan-level
//! composition by convolution (Figure 5b), the per-interval p99
//! distribution that quantifies SLO-violation risk in a volatile cloud
//! (Figure 5c), and the Performance Insight Assistant's heatmap/limit
//! advisor (§6.4, Figure 6).

pub mod advisor;
pub mod histogram;
pub mod model;
pub mod predict;
pub mod shared;
pub mod train;

pub use advisor::{Heatmap, SloConfig};
pub use histogram::{Distribution, LatencyHistogram};
pub use model::{snapped, ModelKey, ModelStore, OpKind, ALPHA_GRID, BETA_GRID};
pub use predict::{plan_thetas, QueryPrediction, SloPredictor, ThetaAttribution};
pub use shared::{RotationObserver, SharedModelStore};
pub use train::{train, TrainConfig};
