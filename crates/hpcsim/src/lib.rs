//! Performance modeling and staging-I/O simulation for PRIMACY (§III–IV of
//! the paper).
//!
//! The paper evaluates end-to-end write/read throughput on the Jaguar XK6
//! cluster with an 8:1 compute-to-I/O-node staging configuration, and
//! validates an analytical model of the same pipeline. This crate provides
//! both halves of that methodology:
//!
//! * [`model`] — the closed-form performance model of §III (Tables I/II,
//!   Equations 3–13): bulk-synchronous writes through I/O nodes, with and
//!   without compression at the compute nodes, plus the mirrored read model.
//! * [`measure`] — measures the *actual* preconditioner/codec throughputs
//!   and ratios of this machine's build (the model inputs `Tprec`, `Tcomp`,
//!   `σho`, `σlo`, `α1`, `α2`).
//! * [`sim`] — a discrete-event simulation of the staging pipeline (compute
//!   nodes → shared collective network → I/O node → disk) that produces the
//!   "empirical" counterpart to the model's "theoretical" numbers; this is
//!   the testbed substitute for the Cray XK6 (see DESIGN.md).
//! * [`scenario`] — glue that turns (dataset × compression method) into
//!   model inputs and simulation runs.
//! * [`welton`] — the costless-compression model of the paper's reference
//!   \[22\], kept to quantify how much it over-predicts (§V's argument).
//! * [`checkpoint`] — Young/Daly optimal checkpoint intervals and machine
//!   efficiency, translating the write-throughput gains into saved machine
//!   time (the introduction's motivation).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod checkpoint;
pub mod measure;
pub mod model;
pub mod scenario;
pub mod sim;
pub mod sweep;
pub mod welton;

pub use checkpoint::CheckpointPlan;
pub use measure::{
    measure_primacy, measure_vanilla, predict_archive_write, Calibration, MeasuredRates,
    WritePrediction,
};
pub use model::{ClusterParams, ModelInputs, ModelOutputs};
pub use scenario::{CompressionMethod, Scenario};
pub use sim::{SimConfig, SimResult};
