//! Umbrella crate for the PRIMACY reproduction suite.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can depend on a single package:
//!
//! * [`core`] — the PRIMACY preconditioner and ISOBAR analyzer.
//! * [`codecs`] — the from-scratch zlib/lzo/bzip2-class codecs plus FPC and
//!   the fpzip-class FPZ.
//! * [`datagen`] — deterministic synthetic stand-ins for the paper's 20
//!   scientific datasets.
//! * [`hpcsim`] — the paper's analytical I/O performance model and the
//!   staging-cluster simulator.
//! * [`serve`] — the multi-tenant TCP compression service and its client.
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

pub use primacy_codecs as codecs;
pub use primacy_core as core;
pub use primacy_datagen as datagen;
pub use primacy_hpcsim as hpcsim;
pub use primacy_serve as serve;
