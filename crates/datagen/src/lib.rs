//! Deterministic synthetic stand-ins for the 20 scientific double-precision
//! datasets evaluated in the PRIMACY paper (CLUSTER 2012, §IV-B).
//!
//! The original data (GTS fusion checkpoints, FLASH astrophysics fields, NPB
//! message traces, numeric simulations and satellite observations) is no
//! longer published. PRIMACY, however, is a *byte-frequency* method: the only
//! dataset properties its behaviour depends on are
//!
//! 1. the number of distinct exponent byte-sequences (the paper reports
//!    < 2,000 of 65,536 for most datasets) and the skew of their frequency
//!    distribution (Fig. 3a),
//! 2. the entropy of the mantissa bytes (near-random for the
//!    hard-to-compress datasets, Fig. 1 / Fig. 3b), and
//! 3. exact value repetition for the easy-to-compress outlier `msg_sppm`.
//!
//! Each generator here is seeded and tuned to land in the published
//! compressibility band of its namesake (see [`spec::PaperRow`] for the
//! paper's Table III numbers, kept for comparison in EXPERIMENTS.md).
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

pub mod generators;
pub mod permute;
pub mod rng;
pub mod spec;

pub use permute::{permute, permute_with_seed};
pub use rng::{Rng, SplitMix64};
pub use spec::{DatasetSpec, PaperRow};

/// The 20 datasets of the paper's Table III, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetId {
    GtsChkpZeon,
    GtsChkpZion,
    GtsPhiL,
    GtsPhiNl,
    FlashGamc,
    FlashVelx,
    FlashVely,
    MsgBt,
    MsgLu,
    MsgSp,
    MsgSppm,
    MsgSweep3d,
    NumBrain,
    NumComet,
    NumControl,
    NumPlasma,
    ObsError,
    ObsInfo,
    ObsSpitzer,
    ObsTemp,
}

impl DatasetId {
    /// All datasets in Table III order.
    pub const ALL: [DatasetId; 20] = [
        DatasetId::GtsChkpZeon,
        DatasetId::GtsChkpZion,
        DatasetId::GtsPhiL,
        DatasetId::GtsPhiNl,
        DatasetId::FlashGamc,
        DatasetId::FlashVelx,
        DatasetId::FlashVely,
        DatasetId::MsgBt,
        DatasetId::MsgLu,
        DatasetId::MsgSp,
        DatasetId::MsgSppm,
        DatasetId::MsgSweep3d,
        DatasetId::NumBrain,
        DatasetId::NumComet,
        DatasetId::NumControl,
        DatasetId::NumPlasma,
        DatasetId::ObsError,
        DatasetId::ObsInfo,
        DatasetId::ObsSpitzer,
        DatasetId::ObsTemp,
    ];

    /// Dataset name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::GtsChkpZeon => "gts_chkp_zeon",
            DatasetId::GtsChkpZion => "gts_chkp_zion",
            DatasetId::GtsPhiL => "gts_phi_l",
            DatasetId::GtsPhiNl => "gts_phi_nl",
            DatasetId::FlashGamc => "flash_gamc",
            DatasetId::FlashVelx => "flash_velx",
            DatasetId::FlashVely => "flash_vely",
            DatasetId::MsgBt => "msg_bt",
            DatasetId::MsgLu => "msg_lu",
            DatasetId::MsgSp => "msg_sp",
            DatasetId::MsgSppm => "msg_sppm",
            DatasetId::MsgSweep3d => "msg_sweep3d",
            DatasetId::NumBrain => "num_brain",
            DatasetId::NumComet => "num_comet",
            DatasetId::NumControl => "num_control",
            DatasetId::NumPlasma => "num_plasma",
            DatasetId::ObsError => "obs_error",
            DatasetId::ObsInfo => "obs_info",
            DatasetId::ObsSpitzer => "obs_spitzer",
            DatasetId::ObsTemp => "obs_temp",
        }
    }

    /// Look up a dataset by its paper name.
    pub fn from_name(name: &str) -> Option<DatasetId> {
        DatasetId::ALL.iter().copied().find(|d| d.name() == name)
    }

    /// The generator recipe and published reference numbers.
    pub fn spec(self) -> DatasetSpec {
        spec::spec_for(self)
    }

    /// Generate `n` doubles of this dataset (deterministic per id).
    pub fn generate(self, n: usize) -> Vec<f64> {
        self.spec().generate(n)
    }

    /// Generate the dataset as raw little-endian bytes.
    pub fn generate_bytes(self, n: usize) -> Vec<u8> {
        let values = self.generate(n);
        let mut out = Vec::with_capacity(values.len() * 8);
        for v in &values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Generate `n` single-precision values (the same field demoted to f32 —
    /// the paper notes PRIMACY applies to other precisions; §IV-B).
    pub fn generate_f32(self, n: usize) -> Vec<f32> {
        self.generate(n).into_iter().map(|v| v as f32).collect()
    }

    /// Generate the single-precision dataset as raw little-endian bytes.
    pub fn generate_f32_bytes(self, n: usize) -> Vec<u8> {
        let values = self.generate_f32(n);
        let mut out = Vec::with_capacity(values.len() * 4);
        for v in &values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_datasets_with_unique_names() {
        assert_eq!(DatasetId::ALL.len(), 20);
        let mut names: Vec<&str> = DatasetId::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn from_name_roundtrips() {
        for d in DatasetId::ALL {
            assert_eq!(DatasetId::from_name(d.name()), Some(d));
        }
        assert_eq!(DatasetId::from_name("nope"), None);
    }

    #[test]
    fn generation_is_deterministic() {
        for d in [DatasetId::GtsPhiL, DatasetId::MsgSppm, DatasetId::ObsError] {
            let a = d.generate(4096);
            let b = d.generate(4096);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn different_datasets_differ() {
        let a = DatasetId::GtsPhiL.generate(1000);
        let b = DatasetId::GtsPhiNl.generate(1000);
        assert_ne!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn values_are_finite() {
        for d in DatasetId::ALL {
            let values = d.generate(2000);
            assert_eq!(values.len(), 2000);
            let non_finite = values.iter().filter(|v| !v.is_finite()).count();
            assert_eq!(non_finite, 0, "{d} produced non-finite values");
        }
    }

    #[test]
    fn f32_generation_matches_demoted_f64() {
        let d = DatasetId::FlashVelx;
        let f64s = d.generate(500);
        let f32s = d.generate_f32(500);
        assert_eq!(f32s.len(), 500);
        for (a, b) in f32s.iter().zip(&f64s) {
            assert_eq!(a.to_bits(), (*b as f32).to_bits());
        }
        let bytes = d.generate_f32_bytes(500);
        assert_eq!(bytes.len(), 2000);
        assert_eq!(&bytes[..4], &f32s[0].to_le_bytes());
    }

    #[test]
    fn bytes_are_le_encoding_of_values() {
        let d = DatasetId::NumComet;
        let values = d.generate(100);
        let bytes = d.generate_bytes(100);
        assert_eq!(bytes.len(), 800);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&bytes[i * 8..i * 8 + 8], &v.to_le_bytes());
        }
    }
}
