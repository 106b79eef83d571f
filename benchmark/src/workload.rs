//! The named workloads and their seeded inputs.
//!
//! Every workload runs the same rounds — a checkpoint write, a full restart
//! read and a batch of range reads through the archive layer, then a
//! closed-loop and an open-loop slice against `primacy-serve` — on its own
//! data. The workloads differ in the data, the sink, and how a round's time
//! is split between the two halves.

use primacy_datagen::{DatasetId, Rng, SplitMix64};
use std::time::Duration;

pub enum Data {
    /// `elements` doubles of each dataset, appended one array after another.
    Structured(&'static [DatasetId], usize),
    /// This many seeded random bytes.
    Noise(usize),
}

pub struct Workload {
    pub name: &'static str,
    pub data: Data,
    /// Staging-link pacing of the checkpoint sink, bytes/s (None = memory
    /// speed).
    pub link_bps: Option<f64>,
    /// Closed-loop serve slice per round.
    pub closed: Duration,
    /// Open-loop serve slice per round.
    pub open: Duration,
}

/// 16 MiB of doubles: 5⅓ default chunks per dataset.
const ELEMS_16MIB: usize = 2 << 20;

pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ckpt-structured",
        data: Data::Structured(
            &[
                DatasetId::GtsPhiL,
                DatasetId::NumPlasma,
                DatasetId::ObsError,
            ],
            ELEMS_16MIB,
        ),
        link_bps: None,
        closed: Duration::from_millis(400),
        open: Duration::from_millis(1000),
    },
    Workload {
        name: "ckpt-noise-staged",
        data: Data::Noise(48 << 20),
        link_bps: Some(150e6),
        closed: Duration::from_millis(400),
        open: Duration::from_millis(1000),
    },
    Workload {
        name: "serve-small",
        data: Data::Structured(&[DatasetId::GtsChkpZeon], 3 << 19),
        link_bps: None,
        closed: Duration::from_millis(600),
        open: Duration::from_millis(1500),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Spread a user seed into an independent stream key.
pub fn mix(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The workload's checkpoint bytes and the byte length of each array the
/// checkpoint appends.
pub fn generate(data: &Data, seed: u64) -> (Vec<u8>, Vec<usize>) {
    match data {
        Data::Structured(ids, elements) => {
            let mut bytes = Vec::with_capacity(ids.len() * elements * 8);
            let mut parts = Vec::with_capacity(ids.len());
            for (k, id) in ids.iter().enumerate() {
                let mut spec = id.spec();
                spec.seed ^= mix(seed, k as u64 + 1);
                for v in spec.generate(*elements) {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                parts.push(elements * 8);
            }
            (bytes, parts)
        }
        Data::Noise(len) => {
            let mut bytes = vec![0u8; *len];
            Rng::seed_from_u64(mix(seed, 0x006e_6f69_7365)).fill_bytes(&mut bytes);
            (bytes, vec![*len])
        }
    }
}
