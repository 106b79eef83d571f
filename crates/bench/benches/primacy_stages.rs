//! Micro-benchmarks for the individual PRIMACY pipeline stages (Fig. 2
//! workflow): split, frequency analysis, ID mapping, linearization, ISOBAR
//! analysis, and the fused decode pass that inverts them all. Backs the
//! Tprec input of the performance model and shows that the preconditioner
//! itself is far faster than any codec.
//!
//! Runs on the in-tree harness (`primacy_bench::harness`).

use primacy_bench::harness::Group;
use primacy_core::config::IsobarConfig;
use primacy_core::format::Header;
use primacy_core::freq::FreqTable;
use primacy_core::idmap::IdMap;
use primacy_core::isobar;
use primacy_core::linearize::to_columns;
use primacy_core::reassemble::{reassemble_into, Output, Sections};
use primacy_core::split::split_hi_lo;
use primacy_core::PrimacyConfig;
use primacy_datagen::DatasetId;
use std::hint::black_box;

const CHUNK_ELEMS: usize = 3 * 1024 * 1024 / 8;

fn main() {
    let bytes = DatasetId::GtsPhiL.generate_bytes(CHUNK_ELEMS);
    let n = CHUNK_ELEMS;
    let (hi, lo) = split_hi_lo(&bytes, 8, 2).unwrap();
    let freq = FreqTable::from_hi_matrix(&hi, 2);
    let map = IdMap::from_freq(&freq, 2).unwrap();
    let mut encoded = hi.clone();
    map.encode_hi(&mut encoded).unwrap();
    let columns = to_columns(&encoded, n, 2);

    let group = Group::new("primacy_stages").throughput_bytes(bytes.len() as u64);

    group.bench("split_hi_lo", || {
        black_box(split_hi_lo(black_box(&bytes), 8, 2).unwrap())
    });
    group.bench("frequency_analysis", || {
        black_box(FreqTable::from_hi_matrix(black_box(&hi), 2))
    });
    group.bench("index_generation", || {
        black_box(IdMap::from_freq(black_box(&freq), 2).unwrap())
    });
    group.bench("id_encode", || {
        let mut data = hi.clone();
        map.encode_hi(&mut data).unwrap();
        black_box(data)
    });
    group.bench("column_linearize", || {
        black_box(to_columns(black_box(&encoded), n, 2))
    });
    {
        let cfg = IsobarConfig::default();
        group.bench("isobar_analyze", || {
            black_box(isobar::analyze(black_box(&lo), n, 6, &cfg))
        });
    }
    {
        let cfg = IsobarConfig::default();
        let report = isobar::analyze(&lo, n, 6, &cfg);
        group.bench("isobar_partition", || {
            black_box(isobar::partition(black_box(&lo), n, 6, report.mask))
        });
        // The whole decode-side inverse of the stages above, into a warm
        // output buffer: what a chunk decode spends outside the codec.
        let (compressible, raw) = isobar::partition(&lo, n, 6, report.mask);
        let header = Header::new(&PrimacyConfig::default(), n as u64);
        let sections = Sections {
            ids: &columns,
            mask: report.mask,
            compressible: &compressible,
            raw: &raw,
        };
        let mut out = vec![0u8; bytes.len()];
        group.bench("reassemble", || {
            reassemble_into(&header, &map, black_box(&sections), Output::Fill(&mut out)).unwrap();
            black_box(&out);
        });
    }
}
