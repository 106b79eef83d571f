//! `primacy` — command-line front end for the PRIMACY compression pipeline.
//!
//! ```text
//! primacy compress   <input> <output> [--codec zlib|lzr|bwt] [--chunk-kb N]
//!                    [--row-linear] [--no-isobar] [--reuse-index T] [--threads N]
//! primacy decompress <input> <output>
//! primacy stats      <input>                 # analyze a raw f64 file
//! primacy gen        <dataset> <output> [--elems N]   # synthetic datasets
//! primacy bench      <input>                 # compare codecs on a file
//! primacy list                               # list synthetic datasets
//! ```

use primacy_bench::json::Value;
use primacy_codecs::CodecKind;
use primacy_core::analysis;
use primacy_core::format::ARCHIVE_MAGIC;
use primacy_core::{
    parse_flag, resolve_threads, ArchiveReader, ArchiveWriter, ElementReader, IndexPolicy,
    Linearization, PrimacyCompressor, PrimacyConfig, STAGES,
};
use primacy_datagen::DatasetId;
use primacy_trace as trace;
use primacy_trace::Collector;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  primacy compress <input> <output> [--codec zlib|lzr|bwt|fpc|fpz] \
         [--chunk-kb N] [--row-linear] [--no-isobar] [--reuse-index T] \
         [--threads N (0 = auto-detect)] [--trace]\n  \
         primacy decompress <input> <output> [--trace]\n  \
         primacy stats <input>\n  \
         primacy gen <dataset> <output> [--elems N]\n  \
         primacy bench <input>\n  \
         primacy archive <input> <output.prma> [compress flags] [--trace]\n    \
             (--threads N selects the overlapped writer; without it the bulk writer runs)\n  \
         primacy extract <input.prma> <output> [--start N --count N]\n  \
         primacy info <input.prma>\n  \
         primacy verify <input.prim|input.prma> [--trace]\n  \
         primacy cat <input.prma>\n  \
         primacy list"
    );
    ExitCode::from(2)
}

/// The `--trace` sink: one process-wide collector the pipeline's per-thread
/// aggregates merge into.
static TRACE_COLLECTOR: Collector = Collector::new();

/// Install the trace collector when `--trace` was passed. Returns whether
/// tracing is on.
fn setup_trace(args: &[String]) -> Result<bool, String> {
    if !args.iter().any(|a| a == "--trace") {
        return Ok(false);
    }
    trace::install(&TRACE_COLLECTOR).map_err(|e| e.to_string())?;
    Ok(true)
}

/// Print the `--trace` report: the human stage table, then the same
/// breakdown as one line of JSON (stage seconds, counters, wall seconds).
fn report_trace(wall: Duration) {
    trace::flush_thread();
    let agg = TRACE_COLLECTOR.snapshot();
    print!("{}", trace::render_table(&agg, &STAGES, wall));
    let stages = Value::object(
        STAGES
            .iter()
            .map(|&s| (s, Value::Number(agg.span_total(s).as_secs_f64()))),
    );
    let counters = Value::object(
        agg.counters
            .iter()
            .map(|(&k, &v)| (k, Value::Number(v as f64))),
    );
    let doc = Value::object([
        ("wall_s", Value::Number(wall.as_secs_f64())),
        ("stages", stages),
        ("counters", counters),
    ]);
    println!("{}", doc.to_json());
}

fn build_config(args: &[String]) -> Result<PrimacyConfig, String> {
    let mut cfg = PrimacyConfig::default();
    if let Some(codec) = args
        .iter()
        .position(|a| a == "--codec")
        .and_then(|i| args.get(i + 1))
    {
        cfg.codec = match codec.as_str() {
            "zlib" => CodecKind::Zlib,
            "lzr" => CodecKind::Lzr,
            "bwt" => CodecKind::Bwt,
            "fpc" => CodecKind::Fpc,
            "fpz" => CodecKind::Fpz,
            other => return Err(format!("unknown codec '{other}'")),
        };
    }
    if let Some(kb) = parse_flag::<usize>(args, "--chunk-kb") {
        cfg.chunk_bytes = kb * 1024;
    }
    if args.iter().any(|a| a == "--row-linear") {
        cfg.linearization = Linearization::Row;
    }
    if args.iter().any(|a| a == "--no-isobar") {
        cfg.isobar.enabled = false;
    }
    if let Some(t) = parse_flag::<f64>(args, "--reuse-index") {
        cfg.index_policy = IndexPolicy::Reuse {
            correlation_threshold: t,
        };
    }
    Ok(cfg)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "compress" => {
            let input = args.get(1).ok_or("missing input path")?;
            let output = args.get(2).ok_or("missing output path")?;
            let cfg = build_config(&args)?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let aligned = data.len() / cfg.element_size * cfg.element_size;
            if aligned != data.len() {
                return Err(format!(
                    "{input}: length {} is not a multiple of the element size {}",
                    data.len(),
                    cfg.element_size
                ));
            }
            let compressor = PrimacyCompressor::try_new(cfg).map_err(|e| e.to_string())?;
            let tracing = setup_trace(&args)?;
            let t0 = Instant::now();
            let (out, stats) = if let Some(threads) = parse_flag::<usize>(&args, "--threads") {
                let out = compressor
                    .compress_bytes_parallel(&data, resolve_threads(threads))
                    .map_err(|e| e.to_string())?;
                (out, None)
            } else {
                let (out, stats) = compressor
                    .compress_bytes_with_stats(&data)
                    .map_err(|e| e.to_string())?;
                (out, Some(stats))
            };
            let wall = t0.elapsed();
            let secs = wall.as_secs_f64();
            if tracing {
                report_trace(wall);
            }
            std::fs::write(output, &out).map_err(|e| format!("write {output}: {e}"))?;
            println!(
                "{} -> {} bytes (CR {:.3}) in {:.2}s ({:.1} MB/s)",
                data.len(),
                out.len(),
                data.len() as f64 / out.len() as f64,
                secs,
                data.len() as f64 / 1e6 / secs
            );
            if let Some(stats) = stats {
                println!(
                    "chunks: {} ({} own indexes), ISOBAR compressible fraction: {:.2}",
                    stats.chunks, stats.own_index_chunks, stats.isobar_compressible_fraction
                );
                let t = stats.timings;
                println!(
                    "stage times: split {:.0?} freq {:.0?} idmap {:.0?} linearize {:.0?} isobar {:.0?} codec {:.0?}",
                    t.split, t.frequency_analysis, t.id_mapping, t.linearization, t.isobar, t.codec
                );
            }
            Ok(())
        }
        "decompress" => {
            let input = args.get(1).ok_or("missing input path")?;
            let output = args.get(2).ok_or("missing output path")?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let compressor = PrimacyCompressor::new(PrimacyConfig::default());
            let tracing = setup_trace(&args)?;
            let t0 = Instant::now();
            let out = compressor
                .decompress_bytes(&data)
                .map_err(|e| e.to_string())?;
            let wall = t0.elapsed();
            let secs = wall.as_secs_f64();
            if tracing {
                report_trace(wall);
            }
            std::fs::write(output, &out).map_err(|e| format!("write {output}: {e}"))?;
            println!(
                "{} -> {} bytes in {:.2}s ({:.1} MB/s)",
                data.len(),
                out.len(),
                secs,
                out.len() as f64 / 1e6 / secs
            );
            Ok(())
        }
        "stats" => {
            let input = args.get(1).ok_or("missing input path")?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            if data.len() % 8 != 0 {
                return Err("stats expects a raw little-endian f64 file".into());
            }
            let values: Vec<f64> = data
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            println!("{}: {} doubles", input, values.len());
            println!(
                "distinct exponent byte-sequences: {} of 65536",
                analysis::unique_exponent_sequences(&values)
            );
            let p = analysis::bit_probability(&values);
            println!("bit-majority probability per byte (bit 0 = sign):");
            for byte in 0..8 {
                let mean: f64 = p[byte * 8..(byte + 1) * 8].iter().sum::<f64>() / 8.0;
                println!("  byte {byte}: {mean:.3}");
            }
            Ok(())
        }
        "gen" => {
            let name = args.get(1).ok_or("missing dataset name")?;
            let output = args.get(2).ok_or("missing output path")?;
            let elems = parse_flag::<usize>(&args, "--elems").unwrap_or(1 << 20);
            let id = DatasetId::from_name(name)
                .ok_or_else(|| format!("unknown dataset '{name}' (try `primacy list`)"))?;
            let bytes = id.generate_bytes(elems);
            std::fs::write(output, &bytes).map_err(|e| format!("write {output}: {e}"))?;
            println!("wrote {} doubles ({} bytes) of {id}", elems, bytes.len());
            Ok(())
        }
        "bench" => {
            let input = args.get(1).ok_or("missing input path")?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let aligned = &data[..data.len() / 8 * 8];
            println!(
                "{:<10} {:>9} {:>10} {:>10}",
                "method", "CR", "comp MB/s", "dec MB/s"
            );
            for kind in CodecKind::ALL {
                let codec = kind.build();
                let t0 = Instant::now();
                let comp = codec.compress(aligned).map_err(|e| e.to_string())?;
                let cs = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let back = codec.decompress(&comp).map_err(|e| e.to_string())?;
                let ds = t0.elapsed().as_secs_f64();
                assert_eq!(back, aligned);
                println!(
                    "{:<10} {:>9.3} {:>10.1} {:>10.1}",
                    kind.to_string(),
                    aligned.len() as f64 / comp.len() as f64,
                    aligned.len() as f64 / 1e6 / cs,
                    aligned.len() as f64 / 1e6 / ds
                );
            }
            let compressor = PrimacyCompressor::new(PrimacyConfig::default());
            let t0 = Instant::now();
            let comp = compressor
                .compress_bytes(aligned)
                .map_err(|e| e.to_string())?;
            let cs = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let back = compressor
                .decompress_bytes(&comp)
                .map_err(|e| e.to_string())?;
            let ds = t0.elapsed().as_secs_f64();
            assert_eq!(back, aligned);
            println!(
                "{:<10} {:>9.3} {:>10.1} {:>10.1}",
                "primacy",
                aligned.len() as f64 / comp.len() as f64,
                aligned.len() as f64 / 1e6 / cs,
                aligned.len() as f64 / 1e6 / ds
            );
            Ok(())
        }
        "archive" => {
            let input = args.get(1).ok_or("missing input path")?;
            let output = args.get(2).ok_or("missing output path")?;
            let cfg = build_config(&args)?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            if data.len() % cfg.element_size != 0 {
                return Err(format!(
                    "{input}: length {} is not a multiple of the element size {}",
                    data.len(),
                    cfg.element_size
                ));
            }
            // `--threads N` (0 = auto) selects the overlapped writer, the way
            // `compress --threads` selects the parallel compressor.
            let threads = parse_flag::<usize>(&args, "--threads").map(resolve_threads);
            let tracing = setup_trace(&args)?;
            let t0 = Instant::now();
            let mut w = match threads {
                Some(t) => ArchiveWriter::with_overlap(Vec::new(), cfg, t),
                None => ArchiveWriter::new(Vec::new(), cfg),
            }
            .map_err(|e| e.to_string())?;
            w.append(&data).map_err(|e| e.to_string())?;
            let archive = w.finish().map_err(|e| e.to_string())?;
            let wall = t0.elapsed();
            if tracing {
                report_trace(wall);
            }
            let secs = wall.as_secs_f64();
            std::fs::write(output, &archive).map_err(|e| format!("write {output}: {e}"))?;
            println!(
                "{} -> {} bytes (CR {:.3}) in {:.2}s ({:.1} MB/s, {}); seekable archive with chunk directory",
                data.len(),
                archive.len(),
                data.len() as f64 / archive.len() as f64,
                secs,
                data.len() as f64 / 1e6 / secs.max(1e-9),
                match threads {
                    Some(t) => format!("overlapped, {t} compress threads"),
                    None => "bulk-synchronous".to_string(),
                }
            );
            Ok(())
        }
        "extract" => {
            let input = args.get(1).ok_or("missing input path")?;
            let output = args.get(2).ok_or("missing output path")?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let r = ArchiveReader::open(&data).map_err(|e| e.to_string())?;
            let start = parse_flag::<u64>(&args, "--start").unwrap_or(0);
            let count = parse_flag::<usize>(&args, "--count")
                .unwrap_or((r.element_count() - start) as usize);
            let out = r.read_elements(start, count).map_err(|e| e.to_string())?;
            std::fs::write(output, &out).map_err(|e| format!("write {output}: {e}"))?;
            println!(
                "extracted elements {start}..{} ({} bytes)",
                start + count as u64,
                out.len()
            );
            Ok(())
        }
        "info" => {
            let input = args.get(1).ok_or("missing input path")?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let r = ArchiveReader::open(&data).map_err(|e| e.to_string())?;
            println!("{input}: PRIMACY archive");
            println!("  element size:  {} bytes", r.element_size());
            println!("  elements:      {}", r.element_count());
            println!("  chunks:        {}", r.chunk_count());
            println!(
                "  ratio:         {:.3}",
                (r.element_count() as f64 * r.element_size() as f64) / data.len() as f64
            );
            for i in 0..r.chunk_count().min(8) {
                let e = r.entry(i).expect("entry in range");
                println!(
                    "  chunk {i:>3}: offset {:>10}, {:>8} elements, crc {:08x}",
                    e.offset, e.elements, e.crc
                );
            }
            if r.chunk_count() > 8 {
                println!("  ... {} more chunks", r.chunk_count() - 8);
            }
            Ok(())
        }
        "cat" => {
            // Stream an archive's plaintext to stdout, one chunk in memory
            // at a time.
            let input = args.get(1).ok_or("missing input path")?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let r = ArchiveReader::open(&data).map_err(|e| e.to_string())?;
            let mut reader = ElementReader::new(&r);
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let n = std::io::copy(&mut reader, &mut lock).map_err(|e| e.to_string())?;
            eprintln!("{n} bytes written");
            Ok(())
        }
        "verify" => {
            let input = args.get(1).ok_or("missing input path")?;
            let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
            let tracing = setup_trace(&args)?;
            let t0 = Instant::now();
            let (bytes, kind) = if data.starts_with(ARCHIVE_MAGIC) {
                let r = ArchiveReader::open(&data).map_err(|e| e.to_string())?;
                (
                    r.read_all_parallel(resolve_threads(0))
                        .map_err(|e| e.to_string())?
                        .len(),
                    "archive",
                )
            } else {
                let c = PrimacyCompressor::new(PrimacyConfig::default());
                (
                    c.decompress_bytes(&data).map_err(|e| e.to_string())?.len(),
                    "stream",
                )
            };
            if tracing {
                report_trace(t0.elapsed());
            }
            println!(
                "{input}: OK ({kind}); {} compressed bytes -> {} plaintext bytes, all checksums verified in {:.2}s",
                data.len(),
                bytes,
                t0.elapsed().as_secs_f64()
            );
            Ok(())
        }
        "list" => {
            println!("synthetic datasets (stand-ins for the paper's Table III data):");
            for id in DatasetId::ALL {
                let p = id.spec().paper;
                println!(
                    "  {:<16} paper zlib CR {:.2}, paper PRIMACY CR {:.2}",
                    id.name(),
                    p.zlib_cr,
                    p.primacy_cr
                );
            }
            Ok(())
        }
        _ => {
            usage();
            Err(String::new())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn build_config_maps_flags() {
        let a = args(&[
            "compress",
            "in",
            "out",
            "--codec",
            "bwt",
            "--chunk-kb",
            "256",
            "--row-linear",
            "--no-isobar",
            "--reuse-index",
            "0.9",
        ]);
        let cfg = build_config(&a).unwrap();
        assert_eq!(cfg.codec, CodecKind::Bwt);
        assert_eq!(cfg.chunk_bytes, 256 * 1024);
        assert_eq!(cfg.linearization, Linearization::Row);
        assert!(!cfg.isobar.enabled);
        assert!(matches!(
            cfg.index_policy,
            IndexPolicy::Reuse { correlation_threshold } if (correlation_threshold - 0.9).abs() < 1e-12
        ));
    }

    #[test]
    fn build_config_defaults_when_no_flags() {
        let cfg = build_config(&args(&["compress", "in", "out"])).unwrap();
        assert_eq!(cfg, PrimacyConfig::default());
    }

    #[test]
    fn build_config_rejects_unknown_codec() {
        let r = build_config(&args(&["compress", "in", "out", "--codec", "lz4"]));
        assert!(r.is_err());
    }

    #[test]
    fn threads_zero_auto_detects() {
        // 0 must become the machine's parallelism (>= 1), never 0.
        let auto = resolve_threads(0);
        assert!(auto >= 1);
        let expected = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(auto, expected);
        // Explicit requests pass through untouched.
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert_eq!(resolve_threads(64), 64);
    }

    #[test]
    fn setup_trace_is_off_without_flag() {
        assert_eq!(setup_trace(&args(&["compress", "in", "out"])), Ok(false));
        assert!(!trace::enabled());
    }
}
