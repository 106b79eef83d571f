//! `primacy-serve` — run the multi-tenant compression service.
//!
//! ```text
//! primacy-serve [--addr HOST:PORT] [--workers N (0 = auto)]
//!               [--queue-depth N] [--request-timeout-ms N]
//!               [--read-timeout-ms N] [--max-frame-kb N]
//!               [--duration-ms N (0 = run until killed)]
//! ```
//!
//! On a fixed `--duration-ms` the server drains gracefully at the end and
//! prints the metrics table — which is how the test suite and CI use it;
//! with the default of 0 it serves until the process is killed.

use primacy_core::parse_flag;
use primacy_serve::{ServeConfig, Server};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: primacy-serve [--addr HOST:PORT] [--workers N (0 = auto)] \
             [--queue-depth N] [--request-timeout-ms N] [--read-timeout-ms N] \
             [--max-frame-kb N] [--duration-ms N (0 = run until killed)]"
        );
        return ExitCode::from(2);
    }

    let mut config = ServeConfig {
        addr: parse_flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:9209".to_string()),
        ..ServeConfig::default()
    };
    if let Some(workers) = parse_flag::<usize>(&args, "--workers") {
        config.workers = workers;
    }
    if let Some(depth) = parse_flag::<usize>(&args, "--queue-depth") {
        config.queue_depth = depth;
    }
    if let Some(ms) = parse_flag::<u64>(&args, "--request-timeout-ms") {
        config.request_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = parse_flag::<u64>(&args, "--read-timeout-ms") {
        config.read_timeout = Duration::from_millis(ms);
        config.write_timeout = Duration::from_millis(ms);
    }
    if let Some(kb) = parse_flag::<usize>(&args, "--max-frame-kb") {
        config.max_frame_bytes = kb.saturating_mul(1024);
    }
    let duration_ms = parse_flag::<u64>(&args, "--duration-ms").unwrap_or(0);

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("primacy-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("primacy-serve listening on {}", server.local_addr());

    if duration_ms == 0 {
        // Serve until the process is killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    let snapshot = server.shutdown();
    print!("{}", snapshot.render());
    ExitCode::SUCCESS
}
