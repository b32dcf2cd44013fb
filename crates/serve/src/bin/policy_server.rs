//! Standalone policy-inference server.
//!
//! ```text
//! policy_server <checkpoint.ckpt> [bind-addr]
//! ```
//!
//! Loads a sealed `ctjam_dqn::checkpoint` agent checkpoint, serves its
//! greedy policy on `bind-addr` (default `127.0.0.1:0` — an ephemeral
//! loopback port), prints `LISTENING <addr>` once ready, and runs until
//! stdin reaches EOF or a `quit` line arrives, then drains gracefully
//! and prints the final `METRICS` JSON. Orchestrators (the serve
//! workloads of `benchmark/`, the chaos tests) parse the `LISTENING`
//! line for the resolved port and close stdin to stop the server.
//!
//! At most 1024 connections are open at once (each holds one thread);
//! a connection beyond that reads one `ServerBusy` error with id 0 and
//! is closed.
//!
//! Environment knobs (the numeric ones must be unsigned integers; any
//! other value exits with status 2 before the server starts):
//!
//! * `CTJAM_SERVE_MAX_BATCH` — micro-batch flush size (default 16)
//! * `CTJAM_SERVE_MAX_WAIT_US` — micro-batch flush deadline (default 200)
//! * `CTJAM_SERVE_QUEUE_CAP` — bounded queue capacity per worker shard
//!   (default 1024)
//! * `CTJAM_SERVE_WORKERS` — batch workers / shards (default 0 =
//!   `available_parallelism`); a `WORKERS <n>` line before `LISTENING`
//!   reports the resolved count
//! * `CTJAM_SERVE_MAX_QUEUE_DELAY_US` — queue-delay SLO: shed requests
//!   with `Overloaded` when a shard's estimated queue delay exceeds
//!   this many microseconds (unset = no shedding)
//! * `CTJAM_SERVE_TENANTS` — extra tenants as
//!   `id=path.ckpt;id=path.ckpt` (the positional checkpoint is always
//!   tenant 0, which v1 clients address implicitly)
//! * `CTJAM_SERVE_WATCH` — if set, hot-reload every tenant's
//!   checkpoint path on modification

use ctjam_dqn::policy::GreedyPolicy;
use ctjam_serve::server::{PolicyServer, ServerConfig};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// Reads an unsigned integer knob: `Ok(None)` when unset, an error
/// naming the variable when set to anything else.
fn env_uint<T: FromStr>(key: &str) -> Result<Option<T>, String> {
    let Some(raw) = std::env::var_os(key) else {
        return Ok(None);
    };
    match raw.to_str().map(str::parse) {
        Some(Ok(value)) => Ok(Some(value)),
        _ => Err(format!("{key}: {raw:?} is not an unsigned integer")),
    }
}

/// The [`ServerConfig`] the numeric knobs describe, defaults elsewhere.
fn server_config() -> Result<ServerConfig, String> {
    let defaults = ServerConfig::default();
    Ok(ServerConfig {
        max_batch: env_uint("CTJAM_SERVE_MAX_BATCH")?.unwrap_or(defaults.max_batch),
        max_wait: env_uint("CTJAM_SERVE_MAX_WAIT_US")?
            .map_or(defaults.max_wait, Duration::from_micros),
        queue_capacity: env_uint("CTJAM_SERVE_QUEUE_CAP")?.unwrap_or(defaults.queue_capacity),
        workers: env_uint("CTJAM_SERVE_WORKERS")?.unwrap_or(defaults.workers),
        max_queue_delay: env_uint("CTJAM_SERVE_MAX_QUEUE_DELAY_US")?.map(Duration::from_micros),
        ..defaults
    })
}

/// Parses `CTJAM_SERVE_TENANTS`: `id=path;id=path`, empty entries
/// ignored.
fn parse_tenants(spec: &str) -> Result<Vec<(u32, PathBuf)>, String> {
    let mut tenants = Vec::new();
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (id, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("bad tenant entry {entry:?}: want id=path"))?;
        let id: u32 = id
            .trim()
            .parse()
            .map_err(|_| format!("bad tenant id {id:?}"))?;
        tenants.push((id, PathBuf::from(path.trim())));
    }
    Ok(tenants)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(checkpoint) = args.next().map(PathBuf::from) else {
        eprintln!("usage: policy_server <checkpoint.ckpt> [bind-addr]");
        return ExitCode::from(2);
    };
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:0".to_string());
    let config = match server_config() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("policy_server: {e}");
            return ExitCode::from(2);
        }
    };

    let policy = match GreedyPolicy::load_checkpoint(&checkpoint) {
        Ok(policy) => policy,
        Err(e) => {
            eprintln!("policy_server: cannot load {}: {e}", checkpoint.display());
            return ExitCode::FAILURE;
        }
    };
    let tenants = match parse_tenants(&std::env::var("CTJAM_SERVE_TENANTS").unwrap_or_default()) {
        Ok(tenants) => tenants,
        Err(e) => {
            eprintln!("policy_server: CTJAM_SERVE_TENANTS: {e}");
            return ExitCode::from(2);
        }
    };
    let mut server = match PolicyServer::bind(addr.as_str(), policy, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("policy_server: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (id, path) in &tenants {
        let tenant_policy = match GreedyPolicy::load_checkpoint(path) {
            Ok(policy) => policy,
            Err(e) => {
                eprintln!(
                    "policy_server: cannot load tenant {id} from {}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = server.add_tenant(*id, tenant_policy) {
            eprintln!("policy_server: cannot register tenant {id}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if std::env::var("CTJAM_SERVE_WATCH").is_ok() {
        server.watch_checkpoint(checkpoint.clone());
        for (id, path) in &tenants {
            let _ = server.watch_tenant_checkpoint(*id, path.clone());
        }
    }

    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "WORKERS {}", server.worker_count());
    // The machine-readable readiness line orchestrators wait for.
    let _ = writeln!(stdout, "LISTENING {}", server.local_addr());
    let _ = stdout.flush();

    // Serve until the orchestrator closes stdin (or sends "quit").
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    let metrics = server.shutdown();
    let _ = writeln!(stdout, "METRICS {}", metrics.to_string_compact());
    let _ = writeln!(stdout, "SHUTDOWN_OK");
    let _ = stdout.flush();
    ExitCode::SUCCESS
}
