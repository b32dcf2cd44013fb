//! Deterministic load generator for the `ctjam-serve` policy server.
//!
//! Drives a policy server over loopback with N pipelined client
//! threads (each keeps a window of requests in flight on one
//! connection) and seeded observation streams, across six modes:
//!
//! * `batched` — micro-batching at the default `max_batch`, one worker;
//! * `max_batch=1` — batching degraded off (the speedup baseline);
//! * `workers=2` / `workers=4` — the sharded multi-worker serve path
//!   (connections hash across per-worker batch queues);
//! * `multi-tenant` — two tenants behind one server, half the clients
//!   speaking v1 frames to the default tenant and half v2 frames to
//!   tenant 7, each checked against its *own* tenant's oracle;
//! * `slo` — a bounded queue-delay admission budget
//!   (`max_queue_delay`), where overload answers are typed
//!   `Overloaded` sheds instead of latency outliers.
//!
//! Observation streams and their greedy-action oracles are precomputed
//! before the timed window so client-side work stays off the critical
//! path. In every mode each served action is asserted **bit-exact**
//! against in-process `DqnAgent::act_greedy` — including at worker
//! counts 2 and 4, the wire-level sharding-equivalence check. The run
//! is summarized into `BENCH_serve.json` (throughput, p50/p95/p99
//! latency, mean batch occupancy, batching speedup, worker sweep,
//! multi-tenant and SLO shed measurements) in the `ctjam-bench/v1`
//! manifest schema — the same file `ci.sh` validates in quick mode and
//! EXPERIMENTS.md records from a full run.
//!
//! Server placement:
//!
//! * default — in-process [`PolicyServer`], metrics read directly;
//! * `CTJAM_SERVE_BIN=<path>` — spawn that `policy_server` binary on an
//!   ephemeral loopback port instead (the `ci.sh` serve-smoke stage
//!   does this so the standalone binary is exercised end to end); the
//!   checkpoints handed to the child are the ones saved from the agents
//!   used for the bit-exactness oracles, worker count and tenants ride
//!   the `CTJAM_SERVE_WORKERS` / `CTJAM_SERVE_TENANTS` env knobs, and
//!   the mean batch occupancy is parsed from the child's shutdown
//!   report.
//!
//! Knobs: `CTJAM_BENCH_QUICK` (small counts), `CTJAM_SERVE_CLIENTS`
//! (default 8), `CTJAM_SERVE_REQUESTS` (per client),
//! `CTJAM_SERVE_MAX_BATCH`, `CTJAM_SERVE_MAX_WAIT_US`,
//! `CTJAM_SERVE_WINDOW` (per-client pipeline depth, default 32),
//! `CTJAM_SERVE_SLO_US` (the slo mode's queue-delay budget).

use ctjam_bench::env_usize;
use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::checkpoint;
use ctjam_dqn::config::DqnConfig;
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_serve::protocol::{ErrorCode, Message, DEFAULT_TENANT};
use ctjam_serve::server::{PolicyServer, ServerConfig};
use ctjam_telemetry::{JsonValue, RunManifest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Base seed for the policy weights and every observation stream.
const SEED: u64 = 2026;

/// Schema tag checked by the `ci.sh` smoke stage.
const SCHEMA: &str = "ctjam-bench/v1";

/// One benchmarked server mode.
struct ModeResult {
    throughput_req_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_batch_occupancy: f64,
    requests: usize,
    sheds: usize,
}

/// Where the server under test lives.
enum Server {
    InProcess(PolicyServer),
    Child { child: Child, addr: SocketAddr },
}

impl Server {
    fn start(policy: GreedyPolicy, ckpt: &Path, spec: &ModeSpec) -> Server {
        match std::env::var("CTJAM_SERVE_BIN") {
            Ok(bin) => {
                let mut cmd = Command::new(bin);
                cmd.arg(ckpt)
                    .arg("127.0.0.1:0")
                    .env("CTJAM_SERVE_MAX_BATCH", spec.max_batch.to_string())
                    .env("CTJAM_SERVE_MAX_WAIT_US", spec.max_wait_us.to_string())
                    .env("CTJAM_SERVE_WORKERS", spec.workers.to_string());
                if let Some(us) = spec.max_queue_delay_us {
                    cmd.env("CTJAM_SERVE_MAX_QUEUE_DELAY_US", us.to_string());
                }
                if !spec.tenants.is_empty() {
                    let joined = spec
                        .tenants
                        .iter()
                        .map(|(id, path)| format!("{id}={}", path.display()))
                        .collect::<Vec<_>>()
                        .join(";");
                    cmd.env("CTJAM_SERVE_TENANTS", joined);
                }
                let mut child = cmd
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .expect("spawn CTJAM_SERVE_BIN");
                let stdout = child.stdout.as_mut().expect("child stdout");
                let mut reader = BufReader::new(stdout);
                // Before LISTENING the child reports its worker count
                // (`WORKERS <n>`).
                let addr = loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("readiness line");
                    let line = line.trim();
                    if let Some(addr) = line.strip_prefix("LISTENING ") {
                        break addr.parse().expect("parsable address");
                    } else if line.strip_prefix("WORKERS ").is_none() {
                        panic!("unexpected readiness line: {line}");
                    }
                };
                Server::Child { child, addr }
            }
            Err(_) => {
                let config = ServerConfig {
                    max_batch: spec.max_batch,
                    max_wait: Duration::from_micros(spec.max_wait_us),
                    workers: spec.workers,
                    max_queue_delay: spec.max_queue_delay_us.map(Duration::from_micros),
                    ..ServerConfig::default()
                };
                let server =
                    PolicyServer::bind("127.0.0.1:0", policy, config).expect("bind loopback");
                for (id, path) in &spec.tenants {
                    let policy = GreedyPolicy::load_checkpoint(path).expect("load tenant policy");
                    server.add_tenant(*id, policy).expect("register tenant");
                }
                Server::InProcess(server)
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Server::InProcess(server) => server.local_addr(),
            Server::Child { addr, .. } => *addr,
        }
    }

    /// Shuts the server down and returns its mean batch occupancy.
    fn finish(self) -> f64 {
        match self {
            Server::InProcess(server) => {
                let occupancy = server.mean_batch_occupancy();
                server.shutdown();
                occupancy
            }
            Server::Child { mut child, .. } => {
                drop(child.stdin.take()); // EOF → graceful shutdown
                let stdout = child.stdout.take().expect("child stdout");
                let mut occupancy = f64::NAN;
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if let Some(v) = line.strip_prefix("MEAN_BATCH_OCCUPANCY ") {
                        occupancy = v.trim().parse().unwrap_or(f64::NAN);
                    }
                }
                let status = child.wait().expect("reap child");
                assert!(status.success(), "policy_server exited with {status:?}");
                occupancy
            }
        }
    }
}

/// One client's seeded observation stream plus the oracle's answers,
/// generated *before* the timed run so the single-row `act_greedy`
/// oracle never competes with the server for CPU inside the
/// measurement window.
type Stream = Vec<(Vec<f64>, usize)>;

/// Precomputes `clients` seeded streams of `requests` observations and
/// their bit-exact `DqnAgent::act_greedy` answers. `salt` keeps the
/// streams of different oracles (the multi-tenant mode's second agent)
/// distinct.
fn precompute_streams(agent: &DqnAgent, clients: usize, requests: usize, salt: u64) -> Vec<Stream> {
    let input_size = agent.config().input_size();
    (0..clients)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(SEED + salt + t as u64);
            (0..requests)
                .map(|_| {
                    let mut observation = vec![0.0; input_size];
                    for v in &mut observation {
                        *v = rng.gen_range(-1.0..1.0);
                    }
                    let expected = agent.act_greedy(&observation);
                    (observation, expected)
                })
                .collect()
        })
        .collect()
}

/// Connects with retries (the child-process server needs a beat).
fn connect_retry(addr: SocketAddr, attempts: usize, delay: Duration) -> TcpStream {
    let mut last = None;
    for _ in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => last = Some(e),
        }
        thread::sleep(delay);
    }
    panic!("connect {addr}: {last:?}");
}

/// One pipelined client: keeps up to `window` requests in flight on a
/// single connection, matching replies to requests by id. Requests are
/// addressed to `tenant` (the default tenant rides the v1 encoding,
/// others the v2 tenant-prefixed one). Every action is asserted
/// bit-exact against the precomputed oracle. A typed `Overloaded`
/// error — the SLO mode's admission shed — retires its request without
/// a latency sample. Returns the send→reply latencies of the *answered*
/// requests in microseconds, and the shed count.
fn drive_client(
    addr: SocketAddr,
    tenant: u32,
    stream: &Stream,
    window: usize,
) -> (Vec<f64>, usize) {
    let tcp = connect_retry(addr, 50, Duration::from_millis(20));
    tcp.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(tcp.try_clone().expect("clone stream"));
    let mut writer = tcp;

    // Request ids are stream indices, so flat send-time/replied tables
    // are the whole in-flight bookkeeping.
    let epoch = Instant::now();
    let mut sent_at = vec![epoch; stream.len()];
    let mut replied = vec![false; stream.len()];
    let mut latencies_us = Vec::with_capacity(stream.len());
    let mut inflight = 0usize;
    let mut sendbuf: Vec<u8> = Vec::new();
    let mut next = 0usize;
    let mut done = 0usize;
    let mut sheds = 0usize;
    while done < stream.len() {
        // Refill the window in one burst: encode every free slot, then
        // a single write syscall for the lot.
        if inflight < window && next < stream.len() {
            sendbuf.clear();
            while inflight < window && next < stream.len() {
                Message::Observe {
                    id: next as u64,
                    tenant,
                    observation: stream[next].0.clone(),
                }
                .encode_into(&mut sendbuf);
                sent_at[next] = Instant::now();
                inflight += 1;
                next += 1;
            }
            writer.write_all(&sendbuf).expect("send burst");
            writer.flush().expect("flush burst");
        }
        // Drain replies: block for one, then keep going while complete
        // frames are already sitting in the read buffer.
        loop {
            let msg = Message::read_from(&mut reader)
                .expect("read reply")
                .expect("server closed mid-run");
            match msg {
                Message::Action { id, action } => {
                    let id = id as usize;
                    assert!(id < next && !replied[id], "reply to unknown id");
                    replied[id] = true;
                    latencies_us.push(sent_at[id].elapsed().as_secs_f64() * 1e6);
                    // The acceptance bar: every served action bit-exact
                    // against the in-process agent.
                    assert_eq!(
                        action as usize, stream[id].1,
                        "served action diverged from act_greedy"
                    );
                    inflight -= 1;
                    done += 1;
                }
                Message::Error {
                    id,
                    code: ErrorCode::Overloaded,
                } => {
                    let id = id as usize;
                    assert!(id < next && !replied[id], "shed for unknown id");
                    replied[id] = true;
                    sheds += 1;
                    inflight -= 1;
                    done += 1;
                }
                other => panic!("unexpected reply: {other:?}"),
            }
            if inflight == 0 || Message::decode(reader.buffer()).is_err() {
                break;
            }
        }
    }
    (latencies_us, sheds)
}

/// One server configuration to load-test.
struct ModeSpec {
    label: &'static str,
    max_batch: usize,
    max_wait_us: u64,
    workers: usize,
    max_queue_delay_us: Option<u64>,
    /// Extra tenants `(id, checkpoint)` registered beyond the default.
    tenants: Vec<(u32, PathBuf)>,
}

impl ModeSpec {
    fn new(label: &'static str, max_batch: usize, max_wait_us: u64) -> ModeSpec {
        ModeSpec {
            label,
            max_batch,
            max_wait_us,
            workers: 1,
            max_queue_delay_us: None,
            tenants: Vec::new(),
        }
    }
}

/// Runs pipelined client threads over `assignments` — one `(tenant,
/// stream)` per client — against one server mode; panics on any
/// non-bit-exact answer. Modes without an SLO budget must shed nothing.
fn run_mode(
    spec: &ModeSpec,
    policy: GreedyPolicy,
    assignments: &Arc<Vec<(u32, Stream)>>,
    ckpt: &Path,
    window: usize,
) -> ModeResult {
    let server = Server::start(policy, ckpt, spec);
    let label = spec.label;
    let addr = server.addr();
    let clients = assignments.len();

    let start = Instant::now();
    let mut workers = Vec::new();
    for t in 0..clients {
        let assignments = Arc::clone(assignments);
        workers.push(thread::spawn(move || {
            let (tenant, stream) = &assignments[t];
            drive_client(addr, *tenant, stream, window)
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    let mut sheds = 0usize;
    for w in workers {
        let (lat, shed) = w.join().expect("client thread panicked");
        latencies.extend(lat);
        sheds += shed;
    }
    let wall = start.elapsed().as_secs_f64();
    let occupancy = server.finish();
    assert!(
        spec.max_queue_delay_us.is_some() || sheds == 0,
        "{label}: {sheds} sheds without an SLO budget"
    );
    assert!(!latencies.is_empty(), "{label}: every request was shed");

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |q: f64| latencies[((q * latencies.len() as f64).ceil() as usize).max(1) - 1];
    let result = ModeResult {
        throughput_req_per_s: latencies.len() as f64 / wall,
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        mean_batch_occupancy: occupancy,
        requests: latencies.len(),
        sheds,
    };
    println!(
        "{label:>12}: {:>9.0} req/s | p50 {:>7.1} us | p95 {:>7.1} us | p99 {:>7.1} us | occupancy {:.2}{}",
        result.throughput_req_per_s, result.p50_us, result.p95_us, result.p99_us,
        result.mean_batch_occupancy,
        if spec.max_queue_delay_us.is_some() {
            format!(" | sheds {}", result.sheds)
        } else {
            String::new()
        },
    );
    result
}

fn main() {
    let quick = std::env::var("CTJAM_BENCH_QUICK").is_ok();
    let out_dir = std::env::var("CTJAM_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let out_dir = PathBuf::from(out_dir);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let clients = env_usize("CTJAM_SERVE_CLIENTS", 8);
    let requests = env_usize("CTJAM_SERVE_REQUESTS", if quick { 250 } else { 4_000 });
    let max_batch = env_usize("CTJAM_SERVE_MAX_BATCH", 32);
    let max_wait_us = env_usize("CTJAM_SERVE_MAX_WAIT_US", 200) as u64;
    let window = env_usize("CTJAM_SERVE_WINDOW", 32);
    let slo_us = env_usize("CTJAM_SERVE_SLO_US", 1_000) as u64;

    // Paper-shaped observation/action space, but wider hidden layers:
    // the serving bottleneck worth measuring is the forward pass, not
    // the loopback syscalls, and at (192, 192) it clearly is.
    let config = DqnConfig {
        hidden: (192, 192),
        ..DqnConfig::default()
    };
    // The forward-pass cost being benchmarked is weight-value
    // independent, so freshly initialized agents serve as well as
    // trained ones.
    let agent = Arc::new(DqnAgent::new(
        config.clone(),
        &mut StdRng::seed_from_u64(SEED),
    ));
    // The multi-tenant mode's second policy: same shape, independently
    // seeded weights, so a cross-tenant answer mixup cannot slip past
    // the per-tenant oracles.
    let agent_b = Arc::new(DqnAgent::new(
        config.clone(),
        &mut StdRng::seed_from_u64(SEED + 7),
    ));
    let pid = std::process::id();
    let ckpt = std::env::temp_dir().join(format!("ctjam_serve_bench_{pid}.ckpt"));
    let ckpt_b = std::env::temp_dir().join(format!("ctjam_serve_bench_{pid}_b.ckpt"));
    checkpoint::save_agent(&agent, &ckpt).expect("save benchmark checkpoint");
    checkpoint::save_agent(&agent_b, &ckpt_b).expect("save tenant checkpoint");
    let policy = || GreedyPolicy::from_agent(&agent);

    println!(
        "serve_bench: {clients} clients x {requests} requests (window {window}), net {:?}, \
         max_batch {max_batch} (deadline {max_wait_us} us), {threads} hw thread(s){}",
        config.hidden,
        if quick { " [quick]" } else { "" },
    );
    let streams = precompute_streams(&agent, clients, requests, 1000);
    let streams_b = precompute_streams(&agent_b, clients, requests, 2000);
    // Default-tenant assignment (every single-tenant mode) and the
    // split one (alternating clients on tenant 7, so the v1 and v2
    // encodings are exercised concurrently).
    let default_assign: Arc<Vec<(u32, Stream)>> = Arc::new(
        streams
            .iter()
            .map(|s| (DEFAULT_TENANT, s.clone()))
            .collect(),
    );
    let split_assign: Arc<Vec<(u32, Stream)>> = Arc::new(
        streams
            .iter()
            .zip(&streams_b)
            .enumerate()
            .map(|(t, (a, b))| {
                if t % 2 == 0 {
                    (DEFAULT_TENANT, a.clone())
                } else {
                    (7u32, b.clone())
                }
            })
            .collect(),
    );

    let batched = run_mode(
        &ModeSpec::new("batched", max_batch, max_wait_us),
        policy(),
        &default_assign,
        &ckpt,
        window,
    );
    let unbatched = run_mode(
        &ModeSpec::new("max_batch=1", 1, max_wait_us),
        policy(),
        &default_assign,
        &ckpt,
        window,
    );
    // The worker sweep: identical load at 2 and 4 shards. Every answer
    // stays oracle-checked, so this doubles as the sharding-equivalence
    // proof at the wire level.
    let workers2 = run_mode(
        &ModeSpec {
            workers: 2,
            ..ModeSpec::new("workers=2", max_batch, max_wait_us)
        },
        policy(),
        &default_assign,
        &ckpt,
        window,
    );
    let workers4 = run_mode(
        &ModeSpec {
            workers: 4,
            ..ModeSpec::new("workers=4", max_batch, max_wait_us)
        },
        policy(),
        &default_assign,
        &ckpt,
        window,
    );
    let multi = run_mode(
        &ModeSpec {
            workers: 2,
            tenants: vec![(7, ckpt_b.clone())],
            ..ModeSpec::new("multi-tenant", max_batch, max_wait_us)
        },
        policy(),
        &split_assign,
        &ckpt,
        window,
    );
    let slo = run_mode(
        &ModeSpec {
            max_queue_delay_us: Some(slo_us),
            ..ModeSpec::new("slo", max_batch, max_wait_us)
        },
        policy(),
        &default_assign,
        &ckpt,
        window,
    );
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&ckpt_b).ok();

    let speedup = batched.throughput_req_per_s / unbatched.throughput_req_per_s;
    println!("batching speedup: {speedup:.2}x");

    let slo_offered = slo.requests + slo.sheds;
    let slo_shed_rate = slo.sheds as f64 / slo_offered as f64;
    println!(
        "slo mode ({slo_us} us budget): {} / {slo_offered} shed ({:.4})",
        slo.sheds, slo_shed_rate,
    );

    let mut manifest = RunManifest::new("BENCH_serve", SEED, &format!("{config:?}"));
    manifest.push_extra("schema", SCHEMA);
    manifest.push_extra("target_arch", std::env::consts::ARCH);
    manifest.push_extra("target_cpu_features", target_cpu_features());
    manifest.push_extra("threads_available", threads as f64);
    manifest.push_extra("quick_mode", JsonValue::from(quick));
    manifest.push_extra(
        "server_mode",
        if std::env::var("CTJAM_SERVE_BIN").is_ok() {
            "external_binary"
        } else {
            "in_process"
        },
    );
    manifest.push_extra("client_threads", clients as f64);
    manifest.push_extra("requests_per_client", requests as f64);
    manifest.push_extra("pipeline_window", window as f64);
    manifest.push_extra("max_batch", max_batch as f64);
    manifest.push_extra("max_wait_us", max_wait_us as f64);
    manifest.push_extra(
        "served_requests",
        (batched.requests
            + unbatched.requests
            + workers2.requests
            + workers4.requests
            + multi.requests
            + slo.requests) as f64,
    );
    manifest.push_extra("batched_throughput_req_per_s", batched.throughput_req_per_s);
    manifest.push_extra("batched_latency_p50_us", batched.p50_us);
    manifest.push_extra("batched_latency_p95_us", batched.p95_us);
    manifest.push_extra("batched_latency_p99_us", batched.p99_us);
    manifest.push_extra("mean_batch_occupancy_x", batched.mean_batch_occupancy);
    manifest.push_extra(
        "unbatched_throughput_req_per_s",
        unbatched.throughput_req_per_s,
    );
    manifest.push_extra("unbatched_latency_p50_us", unbatched.p50_us);
    manifest.push_extra("unbatched_latency_p95_us", unbatched.p95_us);
    manifest.push_extra("unbatched_latency_p99_us", unbatched.p99_us);
    manifest.push_extra("batching_speedup_x", speedup);
    manifest.push_extra(
        "workers_2_throughput_req_per_s",
        workers2.throughput_req_per_s,
    );
    manifest.push_extra("workers_2_latency_p99_us", workers2.p99_us);
    manifest.push_extra(
        "workers_4_throughput_req_per_s",
        workers4.throughput_req_per_s,
    );
    manifest.push_extra("workers_4_latency_p99_us", workers4.p99_us);
    if threads == 1 {
        // One hardware thread: the sweep can only measure sharding
        // overhead, never scaling — say so, rather than letting flat
        // numbers read as a sharding defect.
        manifest.push_extra(
            "worker_scaling_note",
            "single hardware thread: worker sweep measures sharding overhead, not parallel speedup",
        );
    }
    manifest.push_extra(
        "multi_tenant_throughput_req_per_s",
        multi.throughput_req_per_s,
    );
    manifest.push_extra("multi_tenant_latency_p99_us", multi.p99_us);
    manifest.push_extra("multi_tenant_count", 2.0);
    manifest.push_extra("slo_max_queue_delay_us", slo_us as f64);
    manifest.push_extra("slo_throughput_req_per_s", slo.throughput_req_per_s);
    manifest.push_extra("slo_latency_p99_us", slo.p99_us);
    manifest.push_extra("slo_shed_count", slo.sheds as f64);
    manifest.push_extra("slo_shed_rate", slo_shed_rate);

    std::fs::create_dir_all(&out_dir).expect("create CTJAM_BENCH_DIR");
    let path = out_dir.join(format!("{}.json", manifest.name));
    std::fs::write(&path, manifest.to_json().to_string_pretty()).expect("write BENCH manifest");
    println!("(wrote {})", path.display());
    let _ = std::io::stdout().flush();
}

/// Compile-time SIMD features (same provenance note as `perf_report`).
fn target_cpu_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        feats.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        feats.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        feats.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        feats.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        feats.push("avx512f");
    }
    if cfg!(target_feature = "neon") {
        feats.push("neon");
    }
    if feats.is_empty() {
        "baseline".to_string()
    } else {
        feats.join("+")
    }
}
